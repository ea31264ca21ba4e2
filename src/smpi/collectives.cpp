#include "smpi/collectives.hpp"

#include <stdexcept>

namespace stgsim::smpi {

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kAllreduce: return "allreduce";
  }
  return "?";
}

const char* coll_algo_name(CollAlgo a) {
  switch (a) {
    case CollAlgo::kAuto: return "auto";
    case CollAlgo::kLinear: return "linear";
    case CollAlgo::kBinomial: return "binomial";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kDissemination: return "dissemination";
  }
  return "?";
}

namespace {

bool op_supports(CollOp op, CollAlgo a) {
  if (a == CollAlgo::kAuto || a == CollAlgo::kLinear) return true;
  switch (op) {
    case CollOp::kBarrier: return a == CollAlgo::kDissemination;
    case CollOp::kBcast:
    case CollOp::kReduce:
    case CollOp::kAllreduce:
      return a == CollAlgo::kBinomial || a == CollAlgo::kRing;
  }
  return false;
}

constexpr CollAlgo kAllAlgos[] = {
    CollAlgo::kAuto, CollAlgo::kLinear,        CollAlgo::kBinomial,
    CollAlgo::kRing, CollAlgo::kDissemination,
};

}  // namespace

std::string coll_algo_choices(CollOp op) {
  std::string out;
  for (CollAlgo a : kAllAlgos) {
    if (!op_supports(op, a)) continue;
    if (!out.empty()) out += ", ";
    out += coll_algo_name(a);
  }
  return out;
}

CollAlgo parse_coll_algo(CollOp op, const std::string& name) {
  for (CollAlgo a : kAllAlgos) {
    if (name == coll_algo_name(a)) {
      if (!op_supports(op, a)) {
        throw std::runtime_error(std::string(coll_op_name(op)) +
                                 " does not support the '" + name +
                                 "' algorithm (accepted: " +
                                 coll_algo_choices(op) + ")");
      }
      return a;
    }
  }
  throw std::runtime_error("unknown collective algorithm '" + name +
                           "' for " + coll_op_name(op) +
                           " (accepted: " + coll_algo_choices(op) + ")");
}

CollAlgo& coll_algo_field(CollectiveConfig& cfg, CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return cfg.barrier;
    case CollOp::kBcast: return cfg.bcast;
    case CollOp::kReduce: return cfg.reduce;
    case CollOp::kAllreduce: return cfg.allreduce;
  }
  return cfg.barrier;  // unreachable
}

CollAlgo resolve_coll_algo(CollOp op, CollAlgo configured, std::size_t bytes,
                           std::size_t ring_threshold) {
  if (configured != CollAlgo::kAuto) return configured;
  switch (op) {
    case CollOp::kBarrier: return CollAlgo::kDissemination;
    case CollOp::kBcast:
    case CollOp::kReduce:
    case CollOp::kAllreduce:
      return bytes >= ring_threshold ? CollAlgo::kRing : CollAlgo::kBinomial;
  }
  return CollAlgo::kBinomial;
}

}  // namespace stgsim::smpi
