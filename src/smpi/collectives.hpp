// Collective algorithm selection.
//
// Real MPI libraries ship several algorithms per collective and pick one
// from a selection table keyed on message size and communicator size;
// which algorithm runs dominates collective cost at scale far more than
// the point-to-point constants do. This header is that table's
// configuration surface: per-operation algorithm choices (kAuto defers to
// the size-based default) carried from machine spec strings
// ("ibm_sp[algo.bcast=ring]") through World::Options into Comm, where
// every algorithm is built from the same point-to-point sends over the
// platform — costs emerge from the network model, never from closed
// forms.
//
//   barrier    auto | linear | dissemination
//   bcast      auto | linear | binomial | ring
//   reduce     auto | linear | binomial | ring
//   allreduce  auto | linear | binomial | ring
//
// kAuto resolves to the tree algorithms below `ring_threshold` bytes and
// the bandwidth-optimal ring algorithms at or above it (dissemination for
// barrier) — mirroring the latency-vs-bandwidth
// switch in MPICH/OpenMPI selection tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace stgsim::smpi {

enum class CollOp : std::uint8_t {
  kBarrier, kBcast, kReduce, kAllreduce
};

enum class CollAlgo : std::uint8_t {
  kAuto, kLinear, kBinomial, kRing, kDissemination
};

const char* coll_op_name(CollOp op);
const char* coll_algo_name(CollAlgo a);

/// The algorithm names `op` accepts, comma-separated (errors and docs).
std::string coll_algo_choices(CollOp op);

/// Parses an algorithm name for `op`, validating against what the op
/// supports; throws std::runtime_error listing the accepted names.
CollAlgo parse_coll_algo(CollOp op, const std::string& name);

/// Per-run collective configuration (part of the machine description).
struct CollectiveConfig {
  CollAlgo barrier = CollAlgo::kAuto;
  CollAlgo bcast = CollAlgo::kAuto;
  CollAlgo reduce = CollAlgo::kAuto;
  CollAlgo allreduce = CollAlgo::kAuto;

  /// kAuto switches bcast/reduce/allreduce from binomial to ring at this
  /// payload size (bytes). High enough that the latency-bound collectives
  /// the shipped apps issue (8-byte reductions and parameter broadcasts)
  /// keep their binomial trees — and their pre-platform digests.
  std::size_t ring_threshold = 64 * 1024;

  bool operator==(const CollectiveConfig&) const = default;
};

/// Mutable access to the per-op field (machine spec-string plumbing).
CollAlgo& coll_algo_field(CollectiveConfig& cfg, CollOp op);

/// Resolves kAuto to a concrete algorithm for a `bytes`-sized payload.
CollAlgo resolve_coll_algo(CollOp op, CollAlgo configured, std::size_t bytes,
                           std::size_t ring_threshold);

}  // namespace stgsim::smpi
