#include "harness/machines.hpp"

#include <functional>
#include <stdexcept>

#include "support/json.hpp"
#include "support/numparse.hpp"

namespace stgsim::harness {

namespace {

/// One overridable field: how to read it from a spec value and how to
/// render it when it differs from the base machine. Declared in canonical
/// order — machine_spec_string emits overrides in this order.
struct Field {
  const char* key;
  const char* description;
  std::function<void(MachineSpec*, double)> apply;
  std::function<double(const MachineSpec&)> get;
};

const std::vector<Field>& fields() {
  static const std::vector<Field> f = {
      {"latency_us", "wire latency (microseconds)",
       [](MachineSpec* m, double v) { m->net.latency = vtime_from_us(v); },
       [](const MachineSpec& m) { return vtime_to_us(m.net.latency); }},
      {"bw", "sustained bandwidth (bytes/sec)",
       [](MachineSpec* m, double v) { m->net.bytes_per_sec = v; },
       [](const MachineSpec& m) { return m.net.bytes_per_sec; }},
      {"send_overhead_us", "sender CPU cost per message (microseconds)",
       [](MachineSpec* m, double v) { m->net.send_overhead = vtime_from_us(v); },
       [](const MachineSpec& m) { return vtime_to_us(m.net.send_overhead); }},
      {"recv_overhead_us", "receiver CPU cost per message (microseconds)",
       [](MachineSpec* m, double v) { m->net.recv_overhead = vtime_from_us(v); },
       [](const MachineSpec& m) { return vtime_to_us(m.net.recv_overhead); }},
      {"eager_threshold", "eager/rendezvous protocol switch (bytes)",
       [](MachineSpec* m, double v) {
         if (v < 0 || v != static_cast<double>(static_cast<std::size_t>(v))) {
           throw std::runtime_error("eager_threshold must be a whole byte count");
         }
         m->net.eager_threshold = static_cast<std::size_t>(v);
       },
       [](const MachineSpec& m) {
         return static_cast<double>(m.net.eager_threshold);
       }},
      {"flop_time_ns", "cost of one operation unit (nanoseconds)",
       [](MachineSpec* m, double v) { m->compute.flop_time_ns = v; },
       [](const MachineSpec& m) { return m.compute.flop_time_ns; }},
      {"cache_bytes", "effective cache capacity (bytes)",
       [](MachineSpec* m, double v) { m->compute.cache_bytes = v; },
       [](const MachineSpec& m) { return m.compute.cache_bytes; }},
      {"cache_penalty", "max slowdown factor when ws >> cache",
       [](MachineSpec* m, double v) { m->compute.cache_penalty = v; },
       [](const MachineSpec& m) { return m.compute.cache_penalty; }},
      {"net_jitter", "emulation-only wire noise stddev (fraction)",
       [](MachineSpec* m, double v) { m->emulation_net_jitter = v; },
       [](const MachineSpec& m) { return m.emulation_net_jitter; }},
      {"compute_jitter", "emulation-only per-task noise stddev (fraction)",
       [](MachineSpec* m, double v) { m->emulation_compute_jitter = v; },
       [](const MachineSpec& m) { return m.emulation_compute_jitter; }},
      {"contention", "emulation-only NIC serialization (0 or 1)",
       [](MachineSpec* m, double v) {
         if (v != 0.0 && v != 1.0) {
           throw std::runtime_error("contention must be 0 or 1");
         }
         m->emulation_contention = v != 0.0;
       },
       [](const MachineSpec& m) {
         return m.emulation_contention ? 1.0 : 0.0;
       }},
      {"hop_us", "per-switch-hop latency beyond the first link (microseconds)",
       [](MachineSpec* m, double v) {
         m->net.platform.hop_latency = vtime_from_us(v);
       },
       [](const MachineSpec& m) {
         return vtime_to_us(m.net.platform.hop_latency);
       }},
      {"radix", "fat-tree switch radix (even, >= 2)",
       [](MachineSpec* m, double v) {
         if (v < 2 || v != static_cast<double>(static_cast<int>(v))) {
           throw std::runtime_error("radix must be a whole number >= 2");
         }
         m->net.platform.fattree_radix = static_cast<int>(v);
       },
       [](const MachineSpec& m) {
         return static_cast<double>(m.net.platform.fattree_radix);
       }},
      {"df_routers", "dragonfly routers per group",
       [](MachineSpec* m, double v) {
         if (v < 1 || v != static_cast<double>(static_cast<int>(v))) {
           throw std::runtime_error("df_routers must be a whole number >= 1");
         }
         m->net.platform.df_routers = static_cast<int>(v);
       },
       [](const MachineSpec& m) {
         return static_cast<double>(m.net.platform.df_routers);
       }},
      {"df_hosts", "dragonfly hosts per router",
       [](MachineSpec* m, double v) {
         if (v < 1 || v != static_cast<double>(static_cast<int>(v))) {
           throw std::runtime_error("df_hosts must be a whole number >= 1");
         }
         m->net.platform.df_hosts = static_cast<int>(v);
       },
       [](const MachineSpec& m) {
         return static_cast<double>(m.net.platform.df_hosts);
       }},
      {"coll_ring_threshold",
       "auto collective algo: binomial below, ring at/above (bytes)",
       [](MachineSpec* m, double v) {
         if (v < 0 || v != static_cast<double>(static_cast<std::size_t>(v))) {
           throw std::runtime_error(
               "coll_ring_threshold must be a whole byte count");
         }
         m->coll.ring_threshold = static_cast<std::size_t>(v);
       },
       [](const MachineSpec& m) {
         return static_cast<double>(m.coll.ring_threshold);
       }},
  };
  return f;
}

/// One overridable string-valued field (topology / algorithm names), in
/// canonical order after the numeric fields.
struct StrField {
  std::string key;
  std::string description;
  std::function<void(MachineSpec*, const std::string&)> apply;
  std::function<std::string(const MachineSpec&)> get;
};

std::vector<int> parse_torus_dims(const std::string& value) {
  if (value == "auto") return {};
  std::vector<int> dims;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const auto x = value.find('x', pos);
    const std::string part =
        value.substr(pos, x == std::string::npos ? std::string::npos
                                                 : x - pos);
    long long n = 0;
    if (support::parse_i64(part, &n) != support::ParseNumStatus::kOk ||
        n < 1 || n > 1 << 20) {
      throw std::runtime_error(
          "torus_dims: expected 'auto' or positive extents like '4x4', got '" +
          value + "'");
    }
    dims.push_back(static_cast<int>(n));
    if (x == std::string::npos) break;
    pos = x + 1;
  }
  return dims;
}

std::string torus_dims_string(const std::vector<int>& dims) {
  if (dims.empty()) return "auto";
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i != 0) out += "x";
    out += std::to_string(dims[i]);
  }
  return out;
}

StrField coll_algo_str_field(const char* key, smpi::CollOp op) {
  // Descriptions enumerate the accepted names so the unknown-key error and
  // --list-machines output double as documentation.
  return {key,
          std::string(smpi::coll_op_name(op)) + " algorithm (" +
              smpi::coll_algo_choices(op) + ")",
          [op](MachineSpec* m, const std::string& v) {
            smpi::coll_algo_field(m->coll, op) = smpi::parse_coll_algo(op, v);
          },
          [op](const MachineSpec& m) {
            auto cfg = m.coll;
            return std::string(
                smpi::coll_algo_name(smpi::coll_algo_field(cfg, op)));
          }};
}

const std::vector<StrField>& str_fields() {
  static const std::vector<StrField> f = {
      {"topo", "platform topology (flat, torus, fattree, dragonfly)",
       [](MachineSpec* m, const std::string& v) {
         m->net.platform.topo = net::parse_topology(v);
       },
       [](const MachineSpec& m) {
         return std::string(net::topology_name(m.net.platform.topo));
       }},
      {"torus_dims", "torus extents ('4x4'; 'auto' = near-square 2D)",
       [](MachineSpec* m, const std::string& v) {
         m->net.platform.torus_dims = parse_torus_dims(v);
       },
       [](const MachineSpec& m) {
         return torus_dims_string(m.net.platform.torus_dims);
       }},
      coll_algo_str_field("algo.barrier", smpi::CollOp::kBarrier),
      coll_algo_str_field("algo.bcast", smpi::CollOp::kBcast),
      coll_algo_str_field("algo.reduce", smpi::CollOp::kReduce),
      coll_algo_str_field("algo.allreduce", smpi::CollOp::kAllreduce),
  };
  return f;
}

std::string known_keys() {
  std::string out;
  for (const auto& f : fields()) {
    if (!out.empty()) out += ", ";
    out += f.key;
  }
  for (const auto& f : str_fields()) {
    if (!out.empty()) out += ", ";
    out += f.key;
  }
  return out;
}

}  // namespace

std::vector<std::string> machine_names() { return {"ibm_sp", "origin2000"}; }

MachineSpec base_machine(const std::string& key) {
  if (key == "ibm_sp" || key == "sp") return ibm_sp_machine();
  if (key == "origin2000") return origin2000_machine();
  std::string known;
  for (const auto& n : machine_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::runtime_error("unknown machine '" + key +
                           "' (registered: " + known + ")");
}

const std::vector<std::pair<std::string, std::string>>&
machine_override_keys() {
  static const std::vector<std::pair<std::string, std::string>> keys = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& f : fields()) out.emplace_back(f.key, f.description);
    for (const auto& f : str_fields()) out.emplace_back(f.key, f.description);
    return out;
  }();
  return keys;
}

MachineSpec parse_machine_spec(const std::string& spec) {
  const auto bracket = spec.find('[');
  if (bracket == std::string::npos) return base_machine(spec);
  if (spec.back() != ']') {
    throw std::runtime_error("malformed machine spec '" + spec +
                             "': missing closing ']'");
  }
  MachineSpec m = base_machine(spec.substr(0, bracket));
  const std::string body =
      spec.substr(bracket + 1, spec.size() - bracket - 2);
  if (body.empty()) return m;

  // Tolerates whitespace around items ("a=1, b=2") — spec strings written
  // by hand in JSON scenario files commonly space after commas.
  auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t");
    if (b == std::string::npos) return std::string();
    return s.substr(b, s.find_last_not_of(" \t") - b + 1);
  };
  std::size_t pos = 0;
  bool overridden = false;
  while (pos <= body.size()) {
    const auto comma = body.find(',', pos);
    const std::string item =
        trim(body.substr(pos, comma == std::string::npos ? std::string::npos
                                                         : comma - pos));
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("malformed machine override '" + item +
                               "' (expected key=value)");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const Field* field = nullptr;
    for (const auto& f : fields()) {
      if (key == f.key) { field = &f; break; }
    }
    const StrField* sfield = nullptr;
    for (const auto& f : str_fields()) {
      if (key == f.key) { sfield = &f; break; }
    }
    if (field == nullptr && sfield == nullptr) {
      throw std::runtime_error("machine '" + m.key +
                               "' has no overridable field '" + key +
                               "' (accepted: " + known_keys() + ")");
    }
    if (field != nullptr) {
      double v = 0.0;
      const auto st = support::parse_f64(value, &v);
      if (st != support::ParseNumStatus::kOk) {
        throw std::runtime_error(
            "machine override '" + key + "': " +
            support::parse_num_problem(st, "expected a number") + ", got '" +
            value + "'");
      }
      field->apply(&m, v);
    } else {
      sfield->apply(&m, value);
    }
    overridden = true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (overridden) m.name += " [custom]";
  return m;
}

std::string machine_spec_string(const MachineSpec& m) {
  const MachineSpec base = base_machine(m.key);
  std::string overrides;
  for (const auto& f : fields()) {
    const double v = f.get(m);
    if (v == f.get(base)) continue;
    if (!overrides.empty()) overrides += ",";
    overrides += std::string(f.key) + "=" + json::format_double(v);
  }
  for (const auto& f : str_fields()) {
    const std::string v = f.get(m);
    if (v == f.get(base)) continue;
    if (!overrides.empty()) overrides += ",";
    overrides += f.key + "=" + v;
  }
  if (overrides.empty()) return m.key;
  return m.key + "[" + overrides + "]";
}

}  // namespace stgsim::harness
