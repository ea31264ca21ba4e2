// Communication machine models.
//
// MPI-Sim traps communication calls and predicts their cost on the target
// architecture with a per-machine model (paper §2.1). We use a LogGP-style
// parameterization: software send/receive overheads, wire latency, and
// bandwidth, plus an eager/rendezvous protocol threshold like the IBM and
// SGI MPI implementations the paper validated against. On top of the
// single-link constants sits a platform topology (net::Platform): arrival()
// routes src -> dst over the platform's deterministic path and charges the
// routed latency, so a fat-tree or torus machine prices distance while the
// flat preset reproduces the legacy single-hop closed form bit-for-bit.
//
// The same parameter set drives two fidelities:
//   * simulation (DE/AM): contention-free, noise-free — the routed path
//     cost is a pure function of (src, dst), which keeps digests
//     bit-identical across the sequential and threaded schedulers;
//   * emulation ("direct measurement" stand-in): per-link serialization
//     along the routed path (per-source NIC on flat) and seeded
//     multiplicative jitter, so the emulated machine differs from the
//     simulator's model the way real hardware differed from it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/topology.hpp"
#include "support/rng.hpp"
#include "support/vtime.hpp"

namespace stgsim::net {

struct NetworkParams {
  VTime latency = vtime_from_us(25);      ///< alpha: end-to-end wire latency
  double bytes_per_sec = 90e6;            ///< beta^-1: sustained bandwidth
  VTime send_overhead = vtime_from_us(6); ///< o_s: sender CPU cost per msg
  VTime recv_overhead = vtime_from_us(6); ///< o_r: receiver CPU cost per msg
  std::size_t eager_threshold = 16 * 1024; ///< bytes; above this: rendezvous

  /// Interconnect topology; the default (flat) is the legacy model.
  PlatformParams platform;

  // Emulation-only switches ("the real machine" differs from the model):
  bool model_contention = false;  ///< serialize each link along the path
  double jitter_frac = 0.0;       ///< stddev of multiplicative wire noise
};

/// IBM SP (thin nodes, SP switch) — the paper's distributed-memory target.
NetworkParams ibm_sp();

/// SGI Origin 2000 running MPI over shared memory — the SAMPLE target.
NetworkParams origin2000();

/// What a transfer carries, for fault purposes: injected message loss
/// applies only to eager payloads — control traffic (RTS/CTS) and
/// rendezvous bulk data are modeled as reliable.
enum class TransferKind { kEager, kControl, kRendezvousData };

/// Per-link utilization counters (observability output).
struct LinkUse {
  std::string name;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Per-world communication state: the routed platform, per-link occupancy
/// (emulation contention) and optional per-link utilization counters.
class Network {
 public:
  Network(const NetworkParams& params, int nranks);

  const NetworkParams& params() const { return params_; }
  const Platform& platform() const { return platform_; }

  /// Installs a fault plan (validated; the Network keeps its own copy).
  /// Degradation factors apply to every subsequent arrival() call. Checks
  /// at install time that the plan cannot lower the advertised latency
  /// floor (latency factors >= 1 by FaultPlan::validate()).
  void set_fault_plan(const fault::FaultPlan& plan);

  const fault::FaultPlan& fault_plan() const { return faults_; }

  /// Pure single-link wire time for `bytes` (no overheads, no routing):
  /// latency + bytes/bandwidth. Used by compute-side estimators that want
  /// the base link constants rather than a routed pair cost.
  VTime wire_time(std::size_t bytes) const;

  /// Arrival time at `dst` for a message whose injection becomes ready at
  /// `ready` on `src`. Charges the platform's routed path latency, then
  /// applies per-link contention and jitter when enabled, plus any
  /// installed fault plan: link latency/bandwidth degradation, sender NIC
  /// brownouts, and (for kEager transfers) seeded drop + retransmission.
  /// All random draws come from `rng`, which must be the sender's stream so
  /// runs stay deterministic across schedulers.
  VTime arrival(int src, int dst, VTime ready, std::size_t bytes, Rng& rng,
                TransferKind kind = TransferKind::kEager);

  /// Lower bound on any future message's flight time (wildcard safety),
  /// hop- and jitter-aware by construction: the platform's minimum routed
  /// path latency, halved when emulation jitter is enabled (the jitter
  /// clamp floors each flight at half its path latency). Faults only ever
  /// slow traffic (latency factors >= 1, bandwidth and injection factors
  /// <= 1), so this stays valid under any plan; the constructor runs
  /// Platform::verify_floor() so no configuration can advertise a floor a
  /// routed pair undercuts.
  VTime min_latency() const { return min_latency_; }

  bool uses_rendezvous(std::size_t bytes) const {
    return bytes > params_.eager_threshold;
  }

  // -- Per-link observability ----------------------------------------------
  // Counters use relaxed atomics: threaded workers call arrival()
  // concurrently, and sums commute, so totals stay deterministic.

  /// Enables hop-count and per-link counters (disabled by default; the
  /// stats path costs a route materialization per message). Call before
  /// the run starts.
  void enable_link_stats();

  /// Messages by routed hop count; bucket k = messages whose path had k
  /// hops. Empty when stats are disabled or nothing was sent.
  std::vector<std::uint64_t> hop_hist() const;

  /// Per-link {messages, bytes} for every link with traffic, in link-id
  /// order. Empty when stats are disabled.
  std::vector<LinkUse> link_usage() const;

 private:
  NetworkParams params_;
  Platform platform_;
  VTime min_latency_ = 0;
  fault::FaultPlan faults_;
  bool has_faults_ = false;

  std::vector<VTime> link_free_;        ///< emulation contention occupancy
  std::vector<int> contention_path_;    ///< scratch (sequential-only path)

  bool link_stats_enabled_ = false;
  std::vector<std::atomic<std::uint64_t>> hop_hist_;
  std::vector<std::atomic<std::uint64_t>> link_msgs_;
  std::vector<std::atomic<std::uint64_t>> link_bytes_;
};

}  // namespace stgsim::net
