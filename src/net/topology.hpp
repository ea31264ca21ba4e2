// Platform topology layer: the machine's interconnect as a graph.
//
// The LogGP parameters in NetworkParams describe a single link; real
// machines route messages over a topology, and at scale the dominant
// prediction error comes from path length and per-link contention, not
// from the single-hop constants (ROADMAP; SimGrid's validated piecewise
// models make the same argument). A Platform turns (src, dst) into a
// deterministic routed path:
//
//   * flat      — every pair is one direct hop (the legacy model; the
//                 routed cost reproduces the old closed form bit-for-bit);
//   * torus     — k-ary n-cube, dimension-order routing over per-node
//                 directional links;
//   * fattree   — two-level fat-tree (leaf + spine), destination-mod
//                 spine selection;
//   * dragonfly — groups of routers with all-to-all global links,
//                 minimal local-global-local routing.
//
// A path's cost is closed-form — base end-to-end latency for the first
// hop plus `hop_latency` per additional switch traversal — so simulation
// fidelity stays a pure function of (src, dst): no shared state, which is
// what keeps digests bit-identical across the sequential and threaded
// schedulers. Stateful per-link occupancy (contention) and per-link
// utilization counters use the materialized link ids and are confined to
// emulation / observability, where ordering either is sequential or only
// feeds commutative sums.
//
// The minimum path latency over all pairs is computed at build time and
// is the wildcard-parking floor; verify_floor()
// asserts no pair can undercut it. Self-delivery (src == dst) is charged
// exactly that minimum path — loopback through the nearest switch level —
// so the floor stays sound by construction even for self-sends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/vtime.hpp"

namespace stgsim::net {

enum class Topology : std::uint8_t { kFlat, kTorus, kFatTree, kDragonfly };

const char* topology_name(Topology t);
/// Parses "flat" / "torus" / "fattree" / "dragonfly"; throws
/// std::runtime_error listing the accepted names otherwise.
Topology parse_topology(const std::string& name);

/// Topology shape parameters. The per-hop constants live here; the
/// single-link LogGP constants stay in NetworkParams, so a flat platform
/// is exactly the legacy model.
struct PlatformParams {
  Topology topo = Topology::kFlat;

  /// Torus extents, e.g. {4, 4, 2}. Empty = near-square 2D factorization
  /// of the rank count. When given, the product must equal nranks.
  std::vector<int> torus_dims;

  /// Fat-tree switch radix: radix/2 hosts per leaf, radix/2 spines.
  int fattree_radix = 16;

  /// Dragonfly shape: routers per group and hosts per router.
  int df_routers = 4;
  int df_hosts = 4;

  /// Extra latency per hop beyond the first (switch traversal + wire).
  /// The first hop is charged NetworkParams::latency, which keeps the
  /// flat preset's path cost identical to the legacy closed form.
  VTime hop_latency = vtime_from_us(1);

  bool operator==(const PlatformParams&) const = default;
};

/// Immutable routed view of a PlatformParams for a fixed rank count.
/// Construction validates the shape (throws std::runtime_error with a
/// structured message on e.g. a torus whose extents don't multiply to the
/// rank count) and precomputes the latency floor.
class Platform {
 public:
  Platform(const PlatformParams& params, VTime base_latency, int nranks);

  /// Closed-form routed path cost — a pure function of (src, dst).
  struct PathCost {
    int hops = 1;
    VTime latency = 0;  ///< base_latency + (hops - 1) * hop_latency
  };
  PathCost cost(int src, int dst) const;

  /// Materializes the link ids along the routed path, in traversal
  /// order, into `links` (cleared first). Self-delivery routes over no
  /// links except on flat, where it occupies the source NIC exactly as
  /// the legacy contention model did.
  void route(int src, int dst, std::vector<int>* links) const;

  int nranks() const { return nranks_; }
  Topology topo() const { return params_.topo; }
  const PlatformParams& params() const { return params_; }
  const std::vector<int>& torus_dims() const { return dims_; }

  /// Total directed links (dense id space for occupancy / stats arrays).
  int link_count() const { return link_count_; }
  /// Stable human-readable name for a link id (obs output).
  std::string link_name(int id) const;

  /// min / max over ordered pairs of cost().latency; the min is the
  /// wildcard floor, the max feeds the abstract collective cost model.
  VTime min_path_latency() const { return min_path_latency_; }
  VTime diameter_latency() const { return diameter_latency_; }
  int min_hops() const { return min_hops_; }
  int max_hops() const { return max_hops_; }

  /// Asserts (STGSIM_CHECK) that no ordered pair — including src == dst —
  /// has a path latency below `floor`. Exhaustive up to 512 ranks,
  /// structural beyond. A floor tightened past min_path_latency() trips
  /// this; the Network constructor runs it on every build.
  void verify_floor(VTime floor) const;

 private:
  int torus_hops(int src, int dst) const;

  PlatformParams params_;
  VTime base_latency_ = 0;
  int nranks_ = 0;
  std::vector<int> dims_;     ///< resolved torus extents
  std::vector<int> strides_;  ///< mixed-radix strides for dims_

  // Fat-tree shape.
  int ft_hosts_per_leaf_ = 0, ft_leaves_ = 0, ft_spines_ = 0;
  // Dragonfly shape.
  int df_group_size_ = 0, df_groups_ = 0, df_nrouters_ = 0;

  int link_count_ = 0;
  int min_hops_ = 1, max_hops_ = 1;
  VTime min_path_latency_ = 0, diameter_latency_ = 0;
};

}  // namespace stgsim::net
