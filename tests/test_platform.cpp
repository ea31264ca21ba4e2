// Unit + property tests for the routed platform layer (net::Platform):
// topology shapes, route/cost consistency, the latency floor's
// by-construction soundness, and the backward-compatibility contract —
// the flat preset must reproduce the legacy single-link arrival() model
// bit-for-bit, including emulation contention and jitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "harness/machines.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "support/check.hpp"

namespace stgsim {
namespace {

net::PlatformParams with_topo(net::Topology t) {
  net::PlatformParams p;
  p.topo = t;
  return p;
}

const net::Topology kAllTopos[] = {
    net::Topology::kFlat, net::Topology::kTorus, net::Topology::kFatTree,
    net::Topology::kDragonfly};

// ---------------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------------

TEST(Platform, FlatShapeIsOneNicPerRank) {
  net::Platform p(with_topo(net::Topology::kFlat), vtime_from_us(25), 8);
  EXPECT_EQ(p.link_count(), 8);
  EXPECT_EQ(p.min_hops(), 1);
  EXPECT_EQ(p.max_hops(), 1);
  EXPECT_EQ(p.min_path_latency(), vtime_from_us(25));
  EXPECT_EQ(p.link_name(3), "nic3");
}

TEST(Platform, TorusAutoDimsAreNearSquare) {
  net::Platform p(with_topo(net::Topology::kTorus), vtime_from_us(25), 12);
  EXPECT_EQ(p.torus_dims(), (std::vector<int>{3, 4}));
  // Directed links: node x dim x direction.
  EXPECT_EQ(p.link_count(), 12 * 2 * 2);
  // Diameter of a 3x4 torus: 1 + 2 wraparound hops.
  EXPECT_EQ(p.max_hops(), 3);
}

TEST(Platform, TorusExplicitDimsMustMatchRankCount) {
  net::PlatformParams pp = with_topo(net::Topology::kTorus);
  pp.torus_dims = {4, 4};
  net::Platform ok(pp, vtime_from_us(25), 16);
  EXPECT_EQ(ok.torus_dims(), (std::vector<int>{4, 4}));
  try {
    net::Platform bad(pp, vtime_from_us(25), 8);
    FAIL() << "torus extents 4x4 must be rejected for 8 ranks";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("multiply"), std::string::npos)
        << e.what();
  }
}

TEST(Platform, FatTreeHopsSplitByLeaf) {
  net::PlatformParams pp = with_topo(net::Topology::kFatTree);
  pp.fattree_radix = 4;  // 2 hosts per leaf, 2 spines
  net::Platform p(pp, vtime_from_us(25), 8);
  EXPECT_EQ(p.cost(0, 1).hops, 2);  // same leaf
  EXPECT_EQ(p.cost(0, 2).hops, 4);  // via a spine
  EXPECT_EQ(p.min_hops(), 2);
  EXPECT_EQ(p.max_hops(), 4);
  net::PlatformParams odd = pp;
  odd.fattree_radix = 3;
  EXPECT_THROW(net::Platform(odd, vtime_from_us(25), 8), std::runtime_error);
}

TEST(Platform, DragonflyHopsByLocality) {
  net::PlatformParams pp = with_topo(net::Topology::kDragonfly);
  pp.df_routers = 2;
  pp.df_hosts = 2;  // groups of 4 ranks
  net::Platform p(pp, vtime_from_us(25), 16);
  EXPECT_EQ(p.cost(0, 1).hops, 2);  // same router
  EXPECT_EQ(p.cost(0, 2).hops, 3);  // same group, other router
  EXPECT_GE(p.cost(0, 5).hops, 3);  // cross-group: at least one global link
  EXPECT_LE(p.max_hops(), 5);
}

// ---------------------------------------------------------------------------
// Route / cost consistency
// ---------------------------------------------------------------------------

TEST(Platform, RouteLengthMatchesCostHopsOnEveryPair) {
  for (net::Topology t : kAllTopos) {
    for (int nranks : {1, 2, 5, 16, 24}) {
      net::PlatformParams pp = with_topo(t);
      pp.fattree_radix = 4;
      pp.df_routers = 2;
      pp.df_hosts = 2;
      net::Platform p(pp, vtime_from_us(25), nranks);
      std::vector<int> links;
      for (int s = 0; s < nranks; ++s) {
        for (int d = 0; d < nranks; ++d) {
          if (s == d) continue;
          const net::Platform::PathCost pc = p.cost(s, d);
          p.route(s, d, &links);
          EXPECT_EQ(static_cast<int>(links.size()), pc.hops)
              << net::topology_name(t) << " P=" << nranks << " " << s << "->"
              << d;
          for (int l : links) {
            ASSERT_GE(l, 0);
            ASSERT_LT(l, p.link_count());
          }
          EXPECT_EQ(pc.latency, vtime_from_us(25) + (pc.hops - 1) *
                                                        pp.hop_latency);
        }
      }
    }
  }
}

TEST(Platform, LinkNamesAreUnique) {
  for (net::Topology t : kAllTopos) {
    net::PlatformParams pp = with_topo(t);
    pp.fattree_radix = 4;
    pp.df_routers = 2;
    pp.df_hosts = 2;
    net::Platform p(pp, vtime_from_us(25), 12);
    std::set<std::string> names;
    for (int i = 0; i < p.link_count(); ++i) names.insert(p.link_name(i));
    EXPECT_EQ(static_cast<int>(names.size()), p.link_count())
        << net::topology_name(t);
  }
}

// ---------------------------------------------------------------------------
// The latency floor
// ---------------------------------------------------------------------------

TEST(Platform, NoPairUndercutsTheFloorIncludingSelfSends) {
  for (net::Topology t : kAllTopos) {
    net::Platform p(with_topo(t), vtime_from_us(25), 16);
    for (int s = 0; s < 16; ++s) {
      for (int d = 0; d < 16; ++d) {
        EXPECT_GE(p.cost(s, d).latency, p.min_path_latency())
            << net::topology_name(t) << " " << s << "->" << d;
      }
    }
    p.verify_floor(p.min_path_latency());  // must not throw
  }
}

TEST(Platform, TightenedFloorTripsVerifyFloor) {
  // The regression the floor exists to prevent: advertising a bound some
  // routed pair can undercut. One tick past min_path_latency must trip
  // the check on every topology.
  for (net::Topology t : kAllTopos) {
    net::Platform p(with_topo(t), vtime_from_us(25), 16);
    EXPECT_THROW(p.verify_floor(p.min_path_latency() + 1), CheckError)
        << net::topology_name(t);
  }
}

TEST(Network, MinLatencyIsHopAware) {
  net::NetworkParams params;
  params.latency = vtime_from_us(25);
  params.platform.topo = net::Topology::kFatTree;
  params.platform.fattree_radix = 4;
  params.platform.hop_latency = vtime_from_us(2);
  net::Network n(params, 8);
  // Cheapest pair: same leaf, 2 hops = latency + 1 extra hop.
  EXPECT_EQ(n.min_latency(), vtime_from_us(25) + vtime_from_us(2));
  Rng rng(1);
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      EXPECT_GE(n.arrival(s, d, 0, 0, rng), n.min_latency());
    }
  }
}

TEST(Network, FaultPlanCannotLowerTheFloor) {
  net::NetworkParams params;
  net::Network n(params, 4);
  // Degradation factors >= 1 install fine; the validated plan keeps the
  // floor sound (latency factors < 1 are rejected by FaultPlan::validate,
  // which set_fault_plan runs at install time).
  n.set_fault_plan(fault::parse_fault_plan("link:src=0,dst=1,latency=4"));
  EXPECT_THROW(
      n.set_fault_plan(fault::parse_fault_plan("link:src=0,dst=1,latency=0.5")),
      std::exception);
}

// ---------------------------------------------------------------------------
// Flat preset == legacy model, bit for bit
// ---------------------------------------------------------------------------

/// The pre-platform arrival() closed form (PR 6 and earlier), verbatim:
/// per-source NIC contention, single-link latency, jitter clamp at half
/// the base latency.
class LegacyNetwork {
 public:
  LegacyNetwork(const net::NetworkParams& params, int nranks)
      : p_(params), nic_free_(static_cast<std::size_t>(nranks), 0) {}

  VTime arrival(int src, int /*dst*/, VTime ready, std::size_t bytes,
                Rng& rng) {
    VTime start = ready;
    const VTime serialize =
        vtime_from_sec(static_cast<double>(bytes) / p_.bytes_per_sec);
    if (p_.model_contention) {
      auto& nic = nic_free_[static_cast<std::size_t>(src)];
      start = std::max(start, nic);
      nic = start + serialize;
    }
    VTime flight = p_.latency + serialize;
    if (p_.jitter_frac > 0.0) {
      const double factor =
          std::max(0.2, 1.0 + p_.jitter_frac * rng.next_gaussian());
      flight = vtime_from_sec(vtime_to_sec(flight) * factor);
      flight = std::max(flight, p_.latency / 2);
    }
    return start + flight;
  }

 private:
  net::NetworkParams p_;
  std::vector<VTime> nic_free_;
};

TEST(Platform, FlatPresetReproducesLegacyArrivalBitForBit) {
  // Sweep the emulation switches; for each, fire a deterministic but
  // irregular message sequence through both models with identical RNG
  // streams and require exact equality — this is the contract that keeps
  // every pre-platform golden digest valid.
  struct Case {
    bool contention;
    double jitter;
  };
  for (const Case& c : {Case{false, 0.0}, Case{true, 0.0}, Case{false, 0.05},
                        Case{true, 0.08}}) {
    net::NetworkParams params;
    params.model_contention = c.contention;
    params.jitter_frac = c.jitter;
    const int nranks = 6;
    net::Network routed(params, nranks);
    LegacyNetwork legacy(params, nranks);
    Rng rng_a(42), rng_b(42);
    Rng driver(7);
    for (int i = 0; i < 500; ++i) {
      const int src = static_cast<int>(driver.next_below(nranks));
      const int dst = static_cast<int>(driver.next_below(nranks));
      const VTime ready = static_cast<VTime>(driver.next_below(1000)) * 100;
      const std::size_t bytes = driver.next_below(64 * 1024);
      ASSERT_EQ(routed.arrival(src, dst, ready, bytes, rng_a),
                legacy.arrival(src, dst, ready, bytes, rng_b))
          << "contention=" << c.contention << " jitter=" << c.jitter
          << " msg " << i << ": " << src << "->" << dst << " " << bytes
          << "B at " << ready;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-link observability
// ---------------------------------------------------------------------------

TEST(Network, LinkStatsCountRoutedTraffic) {
  net::NetworkParams params;
  params.platform.topo = net::Topology::kFatTree;
  params.platform.fattree_radix = 4;
  net::Network n(params, 8);
  n.enable_link_stats();
  Rng rng(1);
  n.arrival(0, 1, 0, 100, rng);  // same leaf: 2 hops
  n.arrival(0, 2, 0, 100, rng);  // cross leaf: 4 hops
  n.arrival(0, 2, 0, 100, rng);
  EXPECT_EQ(n.hop_hist(), (std::vector<std::uint64_t>{0, 0, 1, 0, 2}));
  const auto links = n.link_usage();
  std::uint64_t total_msgs = 0;
  for (const auto& l : links) {
    EXPECT_GT(l.messages, 0u);
    total_msgs += l.messages;
  }
  // 2 + 4 + 4 link traversals.
  EXPECT_EQ(total_msgs, 10u);
  // host0.up carries all three messages.
  const auto up = std::find_if(links.begin(), links.end(),
                               [](const auto& l) { return l.name == "host0.up"; });
  ASSERT_NE(up, links.end());
  EXPECT_EQ(up->messages, 3u);
  EXPECT_EQ(up->bytes, 300u);
}

// ---------------------------------------------------------------------------
// Machine spec strings
// ---------------------------------------------------------------------------

TEST(MachineSpecPlatform, TopologyFieldsParseAndRoundTrip) {
  const harness::MachineSpec m = harness::parse_machine_spec(
      "ibm_sp[topo=torus,torus_dims=4x4,hop_us=2]");
  EXPECT_EQ(m.net.platform.topo, net::Topology::kTorus);
  EXPECT_EQ(m.net.platform.torus_dims, (std::vector<int>{4, 4}));
  EXPECT_EQ(m.net.platform.hop_latency, vtime_from_us(2));
  const std::string spec = harness::machine_spec_string(m);
  EXPECT_EQ(spec, "ibm_sp[hop_us=2,topo=torus,torus_dims=4x4]");
  EXPECT_EQ(harness::machine_spec_string(harness::parse_machine_spec(spec)),
            spec);
}

TEST(MachineSpecPlatform, CollectiveAlgoFieldsParseAndRoundTrip) {
  const harness::MachineSpec m = harness::parse_machine_spec(
      "ibm_sp[algo.bcast=ring,algo.barrier=dissemination,"
      "coll_ring_threshold=32768]");
  EXPECT_EQ(m.coll.bcast, smpi::CollAlgo::kRing);
  EXPECT_EQ(m.coll.barrier, smpi::CollAlgo::kDissemination);
  EXPECT_EQ(m.coll.ring_threshold, 32768u);
  const std::string spec = harness::machine_spec_string(m);
  EXPECT_EQ(harness::machine_spec_string(harness::parse_machine_spec(spec)),
            spec);
}

TEST(MachineSpecPlatform, DefaultPlatformStaysCanonicallyBare) {
  // topo=flat and algo.*=auto are the defaults: a spec that sets them
  // explicitly canonicalizes back to the bare machine name, so the
  // campaign cache key format is unchanged from pre-platform caches.
  const harness::MachineSpec m =
      harness::parse_machine_spec("ibm_sp[topo=flat,algo.bcast=auto]");
  EXPECT_EQ(harness::machine_spec_string(m), "ibm_sp");
}

TEST(MachineSpecPlatform, BadValuesAreStructuredErrors) {
  EXPECT_THROW((void)harness::parse_machine_spec("ibm_sp[topo=mesh]"),
               std::runtime_error);
  EXPECT_THROW((void)harness::parse_machine_spec("ibm_sp[torus_dims=4xx]"),
               std::runtime_error);
  EXPECT_THROW((void)harness::parse_machine_spec("ibm_sp[algo.bcast=quantum]"),
               std::runtime_error);
  // Unknown algorithm names are rejected too.
  EXPECT_THROW((void)harness::parse_machine_spec("ibm_sp[algo.bcast=pairwise]"),
               std::runtime_error);
  // Unknown keys still list what is accepted, including the new fields.
  try {
    (void)harness::parse_machine_spec("ibm_sp[nosuch=1]");
    FAIL() << "unknown key must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("topo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("algo.bcast"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace stgsim
