// Tests for the algorithmic collectives (smpi/collectives.*): value
// correctness of every algorithm under uneven chunking, hand-computed
// cost cross-checks at small P on the flat preset, the auto size rule,
// and digest bit-identity across topology x algorithm x scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "apps/nas_sp.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "ir/interp.hpp"
#include "smpi/collectives.hpp"
#include "smpi/smpi.hpp"

namespace stgsim::smpi {
namespace {

struct Fixture {
  explicit Fixture(int nprocs, World::Options opts = {})
      : world(opts, nprocs) {
    ec.num_processes = nprocs;
  }

  simk::RunResult run(std::function<void(Comm&)> body) {
    simk::Engine engine(ec);
    engine.set_body([&](simk::Process& p) {
      Comm comm(world, p);
      body(comm);
    });
    return engine.run();
  }

  World world;
  simk::EngineConfig ec;
};

World::Options with_algo(CollOp op, CollAlgo algo) {
  World::Options opts;
  coll_algo_field(opts.coll, op) = algo;
  return opts;
}

// ---------------------------------------------------------------------------
// Algorithm selection
// ---------------------------------------------------------------------------

TEST(CollAlgoConfig, AutoFollowsTheSizeRule) {
  CollectiveConfig cfg;  // ring_threshold = 64 KiB
  EXPECT_EQ(resolve_coll_algo(CollOp::kBcast, CollAlgo::kAuto, 8,
                              cfg.ring_threshold),
            CollAlgo::kBinomial);
  EXPECT_EQ(resolve_coll_algo(CollOp::kBcast, CollAlgo::kAuto, 64 * 1024,
                              cfg.ring_threshold),
            CollAlgo::kRing);
  EXPECT_EQ(resolve_coll_algo(CollOp::kBarrier, CollAlgo::kAuto, 0,
                              cfg.ring_threshold),
            CollAlgo::kDissemination);
  EXPECT_EQ(resolve_coll_algo(CollOp::kAllreduce, CollAlgo::kAuto, 512, 256),
            CollAlgo::kRing);
}

TEST(CollAlgoConfig, ParseRejectsUnsupportedCombos) {
  EXPECT_EQ(parse_coll_algo(CollOp::kBcast, "ring"), CollAlgo::kRing);
  EXPECT_THROW((void)parse_coll_algo(CollOp::kBarrier, "ring"),
               std::runtime_error);
  EXPECT_THROW((void)parse_coll_algo(CollOp::kBarrier, "binomial"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Value correctness under forced algorithms (uneven chunking on purpose:
// P=5 ranks, 7 doubles does not divide evenly into ring chunks)
// ---------------------------------------------------------------------------

TEST(CollAlgoValues, RingBcastDeliversRootData) {
  Fixture f(5, with_algo(CollOp::kBcast, CollAlgo::kRing));
  f.run([](Comm& c) {
    double buf[7];
    for (int i = 0; i < 7; ++i) buf[i] = c.rank() == 2 ? 100.0 + i : -1.0;
    c.bcast(buf, sizeof buf, 2);
    for (int i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(buf[i], 100.0 + i);
  });
}

TEST(CollAlgoValues, RingReduceAccumulatesAtNonzeroRoot) {
  Fixture f(5, with_algo(CollOp::kReduce, CollAlgo::kRing));
  f.run([](Comm& c) {
    double v[7];
    for (int i = 0; i < 7; ++i) v[i] = c.rank() + i * 0.5;
    c.reduce_sum(v, 7, 3);
    if (c.rank() == 3) {
      for (int i = 0; i < 7; ++i) {
        EXPECT_DOUBLE_EQ(v[i], 10.0 + 5 * i * 0.5) << "element " << i;
      }
    }
  });
}

TEST(CollAlgoValues, RingAllreduceSumAgreesEverywhere) {
  Fixture f(5, with_algo(CollOp::kAllreduce, CollAlgo::kRing));
  f.run([](Comm& c) {
    double v[7];
    for (int i = 0; i < 7; ++i) v[i] = c.rank() + i * 0.5;
    c.allreduce_sum(v, 7);
    for (int i = 0; i < 7; ++i) {
      EXPECT_DOUBLE_EQ(v[i], 10.0 + 5 * i * 0.5) << "element " << i;
    }
  });
}

TEST(CollAlgoValues, RingAllreduceMaxAgreesEverywhere) {
  Fixture f(5, with_algo(CollOp::kAllreduce, CollAlgo::kRing));
  f.run([](Comm& c) {
    double v[3] = {static_cast<double>(c.rank()),
                   static_cast<double>(-c.rank()), 7.0};
    c.allreduce_max(v, 3);
    EXPECT_DOUBLE_EQ(v[0], 4.0);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
    EXPECT_DOUBLE_EQ(v[2], 7.0);
  });
}

TEST(CollAlgoValues, LinearAndBinomialAgreeWithRing) {
  for (CollAlgo algo : {CollAlgo::kLinear, CollAlgo::kBinomial}) {
    Fixture f(6, with_algo(CollOp::kAllreduce, algo));
    f.run([](Comm& c) {
      double v = c.rank() + 1.0;
      c.allreduce_sum(&v, 1);
      EXPECT_DOUBLE_EQ(v, 21.0);
    });
  }
}

// ---------------------------------------------------------------------------
// Hand-computed costs at small P (flat preset: every hop costs
// latency L, serialization S, plus send/recv overheads so/ro)
// ---------------------------------------------------------------------------

struct NetConstants {
  VTime so, ro, L;
  VTime step(std::size_t wire_bytes) const {
    return so + L +
           vtime_from_sec(static_cast<double>(std::max(wire_bytes,
                                                       std::size_t{8})) /
                          net::ibm_sp().bytes_per_sec) +
           ro;
  }
};

NetConstants constants() {
  const net::NetworkParams p = net::ibm_sp();
  return {p.send_overhead, p.recv_overhead, p.latency};
}

TEST(CollAlgoCosts, BinomialBcastP4IsTwoChainedSteps) {
  // Round 1: root -> rank 2. Round 2: root -> 1 and 2 -> 3 in parallel.
  // The critical path is two full (so + L + S + ro) hops through rank 2.
  Fixture f(4, with_algo(CollOp::kBcast, CollAlgo::kBinomial));
  const simk::RunResult rr = f.run([](Comm& c) {
    double x = 0.0;
    c.bcast(&x, sizeof x, 0);
  });
  EXPECT_EQ(rr.completion, 2 * constants().step(8));
}

TEST(CollAlgoCosts, DisseminationBarrierP4IsLogRounds) {
  // Spans 1 and 2: every rank sends and receives once per round, all in
  // lockstep, so the barrier costs exactly 2 token steps.
  Fixture f(4, with_algo(CollOp::kBarrier, CollAlgo::kDissemination));
  const simk::RunResult rr = f.run([](Comm& c) { c.barrier(); });
  EXPECT_EQ(rr.completion, 2 * constants().step(8));
}

TEST(CollAlgoCosts, RingAllreduceP4IsTwoPMinusOneSteps) {
  // Reduce-scatter (P-1 steps) + allgather (P-1 steps), each moving one
  // 8-byte chunk to the neighbor in lockstep: 6 chained steps at P=4.
  Fixture f(4, with_algo(CollOp::kAllreduce, CollAlgo::kRing));
  const simk::RunResult rr = f.run([](Comm& c) {
    double v[4] = {1.0, 2.0, 3.0, 4.0};
    c.allreduce_sum(v, 4);
  });
  EXPECT_EQ(rr.completion, 6 * constants().step(8));
}

TEST(CollAlgoCosts, LinearBcastP4IsRootSequential) {
  // Root issues P-1 eager sends back to back (so each), and the last
  // receiver completes after the last send's wire time.
  Fixture f(4, with_algo(CollOp::kBcast, CollAlgo::kLinear));
  const simk::RunResult rr = f.run([](Comm& c) {
    double x = 0.0;
    c.bcast(&x, sizeof x, 0);
  });
  const NetConstants k = constants();
  EXPECT_EQ(rr.completion, 3 * k.so + (k.step(8) - k.so));
}

TEST(CollAlgoCosts, CrossoverMatchesTheSizeRule) {
  // Small payloads: binomial's log P critical path beats ring's 2(P-1)
  // chunk steps. Large payloads: ring moves ~2x the payload per rank
  // regardless of P, beating binomial's log P full-payload hops.
  auto bcast_time = [](CollAlgo algo, std::size_t bytes) {
    Fixture f(8, with_algo(CollOp::kBcast, algo));
    std::vector<std::uint8_t> buf(bytes);
    return f
        .run([&](Comm& c) { c.bcast(buf.data(), buf.size(), 0); })
        .completion;
  };
  EXPECT_LT(bcast_time(CollAlgo::kBinomial, 64),
            bcast_time(CollAlgo::kRing, 64));
  EXPECT_LT(bcast_time(CollAlgo::kRing, 1 << 20),
            bcast_time(CollAlgo::kBinomial, 1 << 20));

  auto allreduce_time = [](CollAlgo algo, int n) {
    Fixture f(8, with_algo(CollOp::kAllreduce, algo));
    std::vector<double> v(static_cast<std::size_t>(n), 1.0);
    return f.run([&](Comm& c) { c.allreduce_sum(v.data(), n); }).completion;
  };
  EXPECT_LT(allreduce_time(CollAlgo::kBinomial, 8),
            allreduce_time(CollAlgo::kRing, 8));
  EXPECT_LT(allreduce_time(CollAlgo::kRing, 1 << 17),
            allreduce_time(CollAlgo::kBinomial, 1 << 17));
}

// ---------------------------------------------------------------------------
// Digest bit-identity: topology x algorithm x scheduler
// ---------------------------------------------------------------------------

std::uint64_t digest_of(const ir::Program& prog, int nprocs, int threads,
                        const harness::MachineSpec& machine) {
  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.mode = harness::Mode::kDirectExec;
  cfg.threads = threads;
  cfg.machine = machine;
  harness::RunOutcome out = harness::run_program(prog, cfg);
  EXPECT_TRUE(out.ok()) << out.diagnostic;
  return harness::run_digest(out);
}

TEST(CollAlgoDigests, IdenticalAcrossSchedulersOnEveryTopologyAndAlgo) {
  // All four apps (tiny configs), every topology preset, ring vs
  // binomial collectives: the threaded conservative scheduler must match
  // the sequential digest bit for bit in each cell. This is the matrix
  // the platform layer's pure-(src,dst) cost rule exists to protect.
  struct AppCase {
    const char* name;
    ir::Program prog;
    int procs;
  };
  std::vector<AppCase> cases;
  {
    apps::SampleConfig c;
    c.iterations = 2;
    c.msg_doubles = 32;
    c.work_iters = 500;
    cases.push_back({"sample", apps::make_sample(c), 6});
  }
  {
    apps::Sweep3DConfig c;
    c.it = 2;
    c.jt = 2;
    c.kt = 8;
    c.kb = 4;
    c.mm = 2;
    c.mmi = 1;
    c.npe_i = 2;
    c.npe_j = 2;
    cases.push_back({"sweep3d", apps::make_sweep3d(c), 4});
  }
  {
    apps::TomcatvConfig c;
    c.n = 40;
    c.iterations = 1;
    cases.push_back({"tomcatv", apps::make_tomcatv(c), 4});
  }
  cases.push_back({"nas_sp", apps::make_nas_sp(apps::sp_class('A', 2, 2)), 4});

  const char* machines[] = {
      "ibm_sp[algo.bcast=ring,algo.reduce=ring,algo.allreduce=ring]",
      "ibm_sp[algo.bcast=binomial,algo.reduce=binomial,"
      "algo.allreduce=binomial]",
      "ibm_sp[topo=torus,algo.allreduce=ring]",
      "ibm_sp[topo=torus,hop_us=3,algo.allreduce=binomial]",
      "ibm_sp[topo=fattree,radix=4,algo.allreduce=ring]",
      "ibm_sp[topo=fattree,radix=4,algo.bcast=binomial]",
      "ibm_sp[topo=dragonfly,df_routers=2,df_hosts=2,algo.allreduce=ring]",
      "ibm_sp[topo=dragonfly,df_routers=2,df_hosts=2,algo.bcast=binomial]",
  };
  for (const AppCase& ac : cases) {
    const ir::Program& prog = ac.prog;
    for (const char* mspec : machines) {
      const harness::MachineSpec machine = harness::parse_machine_spec(mspec);
      const std::uint64_t seq = digest_of(prog, ac.procs, 0, machine);
      for (int workers : {1, 2, 4}) {
        EXPECT_EQ(digest_of(prog, ac.procs, workers, machine), seq)
            << ac.name << " on " << mspec << " with " << workers
            << " workers";
      }
    }
  }
}

}  // namespace
}  // namespace stgsim::smpi
