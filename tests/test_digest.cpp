// Bit-identity regression tests: golden run digests captured from the
// pre-refactor engine (PR 2). Any change to scheduling order, message
// matching, payload handling, or expression evaluation that alters a
// single predicted clock tick, message count, or delivered byte changes
// the digest and fails these tests — under either scheduler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>

#include "apps/nas_sp.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "core/compiler.hpp"
#include "fault/fault.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "ir/plan.hpp"
#include "obs/obs.hpp"
#include "smpi/smpi.hpp"

namespace stgsim {
namespace {

std::uint64_t digest_of(const ir::Program& prog, int nprocs, int threads,
                        harness::Mode mode,
                        const std::map<std::string, double>& params = {},
                        const fault::FaultPlan& faults = {}) {
  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.mode = mode;
  cfg.threads = threads;
  cfg.params = params;
  cfg.faults = faults;
  harness::RunOutcome out = harness::run_program(prog, cfg);
  EXPECT_TRUE(out.ok()) << out.diagnostic;
  return harness::run_digest(out);
}

// Prints the digest so new goldens can be harvested when a PR
// *intentionally* changes predictions (which this PR must not).
void expect_golden(const char* name, std::uint64_t actual,
                   std::uint64_t golden) {
  std::fprintf(stderr, "GOLDEN %-24s 0x%016llx\n", name,
               static_cast<unsigned long long>(actual));
  EXPECT_EQ(actual, golden) << name;
}

// --- Direct-execution (MPI-SIM-DE) digests, both schedulers ------------

constexpr std::uint64_t kGoldenTomcatv = 0xf7a88373c8256116ULL;
constexpr std::uint64_t kGoldenSweep3D = 0xae531a8f3b6690cfULL;
constexpr std::uint64_t kGoldenNasSp = 0x4ce19daf4497acf2ULL;
constexpr std::uint64_t kGoldenSample = 0x49d6f41b672638d5ULL;

TEST(RunDigest, TomcatvDE) {
  apps::TomcatvConfig c;
  c.n = 128;
  c.iterations = 2;
  ir::Program prog = apps::make_tomcatv(c);
  expect_golden("tomcatv/seq", digest_of(prog, 8, 0, harness::Mode::kDirectExec),
                kGoldenTomcatv);
  expect_golden("tomcatv/thr3",
                digest_of(prog, 8, 3, harness::Mode::kDirectExec),
                kGoldenTomcatv);
}

TEST(RunDigest, Sweep3DDE) {
  apps::Sweep3DConfig c;
  c.it = 2;
  c.jt = 2;
  c.kt = 12;
  c.kb = 4;
  c.mm = 2;
  c.mmi = 1;
  c.npe_i = 2;
  c.npe_j = 2;
  ir::Program prog = apps::make_sweep3d(c);
  expect_golden("sweep3d/seq", digest_of(prog, 4, 0, harness::Mode::kDirectExec),
                kGoldenSweep3D);
  expect_golden("sweep3d/thr3",
                digest_of(prog, 4, 3, harness::Mode::kDirectExec),
                kGoldenSweep3D);
}

TEST(RunDigest, NasSpDE) {
  apps::NasSpConfig c = apps::sp_class('A', 2, 2);
  ir::Program prog = apps::make_nas_sp(c);
  expect_golden("nas_sp/seq", digest_of(prog, 4, 0, harness::Mode::kDirectExec),
                kGoldenNasSp);
  expect_golden("nas_sp/thr3",
                digest_of(prog, 4, 3, harness::Mode::kDirectExec),
                kGoldenNasSp);
}

TEST(RunDigest, SampleDE) {
  apps::SampleConfig c;
  c.iterations = 5;
  c.msg_doubles = 256;
  c.work_iters = 1000;
  ir::Program prog = apps::make_sample(c);
  expect_golden("sample/seq", digest_of(prog, 8, 0, harness::Mode::kDirectExec),
                kGoldenSample);
  expect_golden("sample/thr3",
                digest_of(prog, 8, 3, harness::Mode::kDirectExec),
                kGoldenSample);
}

// --- Analytical-model (MPI-SIM-AM) digests: the delay() hot path -------

constexpr std::uint64_t kGoldenSampleAM = 0xa5becb21e60ea472ULL;
constexpr std::uint64_t kGoldenSweep3DAM = 0x765ecbee93c01d13ULL;

TEST(RunDigest, SampleAM) {
  apps::SampleConfig c;
  c.iterations = 5;
  c.msg_doubles = 256;
  c.work_iters = 1000;
  ir::Program prog = apps::make_sample(c);
  core::CompileResult compiled = core::compile(prog);
  auto params = harness::estimate_params(prog, 8, harness::ibm_sp_machine(),
                                         compiled.simplified.params);
  expect_golden("sample-am/seq",
                digest_of(compiled.simplified.program, 8, 0,
                          harness::Mode::kAnalytical, params),
                kGoldenSampleAM);
  expect_golden("sample-am/thr3",
                digest_of(compiled.simplified.program, 8, 3,
                          harness::Mode::kAnalytical, params),
                kGoldenSampleAM);
}

TEST(RunDigest, Sweep3DAM) {
  apps::Sweep3DConfig c;
  c.it = 2;
  c.jt = 2;
  c.kt = 12;
  c.kb = 4;
  c.mm = 2;
  c.mmi = 1;
  c.npe_i = 2;
  c.npe_j = 2;
  ir::Program prog = apps::make_sweep3d(c);
  core::CompileResult compiled = core::compile(prog);
  auto params = harness::estimate_params(prog, 4, harness::ibm_sp_machine(),
                                         compiled.simplified.params);
  expect_golden("sweep3d-am/seq",
                digest_of(compiled.simplified.program, 4, 0,
                          harness::Mode::kAnalytical, params),
                kGoldenSweep3DAM);
  expect_golden("sweep3d-am/thr3",
                digest_of(compiled.simplified.program, 4, 3,
                          harness::Mode::kAnalytical, params),
                kGoldenSweep3DAM);
}

// --- Fault-degraded runs: digests must agree across schedulers ---------

TEST(RunDigest, FaultedCrossScheduler) {
  apps::SampleConfig c;
  c.iterations = 5;
  c.msg_doubles = 256;
  c.work_iters = 1000;
  ir::Program prog = apps::make_sample(c);
  fault::FaultPlan plan = fault::parse_fault_plan(
      "link:src=0,dst=1,latency=4,bandwidth=0.25;straggler:rank=2,factor=2");
  const std::uint64_t seq =
      digest_of(prog, 8, 0, harness::Mode::kDirectExec, {}, plan);
  const std::uint64_t thr =
      digest_of(prog, 8, 3, harness::Mode::kDirectExec, {}, plan);
  std::fprintf(stderr, "GOLDEN %-24s 0x%016llx\n", "sample-fault/seq",
               static_cast<unsigned long long>(seq));
  EXPECT_EQ(seq, thr);
}

// --- Wildcard-receive race: the correctness bug this PR fixes ----------
//
// Rank 0's 16 KiB eager message reaches rank 1 long before rank 2's tiny
// one (rank 2 is off in a 50us delay when rank 1 posts its first
// ANY_SOURCE receive). An engine that commits a wildcard receive to
// whatever has already arrived picks rank 0 first under the sequential
// scheduler, but rank 2 first under the threaded one (where both
// messages flush at the same round barrier) — diverging digests. With
// the safe-bound gate both schedulers commit to the earliest *arrival*
// (rank 2's), and the digests agree.
TEST(RunDigest, WildcardRaceAgreesAcrossSchedulers) {
  auto I = [](std::int64_t v) { return sym::Expr::integer(v); };
  ir::ProgramBuilder b("wildcard_race");
  sym::Expr myid = b.get_rank("myid");
  b.get_size("P");
  b.decl_array("BUF", {I(2048)});  // 16 KiB: at the eager threshold
  b.if_then_else(
      sym::eq(myid, I(0)), [&] { b.send("BUF", I(1), I(2048), I(0), 7); },
      [&] {
        b.if_then_else(
            sym::eq(myid, I(2)),
            [&] {
              b.delay(sym::Expr::real(50e-6));
              b.send("BUF", I(1), I(1), I(0), 7);
            },
            [&] {
              b.recv("BUF", I(-1), I(2048), I(0), 7);  // ANY_SOURCE
              b.recv("BUF", I(-1), I(2048), I(0), 7);
            });
      });
  ir::Program prog = b.take();
  const std::uint64_t seq = digest_of(prog, 3, 0, harness::Mode::kDirectExec);
  const std::uint64_t thr = digest_of(prog, 3, 3, harness::Mode::kDirectExec);
  std::fprintf(stderr, "GOLDEN %-24s 0x%016llx\n", "wildcard-race/seq",
               static_cast<unsigned long long>(seq));
  EXPECT_EQ(seq, thr);
}

// --- Collective paths: linear, ring and abstract routes pinned ---------
//
// The shipped apps reach only 8-byte binomial allreduces and read_param
// broadcasts, so the goldens above never run the linear, ring or abstract
// collective code. Each case below pins a run digest together with a hash
// of the run's user-level CommTrace (kind, peer, tag, bytes of every op)
// and its obs op-kind scalars, under three collective configurations plus
// the default machine.

struct CollConfig {
  const char* name;
  const char* machine;
  bool abstract_comm;
};

constexpr CollConfig kCollConfigs[] = {
    {"default", "ibm_sp", false},
    {"linear", "ibm_sp[algo.barrier=linear,algo.bcast=linear,"
               "algo.reduce=linear]",
     false},
    {"ring", "ibm_sp[algo.bcast=ring,algo.reduce=ring,algo.allreduce=ring]",
     false},
    {"abstract", "ibm_sp", true},
};

struct CollGolden {
  std::uint64_t digest;
  std::uint64_t comm;  ///< CommTrace + obs op-kind scalars
};

class Fnv64 {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void str(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    u64(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// User-level communication trace of `prog` under `cc` (the trace is a
/// per-rank op sequence, independent of virtual timing).
smpi::CommTrace comm_trace_of(const ir::Program& prog, int nprocs,
                              const CollConfig& cc) {
  const harness::MachineSpec machine = harness::parse_machine_spec(cc.machine);
  smpi::CommTrace trace(nprocs);
  smpi::World::Options wopts;
  wopts.net = machine.net;
  wopts.compute = machine.compute;
  wopts.coll = machine.coll;
  if (cc.abstract_comm) {
    wopts.comm_fidelity = smpi::World::Options::CommFidelity::kAbstract;
  }
  wopts.trace = &trace;
  smpi::World world(wopts, nprocs);
  simk::EngineConfig ec;
  ec.num_processes = nprocs;
  simk::Engine engine(ec);
  const ir::Plan plan(prog);
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    ir::execute(plan, comm);
  });
  engine.run();
  return trace;
}

void expect_coll_goldens(const char* prog_name, const ir::Program& prog,
                         int nprocs, const CollGolden (&goldens)[4]) {
  for (std::size_t i = 0; i < std::size(kCollConfigs); ++i) {
    const CollConfig& cc = kCollConfigs[i];
    obs::Recorder rec(obs::Options{}, nprocs);
    harness::RunConfig cfg;
    cfg.nprocs = nprocs;
    cfg.mode = harness::Mode::kDirectExec;
    cfg.machine = harness::parse_machine_spec(cc.machine);
    cfg.abstract_comm = cc.abstract_comm;
    cfg.obs = &rec;
    const harness::RunOutcome out = harness::run_program(prog, cfg);
    ASSERT_TRUE(out.ok()) << out.diagnostic;

    Fnv64 h;
    const smpi::CommTrace trace = comm_trace_of(prog, nprocs, cc);
    for (const auto& ops : trace.per_rank()) {
      h.u64(ops.size());
      for (const smpi::CommEvent& e : ops) {
        h.u64(static_cast<std::uint64_t>(e.kind));
        h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)));
        h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tag)));
        h.u64(e.bytes);
      }
    }
    for (const auto& [name, value] : out.metrics.scalars) {
      if (name.rfind("op.", 0) != 0) continue;
      h.str(name);
      h.u64(static_cast<std::uint64_t>(std::llround(value * 1e9)));
    }

    const std::string label = std::string(prog_name) + "/" + cc.name;
    std::fprintf(stderr, "GOLDEN %-24s {0x%016llxULL, 0x%016llxULL}\n",
                 label.c_str(),
                 static_cast<unsigned long long>(harness::run_digest(out)),
                 static_cast<unsigned long long>(h.value()));
    EXPECT_EQ(harness::run_digest(out), goldens[i].digest) << label;
    EXPECT_EQ(h.value(), goldens[i].comm) << label;
  }
}

/// Every collective the IR can issue at both sides of the ring threshold,
/// plus point-to-point at eager and rendezvous sizes, blocking and not.
ir::Program make_collective_micro() {
  auto I = [](std::int64_t v) { return sym::Expr::integer(v); };
  ir::ProgramBuilder b("coll_micro");
  sym::Expr myid = b.get_rank("myid");
  sym::Expr P = b.get_size("P");
  b.decl_real("acc", sym::Expr::real(1.0));
  b.decl_real("peak", sym::Expr::real(2.0));
  b.decl_array("SMALL", {I(1024)});  // 8 KiB
  b.decl_array("BIG", {I(16384)});   // 128 KiB
  b.barrier();
  b.bcast("SMALL", I(1), I(1024), I(0));
  b.bcast("BIG", I(0), I(16384), I(0));
  b.allreduce_sum("acc");
  b.allreduce_max("peak");
  b.if_then(sym::gt(myid, I(0)),
            [&] { b.recv("BIG", myid - 1, I(16384), I(0), 1); });
  b.if_then(sym::lt(myid, P - 1),
            [&] { b.send("BIG", myid + 1, I(16384), I(0), 1); });
  b.if_then(sym::gt(myid, I(0)), [&] {
    b.irecv("reqs", "BIG", myid - 1, I(16384), I(0), 2);
    b.irecv("reqs", "SMALL", myid - 1, I(1024), I(0), 3);
  });
  b.if_then(sym::lt(myid, P - 1), [&] {
    b.isend("reqs", "BIG", myid + 1, I(16384), I(0), 2);
    b.isend("reqs", "SMALL", myid + 1, I(1024), I(0), 3);
  });
  b.waitall("reqs");
  b.barrier();
  return b.take();
}

TEST(CollectiveGolden, MicroP5) {
  constexpr CollGolden kGoldens[4] = {
      {0xd50a4666f7d24a27ULL, 0x0747cf5768a9aba0ULL},
      {0xc899d1a2a451492bULL, 0xad8432f165460fb8ULL},
      {0xde29a108784d4e8aULL, 0xc4f0eca8dfe6b9b7ULL},
      {0x019bc255d318ef88ULL, 0x8a0248890fb2f963ULL}};
  expect_coll_goldens("micro5", make_collective_micro(), 5, kGoldens);
}

TEST(CollectiveGolden, MicroP8) {
  constexpr CollGolden kGoldens[4] = {
      {0x1c33388aa00eca81ULL, 0xf2f975ea0d62e687ULL},
      {0xbae1f0b6fcc96418ULL, 0xa995edccccf81e56ULL},
      {0xe6d1a0089e4f34d6ULL, 0x3532385c1852ad22ULL},
      {0xf16e5adcc721c1d1ULL, 0x0a055d59833a42e7ULL}};
  expect_coll_goldens("micro8", make_collective_micro(), 8, kGoldens);
}

TEST(CollectiveGolden, Tomcatv) {
  apps::TomcatvConfig c;
  c.n = 128;
  c.iterations = 2;
  constexpr CollGolden kGoldens[4] = {
      {0xf7a88373c8256116ULL, 0x0f18c3ae1547f4d8ULL},
      {0x530f047a9d92d07fULL, 0x5e2081a453735978ULL},
      {0x3e5fd67c106e858eULL, 0xcf1c5f10fa5621cdULL},
      {0x32eafd90f3d02aa2ULL, 0x9b59cea03b3ef992ULL}};
  expect_coll_goldens("tomcatv", apps::make_tomcatv(c), 8, kGoldens);
}

TEST(CollectiveGolden, Sweep3D) {
  apps::Sweep3DConfig c;
  c.it = 2;
  c.jt = 2;
  c.kt = 12;
  c.kb = 4;
  c.mm = 2;
  c.mmi = 1;
  c.npe_i = 2;
  c.npe_j = 2;
  constexpr CollGolden kGoldens[4] = {
      {0xae531a8f3b6690cfULL, 0x558da7fce03e64c9ULL},
      {0x38ba6367df918701ULL, 0xa46632d5ed08d4e6ULL},
      {0xfd787aff5c0cc883ULL, 0x8b4d0c6a8fe8c0d7ULL},
      {0xc3987e0cb4b4cf46ULL, 0x5c8cbde69a66c7bbULL}};
  expect_coll_goldens("sweep3d", apps::make_sweep3d(c), 4, kGoldens);
}

// Digest must not depend on host wall-clock: two identical runs agree.
TEST(RunDigest, StableAcrossRepeatedRuns) {
  apps::SampleConfig c;
  c.iterations = 3;
  c.msg_doubles = 64;
  c.work_iters = 500;
  ir::Program prog = apps::make_sample(c);
  EXPECT_EQ(digest_of(prog, 4, 0, harness::Mode::kDirectExec),
            digest_of(prog, 4, 0, harness::Mode::kDirectExec));
}

}  // namespace
}  // namespace stgsim
