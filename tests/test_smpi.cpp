// Unit tests for the simulated MPI layer: protocol semantics (eager vs
// rendezvous), nonblocking operations, collectives, statistics and the
// communication trace.
#include <gtest/gtest.h>

#include "ir/interp.hpp"
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

TEST(Smpi, EagerSendCompletesWithoutReceiver) {
  Fixture f(2);
  f.run([&](Comm& c) {
    if (c.rank() == 0) {
      double x = 1.0;
      c.send(1, 0, &x, sizeof x);  // far below the eager threshold
      // Sender only paid its send overhead — it never waited for rank 1,
      // which in this test does not even post a receive.
      EXPECT_EQ(c.now(), f.world.options().net.send_overhead);
    }
  });
}

TEST(Smpi, PayloadIsTransferredFaithfully) {
  Fixture f(2);
  f.run([](Comm& c) {
    double buf[4] = {1.5, 2.5, 3.5, 4.5};
    if (c.rank() == 0) {
      c.send(1, 3, buf, sizeof buf);
    } else {
      double out[4] = {};
      RecvStatus st;
      c.recv(0, 3, out, sizeof out, &st);
      EXPECT_EQ(st.src, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, sizeof buf);
      for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(out[i], buf[i]);
    }
  });
}

TEST(Smpi, RendezvousSendBlocksUntilReceivePosted) {
  Fixture f(2);
  const std::size_t big =
      f.world.options().net.eager_threshold + 1024;  // forces rendezvous
  std::vector<std::uint8_t> data(big, 0xab);
  f.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 0, data.data(), data.size());
      // The receiver posts its recv at t=1ms; a rendezvous send cannot
      // have completed before the CTS round trip from that post.
      EXPECT_GT(c.now(), vtime_from_ms(1));
    } else {
      c.delay(vtime_from_ms(1));
      std::vector<std::uint8_t> out(big);
      c.recv(0, 0, out.data(), out.size());
      EXPECT_EQ(out[big / 2], 0xab);
    }
  });
}

TEST(Smpi, RendezvousCostsMoreThanEagerForSameBytes) {
  // Same byte count just below vs just above the threshold: the
  // rendezvous handshake must add latency to the receiver's completion.
  auto completion = [](std::size_t bytes) {
    World::Options opts;
    Fixture f(2, opts);
    VTime done = 0;
    f.run([&](Comm& c) {
      std::vector<std::uint8_t> buf(bytes);
      if (c.rank() == 0) {
        c.send(1, 0, buf.data(), bytes);
      } else {
        c.recv(0, 0, buf.data(), bytes);
        done = c.now();
      }
    });
    return done;
  };
  World::Options opts;
  const std::size_t thr = opts.net.eager_threshold;
  EXPECT_GT(completion(thr + 1), completion(thr - 1));
}

TEST(Smpi, NonOvertakingSameTag) {
  Fixture f(2);
  f.run([](Comm& c) {
    if (c.rank() == 0) {
      double a = 1.0, b = 2.0;
      c.send(1, 0, &a, sizeof a);
      c.send(1, 0, &b, sizeof b);
    } else {
      double x = 0.0;
      c.recv(0, 0, &x, sizeof x);
      EXPECT_DOUBLE_EQ(x, 1.0);
      c.recv(0, 0, &x, sizeof x);
      EXPECT_DOUBLE_EQ(x, 2.0);
    }
  });
}

TEST(Smpi, AnySourceAndAnyTagReceive) {
  Fixture f(3);
  f.run([](Comm& c) {
    double x = static_cast<double>(c.rank());
    if (c.rank() != 2) {
      c.send(2, 10 + c.rank(), &x, sizeof x);
    } else {
      double out = -1.0;
      RecvStatus st;
      c.recv(kAnySource, kAnyTag, &out, sizeof out, &st);
      EXPECT_DOUBLE_EQ(out, static_cast<double>(st.src));
      c.recv(kAnySource, kAnyTag, &out, sizeof out, &st);
      EXPECT_DOUBLE_EQ(out, static_cast<double>(st.src));
    }
  });
}

TEST(Smpi, IsendIrecvWaitall) {
  Fixture f(2);
  f.run([](Comm& c) {
    const int peer = 1 - c.rank();
    double out = -1.0;
    double in = static_cast<double>(c.rank());
    std::vector<Request> reqs;
    reqs.push_back(c.irecv(peer, 0, &out, sizeof out));
    reqs.push_back(c.isend(peer, 0, &in, sizeof in));
    c.waitall(reqs);
    EXPECT_DOUBLE_EQ(out, static_cast<double>(peer));
  });
}

TEST(Smpi, SymmetricRendezvousExchangeDoesNotDeadlock) {
  // Both ranks isend a large message then waitall with the recv — the
  // progress-engine case §waitall handles by servicing receives first.
  Fixture f(2);
  const std::size_t big = f.world.options().net.eager_threshold * 2;
  f.run([&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<std::uint8_t> in(big, static_cast<std::uint8_t>(c.rank()));
    std::vector<std::uint8_t> out(big, 0xff);
    std::vector<Request> reqs;
    reqs.push_back(c.isend(peer, 0, in.data(), big));
    reqs.push_back(c.irecv(peer, 0, out.data(), big));
    c.waitall(reqs);
    EXPECT_EQ(out[0], static_cast<std::uint8_t>(peer));
  });
}

TEST(Smpi, RecvBufferTooSmallIsAnError) {
  // A structured TargetProgramError (not a CheckError with its simulator
  // check banner): the harness maps it to RunStatus::kInternalError.
  Fixture f(2);
  try {
    f.run([](Comm& c) {
      double big[4] = {1, 2, 3, 4};
      if (c.rank() == 0) {
        c.send(1, 0, big, sizeof big);
      } else {
        double small = 0;
        c.recv(0, 0, &small, sizeof small);
      }
    });
    FAIL() << "expected TargetProgramError";
  } catch (const TargetProgramError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("buffer too small"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BcastDeliversRootValueToAll) {
  Fixture f(GetParam());
  f.run([](Comm& c) {
    double buf[3] = {0, 0, 0};
    if (c.rank() == 2 % c.size()) {
      buf[0] = 42.0;
      buf[1] = 43.0;
      buf[2] = 44.0;
    }
    c.bcast(buf, sizeof buf, 2 % c.size());
    EXPECT_DOUBLE_EQ(buf[0], 42.0);
    EXPECT_DOUBLE_EQ(buf[2], 44.0);
  });
}

TEST_P(CollectiveSizes, ReduceSumAccumulatesAtRoot) {
  const int n = GetParam();
  Fixture f(n);
  f.run([n](Comm& c) {
    double v[2] = {static_cast<double>(c.rank()), 1.0};
    c.reduce_sum(v, 2, 0);
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(v[0], n * (n - 1) / 2.0);
      EXPECT_DOUBLE_EQ(v[1], static_cast<double>(n));
    }
  });
}

TEST_P(CollectiveSizes, AllreduceSumAgreesEverywhere) {
  const int n = GetParam();
  Fixture f(n);
  f.run([n](Comm& c) {
    double total = static_cast<double>(c.rank() + 1);
    c.allreduce_sum(&total, 1);
    EXPECT_DOUBLE_EQ(total, n * (n + 1) / 2.0);
  });
}

TEST_P(CollectiveSizes, AllreduceMaxAgreesEverywhere) {
  const int n = GetParam();
  Fixture f(n);
  f.run([n](Comm& c) {
    double v = static_cast<double>(c.rank());
    c.allreduce_max(&v, 1);
    EXPECT_DOUBLE_EQ(v, static_cast<double>(n - 1));
  });
}

TEST_P(CollectiveSizes, BarrierSynchronizesClocks) {
  const int n = GetParam();
  Fixture f(n);
  f.run([](Comm& c) {
    // Stagger arrival; after the barrier nobody can be earlier than the
    // latest pre-barrier time.
    const VTime mine = vtime_from_us(10 * (c.rank() + 1));
    c.delay(mine);
    const VTime latest = vtime_from_us(10 * c.size());
    c.barrier();
    EXPECT_GE(c.now(), latest);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

/// Root-sequential algorithms for every collective the IR can issue.
World::Options linear_collectives() {
  World::Options opts;
  opts.coll.barrier = CollAlgo::kLinear;
  opts.coll.bcast = CollAlgo::kLinear;
  opts.coll.reduce = CollAlgo::kLinear;
  opts.coll.allreduce = CollAlgo::kLinear;
  return opts;
}

TEST(Smpi, LinearCollectivesProduceSameValues) {
  Fixture f(7, linear_collectives());
  f.run([](Comm& c) {
    double v = static_cast<double>(c.rank() + 1);
    c.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 28.0);
    double buf = c.rank() == 3 ? 9.0 : 0.0;
    c.bcast(&buf, sizeof buf, 3);
    EXPECT_DOUBLE_EQ(buf, 9.0);
    c.barrier();
  });
}

TEST(Smpi, TreeBeatsLinearAtScale) {
  auto barrier_time = [](bool linear, int procs) {
    Fixture f(procs, linear ? linear_collectives() : World::Options{});
    VTime t = 0;
    f.run([&](Comm& c) {
      c.barrier();
      if (c.rank() == 0) t = c.now();
    });
    return t;
  };
  EXPECT_LT(barrier_time(false, 64), barrier_time(true, 64));
}

// ---------------------------------------------------------------------------
// delay / read_param / stats / trace
// ---------------------------------------------------------------------------

TEST(Smpi, DelayAdvancesClockAndCountsAsCompute) {
  Fixture f(1);
  f.run([&](Comm& c) {
    c.delay(vtime_from_ms(2));
    EXPECT_EQ(c.now(), vtime_from_ms(2));
  });
  EXPECT_EQ(f.world.stats(0).compute_time, vtime_from_ms(2));
  EXPECT_EQ(f.world.stats(0).delays, 1u);
}

TEST(Smpi, NegativeDelayIsRejected) {
  Fixture f(1);
  EXPECT_THROW(f.run([](Comm& c) { c.delay(-1); }), CheckError);
}

TEST(Smpi, ReadParamBroadcastsTheTableValue) {
  Fixture f(5);
  f.world.set_param("w_foo", 3.25e-6);
  f.run([](Comm& c) {
    EXPECT_DOUBLE_EQ(c.read_param("w_foo"), 3.25e-6);
    // Collective: everyone pays at least the wire latency from rank 0.
    if (c.rank() != 0) {
      EXPECT_GT(c.now(), 0);
    }
  });
}

TEST(Smpi, MissingParamFailsWithHelpfulError) {
  Fixture f(1);
  try {
    f.run([](Comm& c) { c.read_param("w_nope"); });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("w_nope"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("timer"), std::string::npos);
  }
}

TEST(Smpi, StatsCountOperations) {
  Fixture f(2);
  f.run([](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      c.send(1, 0, &x, sizeof x);
      c.send(1, 0, &x, sizeof x);
    } else {
      c.recv(0, 0, &x, sizeof x);
      c.recv(0, 0, &x, sizeof x);
    }
    c.barrier();
  });
  EXPECT_EQ(f.world.stats(0).sends, 2u);
  EXPECT_EQ(f.world.stats(0).bytes_sent, 2 * sizeof(double));
  EXPECT_EQ(f.world.stats(1).recvs, 2u);
  EXPECT_EQ(f.world.stats(0).collectives, 1u);
  EXPECT_EQ(f.world.stats(1).collectives, 1u);
}

TEST(Smpi, CommTraceRecordsUserLevelOps) {
  CommTrace trace(2);
  World::Options opts;
  opts.trace = &trace;
  Fixture f(2, opts);
  f.run([](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      c.send(1, 7, &x, sizeof x);
    } else {
      c.recv(0, 7, &x, sizeof x);
    }
    c.barrier();
  });
  const auto& r0 = trace.per_rank()[0];
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0].kind, CommEvent::Kind::kSend);
  EXPECT_EQ(r0[0].peer, 1);
  EXPECT_EQ(r0[0].tag, 7);
  EXPECT_EQ(r0[0].bytes, sizeof(double));
  EXPECT_EQ(r0[1].kind, CommEvent::Kind::kBarrier);
}

TEST(Smpi, CommTraceDiffPinpointsDivergence) {
  CommTrace a(1), b(1);
  a.add(0, {CommEvent::Kind::kSend, 1, 0, 8});
  b.add(0, {CommEvent::Kind::kSend, 1, 0, 16});
  EXPECT_EQ(a.diff(a), "");
  const std::string d = a.diff(b);
  EXPECT_NE(d.find("rank 0"), std::string::npos);
  EXPECT_NE(d.find("8/16"), std::string::npos);
}

}  // namespace
}  // namespace stgsim::smpi
