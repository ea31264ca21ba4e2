#include "smpi/smpi.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace stgsim::smpi {

namespace {

/// Wire size charged for control messages (RTS/CTS envelopes).
constexpr std::size_t kControlBytes = 64;

}  // namespace

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

double World::param(const std::string& name) const {
  auto it = params_.find(name);
  STGSIM_CHECK(it != params_.end())
      << "missing model parameter '" << name
      << "' — run the timer-instrumented program first (Figure 2 workflow)";
  return it->second;
}

std::string CommTrace::diff(const CommTrace& other) const {
  std::ostringstream os;
  if (per_rank_.size() != other.per_rank_.size()) {
    os << "rank count differs: " << per_rank_.size() << " vs "
       << other.per_rank_.size();
    return os.str();
  }
  for (std::size_t r = 0; r < per_rank_.size(); ++r) {
    const auto& a = per_rank_[r];
    const auto& b = other.per_rank_[r];
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!(a[i] == b[i])) {
        os << "rank " << r << " op " << i << ": kind "
           << static_cast<int>(a[i].kind) << "/" << static_cast<int>(b[i].kind)
           << " peer " << a[i].peer << "/" << b[i].peer << " tag " << a[i].tag
           << "/" << b[i].tag << " bytes " << a[i].bytes << "/" << b[i].bytes;
        return os.str();
      }
    }
    if (a.size() != b.size()) {
      os << "rank " << r << ": op count " << a.size() << " vs " << b.size();
      return os.str();
    }
  }
  return "";
}

RankStats World::aggregate_stats() const {
  RankStats agg;
  for (const auto& s : stats_) {
    agg.compute_time = std::max(agg.compute_time, s.compute_time);
    agg.comm_time = std::max(agg.comm_time, s.comm_time);
    agg.sends += s.sends;
    agg.recvs += s.recvs;
    agg.collectives += s.collectives;
    agg.delays += s.delays;
    agg.bytes_sent += s.bytes_sent;
  }
  return agg;
}

// ---------------------------------------------------------------------------
// Comm: basics
// ---------------------------------------------------------------------------

Comm::Comm(World& world, simk::Process& proc)
    : world_(world), proc_(proc), stats_(world.stats(proc.rank())) {
  STGSIM_CHECK_EQ(world.nranks(), proc.world_size());
  proc_.user = this;
  // Arm the engine's wildcard (ANY_SOURCE) safety bound with
  // this network's latency floor; without it the bound degenerates to the
  // raw minimum clock and every contested wildcard receive takes the
  // stuck-promotion slow path. The floor includes the fault plan's
  // always-on global latency factors — a sound, possibly larger bound.
  proc_.engine().set_wildcard_min_latency(world_.wildcard_latency_floor());
}

Comm::~Comm() { proc_.user = nullptr; }

void Comm::save_state(BlobWriter& w) const {
  w.u32(next_rid_);
  w.u64(coll_seq_);
  w.pod(stats_);
  obs::Recorder* rec = world_.options().obs;
  w.u8(rec != nullptr ? 1 : 0);
  if (rec != nullptr) rec->save_rank(proc_.rank(), w);
}

void Comm::restore_state(BlobReader& r) {
  next_rid_ = r.u32();
  coll_seq_ = r.u64();
  stats_ = r.get<RankStats>();
  const bool had_obs = r.u8() != 0;
  obs::Recorder* rec = world_.options().obs;
  STGSIM_CHECK_EQ(had_obs, rec != nullptr)
      << "checkpoint blob and run disagree about observability";
  if (rec != nullptr) rec->restore_rank(proc_.rank(), r);
}

void Comm::compute(VTime t) {
  const VTime t0 = now();
  const VTime dt = stretched(t);
  proc_.advance(dt);
  stats_.compute_time += dt;
  obs_op(obs::OpKind::kCompute, -1, 0, t0);
}

void Comm::delay(VTime t) {
  STGSIM_CHECK_GE(t, 0) << "negative delay — bad scaling function?";
  const VTime t0 = now();
  const VTime dt = stretched(t);
  proc_.advance(dt);
  stats_.compute_time += dt;
  ++stats_.delays;
  obs_op(obs::OpKind::kDelay, -1, 0, t0);
}

VTime Comm::send_raw(int dst, MsgKind msg_kind, int tag, std::uint64_t aux,
                     const void* data, std::size_t bytes, VTime arrival) {
  simk::Message m;
  m.src = rank();
  m.dst = dst;
  m.kind = msg_kind;
  m.tag = tag;
  m.aux = aux;
  m.sent_at = now();
  m.arrival = arrival;
  m.wire_bytes = bytes;
  if (data != nullptr && bytes > 0) {
    m.payload = proc_.make_payload(data, bytes);
  }
  proc_.send(std::move(m));
  return arrival;
}

VTime Comm::abstract_coll_cost(std::size_t bytes) const {
  const auto& net = world_.options().net;
  int rounds = 0;
  for (int span = 1; span < size(); span <<= 1) ++rounds;
  // Hop-aware round latency: a collective's rounds cross the platform's
  // diameter in the worst case. On the flat preset the diameter is the
  // base latency, reproducing the pre-platform closed form exactly.
  const VTime per_round = world_.network().platform().diameter_latency() +
                          net.send_overhead + net.recv_overhead;
  return rounds * per_round +
         vtime_from_sec(static_cast<double>(bytes) / net.bytes_per_sec);
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

Request Comm::post_send(int dst, int tag, const void* data,
                        std::size_t bytes) {
  STGSIM_CHECK(dst >= 0 && dst < size());
  proc_.advance(world_.options().net.send_overhead);
  ++stats_.sends;
  stats_.bytes_sent += bytes;

  Request req;
  req.peer = dst;
  req.tag = tag;
  req.bytes = bytes;
  if (!rendezvous(bytes)) {
    send_raw(dst, kKindEager, tag, 0, data, bytes,
             wire_arrival(dst, bytes, net::TransferKind::kEager));
    req.kind_ = Request::Kind::kSendDone;
    req.done_ = true;
  } else {
    // Rendezvous: the RTS envelope carries the payload for fidelity of the
    // data, but only kControlBytes travel now; the bulk transfer is modeled
    // by the receiver once it grants the CTS. The send completes when the
    // CTS arrives — i.e. not before the receive is posted.
    req.rid = (static_cast<std::uint64_t>(rank()) << 32) | next_rid_++;
    send_raw(dst, kKindRts, tag, req.rid, data, bytes,
             wire_arrival(dst, kControlBytes, net::TransferKind::kControl));
    req.kind_ = Request::Kind::kSendRendezvous;
  }
  return req;
}

void Comm::finish_send(obs::OpKind op, const Request& req, VTime t0) {
  stats_.comm_time += now() - t0;
  if (world_.options().obs != nullptr) {
    world_.options().obs->count_p2p(
        rank(), req.peer, req.bytes,
        req.kind_ == Request::Kind::kSendRendezvous);
    obs_op(op, req.peer, req.bytes, t0);
  }
}

void Comm::await_cts(const Request& req) {
  simk::MatchSpec spec;
  spec.src = req.peer;
  spec.kind_mask = kMaskCts;
  spec.match_aux = true;
  spec.aux = req.rid;
  spec.what = "rendezvous-cts";
  spec.user_tag = req.tag;
  simk::Message cts = proc_.blocking_match(spec);
  proc_.lift_clock(cts.arrival);
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  const VTime t0 = now();
  trace(CommEvent::Kind::kSend, dst, tag, bytes);
  const Request req = post_send(dst, tag, data, bytes);
  if (!req.done_) await_cts(req);
  finish_send(obs::OpKind::kSend, req, t0);
}

Request Comm::isend(int dst, int tag, const void* data, std::size_t bytes) {
  const VTime t0 = now();
  trace(CommEvent::Kind::kIsend, dst, tag, bytes);
  Request req = post_send(dst, tag, data, bytes);
  finish_send(obs::OpKind::kIsend, req, t0);
  return req;
}

simk::Message Comm::match_recv(int src, int user_tag) {
  simk::MatchSpec spec;
  spec.src = (src == kAnySource) ? simk::MatchSpec::kAnySource : src;
  spec.kind_mask = kMaskP2P;
  spec.tag = user_tag;  // kAnyTag == MatchSpec::kAnyTag
  spec.what = "recv";
  spec.user_tag = user_tag;
  return proc_.blocking_match(spec);
}

void Comm::complete_eager_or_rts(simk::Message& m, void* data,
                                 std::size_t bytes, RecvStatus* status) {
  if (m.wire_bytes > bytes) {
    // A target-program bug (MPI_ERR_TRUNCATE territory), not a simulator
    // invariant: report it structurally so the harness can surface an
    // internal_error outcome instead of a check-failure banner.
    std::ostringstream os;
    os << "rank " << rank() << ": receive buffer too small: posted " << bytes
       << " got " << m.wire_bytes << " (src " << m.src << " tag " << m.tag
       << ")";
    throw TargetProgramError(os.str());
  }
  proc_.lift_clock(m.arrival);

  if (m.kind == kKindRts) {
    // Grant the transfer: CTS back to the sender, then model the bulk
    // data crossing the wire starting when the CTS reaches the sender.
    const VTime cts_arrival = send_raw(
        m.src, kKindCts, m.tag, m.aux, nullptr, kControlBytes,
        wire_arrival(m.src, kControlBytes, net::TransferKind::kControl));
    const VTime data_done = world_.network().arrival(
        m.src, rank(), cts_arrival, m.wire_bytes, proc_.rng(),
        net::TransferKind::kRendezvousData);
    proc_.lift_clock(data_done);
  }

  proc_.advance(world_.options().net.recv_overhead);
  if (data != nullptr && !m.payload.empty()) {
    std::memcpy(data, m.payload.data(), m.payload.size());
  }
  if (status != nullptr) {
    status->src = m.src;
    status->tag = m.tag;
    status->bytes = m.wire_bytes;
  }
  ++stats_.recvs;
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes,
                RecvStatus* status) {
  const VTime t0 = now();
  trace(CommEvent::Kind::kRecv, src, tag, bytes);
  simk::Message m = match_recv(src, tag);
  const int from = m.src;
  complete_eager_or_rts(m, data, bytes, status);
  stats_.comm_time += now() - t0;
  obs_op(obs::OpKind::kRecv, from, bytes, t0);
}

Request Comm::irecv(int src, int tag, void* data, std::size_t bytes,
                    RecvStatus* status) {
  trace(CommEvent::Kind::kIrecv, src, tag, bytes);
  Request req;
  req.kind_ = Request::Kind::kRecv;
  req.peer = src;
  req.tag = tag;
  req.buf = data;
  req.bytes = bytes;
  req.status = status;
  obs_op(obs::OpKind::kIrecv, src, bytes, now());  // posting is instant
  return req;
}

void Comm::wait(Request& req) {
  STGSIM_CHECK(req.valid()) << "wait() on invalid request";
  if (req.done_) return;
  const VTime t0 = now();
  if (req.kind_ == Request::Kind::kSendRendezvous) {
    await_cts(req);
  } else if (req.kind_ == Request::Kind::kRecv) {
    simk::Message m = match_recv(req.peer, req.tag);
    complete_eager_or_rts(m, req.buf, req.bytes, req.status);
  }
  req.done_ = true;
  stats_.comm_time += now() - t0;
  obs_op(obs::OpKind::kWait, req.peer, req.bytes, t0);
}

void Comm::waitall(std::vector<Request>& reqs) {
  const VTime t0 = now();
  trace(CommEvent::Kind::kWaitall, -1, 0, reqs.size());
  // Service receives first: granting CTSes unblocks peers whose
  // rendezvous sends we may be waiting on ourselves (progress-engine
  // behaviour of a real MPI library).
  for (auto& r : reqs) {
    if (r.kind_ == Request::Kind::kRecv) wait(r);
  }
  for (auto& r : reqs) {
    if (!r.done_) wait(r);
  }
  obs_op(obs::OpKind::kWaitall, -1, reqs.size(), t0);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

void Comm::combine(double* acc, const double* in, int n, Combine op) {
  for (int i = 0; i < n; ++i) {
    acc[i] = op == Combine::kMax ? std::max(acc[i], in[i]) : acc[i] + in[i];
  }
}

template <class Body>
void Comm::collective(CommEvent::Kind kind, obs::OpKind op, int peer,
                      int tag, std::size_t bytes, Body&& body) {
  trace(kind, peer, tag, bytes);
  const VTime t0 = now();
  ++coll_seq_;
  ++stats_.collectives;
  body();
  stats_.comm_time += now() - t0;
  obs_op(op, peer, bytes, t0);
}

simk::MatchSpec Comm::coll_spec(int src, int round) const {
  simk::MatchSpec spec;
  spec.src = src;
  spec.kind_mask = kMaskColl;
  spec.match_aux = true;
  spec.aux = (coll_seq_ << 8) | static_cast<std::uint64_t>(round & 0xff);
  spec.what = "collective";
  return spec;
}

void Comm::coll_send(int dst, int round, const void* data, std::size_t bytes) {
  proc_.advance(world_.options().net.send_overhead);
  coll_send_at(dst, round, data, bytes,
               wire_arrival(dst, std::max(bytes, std::size_t{8}),
                            net::TransferKind::kEager));
}

void Comm::coll_send_at(int dst, int round, const void* data,
                        std::size_t bytes, VTime arrival) {
  send_raw(dst, kKindColl, 0,
           (coll_seq_ << 8) | static_cast<std::uint64_t>(round & 0xff), data,
           bytes, arrival);
  stats_.bytes_sent += bytes;
  if (world_.options().obs != nullptr) {
    world_.options().obs->count_coll_msg(rank(), dst, bytes);
  }
}

void Comm::coll_recv(int src, int round, void* data, std::size_t bytes) {
  simk::Message m = proc_.blocking_match(coll_spec(src, round));
  proc_.lift_clock(m.arrival);
  proc_.advance(world_.options().net.recv_overhead);
  if (data != nullptr && !m.payload.empty()) {
    STGSIM_CHECK_LE(m.payload.size(), bytes);
    std::memcpy(data, m.payload.data(), m.payload.size());
  }
}

void Comm::abstract_gather(double* inout, int n, int root, Combine op,
                           VTime entry, VTime cost) {
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  if (rank() != root) {
    coll_send_at(root, 0, inout, bytes, now() + entry);
    return;
  }
  std::vector<double> partial(static_cast<std::size_t>(n));
  VTime latest = now();
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    simk::Message m = proc_.blocking_match(coll_spec(r, 0));
    latest = std::max(latest, m.arrival);
    if (inout != nullptr && !m.payload.empty()) {
      std::memcpy(partial.data(), m.payload.data(), m.payload.size());
      combine(inout, partial.data(), n, op);
    }
  }
  proc_.lift_clock(latest + cost);
}

void Comm::barrier() {
  collective(CommEvent::Kind::kBarrier, obs::OpKind::kBarrier, -1, 0, 0, [&] {
    const int P = size();
    if (abstract_comm()) {
      // Gather/release star with a closed-form cost each way.
      const VTime half = abstract_coll_cost(0) / 2;
      abstract_gather(nullptr, 0, 0, Combine::kSum, half, half);
      if (rank() == 0) {
        for (int r = 1; r < P; ++r) {
          coll_send_at(r, 1, nullptr, 0, now() + half);
        }
      } else {
        coll_recv(0, 1, nullptr, 0);
      }
    } else if (coll_algo(CollOp::kBarrier, coll_cfg().barrier, 0) ==
               CollAlgo::kLinear) {
      // Gather-to-0 then release, both root-sequential.
      if (rank() == 0) {
        for (int r = 1; r < P; ++r) coll_recv(r, 0, nullptr, 0);
        for (int r = 1; r < P; ++r) coll_send(r, 1, nullptr, 0);
      } else {
        coll_send(0, 0, nullptr, 0);
        coll_recv(0, 1, nullptr, 0);
      }
    } else {
      for (int round = 0, offset = 1; offset < P; ++round, offset <<= 1) {
        coll_send((rank() + offset) % P, round, nullptr, 0);
        coll_recv((rank() - offset % P + P) % P, round, nullptr, 0);
      }
    }
  });
}

void Comm::bcast(void* data, std::size_t bytes, int root) {
  collective(CommEvent::Kind::kBcast, obs::OpKind::kBcast, root, 0, bytes,
             [&] {
    const int P = size();
    const CollAlgo algo =
        coll_algo(CollOp::kBcast, coll_cfg().bcast, bytes);
    if (rank() != root && (abstract_comm() || algo == CollAlgo::kLinear)) {
      coll_recv(root, 0, data, bytes);
    } else if (abstract_comm()) {
      // Star from the root, arrivals at the closed-form completion time.
      const VTime done = now() + abstract_coll_cost(bytes);
      for (int r = 0; r < P; ++r) {
        if (r != root) coll_send_at(r, 0, data, bytes, done);
      }
    } else if (algo == CollAlgo::kLinear) {
      for (int r = 0; r < P; ++r) {
        if (r != root) coll_send(r, 0, data, bytes);
      }
    } else if (algo == CollAlgo::kRing) {
      bcast_ring(data, bytes, root);
    } else {
      const int relative = (rank() - root + P) % P;
      int mask = 1;
      while (mask < P) {
        if (relative & mask) {
          coll_recv((rank() - mask + P) % P, 0, data, bytes);
          break;
        }
        mask <<= 1;
      }
      for (mask >>= 1; mask > 0; mask >>= 1) {
        if (relative + mask < P) coll_send((rank() + mask) % P, 0, data, bytes);
      }
    }
  });
}

void Comm::reduce(double* inout, int n, int root, Combine op, CollAlgo algo) {
  const int P = size();
  const int relative = (rank() - root + P) % P;
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  if (abstract_comm()) {
    // Gather star into the root; completion = latest entry + closed form.
    abstract_gather(inout, n, root, op, 0, abstract_coll_cost(bytes));
    return;
  }
  if (algo == CollAlgo::kRing) {
    reduce_ring(inout, n, root, op);
    return;
  }
  std::vector<double> partial(static_cast<std::size_t>(n));
  auto take = [&](int src, int round) {
    coll_recv(src, round, partial.data(), bytes);
    if (inout != nullptr) combine(inout, partial.data(), n, op);
  };
  if (algo == CollAlgo::kLinear) {
    if (rank() != root) {
      coll_send(root, 0, inout, bytes);
      return;
    }
    for (int r = 0; r < P; ++r) {
      if (r != root) take(r, 0);
    }
    return;
  }
  for (int mask = 1; mask < P; mask <<= 1) {
    if ((relative & mask) != 0) {
      coll_send(((relative & ~mask) + root) % P, mask, inout, bytes);
      return;
    }
    if ((relative | mask) < P) take(((relative | mask) + root) % P, mask);
  }
}

void Comm::reduce_sum(double* inout, int n, int root) {
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  collective(CommEvent::Kind::kAllreduce, obs::OpKind::kReduce, root, 0, bytes,
             [&] {
    reduce(inout, n, root, Combine::kSum,
           coll_algo(CollOp::kReduce, coll_cfg().reduce, bytes));
  });
}

void Comm::allreduce_sum(double* inout, int n) {
  allreduce(inout, n, Combine::kSum);
}

void Comm::allreduce_max(double* inout, int n) {
  allreduce(inout, n, Combine::kMax);
}

void Comm::allreduce(double* inout, int n, Combine op) {
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  const int tag = op == Combine::kMax ? 1 : 0;
  if (!abstract_comm() && size() > 1 &&
      coll_algo(CollOp::kAllreduce, coll_cfg().allreduce, bytes) ==
          CollAlgo::kRing) {
    collective(CommEvent::Kind::kAllreduce, obs::OpKind::kAllreduce, -1, tag,
               bytes, [&] {
      ring_reduce_scatter(inout, n, 0, op);
      ring_allgather(inout, n, 0);
    });
    return;
  }
  // Otherwise a reduce to rank 0, then a bcast dispatching its own
  // configured algorithm. A sum reduce follows algo.reduce; a max reduce
  // is always binomial.
  if (op == Combine::kSum) {
    reduce_sum(inout, n, 0);
  } else {
    collective(CommEvent::Kind::kAllreduce, obs::OpKind::kAllreduce, -1, tag,
               bytes,
               [&] { reduce(inout, n, 0, op, CollAlgo::kBinomial); });
  }
  bcast(inout, bytes, 0);
}

// ---------------------------------------------------------------------------
// Ring algorithms
//
// All rings run root-relative: rank r sits at chain/ring position
// rel = (r - root + P) % P and talks only to its immediate neighbours.
// coll_send is eager fire-and-forget, so the send-then-recv step order is
// deadlock-free by construction.
// ---------------------------------------------------------------------------

void Comm::bcast_ring(void* data, std::size_t bytes, int root) {
  const int P = size();
  if (P < 2) return;
  auto* out = static_cast<std::uint8_t*>(data);
  const int rel = (rank() - root + P) % P;
  const int prev = (rank() - 1 + P) % P;
  const int next = (rank() + 1) % P;
  // Pipelined chain: the payload is cut into P segments that stream down
  // the chain, so the bandwidth term is ~2x the payload (like van de
  // Geijn scatter+allgather) instead of P-1 x for a naive chain.
  const int segments = P;
  for (int seg = 0; seg < segments; ++seg) {
    const std::size_t lo = bytes * static_cast<std::size_t>(seg) / segments;
    const std::size_t hi =
        bytes * (static_cast<std::size_t>(seg) + 1) / segments;
    void* p = out != nullptr ? out + lo : nullptr;
    if (rel > 0) coll_recv(prev, seg, p, hi - lo);
    if (rel < P - 1) coll_send(next, seg, p, hi - lo);
  }
}

void Comm::ring_reduce_scatter(double* work, int n, int root, Combine op) {
  const int P = size();
  const int rel = (rank() - root + P) % P;
  const int right = (rank() + 1) % P;
  const int left = (rank() - 1 + P) % P;
  // Chunk c covers elements [c*n/P, (c+1)*n/P).
  auto lo = [&](int c) {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(n) / P;
  };
  std::vector<double> tmp(static_cast<std::size_t>(n) / P + 1);
  for (int s = 0; s < P - 1; ++s) {
    // The chunk received last step is the one sent this step, so the
    // partial sums accumulate around the ring; after P-1 steps chunk
    // (rel + 1) % P on this rank holds every rank's contribution.
    const int send_c = ((rel - s) % P + P) % P;
    const int recv_c = ((rel - s - 1) % P + P) % P;
    const std::size_t recv_lo = lo(recv_c);
    const std::size_t recv_n = lo(recv_c + 1) - recv_lo;
    coll_send(right, s, work != nullptr ? work + lo(send_c) : nullptr,
              (lo(send_c + 1) - lo(send_c)) * sizeof(double));
    coll_recv(left, s, work != nullptr ? tmp.data() : nullptr,
              recv_n * sizeof(double));
    if (work != nullptr) {
      combine(work + recv_lo, tmp.data(), static_cast<int>(recv_n), op);
    }
  }
}

void Comm::ring_allgather(double* work, int n, int root) {
  const int P = size();
  const int rel = (rank() - root + P) % P;
  const int right = (rank() + 1) % P;
  const int left = (rank() - 1 + P) % P;
  auto lo = [&](int c) {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(n) / P;
  };
  // Entry state: chunk (rel + 1) % P is this rank's fully reduced chunk
  // (ring_reduce_scatter's postcondition). Rounds continue the sequence
  // numbers where reduce-scatter left off.
  for (int s = 0; s < P - 1; ++s) {
    const int send_c = ((rel + 1 - s) % P + P) % P;
    const int recv_c = ((rel - s) % P + P) % P;
    coll_send(right, P - 1 + s,
              work != nullptr ? work + lo(send_c) : nullptr,
              (lo(send_c + 1) - lo(send_c)) * sizeof(double));
    coll_recv(left, P - 1 + s,
              work != nullptr ? work + lo(recv_c) : nullptr,
              (lo(recv_c + 1) - lo(recv_c)) * sizeof(double));
  }
}

void Comm::reduce_ring(double* inout, int n, int root, Combine op) {
  const int P = size();
  if (P < 2) return;
  ring_reduce_scatter(inout, n, root, op);
  // Owners forward their reduced chunk to the root (chunk c is owned by
  // relative position (c - 1 + P) % P).
  auto lo = [&](int c) {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(n) / P;
  };
  const int rel = (rank() - root + P) % P;
  const int own_c = (rel + 1) % P;
  if (rank() == root) {
    for (int c = 0; c < P; ++c) {
      if (c == own_c) continue;
      const int owner = (((c - 1 + P) % P) + root) % P;
      coll_recv(owner, P - 1 + c,
                inout != nullptr ? inout + lo(c) : nullptr,
                (lo(c + 1) - lo(c)) * sizeof(double));
    }
  } else {
    coll_send(root, P - 1 + own_c,
              inout != nullptr ? inout + lo(own_c) : nullptr,
              (lo(own_c + 1) - lo(own_c)) * sizeof(double));
  }
}

double Comm::read_param(const std::string& name) {
  double value = 0.0;
  if (rank() == 0) {
    proc_.advance(world_.options().param_read_cost);
    value = world_.param(name);
  }
  bcast(&value, sizeof value, 0);
  return value;
}

}  // namespace stgsim::smpi
