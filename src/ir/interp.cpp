#include "ir/interp.hpp"

#include <algorithm>

#include "machine/compute.hpp"
#include "support/blob.hpp"
#include "support/check.hpp"
#include "symexpr/compiled.hpp"

namespace stgsim::ir {

void TimerRecorder::add(const std::string& task, double seconds,
                        double iters) {
  auto& r = records_[task];
  r.seconds += seconds;
  r.iters += iters;
}

std::map<std::string, double> TimerRecorder::to_params() const {
  std::map<std::string, double> params;
  for (const auto& [task, r] : records_) {
    STGSIM_CHECK_GT(r.iters, 0.0) << "task " << task << " never iterated";
    params["w_" + task] = r.seconds / r.iters;
  }
  return params;
}

namespace {

struct ArrayVal {
  TrackedBuffer buf;
  std::vector<std::int64_t> extents;
  std::size_t elems = 0;
  std::size_t elem_bytes = sizeof(double);
  bool declared = false;  ///< its kDeclArray has executed on this rank
};

/// Stamp value no write generation reaches: a memo entry holding it has
/// never been computed.
constexpr std::uint64_t kNeverStamped = ~std::uint64_t{0};

}  // namespace

/// Per-rank interpreter state: one flat frame of scalars, arrays and
/// request lists (the paper's single-procedure model).
///
/// Everything derivable from the program text lives in the shared,
/// read-only Plan (plan.hpp): the slot layout, array and request-list ids,
/// and each statement's compiled hot operands. This object holds only what
/// differs per rank — frame values, definedness and write generations, the
/// memo table, arrays and request lists by id, scratch space and the
/// position stack — so a rank's set-up is a handful of allocations and no
/// compilation.
class ExecState : public sym::Env {
 public:
  ExecState(const Plan& plan, smpi::Comm& comm, const ExecOptions& options)
      : plan_(plan),
        comm_(comm),
        options_(options),
        frame_(static_cast<std::size_t>(plan.num_slots())),
        frame_defined_(static_cast<std::size_t>(plan.num_slots()), 0),
        frame_gen_(static_cast<std::size_t>(plan.num_slots()), 0),
        memo_(static_cast<std::size_t>(plan.num_memos())),
        memo_stamp_(static_cast<std::size_t>(plan.num_stamps()),
                    kNeverStamped),
        arrays_(static_cast<std::size_t>(plan.num_arrays())),
        requests_(static_cast<std::size_t>(plan.num_request_lists())) {}

  void run() {
    simk::Process& proc = comm_.process();
    const std::vector<std::uint8_t>* blob = proc.pending_restore();
    if (blob == nullptr) {
      exec_block(plan_.program().main());
      return;
    }
    // Optimistic-mode rollback into a checkpoint: rebuild the captured
    // interpreter state, then re-enter the statement tree at the recorded
    // position. The engine feeds subsequent receives from its consumption
    // log (coast-forward replay), so execution from here reproduces the
    // pre-rollback state exactly.
    std::vector<PosFrame> pos;
    {
      BlobReader r(*blob);
      comm_.restore_state(r);
      deserialize_state(r, &pos);
      STGSIM_CHECK(r.done()) << "trailing bytes in checkpoint blob";
    }
    proc.clear_pending_restore();
    STGSIM_CHECK(!pos.empty()) << "checkpoint blob carries no position";
    exec_block_resume(plan_.program().main(), pos, 0);
  }

  // sym::Env
  std::optional<sym::Value> lookup(const std::string& name) const override {
    const int slot = plan_.slot(name);
    if (!defined(slot)) return std::nullopt;
    return frame_[static_cast<std::size_t>(slot)];
  }

  smpi::Comm& comm() { return comm_; }

  ArrayVal& array(const std::string& name) {
    return array_at(plan_.array(name), name);
  }

  sym::Value scalar(const std::string& name) const {
    return read_slot(plan_.slot(name), name);
  }

  void set_scalar(const std::string& name, const sym::Value& v) {
    assign_slot(plan_.slot(name), name, v);
  }

 private:
  friend class KernelCtx;

  /// A declared array by id (-1: the program declares no such array).
  ArrayVal& array_at(int id, const std::string& name) {
    STGSIM_CHECK(id >= 0 && arrays_[static_cast<std::size_t>(id)].declared)
        << "unknown array '" << name << "'";
    return arrays_[static_cast<std::size_t>(id)];
  }

  /// True for a slot whose declaration has executed (-1: no such slot).
  bool defined(int slot) const {
    return slot >= 0 && frame_defined_[static_cast<std::size_t>(slot)] != 0;
  }

  sym::Value read_slot(int slot, const std::string& name) const {
    STGSIM_CHECK(defined(slot)) << "unknown scalar '" << name << "'";
    return frame_[static_cast<std::size_t>(slot)];
  }

  /// Assignment to an already-declared scalar.
  void assign_slot(int slot, const std::string& name, const sym::Value& v) {
    STGSIM_CHECK(defined(slot))
        << "assignment to undeclared scalar '" << name << "'";
    write_slot(static_cast<std::size_t>(slot), v);
  }

  /// Declaration (or loop-variable / rank / size / parameter definition):
  /// the slot takes `v` as is and becomes defined.
  void define_slot(std::size_t slot, const sym::Value& v) {
    frame_[slot] = v;
    frame_defined_[slot] = 1;
    ++frame_gen_[slot];
  }

  /// Writes a defined slot, keeping declared integer scalars integral
  /// (Fortran INTEGER).
  void write_slot(std::size_t slot, const sym::Value& v) {
    sym::Value& cur = frame_[slot];
    if (cur.is_int() && !v.is_int()) {
      cur = sym::Value(v.as_int());
    } else {
      cur = v;
    }
    ++frame_gen_[slot];
  }

  /// Evaluates a planned hot operand against this rank's frame. A kMemo
  /// operand's last result stays valid while every input slot's write
  /// generation still matches its stamp: most steady-state operands (peer
  /// ranks, message counts, neighbour conditions, condensed delay costs)
  /// read only rank/size/configuration scalars that are written once, so
  /// revalidation is an integer compare per input instead of a tape run.
  /// Operands are pure, so evaluation itself never moves a generation.
  sym::Value eval(const PlannedExpr& pe) {
    switch (pe.kind) {
      case PlannedExpr::Kind::kConst:
        return pe.value;
      case PlannedExpr::Kind::kLoad: {
        const int slot = pe.frame_slots[0];
        if (!defined(slot)) {
          throw sym::EvalError("unbound variable '" + plan_.slot_name(slot) +
                               "'");
        }
        return frame_[static_cast<std::size_t>(slot)];
      }
      case PlannedExpr::Kind::kMemo: {
        std::uint64_t* stamp =
            memo_stamp_.data() + static_cast<std::size_t>(pe.stamp);
        auto gen = [&](std::size_t i) {
          return frame_gen_[static_cast<std::size_t>(pe.frame_slots[i])];
        };
        const std::size_t n = pe.frame_slots.size();
        std::size_t i = 0;
        while (i < n && stamp[i] == gen(i)) ++i;
        sym::Value& memo = memo_[static_cast<std::size_t>(pe.memo)];
        if (i == n) return memo;
        memo = run_tape(pe);
        for (i = 0; i < n; ++i) stamp[i] = gen(i);
        return memo;
      }
      case PlannedExpr::Kind::kTape:
        return run_tape(pe);
    }
    return {};
  }

  /// Runs an operand's tape with its free slots bound from the frame. The
  /// scratch is sized grow-only and NOT cleared between operands: every
  /// loadable slot is explicitly written below (free slots) or managed by
  /// the tape itself (Sum binders), so stale entries from other operands
  /// are unreachable.
  sym::Value run_tape(const PlannedExpr& pe) {
    const auto n = static_cast<std::size_t>(pe.code.num_slots());
    if (scratch_.slots.size() < n) {
      scratch_.slots.resize(n);
      scratch_.bound.resize(n);
    }
    const std::vector<int>& free = pe.code.free_slots();
    for (std::size_t i = 0; i < free.size(); ++i) {
      const auto slot = static_cast<std::size_t>(free[i]);
      const auto fi = static_cast<std::size_t>(pe.frame_slots[i]);
      if (frame_defined_[fi] != 0) {
        scratch_.slots[slot] = frame_[fi];
        scratch_.bound[slot] = 1;
      } else {
        scratch_.bound[slot] = 0;
      }
    }
    return pe.code.eval(scratch_);
  }

  /// One level of the interpreter's position in the statement tree, as a
  /// plain restartable coordinate: the statement index within the block,
  /// plus — when that statement is the one being descended through — its
  /// in-progress state (kFor: current induction value and the bound as
  /// evaluated at loop entry, since the body may mutate its inputs; kIf:
  /// which arm was taken). Serialized into checkpoints; rollback resumes
  /// by re-descending the stack.
  struct PosFrame {
    std::uint32_t index = 0;
    std::int64_t loop_i = 0;
    std::int64_t loop_hi = 0;
    std::uint8_t branch = 0;
  };

  void exec_block(const std::vector<StmtP>& block) {
    const std::size_t d = pos_stack_.size();
    pos_stack_.emplace_back();
    for (std::size_t i = 0; i < block.size(); ++i) {
      // Index, never a held reference: nested exec_block calls grow the
      // stack and may reallocate it.
      pos_stack_[d].index = static_cast<std::uint32_t>(i);
      exec_stmt(*block[i]);
      maybe_checkpoint();
    }
    pos_stack_.pop_back();
  }

  /// Re-enters `block` at the checkpointed position `pos[depth...]`: the
  /// innermost frame's statement had completed when the checkpoint was
  /// taken, every outer frame's statement is in progress and is descended
  /// through; after the resumed statement the block continues normally.
  void exec_block_resume(const std::vector<StmtP>& block,
                         const std::vector<PosFrame>& pos,
                         std::size_t depth) {
    const std::size_t d = pos_stack_.size();
    pos_stack_.push_back(pos[depth]);
    std::size_t start = static_cast<std::size_t>(pos[depth].index) + 1;
    if (depth + 1 != pos.size()) {
      STGSIM_CHECK_LT(static_cast<std::size_t>(pos[depth].index),
                      block.size())
          << "checkpoint position out of range";
      exec_stmt_resume(*block[pos[depth].index], pos, depth);
    }
    for (std::size_t i = start; i < block.size(); ++i) {
      pos_stack_[d].index = static_cast<std::uint32_t>(i);
      exec_stmt(*block[i]);
      maybe_checkpoint();
    }
    pos_stack_.pop_back();
  }

  /// Descends into an in-progress block-bearing statement during resume.
  void exec_stmt_resume(const Stmt& s, const std::vector<PosFrame>& pos,
                        std::size_t depth) {
    const PosFrame f = pos[depth];
    switch (s.kind) {
      case StmtKind::kFor: {
        // The restored frame already holds the induction variable at
        // f.loop_i with its original write generation; finish the current
        // iteration, then run the remaining ones normally. The bound is
        // the one recorded at loop entry, never re-evaluated.
        const auto var = static_cast<std::size_t>(plan_.stmt(s).slot);
        {
          const std::size_t pd = pos_stack_.size() - 1;
          pos_stack_[pd].loop_i = f.loop_i;
          pos_stack_[pd].loop_hi = f.loop_hi;
          exec_block_resume(s.body, pos, depth + 1);
        }
        for (std::int64_t i = f.loop_i + 1; i <= f.loop_hi; ++i) {
          define_slot(var, sym::Value(i));
          const std::size_t pd = pos_stack_.size() - 1;
          pos_stack_[pd].loop_i = i;
          pos_stack_[pd].loop_hi = f.loop_hi;
          exec_block(s.body);
        }
        break;
      }
      case StmtKind::kIf:
        exec_block_resume(f.branch != 0 ? s.body : s.else_body, pos,
                          depth + 1);
        break;
      case StmtKind::kCall:
        exec_block_resume(procedure(s).body, pos, depth + 1);
        break;
      default:
        STGSIM_CHECK(false)
            << "checkpoint position descends through a non-block statement";
    }
  }

  /// Statement-boundary checkpoint poll (optimistic mode; a no-op flag
  /// read everywhere else). Captures only at quiescent boundaries — no
  /// outstanding Requests — because Request handles are deliberately not
  /// serialized.
  void maybe_checkpoint() {
    if (pending_requests_ != 0) return;
    simk::Process& proc = comm_.process();
    if (!proc.checkpoint_due()) return;
    std::vector<std::uint8_t> blob;
    // State size is near-constant across captures (same frame, same
    // arrays); reserving the previous size turns the write into a single
    // allocation instead of log2(bytes) grow-and-copy rounds.
    blob.reserve(last_blob_bytes_ + 256);
    BlobWriter w(blob);
    comm_.save_state(w);
    serialize_state(w);
    last_blob_bytes_ = blob.size();
    proc.take_checkpoint(std::move(blob));
  }

  /// Serializes everything a fresh ExecState needs to resume at the
  /// current position: the scalar frame (values, definedness, write
  /// generations — the slot layout is the plan's), arrays by id with their
  /// payload bytes, open timers, and the position stack. Request lists are
  /// all empty at a quiescent boundary, and the memo table is a pure cache
  /// that a fresh state recomputes.
  void serialize_state(BlobWriter& w) const {
    w.vec_pod(frame_);
    w.vec_pod(frame_defined_);
    w.vec_pod(frame_gen_);
    for (const ArrayVal& a : arrays_) {
      w.u8(a.declared ? 1 : 0);
      if (!a.declared) continue;
      w.vec_pod(a.extents);
      w.u64(a.elems);
      w.u64(a.elem_bytes);
      w.u64(a.buf.size_bytes());
      w.raw(a.buf.data(), a.buf.size_bytes());
    }
    w.u64(open_timers_.size());
    for (const auto& [name, t] : open_timers_) {
      w.str(name);
      w.i64(t);
    }
    w.vec_pod(pos_stack_);
  }

  void deserialize_state(BlobReader& r, std::vector<PosFrame>* pos) {
    r.vec_pod(&frame_);
    r.vec_pod(&frame_defined_);
    r.vec_pod(&frame_gen_);
    STGSIM_CHECK(frame_.size() == static_cast<std::size_t>(plan_.num_slots()) &&
                 frame_defined_.size() == frame_.size() &&
                 frame_gen_.size() == frame_.size())
        << "checkpoint frame does not match the plan";
    for (ArrayVal& a : arrays_) {
      a = ArrayVal{};
      if (r.u8() == 0) continue;
      a.declared = true;
      r.vec_pod(&a.extents);
      a.elems = static_cast<std::size_t>(r.u64());
      a.elem_bytes = static_cast<std::size_t>(r.u64());
      const auto bytes = static_cast<std::size_t>(r.u64());
      a.buf = TrackedBuffer(&comm_.process().memory(), bytes);
      r.raw(a.buf.data(), bytes);
    }
    open_timers_.clear();
    const std::uint64_t ntimers = r.u64();
    for (std::uint64_t i = 0; i < ntimers; ++i) {
      const std::string name = r.str();
      open_timers_[name] = r.i64();
    }
    r.vec_pod(pos);
  }

  /// Resolves (array, offset_elems, count_elems) to a raw span for a
  /// communication statement, bounds-checked. Payload-free statements
  /// (dummy-buffer transfers emitted by the code generator) return null:
  /// the wire size is still exact but no bytes are staged or copied.
  std::uint8_t* comm_span(const Stmt& s, const StmtPlan& sp,
                          std::size_t* bytes_out) {
    ArrayVal& a = array_at(sp.array, s.name);
    const std::int64_t count = eval(sp.b).as_int();
    const std::int64_t offset = eval(sp.c).as_int();
    STGSIM_CHECK_GE(count, 0);
    STGSIM_CHECK_GE(offset, 0);
    STGSIM_CHECK_LE(static_cast<std::size_t>(offset + count), a.elems)
        << "communication slice out of bounds on '" << s.name << "' (offset "
        << offset << " count " << count << " elems " << a.elems << ")";
    *bytes_out = static_cast<std::size_t>(count) * a.elem_bytes;
    if (s.payload_free) return nullptr;
    return a.buf.data() + static_cast<std::size_t>(offset) * a.elem_bytes;
  }

  std::vector<smpi::Request>& requests(const StmtPlan& sp) {
    return requests_[static_cast<std::size_t>(sp.requests)];
  }

  const Procedure& procedure(const Stmt& s) const {
    const Procedure* p = plan_.stmt(s).proc;
    STGSIM_CHECK(p != nullptr) << "unknown procedure " << s.name;
    return *p;
  }

  void exec_stmt(const Stmt& s) {
    const StmtPlan& sp = plan_.stmt(s);
    switch (s.kind) {
      case StmtKind::kDeclScalar: {
        sym::Value v = s.has_init ? s.e1.eval(*this) : sym::Value(0);
        if (s.scalar_is_real) v = sym::Value(v.as_real());
        define_slot(static_cast<std::size_t>(sp.slot), v);
        break;
      }
      case StmtKind::kDeclArray: {
        ArrayVal a;
        std::size_t elems = 1;
        for (const auto& e : s.extents) {
          const std::int64_t n = e.eval_int(*this);
          STGSIM_CHECK_GE(n, 0) << "negative array extent on " << s.name;
          a.extents.push_back(n);
          elems *= static_cast<std::size_t>(n);
        }
        a.elems = elems;
        a.elem_bytes = s.elem_bytes;
        a.buf = TrackedBuffer(&comm_.process().memory(), elems * s.elem_bytes);
        a.declared = true;
        arrays_[static_cast<std::size_t>(sp.array)] = std::move(a);
        break;
      }
      case StmtKind::kAssign: {
        const sym::Value v = eval(sp.a);
        assign_slot(sp.slot, s.name, v);
        break;
      }
      case StmtKind::kFor: {
        const std::int64_t lo = eval(sp.a).as_int();
        const std::int64_t hi = eval(sp.b).as_int();
        const auto var = static_cast<std::size_t>(sp.slot);
        for (std::int64_t i = lo; i <= hi; ++i) {
          define_slot(var, sym::Value(i));
          const std::size_t pd = pos_stack_.size() - 1;
          pos_stack_[pd].loop_i = i;
          pos_stack_[pd].loop_hi = hi;
          exec_block(s.body);
        }
        break;
      }
      case StmtKind::kIf: {
        const bool taken = eval(sp.a).as_bool();
        if (options_.branches != nullptr) {
          options_.branches->record(s.id, taken);
        }
        pos_stack_[pos_stack_.size() - 1].branch = taken ? 1 : 0;
        if (taken) {
          exec_block(s.body);
        } else {
          exec_block(s.else_body);
        }
        break;
      }
      case StmtKind::kCompute:
        exec_kernel(s, sp);
        break;
      case StmtKind::kSend: {
        std::size_t bytes = 0;
        const std::uint8_t* p = comm_span(s, sp, &bytes);
        const auto dst = static_cast<int>(eval(sp.a).as_int());
        const VTime t0 = comm_.now();
        comm_.send(dst, s.tag, p, bytes);
        observe_comm(s, dst, bytes, t0);
        break;
      }
      case StmtKind::kRecv: {
        std::size_t bytes = 0;
        std::uint8_t* p = comm_span(s, sp, &bytes);
        const auto src = static_cast<int>(eval(sp.a).as_int());
        const VTime t0 = comm_.now();
        comm_.recv(src, s.tag, p, bytes);
        observe_comm(s, src, bytes, t0);
        break;
      }
      case StmtKind::kIsend: {
        std::size_t bytes = 0;
        const std::uint8_t* p = comm_span(s, sp, &bytes);
        const auto dst = static_cast<int>(eval(sp.a).as_int());
        const VTime t0 = comm_.now();
        requests(sp).push_back(comm_.isend(dst, s.tag, p, bytes));
        ++pending_requests_;
        observe_comm(s, dst, bytes, t0);
        break;
      }
      case StmtKind::kIrecv: {
        std::size_t bytes = 0;
        std::uint8_t* p = comm_span(s, sp, &bytes);
        const auto src = static_cast<int>(eval(sp.a).as_int());
        const VTime t0 = comm_.now();
        requests(sp).push_back(comm_.irecv(src, s.tag, p, bytes));
        ++pending_requests_;
        observe_comm(s, src, bytes, t0);
        break;
      }
      case StmtKind::kWaitall: {
        auto& rs = requests(sp);
        comm_.waitall(rs);
        pending_requests_ -= rs.size();
        rs.clear();
        break;
      }
      case StmtKind::kBarrier: {
        const VTime t0 = comm_.now();
        comm_.barrier();
        observe_comm(s, -1, 0, t0);
        break;
      }
      case StmtKind::kBcast: {
        std::size_t bytes = 0;
        std::uint8_t* p = comm_span(s, sp, &bytes);
        const auto root = static_cast<int>(eval(sp.a).as_int());
        const VTime t0 = comm_.now();
        comm_.bcast(p, bytes, root);
        observe_comm(s, root, bytes, t0);
        break;
      }
      case StmtKind::kAllreduceSum: {
        double v = read_slot(sp.slot, s.name).as_real();
        const VTime t0 = comm_.now();
        comm_.allreduce_sum(&v, 1);
        assign_slot(sp.slot, s.name, sym::Value(v));
        observe_comm(s, -1, sizeof(double), t0);
        break;
      }
      case StmtKind::kAllreduceMax: {
        double v = read_slot(sp.slot, s.name).as_real();
        const VTime t0 = comm_.now();
        comm_.allreduce_max(&v, 1);
        assign_slot(sp.slot, s.name, sym::Value(v));
        observe_comm(s, -1, sizeof(double), t0);
        break;
      }
      case StmtKind::kGetRank:
        define_slot(static_cast<std::size_t>(sp.slot),
                    sym::Value(std::int64_t{comm_.rank()}));
        break;
      case StmtKind::kGetSize:
        define_slot(static_cast<std::size_t>(sp.slot),
                    sym::Value(std::int64_t{comm_.size()}));
        break;
      case StmtKind::kDelay: {
        const double sec = eval(sp.a).as_real();
        STGSIM_CHECK_GE(sec, -1e-12)
            << "negative delay from scaling function: " << s.e1.to_string();
        comm_.delay_seconds(std::max(sec, 0.0));
        break;
      }
      case StmtKind::kReadParam:
        define_slot(static_cast<std::size_t>(sp.slot),
                    sym::Value(comm_.read_param(s.aux_name)));
        break;
      case StmtKind::kTimerStart:
        open_timers_[s.name] = comm_.now();
        break;
      case StmtKind::kTimerStop: {
        auto it = open_timers_.find(s.name);
        STGSIM_CHECK(it != open_timers_.end())
            << "timer_stop without timer_start for task " << s.name;
        const VTime dt = comm_.now() - it->second;
        open_timers_.erase(it);
        if (options_.timers != nullptr) {
          options_.timers->add(s.name, vtime_to_sec(dt),
                               s.e1.eval_real(*this));
        }
        break;
      }
      case StmtKind::kCall:
        exec_block(procedure(s).body);
        break;
    }
  }

  void observe_comm(const Stmt& s, int peer, std::size_t bytes, VTime t0) {
    if (options_.observer != nullptr) {
      options_.observer->on_comm(comm_.rank(), s, peer, bytes, t0,
                                 comm_.now());
    }
  }

  void exec_kernel(const Stmt& stmt, const StmtPlan& sp) {
    const KernelSpec& k = stmt.kernel;
    const VTime t_begin = comm_.now();
    const std::int64_t iters = eval(sp.a).as_int();
    STGSIM_CHECK_GE(iters, 0) << "negative iteration count for " << k.task;

    KernelCtx ctx(*this, k, iters);
    if (k.body) k.body(ctx);

    double fraction = 0.0;
    if (k.branch_fraction) fraction = k.branch_fraction(ctx);
    STGSIM_DCHECK(fraction >= 0.0 && fraction <= 1.0);

    // Working set: every declared array the task touches, per the
    // declared sets.
    double ws_bytes = 0.0;
    for (const int id : sp.ws_arrays) {
      const ArrayVal& a = arrays_[static_cast<std::size_t>(id)];
      if (a.declared) {
        ws_bytes += static_cast<double>(a.elems * a.elem_bytes);
      }
    }

    const double flops_eff =
        k.flops_per_iter + fraction * k.extra_flops_per_iter;
    if (options_.kernel_meta != nullptr) {
      options_.kernel_meta->add(k.task, static_cast<double>(iters), flops_eff,
                                ws_bytes);
    }

    const auto& params = comm_.world().options().compute;
    const VTime cost =
        machine::kernel_cost(params, static_cast<double>(iters), flops_eff,
                             ws_bytes, &comm_.process().rng());
    comm_.compute(cost);
    if (options_.observer != nullptr) {
      options_.observer->on_compute(comm_.rank(), stmt, t_begin, comm_.now());
    }
  }

  const Plan& plan_;
  smpi::Comm& comm_;
  ExecOptions options_;

  // Scalar frame, laid out by the plan's slots.
  std::vector<sym::Value> frame_;
  std::vector<std::uint8_t> frame_defined_;
  std::vector<std::uint64_t> frame_gen_;  ///< write generation per slot

  // Memo table (see eval): last value per kMemo operand, and the input
  // write generations it was computed from.
  std::vector<sym::Value> memo_;
  std::vector<std::uint64_t> memo_stamp_;
  sym::CompiledExpr::Scratch scratch_;

  std::vector<ArrayVal> arrays_;                      ///< by plan array id
  std::vector<std::vector<smpi::Request>> requests_;  ///< by plan list id
  std::map<std::string, VTime> open_timers_;

  /// Live position in the statement tree (see PosFrame); one frame per
  /// open block. Serialized into checkpoints.
  std::vector<PosFrame> pos_stack_;
  /// Outstanding isend/irecv handles across statements; checkpoints are
  /// only taken while this is zero.
  std::size_t pending_requests_ = 0;
  /// Size of the last checkpoint blob, used to pre-reserve the next one.
  std::size_t last_blob_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// KernelCtx
// ---------------------------------------------------------------------------

KernelCtx::KernelCtx(ExecState& state, const KernelSpec& spec,
                     std::int64_t iters)
    : state_(state), spec_(spec), iters_(iters) {}

int KernelCtx::rank() const { return state_.comm().rank(); }
int KernelCtx::world_size() const { return state_.comm().size(); }

void KernelCtx::check_access(const std::string& name, bool write) const {
  const auto& allowed = write ? spec_.writes : spec_.reads;
  const bool in_primary =
      std::find(allowed.begin(), allowed.end(), name) != allowed.end();
  // Reading a variable you may write is fine (read-modify-write tasks).
  const bool in_writes =
      std::find(spec_.writes.begin(), spec_.writes.end(), name) !=
      spec_.writes.end();
  STGSIM_CHECK(in_primary || (!write && in_writes))
      << "kernel " << spec_.task << " accesses '" << name
      << "' outside its declared " << (write ? "write" : "read") << " set";
}

double* KernelCtx::array(const std::string& name) {
  // Conservative: grant pointer if the name is in either set; writes
  // through a read-only pointer are the kernel author's bug.
  check_access(name, /*write=*/false);
  ArrayVal& a = state_.array(name);
  STGSIM_CHECK_EQ(a.elem_bytes, sizeof(double))
      << "kernel array access requires double elements";
  return a.buf.as_doubles();
}

std::size_t KernelCtx::array_elems(const std::string& name) const {
  return state_.array(name).elems;
}

std::int64_t KernelCtx::array_extent(const std::string& name,
                                     std::size_t dim) const {
  const ArrayVal& a = state_.array(name);
  STGSIM_CHECK_LT(dim, a.extents.size());
  return a.extents[dim];
}

sym::Value KernelCtx::scalar(const std::string& name) const {
  check_access(name, /*write=*/false);
  return state_.scalar(name);
}

void KernelCtx::set_scalar(const std::string& name, sym::Value v) {
  check_access(name, /*write=*/true);
  state_.set_scalar(name, v);
}

Rng& KernelCtx::rng() { return state_.comm().process().rng(); }

// ---------------------------------------------------------------------------

void execute(const Plan& plan, smpi::Comm& comm,
             const ExecOptions& options) {
  ExecState state(plan, comm, options);
  state.run();
}

}  // namespace stgsim::ir
