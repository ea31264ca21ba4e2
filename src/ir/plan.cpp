#include "ir/plan.hpp"

#include <exception>

#include "support/check.hpp"

namespace stgsim::ir {

Plan::Plan(const Program& prog) : prog_(prog) {
  stmts_.resize(static_cast<std::size_t>(prog.next_id()));
  // Arrays first, so a kernel-set name that names an array is not given a
  // scalar slot it could never use.
  for_each_stmt(prog, [&](const Stmt& s) {
    if (s.kind == StmtKind::kDeclArray) {
      intern(array_index_, nullptr, s.name);
    }
  });
  for_each_stmt(prog, [&](const Stmt& s) { plan_stmt(s); });
}

int Plan::slot(const std::string& name) const {
  auto it = slot_index_.find(name);
  return it == slot_index_.end() ? -1 : it->second;
}

int Plan::array(const std::string& name) const {
  auto it = array_index_.find(name);
  return it == array_index_.end() ? -1 : it->second;
}

int Plan::intern(std::unordered_map<std::string, int>& index,
                 std::vector<std::string>* names, const std::string& name) {
  auto [it, inserted] =
      index.try_emplace(name, static_cast<int>(index.size()));
  if (inserted && names != nullptr) names->push_back(name);
  return it->second;
}

int Plan::intern_slot(const std::string& name) {
  return intern(slot_index_, &slot_names_, name);
}

PlannedExpr Plan::plan_expr(const sym::Expr& e) {
  PlannedExpr pe;
  pe.code = sym::CompiledExpr::compile(e);
  for (const int s : pe.code.free_slots()) {
    pe.frame_slots.push_back(
        intern_slot(pe.code.slot_names()[static_cast<std::size_t>(s)]));
  }
  if (!pe.frame_slots.empty()) {
    if (pe.code.single_load()) {
      pe.kind = PlannedExpr::Kind::kLoad;
    } else {
      pe.kind = PlannedExpr::Kind::kMemo;
      pe.memo = num_memos_++;
      pe.stamp = num_stamps_;
      num_stamps_ += static_cast<int>(pe.frame_slots.size());
    }
    return pe;
  }
  // Pure: fold it now, unless evaluation fails — that failure belongs to
  // the statement's execution (which may never happen), not to the plan.
  try {
    sym::CompiledExpr::Scratch scratch;
    pe.code.prepare(scratch);
    pe.value = pe.code.eval(scratch);
    pe.kind = PlannedExpr::Kind::kConst;
  } catch (const std::exception&) {
    pe.kind = PlannedExpr::Kind::kTape;
  }
  return pe;
}

void Plan::plan_stmt(const Stmt& s) {
  STGSIM_CHECK(s.id >= 0 && static_cast<std::size_t>(s.id) < stmts_.size())
      << "statement id " << s.id << " outside the program's id range";
  StmtPlan& p = stmts_[static_cast<std::size_t>(s.id)];
  switch (s.kind) {
    case StmtKind::kDeclScalar:
    case StmtKind::kAllreduceSum:
    case StmtKind::kAllreduceMax:
    case StmtKind::kGetRank:
    case StmtKind::kGetSize:
    case StmtKind::kReadParam:
      p.slot = intern_slot(s.name);
      break;
    case StmtKind::kDeclArray:
      p.array = array(s.name);
      break;
    case StmtKind::kAssign:
      p.a = plan_expr(s.e1);
      p.slot = intern_slot(s.name);
      break;
    case StmtKind::kFor:
      p.slot = intern_slot(s.name);
      p.a = plan_expr(s.e1);
      p.b = plan_expr(s.e2);
      break;
    case StmtKind::kIf:
    case StmtKind::kDelay:
      p.a = plan_expr(s.e1);
      break;
    case StmtKind::kCompute:
      p.a = plan_expr(s.kernel.iters);
      for (const auto* names : {&s.kernel.reads, &s.kernel.writes}) {
        for (const auto& n : *names) {
          const int id = array(n);
          if (id >= 0) {
            p.ws_arrays.push_back(id);
          } else {
            intern_slot(n);
          }
        }
      }
      break;
    case StmtKind::kSend:
    case StmtKind::kRecv:
    case StmtKind::kIsend:
    case StmtKind::kIrecv:
    case StmtKind::kBcast:
      p.a = plan_expr(s.e1);
      p.b = plan_expr(s.e2);
      p.c = plan_expr(s.e3);
      p.array = array(s.name);
      if (s.kind == StmtKind::kIsend || s.kind == StmtKind::kIrecv) {
        p.requests = intern(request_index_, nullptr, s.aux_name);
      }
      break;
    case StmtKind::kWaitall:
      p.requests = intern(request_index_, nullptr, s.name);
      break;
    case StmtKind::kCall:
      p.proc = prog_.find_procedure(s.name);
      break;
    case StmtKind::kBarrier:
    case StmtKind::kTimerStart:
    case StmtKind::kTimerStop:
      break;
  }
}

}  // namespace stgsim::ir
