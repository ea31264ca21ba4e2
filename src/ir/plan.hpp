// Execution plan: the immutable, program-wide half of the IR interpreter.
//
// Everything the interpreter can derive from a Program's text alone is
// derived here, once, before the engine starts: where each scalar lives in
// the frame, which array or request list a statement names, which
// procedure a call enters, and the compiled tapes of every hot operand
// with their free variables resolved to frame slots. Every simulated rank
// and every threaded worker executes from the same Plan, read-only; a
// rank's interpreter state (interp.cpp, ExecState) holds only what differs
// per rank — frame values, definedness and write generations, the memo
// table, arrays and request lists indexed by id, and its position in the
// statement tree.
//
// Hot operands (compiled to sym::CompiledExpr tapes):
//   kDelay seconds, kFor lo/hi, kIf condition, kAssign right-hand side,
//   kCompute iteration count, communication peer/count/offset.
// Cold expressions (scalar initialisers, array extents, timer iteration
// counts) stay on the tree walker and look names up through the plan's
// slot map.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/program.hpp"
#include "symexpr/compiled.hpp"

namespace stgsim::ir {

/// A hot operand: its compiled tape, the frame slot bound to each of the
/// tape's free variables, and how a rank evaluates it.
struct PlannedExpr {
  enum class Kind : std::uint8_t {
    /// No free variables and folds cleanly at plan build: a load of value.
    kConst,
    /// The tape is a single variable read: the rank reads frame_slots[0].
    kLoad,
    /// General tape, memoised per rank behind the write generations of its
    /// input slots (memo / stamp index the rank's tables).
    kMemo,
    /// No free variables, but evaluation fails: the tape is rerun, and
    /// raises its error, every time the statement executes — never at
    /// plan build.
    kTape,
  };

  Kind kind = Kind::kConst;
  sym::Value value;               ///< kConst
  sym::CompiledExpr code;
  std::vector<int> frame_slots;   ///< frame slot per code.free_slots()[i]
  int memo = -1;                  ///< kMemo: index into the memo table
  int stamp = -1;                 ///< kMemo: first input's stamp index
};

/// Everything resolved for one statement (fields unused by its kind stay
/// at their defaults).
struct StmtPlan {
  /// Hot operands: kAssign/kIf/kDelay e1 -> a; kFor lo/hi -> a/b;
  /// kCompute iters -> a; comm peer/count/offset -> a/b/c.
  PlannedExpr a, b, c;
  /// Frame slot of the scalar the statement declares, assigns, loops over
  /// or reduces.
  int slot = -1;
  int array = -1;     ///< array id (kDeclArray, communication)
  int requests = -1;  ///< request-list id (kIsend/kIrecv aux, kWaitall)
  const Procedure* proc = nullptr;  ///< kCall target; null if unknown
  /// kCompute: the array id of each declared read then write name that
  /// names an array, in declaration order (the working-set sum).
  std::vector<int> ws_arrays;
};

class Plan {
 public:
  /// Builds the plan for `prog`, which must outlive it and not change.
  /// Never throws for an operand that cannot be evaluated; that operand
  /// fails when its statement executes, as the tree walker would.
  explicit Plan(const Program& prog);

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  const Program& program() const { return prog_; }

  const StmtPlan& stmt(const Stmt& s) const {
    return stmts_[static_cast<std::size_t>(s.id)];
  }

  /// Program-wide scalar frame layout.
  int num_slots() const { return static_cast<int>(slot_names_.size()); }
  const std::string& slot_name(int slot) const {
    return slot_names_[static_cast<std::size_t>(slot)];
  }
  /// Frame slot of a scalar name; -1 for a name the program never
  /// declares, assigns, loops over, reads in a hot operand or names in a
  /// kernel set (such a name can never be defined).
  int slot(const std::string& name) const;

  int num_arrays() const { return static_cast<int>(array_index_.size()); }
  /// Array id of a name the program declares as an array; -1 otherwise.
  int array(const std::string& name) const;

  int num_request_lists() const {
    return static_cast<int>(request_index_.size());
  }

  /// Sizes of the per-rank memo tables (one value per kMemo operand, one
  /// generation stamp per kMemo input).
  int num_memos() const { return num_memos_; }
  int num_stamps() const { return num_stamps_; }

 private:
  int intern(std::unordered_map<std::string, int>& index,
             std::vector<std::string>* names, const std::string& name);
  int intern_slot(const std::string& name);
  PlannedExpr plan_expr(const sym::Expr& e);
  void plan_stmt(const Stmt& s);

  const Program& prog_;
  std::vector<StmtPlan> stmts_;  ///< indexed by Stmt::id

  std::vector<std::string> slot_names_;
  std::unordered_map<std::string, int> slot_index_;
  std::unordered_map<std::string, int> array_index_;
  std::unordered_map<std::string, int> request_index_;
  int num_memos_ = 0;
  int num_stamps_ = 0;
};

}  // namespace stgsim::ir
