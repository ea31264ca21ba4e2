// ScheduleOracle implementations used by the protocol checker.
//
//  * RecordingOracle — replays a recorded choice prefix by label, then
//    continues greedily under a sleep set, logging every choice point for
//    the DFS explorer to branch on. The engine side of stateless
//    model checking: one oracle instance drives exactly one run.
//  * ReplayOracle — replays one complete serialized schedule (the
//    `--replay <file>` path); any label mismatch is a hard error naming
//    the step, since it means the engine diverged from the recording.
//  * DrainPermuteOracle — threaded-scheduler cross-check: deterministic
//    seeded permutation of each worker's mailbox drain order. Simulated
//    results must not depend on drain order; perturbing it proves that.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"

namespace stgsim::mc {

/// Thrown by RecordingOracle when every enabled option at a fresh choice
/// point is in the sleep set: the continuation is provably equivalent to
/// an already-explored schedule, so the run is abandoned and counted as
/// pruned. Deliberately NOT derived from std::exception — it must pass
/// through harness::run_program's catch(std::exception) untouched and be
/// handled by the checker's run loop alone.
struct ScheduleAbandoned {};

/// Thrown by RecordingOracle when a run exceeds the exploration depth
/// budget (ExploreOptions::max_depth). Like ScheduleAbandoned, bypasses
/// run_program's catch clauses.
struct DepthExceeded {};

/// Independence relation over choice options: returns true when the two
/// steps commute (executing them in either order from any state where
/// both are enabled yields the same state). Used both to filter sleep
/// sets during a run and to seed child sleep sets when branching.
using IndependenceFn =
    std::function<bool(const simk::ChoiceOption&, const simk::ChoiceOption&)>;

/// The checker's independence relation, keyed on (sender,receiver,tag)
/// commutativity:
///   resume(r)      ⫫ resume(r')       iff r != r'
///   resume(r)      ⫫ deliver(s,d)     iff r != d
///   deliver(s,d)   ⫫ deliver(s',d')   iff d != d', or s != s' when the
///                                     program performed no wildcard
///                                     receives (`program_has_wildcards`)
///   wildcard(r)    dependent with everything (conservative: promotion
///                                     order among ties is exactly the
///                                     race class under test)
/// When the program uses wildcard receives, same-destination deliveries
/// are kept dependent even though the engine's arrival-time matching is
/// believed order-insensitive — the checker must not assume the property
/// it exists to verify.
IndependenceFn make_independence(bool program_has_wildcards);

/// One logged choice point from a RecordingOracle run.
struct StepLog {
  std::vector<simk::ChoiceOption> options;  ///< enabled set, engine order
  std::vector<simk::ChoiceOption> sleep;    ///< sleep set on entry
  simk::ChoiceOption chosen;
};

class RecordingOracle : public simk::ScheduleOracle {
 public:
  /// `prefix`: choices to replay by label (the DFS path down to and
  /// including the new branch). `start_sleep`: sleep set in effect at the
  /// first fresh choice point after the prefix. `indep`: independence
  /// relation for sleep propagation; pass one that always returns false
  /// to disable reduction. `max_depth`: 0 = unlimited.
  RecordingOracle(std::vector<simk::ChoiceOption> prefix,
                  std::vector<simk::ChoiceOption> start_sleep,
                  IndependenceFn indep, std::size_t max_depth = 0);

  std::size_t choose(const std::vector<simk::ChoiceOption>& options) override;

  const std::vector<StepLog>& log() const { return log_; }
  bool abandoned() const { return abandoned_; }
  bool depth_clipped() const { return depth_clipped_; }

 private:
  std::vector<simk::ChoiceOption> prefix_;
  std::vector<simk::ChoiceOption> sleep_;  ///< live sleep set past prefix
  IndependenceFn indep_;
  std::size_t max_depth_ = 0;
  std::size_t step_ = 0;
  std::vector<StepLog> log_;
  bool abandoned_ = false;
  bool depth_clipped_ = false;
};

class ReplayOracle : public simk::ScheduleOracle {
 public:
  explicit ReplayOracle(std::vector<simk::ChoiceOption> schedule)
      : schedule_(std::move(schedule)) {}

  std::size_t choose(const std::vector<simk::ChoiceOption>& options) override;

 private:
  std::vector<simk::ChoiceOption> schedule_;
  std::size_t step_ = 0;
};

class DrainPermuteOracle : public simk::ScheduleOracle {
 public:
  DrainPermuteOracle(std::uint64_t seed, int workers);

  /// Never called: the threaded scheduler does not run in MC mode.
  std::size_t choose(const std::vector<simk::ChoiceOption>& options) override;

  /// Fisher–Yates permutation from a SplitMix64 stream keyed on
  /// (seed, worker, per-worker call counter). Each worker thread touches
  /// only its own counter, so no synchronization is needed.
  void permute_drain_order(int worker,
                           std::vector<int>& from_workers) override;

 private:
  std::uint64_t seed_;
  std::vector<std::uint64_t> counters_;  ///< indexed by worker
};

}  // namespace stgsim::mc
