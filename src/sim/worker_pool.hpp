// Persistent worker pool with a reusable round barrier.
//
// The threaded scheduler runs in "rounds": every worker executes its partition, then all meet at a barrier where the
// scheduler thread flushes deferred messages and promotes parked wildcard
// receives. The original implementation spawned and joined a fresh
// std::thread per partition every round — at 16k ranks a run takes
// thousands of rounds, so thread creation dominated. This pool keeps the
// workers alive for the whole run and releases them with a sense-reversing
// (generation-counted) barrier instead.
//
// Release protocol: run_round() bumps an atomic generation counter; each
// worker holds its last-seen generation (its private "sense") and runs one
// round whenever the shared counter differs. Workers spin briefly on the
// atomic before falling back to a condition variable, so back-to-back
// rounds on a multi-core host never enter the kernel. Completion mirrors
// the release: the last worker to finish flips the done count and wakes
// the scheduler. The mutex acquisitions on both edges double as the
// happens-before fences between scheduler-side round setup and worker-side
// execution.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stgsim::simk {

class WorkerPool {
 public:
  using WorkFn = std::function<void(int worker)>;

  /// Starts `workers` threads, all parked. `fn(w)` runs one round of
  /// worker w's work each time run_round() releases the pool; exceptions
  /// it throws must be handled inside `fn` (the pool has nowhere to
  /// rethrow them mid-round).
  WorkerPool(int workers, WorkFn fn);

  /// Joins all workers (any round in progress completes first).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Releases every worker for one round and blocks until all finish.
  void run_round();

 private:
  void worker_main(int w);

  WorkFn fn_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable release_cv_;  ///< scheduler -> workers
  std::condition_variable done_cv_;     ///< last worker -> scheduler
  std::atomic<std::uint64_t> generation_{0};
  int done_count_ = 0;
  bool stop_ = false;
};

}  // namespace stgsim::simk
