// Fixed-size fork-join thread pool for embarrassingly parallel loops.
//
// Deliberately work-stealing-free: one shared atomic index hands out loop
// iterations to a fixed set of workers, which is all the fleet driver needs
// (per-job checkpoint decisions are independent) and keeps the concurrency
// surface small enough to audit under TSan. Results must be written to
// per-index slots by the body; the pool itself never reorders or merges
// anything, so callers that replay results in index order are byte-identical
// to a serial loop regardless of thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace phoebe {

/// \brief Fixed-size pool running index-based parallel loops.
class ThreadPool {
 public:
  /// \param num_threads total workers participating in a loop, including
  /// the calling thread. Must be >= 1 (use Resolve to map a user-facing
  /// config value). 1 means "run everything inline on the caller" — no
  /// threads are spawned at all, so the pool is free to construct on the
  /// legacy serial path.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `body(worker, i)` for every i in [0, n) across the pool, with
  /// worker in [0, num_threads); the calling thread participates as worker 0.
  /// Returns once every iteration has finished. `body` must be safe to
  /// invoke concurrently for distinct indices and must not start another
  /// loop on the same pool (no nesting). Which worker gets which index is
  /// scheduling-dependent — use the worker id only for telemetry (per-thread
  /// work counts) or for indexing per-worker scratch space, never for
  /// anything that feeds a result.
  void ParallelForWorker(size_t n,
                         const std::function<void(int, size_t)>& body);

  /// Workers participating in a loop (>= 1, caller included).
  int num_threads() const { return num_threads_; }

  /// Maps a user-facing thread-count config to an actual count: 0 selects
  /// the hardware concurrency (at least 1), negative values are clamped to
  /// 1, anything else passes through.
  static int Resolve(int requested);

 private:
  void WorkerLoop(int worker);
  void RunIterations(int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for a new generation
  std::condition_variable done_cv_;   ///< caller waits for workers to drain
  uint64_t generation_ = 0;           ///< bumped per loop
  int busy_ = 0;                      ///< workers still inside RunIterations
  bool stop_ = false;

  // Current loop; valid while busy_ > 0 or the caller is in ParallelForWorker.
  size_t n_ = 0;
  const std::function<void(int, size_t)>* body_ = nullptr;
  std::atomic<size_t> next_{0};
};

}  // namespace phoebe
