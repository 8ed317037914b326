#include "common/threadpool.h"

#include "common/macros.h"

namespace phoebe {

int ThreadPool::Resolve(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  PHOEBE_CHECK(num_threads >= 1);
  // The caller is worker 0; spawn the rest.
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunIterations(int worker) {
  while (true) {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return;
    (*body_)(worker, i);
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    RunIterations(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--busy_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelForWorker(size_t n,
                                   const std::function<void(int, size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty()) {
    // Serial path: no synchronization, identical to a plain loop.
    for (size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    PHOEBE_CHECK_MSG(busy_ == 0, "nested/concurrent ParallelForWorker on one pool");
    n_ = n;
    body_ = &body;
    next_.store(0, std::memory_order_relaxed);
    busy_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  RunIterations(0);  // the caller participates as worker 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return busy_ == 0; });
  body_ = nullptr;
}

}  // namespace phoebe
