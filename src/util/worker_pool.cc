#include "src/util/worker_pool.h"

namespace presto {

WorkerPool::WorkerPool(int threads) {
  for (int w = 1; w < threads; ++w) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    quit_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& helper : helpers_) {
    helper.join();
  }
}

void WorkerPool::RunOnHelpers(int n, Task task, const void* fn) {
  {
    std::lock_guard<std::mutex> lock(m_);
    n_ = n;
    task_ = task;
    fn_ = fn;
    done_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++gen_;
  }
  start_cv_.notify_all();
  Claim();  // the calling thread is worker 0
  std::unique_lock<std::mutex> lock(m_);
  done_cv_.wait(lock, [&] { return done_ == static_cast<int>(helpers_.size()); });
}

void WorkerPool::HelperLoop() {
  uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(m_);
      start_cv_.wait(lock, [&] { return quit_ || gen_ != seen_gen; });
      if (quit_) {
        return;
      }
      seen_gen = gen_;
    }
    Claim();
    {
      std::lock_guard<std::mutex> lock(m_);
      ++done_;
    }
    done_cv_.notify_one();
  }
}

void WorkerPool::Claim() {
  // n_, task_ and fn_ were published under m_ before the generation bump every
  // helper synchronized on, and stay fixed until the last helper reports done.
  int i;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < n_) {
    task_(fn_, i);
  }
}

}  // namespace presto
