// Persistent host-thread pool for barrier-stepped work: Run(n, fn) calls fn(i) for
// every i in [0, n) and returns once all of them finished. The calling thread is
// worker 0; `threads - 1` helper threads wait on a generation counter between runs
// and claim indices off a shared atomic counter. The simulator runs its shard lanes
// through one, and a CellHost its cells (FederationConfig::cell_threads).
//
// Which thread runs which index is unobservable to callers that keep every index's
// state private to it — the determinism contract both users rely on.

#ifndef SRC_UTIL_WORKER_POOL_H_
#define SRC_UTIL_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace presto {

class WorkerPool {
 public:
  // threads <= 1 starts no helper: Run then calls fn(0..n-1) in order, inline.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Not reentrant: one Run at a time, from the owning thread. Templated so the
  // per-epoch call neither allocates nor type-erases on the inline path.
  template <typename Fn>
  void Run(int n, const Fn& fn) {
    if (helpers_.empty()) {
      for (int i = 0; i < n; ++i) {
        fn(i);
      }
      return;
    }
    Task task = [](const void* f, int i) { (*static_cast<const Fn*>(f))(i); };
    RunOnHelpers(n, task, &fn);
  }

 private:
  using Task = void (*)(const void* fn, int i);

  void RunOnHelpers(int n, Task task, const void* fn);
  void HelperLoop();
  void Claim();

  std::vector<std::thread> helpers_;
  std::mutex m_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t gen_ = 0;
  bool quit_ = false;
  int done_ = 0;
  int n_ = 0;
  Task task_ = nullptr;
  const void* fn_ = nullptr;
  std::atomic<int> next_{0};
};

}  // namespace presto

#endif  // SRC_UTIL_WORKER_POOL_H_
