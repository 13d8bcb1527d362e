// Fixed-size thread pool used to train cascade models in parallel and to
// batch-run queries in the benches.

#ifndef LES3_UTIL_THREAD_POOL_H_
#define LES3_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace les3 {

/// \brief A minimal work-queue thread pool.
///
/// Submit() enqueues a task; Wait() blocks until every submitted task has
/// finished. The pool is not reentrant: tasks must not Submit() to the pool
/// they run on.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 means hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Blocks until the queue drains and all in-flight tasks complete.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for THIS call's
  /// work only — concurrent ParallelFor calls on one pool do not convoy
  /// on each other (unlike Wait(), which blocks on the global queue).
  /// A single item (n == 1) runs on the calling thread, with no Submit —
  /// so it is also safe from inside a task of this pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace les3

#endif  // LES3_UTIL_THREAD_POOL_H_
