// Fixed-size, work-stealing-free thread pool plus a deterministic
// ParallelFor, used where threads measurably pay: core::PredictBenefit's
// per-UG loop and workload::GenerateTrace.
//
// Design constraints (see DESIGN.md's determinism rule — a seed reproduces
// every experiment bit-for-bit, at any thread count):
//  - The chunk decomposition of [begin, end) depends only on `grain`, never
//    on the number of threads, so callers can stage per-index results into
//    pre-sized buffers and reduce them serially in fixed index order.
//  - Worker participation is capped by the caller (`num_threads`), with 1
//    forcing fully inline serial execution — the "old code path".
//  - Exceptions thrown by the body are captured and the first one observed
//    is rethrown on the calling thread after all chunks have stopped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace painter::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();  // drains already-submitted tasks, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  // Enqueues a task. Tasks must not block waiting for other pool tasks
  // (ParallelFor keeps the calling thread working, so it never deadlocks
  // even when the pool is saturated).
  void Submit(std::function<void()> task);

  // Process-wide pool sized to hardware_concurrency(), created on first use.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Resolves a thread-count knob: 0 means hardware_concurrency() (at least 1).
[[nodiscard]] std::size_t EffectiveThreads(std::size_t requested);

// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of at
// most `grain` indices. At most `num_threads` threads participate (the
// caller plus workers borrowed from ThreadPool::Shared()); num_threads <= 1
// runs every chunk inline, in order. Blocks until all chunks completed or
// one threw; the first captured exception is rethrown.
void ParallelFor(std::size_t num_threads, std::size_t begin, std::size_t end,
                 std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace painter::util
