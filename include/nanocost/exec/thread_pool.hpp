// A reusable chunked thread pool.
//
// One pool owns `thread_count() - 1` worker threads; the caller of
// `run_tasks` participates as the remaining lane, so a pool constructed
// with 1 thread executes everything inline on the caller -- the serial
// reference path.  Tasks within one `run_tasks` batch are claimed from a
// shared atomic counter (dynamic schedule); correctness never depends on
// which lane runs which task, because all nanocost parallel loops derive
// per-task state (RNG seeds, output slots) from the task index alone
// (see exec/seed.hpp).
//
// Nested `run_tasks` calls (a task spawning a parallel region on the
// same or another pool) execute inline on the calling lane, so
// composed parallel code cannot deadlock and produces the same numbers
// as the flat execution.
//
// The default thread count is `NANOCOST_THREADS` (read once per
// process; a value that is not a positive integer prints one diagnostic
// and is ignored) or std::thread::hardware_concurrency().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "nanocost/obs/metrics.hpp"

namespace nanocost::exec {

/// The pool's and parallel_reduce's metrics (obs::metrics_table).
struct ExecMetrics {
  obs::Histogram& dispatch_us = obs::histogram("exec.dispatch_us");
  obs::Counter& batches = obs::counter("exec.batches");
  obs::Counter& tasks = obs::counter("exec.tasks");
  obs::Counter& chunks = obs::counter("exec.chunks");
};

class ThreadPool final {
 public:
  /// `threads` lanes including the caller; 0 -> default_thread_count().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs task(0) .. task(n_tasks - 1), blocking until all complete.
  /// The caller participates.  If tasks throw, the exception of the
  /// *lowest-index* throwing task is rethrown on the caller after the
  /// batch drains -- a deterministic choice for any thread count -- and
  /// the pool stays reusable for subsequent batches.  Reentrant calls
  /// from inside a task run inline serially.  The pool has no cancel
  /// poll: a task that should stop on a robust::CancelToken polls it
  /// itself, as parallel_reduce's chunk body and the campaign engine's
  /// chunk task do.
  void run_tasks(std::int64_t n_tasks, const std::function<void(std::int64_t)>& task);

  /// Number of execution lanes (workers + the calling thread).
  [[nodiscard]] int thread_count() const noexcept;

  /// NANOCOST_THREADS env override, else hardware_concurrency, min 1.
  [[nodiscard]] static int default_thread_count();

  /// Lazily-created process-wide pool with default_thread_count() lanes.
  /// All parallel entry points use it when no pool is passed explicitly.
  [[nodiscard]] static ThreadPool& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Resolves an optional pool argument: null means the global pool.
[[nodiscard]] inline ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::global();
}

}  // namespace nanocost::exec
