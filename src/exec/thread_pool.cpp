#include "nanocost/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nanocost/obs/trace.hpp"

namespace nanocost::exec {

namespace {

// True while the current thread is executing tasks of some batch; a
// nested run_tasks then executes inline instead of re-entering a pool.
thread_local bool t_in_parallel_region = false;

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct ThreadPool::Impl {
  // One dispatched batch of tasks.  Workers keep a shared_ptr snapshot,
  // so a lane waking late can only touch its own (already drained)
  // batch, never a newer one.
  struct Batch {
    const std::function<void(std::int64_t)>* task = nullptr;
    std::int64_t n = 0;
    std::atomic<std::int64_t> next{0};
    std::int64_t finished = 0;        // guarded by mu
    // Guarded by mu.  The *lowest-index* failure wins, not the first in
    // time: tasks are claimed in ascending order, so once an error at
    // index e is recorded every not-yet-claimed task has a higher index
    // and can be skipped, while in-flight lower-index tasks may still
    // replace it.  The rethrown exception is therefore a deterministic
    // function of the task set, independent of thread count.
    std::exception_ptr error;
    std::int64_t error_index = 0;
    // steady_clock ns when the batch was published to the workers; 0
    // unless metrics are on.  Purely observational (dispatch-latency
    // histogram) -- no scheduling decision reads it.
    std::uint64_t publish_ns = 0;
  };

  std::mutex mu;
  std::condition_variable work_cv;    // workers: a new batch is available
  std::condition_variable done_cv;    // caller: the batch has drained
  std::shared_ptr<Batch> current;     // guarded by mu
  std::uint64_t epoch = 0;            // guarded by mu; bumped per batch
  bool busy = false;                  // guarded by mu; one batch at a time
  bool stop = false;                  // guarded by mu
  int lanes = 1;
  std::vector<std::thread> workers;

  /// Claims and runs tasks of `batch` until the counter drains; returns
  /// the number of tasks this lane executed (or skipped after an error).
  std::int64_t work_on(Batch& batch) {
    obs::ObsSpan span("exec.lane");
    std::int64_t done = 0;
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      const std::int64_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.n) break;
      bool skip;
      {
        std::lock_guard<std::mutex> lk(mu);
        // Only tasks *above* the recorded failure may be skipped: a task
        // below it could still throw and must win, or the reported
        // exception would depend on scheduling.
        skip = static_cast<bool>(batch.error) && batch.error_index < i;
      }
      if (!skip) {
        try {
          (*batch.task)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (!batch.error || i < batch.error_index) {
            batch.error = std::current_exception();
            batch.error_index = i;
          }
        }
      }
      ++done;
    }
    t_in_parallel_region = was_in_region;
    span.arg("tasks", static_cast<std::uint64_t>(done));
    return done;
  }

  void worker_loop() {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lk(mu);
        work_cv.wait(lk, [&] { return stop || epoch != seen_epoch; });
        if (stop) return;
        seen_epoch = epoch;
        batch = current;
      }
      if (!batch) continue;
      auto* m = obs::metrics_table<ExecMetrics>();
      if (m != nullptr && batch->publish_ns != 0) {
        const std::uint64_t now = steady_now_ns();
        m->dispatch_us.record(now > batch->publish_ns ? (now - batch->publish_ns) / 1000 : 0);
      }
      const std::int64_t done = work_on(*batch);
      {
        std::lock_guard<std::mutex> lk(mu);
        batch->finished += done;
        if (batch->finished == batch->n) done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  impl_->lanes = threads > 0 ? threads : default_thread_count();
  impl_->workers.reserve(static_cast<std::size_t>(impl_->lanes - 1));
  for (int i = 1; i < impl_->lanes; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
}

int ThreadPool::thread_count() const noexcept { return impl_->lanes; }

void ThreadPool::run_tasks(std::int64_t n_tasks,
                           const std::function<void(std::int64_t)>& task) {
  if (n_tasks <= 0) return;
  if (!task) throw std::invalid_argument("run_tasks needs a callable task");

  obs::ObsSpan span("exec.batch");
  span.arg("tasks", static_cast<std::uint64_t>(n_tasks));
  if (auto* m = obs::metrics_table<ExecMetrics>()) {
    m->batches.add();
    m->tasks.add(static_cast<std::uint64_t>(n_tasks));
  }

  const auto run_inline = [&] {
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      // Ascending order, so the first exception surfaces directly (on
      // this path it *is* the lowest-index one).
      for (std::int64_t i = 0; i < n_tasks; ++i) task(i);
    } catch (...) {
      t_in_parallel_region = was_in_region;
      throw;
    }
    t_in_parallel_region = was_in_region;
  };

  if (t_in_parallel_region || impl_->lanes == 1 || n_tasks == 1) {
    run_inline();
    return;
  }

  auto batch = std::make_shared<Impl::Batch>();
  batch->task = &task;
  batch->n = n_tasks;
  if (obs::metrics_enabled()) batch->publish_ns = steady_now_ns();
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (!impl_->busy && !impl_->stop) {
      impl_->busy = true;
      impl_->current = batch;
      ++impl_->epoch;
      claimed = true;
    }
  }
  if (!claimed) {
    // Another thread is already driving a batch on this pool; do not
    // interleave two batches -- fall back to inline execution.
    run_inline();
    return;
  }
  impl_->work_cv.notify_all();

  const std::int64_t done = impl_->work_on(*batch);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    batch->finished += done;
    impl_->done_cv.wait(lk, [&] { return batch->finished == batch->n; });
    impl_->busy = false;
    impl_->current.reset();
    error = batch->error;
  }
  if (error) std::rethrow_exception(error);
}

int ThreadPool::default_thread_count() {
  // Read once per process, as NANOCOST_SIMD is: a malformed value (not
  // all digits, or 0) prints one diagnostic and falls back to the
  // hardware count; a value past 1024 clamps to 1024.
  static const int count = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
    const char* env = std::getenv("NANOCOST_THREADS");
    if (env == nullptr || *env == '\0') return fallback;
    int parsed = 0;  // saturates at 1025, so a long digit string cannot overflow
    for (const char* c = env; *c != '\0'; ++c) {
      if (*c < '0' || *c > '9') {
        parsed = 0;
        break;
      }
      parsed = std::min(parsed * 10 + (*c - '0'), 1025);
    }
    if (parsed >= 1) return std::min(parsed, 1024);
    std::fprintf(stderr,
                 "nanocost: NANOCOST_THREADS='%s' is not a positive thread count; "
                 "using the hardware's %d\n",
                 env, fallback);
    return fallback;
  }();
  return count;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace nanocost::exec
