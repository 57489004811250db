// Chunked parallel loops over an index range.
//
// parallel_reduce decomposes [0, n) into fixed-size chunks of `grain`
// iterations; parallel_for is the same loop without per-chunk scratch.
// The chunk grid depends only on (n, grain) -- never on the thread
// count -- and parallel_reduce merges per-chunk scratch in chunk order
// on the calling thread, so even order-sensitive merges (e.g.
// floating-point accumulation) are bitwise-reproducible for a given
// grain regardless of how many threads executed the chunks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"

namespace nanocost::exec {

/// Injection site evaluated once per chunk of every parallel loop; the
/// unit index is the chunk index.  Off: one relaxed load per chunk.
inline constexpr robust::FaultSite kChunkFaultSite{"exec.chunk"};

/// Number of chunks a range of `n` splits into at a given grain.
[[nodiscard]] constexpr std::int64_t chunk_count(std::int64_t n, std::int64_t grain) noexcept {
  return grain > 0 ? (n + grain - 1) / grain : 0;
}

/// Outcome of a chunked loop.  `frontier` is the count of leading
/// chunks whose results are usable: chunks [0, frontier) all completed,
/// chunk `frontier` (if any) did not.  Chunks completed *beyond* the
/// frontier out of order are discarded (never merged), so a partial
/// result is a pure function of the frontier -- bitwise what a fresh
/// run truncated there produces, regardless of thread count.
struct LoopStatus final {
  std::int64_t total_chunks = 0;
  std::int64_t frontier = 0;
  /// The token stopped the loop short of its last chunk (frontier <
  /// total_chunks).  A loop that finished every chunk is not cancelled,
  /// even when its token tripped while the last chunk ran.
  bool cancelled = false;

  [[nodiscard]] bool complete() const noexcept { return frontier == total_chunks; }
  [[nodiscard]] double completeness() const noexcept {
    return total_chunks > 0
               ? static_cast<double>(frontier) / static_cast<double>(total_chunks)
               : 1.0;
  }
};

/// Chunked loop with per-chunk scratch state:
///   make()                    -> Scratch, called once per chunk
///   body(begin, end, scratch) -> processes one chunk into its scratch
///   merge(scratch)            -> called serially on the caller, in
///                                ascending chunk order, after all
///                                chunks complete
/// `pool` may be null (global pool).  body must be safe to invoke
/// concurrently from multiple threads on disjoint ranges.  The merge
/// order is a function of (n, grain) only, so reductions are
/// deterministic for any thread count.  Every chunk's scratch lives
/// until the merge, so memory is O(chunks) in its size: make it the
/// partial result alone, and keep working buffers per thread (fabsim's
/// wafer columns).
///
/// `token` is polled once per chunk, before the chunk runs; an invalid
/// token (the default) never trips.  Once it trips, chunks not yet
/// started are skipped (running ones finish), and only the scratches of
/// chunks below the frontier are merged.  Nothing is installed around a
/// chunk: a nested kernel that should honor the token takes it as its
/// own argument.  Exceptions win over cancellation: the lowest-index
/// chunk's throw is rethrown (ThreadPool::run_tasks).  One chunk with
/// no token runs on the caller without a pool batch.
template <typename MakeScratch, typename Body, typename Merge>
LoopStatus parallel_reduce(ThreadPool* pool, std::int64_t n, std::int64_t grain,
                           MakeScratch&& make, Body&& body, Merge&& merge,
                           const robust::CancelToken& token = {}) {
  if (n <= 0) return {};
  if (grain < 1) throw std::invalid_argument("parallel loop grain must be >= 1");
  const std::int64_t chunks = chunk_count(n, grain);
  std::vector<decltype(make())> scratches;
  scratches.reserve(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c) scratches.push_back(make());
  // done[c] is written only by the lane that ran chunk c, and read after
  // run_tasks' batch barrier.
  std::vector<std::uint8_t> done(static_cast<std::size_t>(chunks), 0);
  const auto run_chunk = [&](std::int64_t c) {
    if (token.valid() && token.expired()) return;
    obs::ObsSpan span("exec.chunk");
    span.arg("chunk", static_cast<std::uint64_t>(c));
    if (auto* m = obs::metrics_table<ExecMetrics>()) m->chunks.add();
    robust::inject(kChunkFaultSite, static_cast<std::uint64_t>(c));
    const std::int64_t begin = c * grain;
    body(begin, std::min(begin + grain, n), scratches[static_cast<std::size_t>(c)]);
    done[static_cast<std::size_t>(c)] = 1;
  };
  if (chunks == 1 && !token.valid()) {
    run_chunk(0);
  } else {
    pool_or_global(pool).run_tasks(chunks, run_chunk);
  }

  LoopStatus status{chunks, chunks, false};
  for (std::int64_t c = 0; c < chunks; ++c) {
    if (done[static_cast<std::size_t>(c)] == 0) {
      status.frontier = c;
      status.cancelled = true;
      robust::note_cancel_observed(token);
      break;
    }
  }
  for (std::int64_t c = 0; c < status.frontier; ++c) {
    merge(std::move(scratches[static_cast<std::size_t>(c)]));
  }
  return status;
}

/// body(begin, end) over [0, n) in chunks of `grain`: parallel_reduce
/// without scratch, under the same token contract.  Callers must discard
/// per-index output at and beyond `frontier * grain` -- chunks past the
/// frontier may have run.
template <typename Body>
LoopStatus parallel_for(ThreadPool* pool, std::int64_t n, std::int64_t grain, Body&& body,
                        const robust::CancelToken& token = {}) {
  struct NoScratch final {};
  return parallel_reduce(
      pool, n, grain, [] { return NoScratch{}; },
      [&body](std::int64_t begin, std::int64_t end, NoScratch&) { body(begin, end); },
      [](NoScratch&&) {}, token);
}

}  // namespace nanocost::exec
