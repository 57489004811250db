// Chunked parallel loops over an index range.
//
// Both loops decompose [0, n) into fixed-size chunks of `grain`
// iterations.  The chunk grid depends only on (n, grain) -- never on the
// thread count -- and parallel_reduce merges per-chunk scratch in chunk
// order on the calling thread, so even order-sensitive merges (e.g.
// floating-point accumulation) are bitwise-reproducible for a given
// grain regardless of how many threads executed the chunks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"

namespace nanocost::exec {

/// Injection site evaluated once per chunk of every parallel loop; the
/// unit index is the chunk index.  Off: one relaxed load per chunk.
inline constexpr robust::FaultSite kChunkFaultSite{"exec.chunk"};

namespace detail {

/// Observation evaluated once per chunk (span + counter).  Off: two
/// relaxed loads per chunk, no other work.
inline void observe_chunk_begin(obs::ObsSpan& span, std::int64_t chunk) {
  span.arg("chunk", static_cast<std::uint64_t>(chunk));
  if (obs::metrics_enabled()) {
    static obs::Counter& chunks = obs::counter("exec.chunks");
    chunks.add();
  }
}

}  // namespace detail

/// Number of chunks a range of `n` splits into at a given grain.
[[nodiscard]] constexpr std::int64_t chunk_count(std::int64_t n, std::int64_t grain) noexcept {
  return grain > 0 ? (n + grain - 1) / grain : 0;
}

/// body(begin, end) over [0, n) in chunks of `grain`.  `pool` may be
/// null (global pool).  body must be safe to invoke concurrently from
/// multiple threads on disjoint ranges.
template <typename Body>
void parallel_for(ThreadPool* pool, std::int64_t n, std::int64_t grain, Body&& body) {
  if (n <= 0) return;
  if (grain < 1) throw std::invalid_argument("parallel_for grain must be >= 1");
  const std::int64_t chunks = chunk_count(n, grain);
  if (chunks == 1) {
    obs::ObsSpan span("exec.chunk");
    detail::observe_chunk_begin(span, 0);
    robust::inject(kChunkFaultSite, 0);
    body(std::int64_t{0}, n);
    return;
  }
  pool_or_global(pool).run_tasks(chunks, [&](std::int64_t c) {
    obs::ObsSpan span("exec.chunk");
    detail::observe_chunk_begin(span, c);
    robust::inject(kChunkFaultSite, static_cast<std::uint64_t>(c));
    const std::int64_t begin = c * grain;
    const std::int64_t end = begin + grain < n ? begin + grain : n;
    body(begin, end);
  });
}

/// Chunked loop with per-chunk scratch state:
///   make()                    -> Scratch, called once per chunk
///   body(begin, end, scratch) -> processes one chunk into its scratch
///   merge(scratch)            -> called serially on the caller, in
///                                ascending chunk order, after all
///                                chunks complete
/// The merge order is a function of (n, grain) only, so reductions are
/// deterministic for any thread count.  Every chunk's scratch lives until
/// the merge, so memory is O(chunks) in its size: make it the partial
/// result alone, and keep working buffers per thread (fabsim's wafer
/// columns).
template <typename MakeScratch, typename Body, typename Merge>
void parallel_reduce(ThreadPool* pool, std::int64_t n, std::int64_t grain, MakeScratch&& make,
                     Body&& body, Merge&& merge) {
  if (n <= 0) return;
  if (grain < 1) throw std::invalid_argument("parallel_reduce grain must be >= 1");
  using Scratch = decltype(make());
  const std::int64_t chunks = chunk_count(n, grain);
  if (chunks == 1) {
    obs::ObsSpan span("exec.chunk");
    detail::observe_chunk_begin(span, 0);
    robust::inject(kChunkFaultSite, 0);
    Scratch scratch = make();
    body(std::int64_t{0}, n, scratch);
    merge(std::move(scratch));
    return;
  }
  std::vector<Scratch> scratches;
  scratches.reserve(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c) scratches.push_back(make());
  pool_or_global(pool).run_tasks(chunks, [&](std::int64_t c) {
    obs::ObsSpan span("exec.chunk");
    detail::observe_chunk_begin(span, c);
    robust::inject(kChunkFaultSite, static_cast<std::uint64_t>(c));
    const std::int64_t begin = c * grain;
    const std::int64_t end = begin + grain < n ? begin + grain : n;
    body(begin, end, scratches[static_cast<std::size_t>(c)]);
  });
  for (Scratch& scratch : scratches) merge(std::move(scratch));
}

/// Outcome of a cancellable loop.  `frontier` is the count of leading
/// chunks whose results are usable: chunks [0, frontier) all completed,
/// chunk `frontier` (if any) did not.  Chunks completed *beyond* the
/// frontier out of order are discarded by parallel_reduce_cancellable
/// (never merged), so a partial result is a pure function of the
/// frontier -- bitwise what a fresh run truncated there produces,
/// regardless of thread count.
struct LoopStatus final {
  std::int64_t total_chunks = 0;
  std::int64_t frontier = 0;
  bool cancelled = false;  ///< the token was observed tripped

  [[nodiscard]] bool complete() const noexcept { return frontier == total_chunks; }
  [[nodiscard]] double completeness() const noexcept {
    return total_chunks > 0
               ? static_cast<double>(frontier) / static_cast<double>(total_chunks)
               : 1.0;
  }
};

namespace detail {

/// Frontier = first incomplete chunk; done[] bytes are written only by
/// the lane that ran that chunk and read here after the pool's batch
/// barrier, so no synchronization beyond run_tasks' own is needed.
[[nodiscard]] inline LoopStatus frontier_status(const std::vector<std::uint8_t>& done,
                                                const robust::CancelToken& token) {
  LoopStatus status;
  status.total_chunks = static_cast<std::int64_t>(done.size());
  status.frontier = status.total_chunks;
  for (std::size_t c = 0; c < done.size(); ++c) {
    if (done[c] == 0) {
      status.frontier = static_cast<std::int64_t>(c);
      break;
    }
  }
  status.cancelled = token.expired();
  if (status.cancelled) robust::note_cancel_observed(token);
  return status;
}

}  // namespace detail

/// parallel_for that honors `token` at chunk granularity.  An invalid
/// token (the default when no deadline is active) delegates to the
/// plain loop -- the only added cost on that path is resolving the
/// token, at most one relaxed atomic load.  With a valid token, each
/// chunk polls token.expired() before executing (on the pool *and* on
/// inline lanes), runs under a CancelScope so nested kernels inherit
/// the token ambiently, and the returned status reports the completed
/// chunk frontier.  Callers must discard per-index output at and beyond
/// `frontier * grain` -- chunks past the frontier may have run.
template <typename Body>
LoopStatus parallel_for_cancellable(ThreadPool* pool, std::int64_t n, std::int64_t grain,
                                    const robust::CancelToken& token, Body&& body) {
  if (n <= 0) return {};
  if (grain < 1) throw std::invalid_argument("parallel_for grain must be >= 1");
  const std::int64_t chunks = chunk_count(n, grain);
  if (!token.valid()) {
    parallel_for(pool, n, grain, std::forward<Body>(body));
    return LoopStatus{chunks, chunks, false};
  }
  std::vector<std::uint8_t> done(static_cast<std::size_t>(chunks), 0);
  pool_or_global(pool).run_tasks(
      chunks,
      [&](std::int64_t c) {
        if (token.expired()) return;
        robust::CancelScope scope(token);
        obs::ObsSpan span("exec.chunk");
        detail::observe_chunk_begin(span, c);
        robust::inject(kChunkFaultSite, static_cast<std::uint64_t>(c));
        const std::int64_t begin = c * grain;
        const std::int64_t end = begin + grain < n ? begin + grain : n;
        body(begin, end);
        done[static_cast<std::size_t>(c)] = 1;
      },
      [&token] { return token.expired(); });
  return detail::frontier_status(done, token);
}

/// parallel_reduce that honors `token` at chunk granularity.  Same
/// contract as parallel_for_cancellable; additionally, only scratches
/// of chunks *below* the frontier are merged (ascending), so the merged
/// result never sees out-of-order completions past the first gap.
template <typename MakeScratch, typename Body, typename Merge>
LoopStatus parallel_reduce_cancellable(ThreadPool* pool, std::int64_t n, std::int64_t grain,
                                       const robust::CancelToken& token, MakeScratch&& make,
                                       Body&& body, Merge&& merge) {
  if (n <= 0) return {};
  if (grain < 1) throw std::invalid_argument("parallel_reduce grain must be >= 1");
  if (!token.valid()) {
    parallel_reduce(pool, n, grain, std::forward<MakeScratch>(make), std::forward<Body>(body),
                    std::forward<Merge>(merge));
    const std::int64_t chunks = chunk_count(n, grain);
    return LoopStatus{chunks, chunks, false};
  }
  using Scratch = decltype(make());
  const std::int64_t chunks = chunk_count(n, grain);
  std::vector<Scratch> scratches;
  scratches.reserve(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c) scratches.push_back(make());
  std::vector<std::uint8_t> done(static_cast<std::size_t>(chunks), 0);
  pool_or_global(pool).run_tasks(
      chunks,
      [&](std::int64_t c) {
        if (token.expired()) return;
        robust::CancelScope scope(token);
        obs::ObsSpan span("exec.chunk");
        detail::observe_chunk_begin(span, c);
        robust::inject(kChunkFaultSite, static_cast<std::uint64_t>(c));
        const std::int64_t begin = c * grain;
        const std::int64_t end = begin + grain < n ? begin + grain : n;
        body(begin, end, scratches[static_cast<std::size_t>(c)]);
        done[static_cast<std::size_t>(c)] = 1;
      },
      [&token] { return token.expired(); });
  const LoopStatus status = detail::frontier_status(done, token);
  for (std::int64_t c = 0; c < status.frontier; ++c) {
    merge(std::move(scratches[static_cast<std::size_t>(c)]));
  }
  return status;
}

}  // namespace nanocost::exec
