// Overload protection: a bounded admission queue over the campaign
// engine.
//
// A production engine serving heavy traffic cannot run every request to
// completion; it has to shed or shrink load *deterministically*, so two
// replicas given the same submission sequence degrade identically.  Two
// policies:
//
//  * kRejectNewest: the queue holds at most `capacity` outstanding
//    campaigns; a submission past capacity is shed at submit() with a
//    clear error message and never executed.  Admission depends only on
//    the submission order and on which earlier campaigns have drained.
//  * kDegradeBudgets: everything is admitted, but a campaign that
//    starts while the queue is oversubscribed has its per-run chunk
//    budget (max_chunks_this_run) scaled by capacity / outstanding at
//    that moment, so the backlog drains in roughly the time `capacity`
//    full campaigns would -- each result partial-but-resumable instead
//    of a tail of rejects, and a campaign running alone keeps its full
//    budget.
//
// The whole queue drains under one optional wall-clock budget
// (total_budget_ms, measured from the first drain) and/or an external
// CancelToken; each campaign runs under a child token, so one slow
// campaign cannot eat the budget of the ones behind it silently -- they
// come back kExpired, resumable.
//
// Two usage shapes share this class:
//  * batch (the original API): submit() everything, then run() once --
//    run() closes submissions and drains.
//  * long-lived (the serve daemon): submit() and drain() interleave
//    from different threads; stop() trips the queue's own token so a
//    shutdown path gets a final outcome for every admitted campaign
//    (kStopped for the ones that never started) without having to own
//    an external CancelToken.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/cancel.hpp"

namespace nanocost::robust {

/// What to do with work beyond `capacity`.
enum class ShedPolicy : std::uint8_t {
  kRejectNewest,    ///< shed at submit() with a clear error
  kDegradeBudgets,  ///< admit all, shrink per-campaign chunk budgets
};

struct AdmissionOptions final {
  /// Outstanding campaigns the queue is sized for; also the
  /// degrade-policy divisor.
  std::size_t capacity = 8;
  ShedPolicy policy = ShedPolicy::kRejectNewest;
  /// Wall-clock budget for draining the whole queue, ms; 0 = none.
  /// The clock starts at the first drain()/run().
  double total_budget_ms = 0.0;
  /// External kill switch (e.g. shutdown); combined with the budget via
  /// a child token.  Invalid = none.
  CancelToken cancel;
};

enum class SubmissionStatus : std::uint8_t {
  kQueued,     ///< admitted, not yet run
  kShed,       ///< rejected at submit() (kRejectNewest at capacity)
  kCompleted,  ///< ran to full completeness
  kPartial,    ///< ran, returned a partial result (budget/quarantine)
  kExpired,    ///< the queue deadline tripped before or during the run
  kStopped,    ///< stop() tripped before or during the run
  kFailed,     ///< run_campaign threw (e.g. a corrupt record); message says why
};

struct SubmissionOutcome final {
  SubmissionStatus status = SubmissionStatus::kQueued;
  /// Populated for kCompleted/kPartial/kExpired-or-kStopped-during-run;
  /// default for kShed, kFailed and campaigns that never started.
  CampaignResult result;
  std::string message;  ///< shed/expired/stopped/failed reason, empty otherwise
};

/// Bounded FIFO of campaigns with deterministic load shedding.
/// submit(), drain(), and stop() may be called from different threads
/// (the serve daemon's readers submit while its runner drains); the
/// parallelism *within* each campaign still lives in the campaign.
/// outcomes()/run()/drain() return a reference that is only stable
/// while no concurrent submit() is in flight -- concurrent consumers
/// should take their copies from drain()'s per-campaign callback.
class CampaignQueue final {
 public:
  explicit CampaignQueue(AdmissionOptions options);

  /// Admits (or sheds) `task`; returns its outcome slot index.  `task`
  /// must outlive the drain that runs it.  Under kRejectNewest a full
  /// queue sheds the submission immediately: outcome kShed, message
  /// naming the capacity.  After stop() every submission comes back
  /// kStopped; after run() submissions throw (the batch API closes the
  /// queue).  `options.cancel` and `options.max_chunks_this_run` may be
  /// overridden at drain time (child deadline token, degraded budget);
  /// everything else passes through.
  std::size_t submit(const CampaignTask& task, CampaignOptions options = {});

  /// Runs every admitted-but-not-yet-run campaign in submission order
  /// and returns all outcomes (indexed like submit()).  Callable
  /// repeatedly; a drain that finds nothing pending returns
  /// immediately.  `on_complete`, when given, is invoked -- with no
  /// internal lock held -- after each campaign's outcome is recorded,
  /// with the slot index and the full outcome, chunk blobs included;
  /// this is how a long-lived server responds per request without
  /// waiting for the whole cycle.  The blobs move to the callback: the
  /// slot keeps only the status, message and counters (see
  /// outcomes()); a throwing run comes back kFailed.  Concurrent drains serialize.
  using CompletionFn = std::function<void(std::size_t, const SubmissionOutcome&)>;
  const std::vector<SubmissionOutcome>& drain(const CompletionFn& on_complete = {});

  /// Batch spelling: closes submissions, then drains.  Idempotent.
  const std::vector<SubmissionOutcome>& run();

  /// Trips the queue's own stop token: the running campaign (if any)
  /// stops at its next chunk boundary and comes back kStopped with a
  /// resumable partial result; campaigns that never started drain as
  /// kStopped without running; later submissions are rejected as
  /// kStopped.  Thread-safe, idempotent.
  void stop() noexcept;
  [[nodiscard]] bool stop_requested() const noexcept;

  /// Admitted campaigns not yet finished (queued + running).
  [[nodiscard]] std::size_t outstanding() const noexcept;

  /// Every slot's outcome, indexed like submit().  Campaigns finished by
  /// run() or by a drain() without a callback keep their full result;
  /// one finished by a drain() with a callback keeps its status,
  /// message and CampaignResult counters (completed_chunks,
  /// artifact_hits, quarantined, ...) but no chunk blobs -- those went
  /// to the callback.
  [[nodiscard]] const std::vector<SubmissionOutcome>& outcomes() const noexcept {
    return outcomes_;
  }
  /// Thread-safe snapshot of one slot's outcome -- how a concurrent
  /// submitter learns a submission was shed/stopped at submit() time
  /// (those slots never reach drain()'s callback).
  [[nodiscard]] SubmissionOutcome outcome_copy(std::size_t slot) const;
  [[nodiscard]] std::size_t shed_count() const noexcept;
  [[nodiscard]] std::size_t expired_count() const noexcept;
  [[nodiscard]] std::size_t partial_count() const noexcept;
  [[nodiscard]] std::size_t completed_count() const noexcept;
  [[nodiscard]] std::size_t stopped_count() const noexcept;

 private:
  struct Admitted {
    const CampaignTask* task = nullptr;
    CampaignOptions options;
    std::size_t slot = 0;
  };

  [[nodiscard]] std::size_t outstanding_locked() const noexcept {
    return admitted_.size() - next_ + (running_ ? 1 : 0);
  }
  std::size_t count_status(SubmissionStatus status) const noexcept;

  AdmissionOptions options_;
  /// Child of the external token (or an independent root): stop()
  /// cancels it without touching the caller's token; the budget chain
  /// and every per-campaign token hang off it.
  CancelToken stop_root_;
  mutable std::mutex mu_;
  std::condition_variable drain_done_;
  std::vector<Admitted> admitted_;
  std::vector<SubmissionOutcome> outcomes_;
  std::size_t next_ = 0;      ///< first admitted_ entry not yet picked up
  bool running_ = false;      ///< a campaign is executing right now
  bool draining_ = false;     ///< a drain cycle owns the queue
  bool closed_ = false;       ///< run() called; submissions throw
  bool stop_requested_ = false;
  bool budget_armed_ = false; ///< total_budget_ms chained (first drain)
  CancelToken governed_;      ///< stop_root_ (+ budget once armed)
};

}  // namespace nanocost::robust
