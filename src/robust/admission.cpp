#include "nanocost/robust/admission.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nanocost/exec/parallel.hpp"
#include "nanocost/obs/metrics.hpp"

namespace nanocost::robust {

CampaignQueue::CampaignQueue(AdmissionOptions options) : options_(std::move(options)) {
  if (options_.capacity < 1) {
    throw std::invalid_argument("admission queue needs capacity >= 1");
  }
  // stop() must work before the first drain and must never touch the
  // caller's token, so the governing root is a child (or an independent
  // manual root) created up front.
  stop_root_ = options_.cancel.valid() ? options_.cancel.child() : CancelToken::manual();
  governed_ = stop_root_;
}

std::size_t CampaignQueue::submit(const CampaignTask& task, CampaignOptions options) {
  std::lock_guard<std::mutex> lk(mu_);
  if (closed_) {
    throw std::logic_error("admission queue already drained; submissions are closed");
  }
  const std::size_t slot = outcomes_.size();
  outcomes_.emplace_back();
  if (stop_requested_) {
    outcomes_[slot].status = SubmissionStatus::kStopped;
    outcomes_[slot].message = "stopped: the queue is shutting down; submission rejected";
    return slot;
  }
  if (options_.policy == ShedPolicy::kRejectNewest &&
      outstanding_locked() >= options_.capacity) {
    // Deterministic: admission depends only on the submission order and
    // on which earlier campaigns have drained, never on timing inside
    // a campaign.
    outcomes_[slot].status = SubmissionStatus::kShed;
    outcomes_[slot].message = "shed: queue at capacity (" +
                              std::to_string(options_.capacity) +
                              "); resubmit when the queue drains";
    if (obs::metrics_enabled()) {
      static obs::Counter& shed = obs::counter("robust.shed");
      shed.add();
    }
    return slot;
  }
  admitted_.push_back(Admitted{&task, std::move(options), slot});
  return slot;
}

const std::vector<SubmissionOutcome>& CampaignQueue::drain(const CompletionFn& on_complete) {
  std::unique_lock<std::mutex> lk(mu_);
  // Concurrent drains serialize: the second caller waits, then picks up
  // whatever was submitted meanwhile.
  drain_done_.wait(lk, [&] { return !draining_; });
  draining_ = true;
  if (!budget_armed_) {
    budget_armed_ = true;
    if (options_.total_budget_ms > 0.0) {
      governed_ = stop_root_.child_with_deadline(options_.total_budget_ms);
    }
  }

  if (obs::metrics_enabled()) {
    static obs::Gauge& depth = obs::gauge("robust.queue_depth");
    depth.set(static_cast<double>(outstanding_locked()));
  }

  while (next_ < admitted_.size()) {
    Admitted a = admitted_[next_];
    ++next_;
    SubmissionStatus status;
    std::string message;
    CampaignResult result;
    bool ran = false;
    if (stop_requested_) {
      status = SubmissionStatus::kStopped;
      message = "stopped: the queue was stopped before this campaign started; resumable";
    } else if (governed_.expired()) {
      status = SubmissionStatus::kExpired;
      message = "expired: queue budget exhausted before this campaign started";
      if (obs::metrics_enabled()) {
        static obs::Counter& expired = obs::counter("robust.expired");
        expired.add();
      }
    } else {
      running_ = true;
      CampaignOptions run_options = a.options;
      run_options.cancel = governed_.child();
      // kDegradeBudgets: oversubscription at the moment a campaign
      // starts shrinks its chunk budget by capacity / outstanding -- a
      // pure function of the submission/completion sequence, so
      // degradation is reproducible, and a campaign that ends up
      // running alone keeps its full budget (a long-lived server only
      // degrades under actual load, not because load existed earlier).
      const std::size_t pickup_outstanding = outstanding_locked();
      if (options_.policy == ShedPolicy::kDegradeBudgets &&
          pickup_outstanding > options_.capacity) {
        const std::int64_t total =
            exec::chunk_count(a.task->unit_count(), a.task->grain());
        const std::int64_t share = std::max<std::int64_t>(
            1, total * static_cast<std::int64_t>(options_.capacity) /
                   static_cast<std::int64_t>(pickup_outstanding));
        run_options.max_chunks_this_run =
            run_options.max_chunks_this_run > 0
                ? std::min(run_options.max_chunks_this_run, share)
                : share;
      }
      lk.unlock();
      result = run_campaign(*a.task, run_options);
      lk.lock();
      running_ = false;
      ran = true;
      if (result.expired) {
        if (stop_requested_) {
          status = SubmissionStatus::kStopped;
          message = "stopped: the queue was stopped mid-run; checkpointed, resumable";
        } else {
          status = SubmissionStatus::kExpired;
          message = "expired: the queue deadline tripped mid-run; resumable";
        }
      } else if (result.completeness() < 1.0 || result.interrupted) {
        status = SubmissionStatus::kPartial;
      } else {
        status = SubmissionStatus::kCompleted;
      }
    }
    SubmissionOutcome& outcome = outcomes_[a.slot];
    outcome.status = status;
    outcome.message = std::move(message);
    if (!on_complete) {
      if (ran) outcome.result = std::move(result);
      continue;
    }
    // The callback owns the chunk blobs from here on; the slot keeps
    // the status, message and counters.  A long-lived server drains
    // every campaign it ever serves through here, so keeping the blobs
    // would grow its memory by every result.
    std::vector<std::vector<std::uint8_t>> chunks = std::move(result.chunks);
    if (ran) outcome.result = std::move(result);
    SubmissionOutcome handed = outcome;
    handed.result.chunks = std::move(chunks);
    // Called with no lock held: the callback may submit, stop, or block
    // on I/O without deadlocking the queue.
    lk.unlock();
    on_complete(a.slot, handed);
    lk.lock();
  }
  // Every admitted entry has been picked up; drop them so a long-lived
  // queue holds only its outcome slots.
  admitted_.clear();
  next_ = 0;

  draining_ = false;
  lk.unlock();
  drain_done_.notify_all();
  return outcomes_;
}

const std::vector<SubmissionOutcome>& CampaignQueue::run() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  return drain();
}

void CampaignQueue::stop() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_ = true;
  }
  stop_root_.cancel();
}

bool CampaignQueue::stop_requested() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return stop_requested_;
}

std::size_t CampaignQueue::outstanding() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_locked();
}

SubmissionOutcome CampaignQueue::outcome_copy(std::size_t slot) const {
  std::lock_guard<std::mutex> lk(mu_);
  return outcomes_.at(slot);
}

std::size_t CampaignQueue::count_status(SubmissionStatus status) const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const SubmissionOutcome& o : outcomes_) {
    if (o.status == status) ++n;
  }
  return n;
}

std::size_t CampaignQueue::shed_count() const noexcept {
  return count_status(SubmissionStatus::kShed);
}
std::size_t CampaignQueue::expired_count() const noexcept {
  return count_status(SubmissionStatus::kExpired);
}
std::size_t CampaignQueue::partial_count() const noexcept {
  return count_status(SubmissionStatus::kPartial);
}
std::size_t CampaignQueue::completed_count() const noexcept {
  return count_status(SubmissionStatus::kCompleted);
}
std::size_t CampaignQueue::stopped_count() const noexcept {
  return count_status(SubmissionStatus::kStopped);
}

}  // namespace nanocost::robust
