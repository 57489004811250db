// The robust module's metrics, declared once (obs::metrics_table): the
// campaign engine's, the cancel channel's, the backoff's and the
// artifact tier's.  report::render_campaign's footer reads them here.
#pragma once

#include "nanocost/obs/metrics.hpp"

namespace nanocost::robust {

struct RobustMetrics {
  obs::Counter& artifact_hits = obs::counter("robust.artifact_hits");
  obs::Counter& retries = obs::counter("robust.retries");
  obs::Counter& checkpoint_writes = obs::counter("robust.checkpoint_writes");
  obs::Counter& checkpoint_bytes = obs::counter("robust.checkpoint_bytes");
  obs::Counter& artifact_stores = obs::counter("robust.artifact_stores");
  obs::Counter& artifact_store_errors = obs::counter("robust.artifact_store_errors");
  obs::Counter& chunks_completed = obs::counter("robust.chunks_completed");
  obs::Counter& retry_abandoned = obs::counter("robust.retry_abandoned");
  obs::Counter& quarantined = obs::counter("robust.quarantined");
  obs::Gauge& deadline_remaining_ms = obs::gauge("robust.deadline_remaining_ms");
  obs::Histogram& wave_ms = obs::histogram("robust.wave_ms");
  obs::Counter& waves = obs::counter("robust.waves");
  obs::Counter& expired = obs::counter("robust.expired");
  obs::Gauge& completeness = obs::gauge("robust.completeness");
  obs::Counter& cancelled_loops = obs::counter("robust.cancelled_loops");
  obs::Histogram& cancel_latency_us = obs::histogram("robust.cancel_latency_us");
  obs::Histogram& backoff_sleep_ms = obs::histogram("robust.backoff_sleep_ms");
  obs::Counter& artifact_evicted = obs::counter("robust.artifact_evicted");
};

}  // namespace nanocost::robust
