#include "nanocost/serve/resilient.hpp"

#include <csignal>
#include <stdexcept>
#include <utility>

#include "nanocost/obs/metrics.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"

namespace nanocost::serve {

namespace {

struct ClientMetrics {
  obs::Counter& reconnects = obs::counter("serve.client.reconnects");
  obs::Counter& retries = obs::counter("serve.client.retries");
};

/// A response worth resubmitting: the server shed or stopped the job
/// (transient overload / drain), or errored while naming itself the
/// transient party ("resubmit").  Semantic failures and partial results
/// go back to the caller unchanged.
bool retryable_response(const Response& r) {
  if (r.status == ResponseStatus::kShed || r.status == ResponseStatus::kStopped) {
    return true;
  }
  return r.status == ResponseStatus::kError &&
         r.message.find("resubmit") != std::string::npos;
}

bool is_handshake_reject(const std::string& what) {
  return what.find("handshake rejected") != std::string::npos;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("serve endpoint: empty spec");
  }
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.unix_path = spec.substr(5);
    if (ep.unix_path.empty()) {
      throw std::invalid_argument("serve endpoint: \"" + spec + "\" names no socket path");
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 >= rest.size()) {
      throw std::invalid_argument("serve endpoint: \"" + spec +
                                  "\" is not tcp:HOST:PORT");
    }
    ep.tcp_host = rest.substr(0, colon);
    int port = 0;
    for (std::size_t i = colon + 1; i < rest.size(); ++i) {
      const char c = rest[i];
      if (c < '0' || c > '9' || port > 65535) {
        throw std::invalid_argument("serve endpoint: \"" + spec + "\" has a bad port");
      }
      port = port * 10 + (c - '0');
    }
    if (port <= 0 || port > 65535) {
      throw std::invalid_argument("serve endpoint: \"" + spec + "\" has a bad port");
    }
    ep.tcp_port = port;
    return ep;
  }
  // Bare path: the pre-TCP spelling every existing script uses.
  ep.unix_path = spec;
  return ep;
}

std::string Endpoint::describe() const {
  if (is_tcp()) return "tcp:" + tcp_host + ":" + std::to_string(tcp_port);
  return "unix:" + unix_path;
}

ResilientClient::ResilientClient(ResilientOptions options) : options_(std::move(options)) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  // A client mid-write to a kill -9'd daemon must see EPIPE as a
  // catchable WireError and retry, not die by SIGPIPE.  (Server
  // processes already ignore it; client-only processes like
  // nanocost_submit reach here first.)
  std::signal(SIGPIPE, SIG_IGN);
}

void ResilientClient::ensure_connected() {
  if (client_.has_value()) return;
  // The reconnect ordinal rides in the hello: the server counts
  // ordinals > 0 as serve.reconnects_total.
  const auto ordinal = static_cast<std::uint32_t>(connects_);
  Client fresh = options_.endpoint.is_tcp()
                     ? Client::connect_tcp(options_.endpoint.tcp_host,
                                           options_.endpoint.tcp_port)
                     : Client::connect_unix(options_.endpoint.unix_path);
  if (options_.attempt_timeout_ms > 0.0) fresh.arm_timeouts(options_.attempt_timeout_ms);
  (void)fresh.handshake(options_.tenant, ordinal);
  ++connects_;
  if (ordinal > 0) {
    ++reconnects_;
    if (auto* m = obs::metrics_table<ClientMetrics>()) m->reconnects.add();
  }
  client_.emplace(std::move(fresh));
}

void ResilientClient::drop_connection() noexcept { client_.reset(); }

Response ResilientClient::run(const char* what,
                              const std::function<Response(Client&)>& op) {
  const robust::CancelToken overall =
      options_.overall_budget_ms > 0.0
          ? robust::CancelToken::with_deadline(options_.overall_budget_ms)
          : robust::CancelToken{};
  std::string last_error = "no attempt made";
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Abandon instead of sleeping into a guaranteed expiry -- the
      // same budget discipline the campaign retry path uses.
      if (options_.backoff.overruns_budget(attempt - 1, overall)) {
        throw std::runtime_error(std::string("serve resilient client: ") + what +
                                 " abandoned after " + std::to_string(attempt) +
                                 " attempt(s): the remaining budget cannot fit the next "
                                 "backoff; last failure: " +
                                 last_error);
      }
      ++retries_;
      if (auto* m = obs::metrics_table<ClientMetrics>()) m->retries.add();
      robust::backoff_sleep(options_.backoff, attempt - 1);
    }
    // Transient fault plans draw on (site, index, attempt): scoping the
    // attempt ordinal here makes an injected connect/reset/stall heal on
    // a later attempt instead of recurring forever at the same write
    // index -- the same discipline the campaign retry loop uses.
    robust::AttemptScope fault_attempt(static_cast<std::uint32_t>(attempt));
    try {
      ensure_connected();
      Response r = op(*client_);
      if (retryable_response(r)) {
        // The server is healthy but shedding; keep the connection, pay
        // the backoff, resubmit.  Content addressing makes the
        // resubmission coalesce or replay, never recompute.
        const std::string status = response_status_name(r.status);
        if (r.message.starts_with(status + ":")) {
          last_error = r.message;  // shed and stopped messages name their status
        } else {
          last_error = status + (r.message.empty() ? "" : ": " + r.message);
        }
        continue;
      }
      return r;
    } catch (const std::exception& e) {
      if (is_handshake_reject(e.what())) throw;  // retrying cannot fix versions
      last_error = e.what();
      drop_connection();
    }
    if (overall.valid() && overall.expired()) {
      throw std::runtime_error(std::string("serve resilient client: ") + what +
                               " ran out its overall budget after " +
                               std::to_string(attempt + 1) +
                               " attempt(s); last failure: " + last_error);
    }
  }
  throw std::runtime_error(std::string("serve resilient client: ") + what +
                           " gave up after " + std::to_string(options_.max_attempts) +
                           " attempt(s); last failure: " + last_error);
}

Response ResilientClient::submit_and_wait(const Eq4Job& job) {
  return run("eq4 job", [&job](Client& c) {
    Eq4Job fresh = job;
    fresh.request_id = 0;  // a new id per attempt; the job_key dedupes
    return c.wait(c.submit(fresh));
  });
}

Response ResilientClient::submit_and_wait(const RiskJob& job) {
  return run("risk job", [&job](Client& c) {
    RiskJob fresh = job;
    fresh.request_id = 0;
    return c.wait(c.submit(fresh));
  });
}

Response ResilientClient::submit_and_wait(const CampaignJob& job) {
  return run("campaign job", [&job](Client& c) {
    CampaignJob fresh = job;
    fresh.request_id = 0;
    return c.wait(c.submit(fresh));
  });
}

StatsReport ResilientClient::stats() {
  StatsReport report;
  (void)run("stats scrape", [this, &report](Client& c) {
    report = c.stats();
    return Response{};  // kOk: the scrape itself succeeded
  });
  return report;
}

bool ResilientClient::ping() {
  try {
    ensure_connected();
    if (client_->ping()) return true;
    drop_connection();
    ensure_connected();
    return client_->ping();
  } catch (const std::exception&) {
    drop_connection();
    return false;
  }
}

}  // namespace nanocost::serve
