// Submit one job to a running nanocost_serve daemon and print the
// outcome -- the client half of the serve smoke tests.
//
//   nanocost_submit --connect unix:PATH|tcp:HOST:PORT eq4|risk|campaign ...
//   nanocost_submit --socket PATH ...            (legacy unix spelling)
//
// Job shapes:  eq4 [--steps N] | risk [--samples N] [--sd X] [--seed S]
//            | campaign [--wafers N] [--seed S] [--max-chunks N]
// Resilience:  [--tenant NAME] [--retries N] [--timeout-ms MS]
//              [--budget-ms MS]
//
// Jobs go through serve::ResilientClient: a connection reset, stalled
// server, or daemon restart mid-wait reconnects (re-handshaking with
// the tenant and reconnect ordinal) and resubmits with exponential
// backoff.  Content addressing makes the resubmit coalesce or replay
// artifact-tier chunks, so the printed digest is identical to an
// undisturbed run -- the chaos smoke test compares digests across
// kill -9.
//
// Prints one line: status, completeness, frontier, artifact hits, and
// the fnv1a digest of the result bytes.  Two invocations that print
// the same digest received bitwise-identical results.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/serve/resilient.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect unix:PATH|tcp:HOST:PORT eq4|risk|campaign\n"
               "          [--socket PATH] [--steps N] [--samples N] [--sd X]\n"
               "          [--wafers N] [--seed S] [--max-chunks N]\n"
               "          [--tenant NAME] [--retries N] [--timeout-ms MS]\n"
               "          [--budget-ms MS]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nanocost;

  std::string connect_spec;
  std::string kind;
  std::string tenant;
  int steps = 40;
  int samples = 2000;
  double s_d = 1000.0;
  long long wafers = 32;
  unsigned long long seed = 7;
  long long max_chunks = 0;
  int retries = 5;
  double timeout_ms = 0.0;
  double budget_ms = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--socket" && has_value) {
      connect_spec = std::string("unix:") + argv[++i];
    } else if (arg == "--connect" && has_value) {
      connect_spec = argv[++i];
    } else if (arg == "eq4" || arg == "risk" || arg == "campaign") {
      kind = arg;
    } else if (arg == "--steps" && has_value) {
      steps = std::atoi(argv[++i]);
    } else if (arg == "--samples" && has_value) {
      samples = std::atoi(argv[++i]);
    } else if (arg == "--sd" && has_value) {
      s_d = std::atof(argv[++i]);
    } else if (arg == "--wafers" && has_value) {
      wafers = std::atoll(argv[++i]);
    } else if (arg == "--seed" && has_value) {
      seed = static_cast<unsigned long long>(std::atoll(argv[++i]));
    } else if (arg == "--max-chunks" && has_value) {
      max_chunks = std::atoll(argv[++i]);
    } else if (arg == "--tenant" && has_value) {
      tenant = argv[++i];
    } else if (arg == "--retries" && has_value) {
      retries = std::atoi(argv[++i]);
    } else if (arg == "--timeout-ms" && has_value) {
      timeout_ms = std::atof(argv[++i]);
    } else if (arg == "--budget-ms" && has_value) {
      budget_ms = std::atof(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (connect_spec.empty() || kind.empty()) return usage(argv[0]);

  try {
    serve::ResilientOptions opts;
    opts.endpoint = serve::Endpoint::parse(connect_spec);
    opts.tenant = tenant;
    opts.max_attempts = retries > 0 ? retries : 1;
    opts.attempt_timeout_ms = timeout_ms;
    opts.overall_budget_ms = budget_ms;
    serve::ResilientClient client(opts);
    serve::Response r;
    if (kind == "eq4") {
      serve::Eq4Job job;
      job.steps = steps;
      r = client.submit_and_wait(job);
    } else if (kind == "risk") {
      serve::RiskJob job;
      job.s_d = s_d;
      job.samples = samples;
      job.seed = seed;
      r = client.submit_and_wait(job);
    } else {
      serve::CampaignJob job;
      job.n_wafers = wafers;
      job.seed = seed;
      job.max_chunks = max_chunks;
      r = client.submit_and_wait(job);
    }
    const std::uint64_t digest = cache::fnv1a(r.result.data(), r.result.size());
    std::printf("%s status=%s completeness=%.4f frontier=%lld artifact_hits=%llu "
                "coalesced=%d digest=%016llx reconnects=%llu retries=%llu%s%s\n",
                kind.c_str(), serve::response_status_name(r.status), r.completeness,
                static_cast<long long>(r.frontier_chunks),
                static_cast<unsigned long long>(r.artifact_hits), r.coalesced ? 1 : 0,
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(client.reconnects()),
                static_cast<unsigned long long>(client.retries()),
                r.message.empty() ? "" : " -- ", r.message.c_str());
    return r.status == serve::ResponseStatus::kError ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nanocost_submit: %s\n", e.what());
    return 1;
  }
}
