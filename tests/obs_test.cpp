// nanocost::obs: metrics registry, span tracer, the inertness contract
// (observation on == observation off, bitwise, at any thread count),
// the NCSTAT01 stats codec, quantile estimation, snapshot deltas, and
// Prometheus exposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corruption_matrix.hpp"
#include "golden_hex.hpp"
#include "nanocost/cache/bytes.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/prometheus.hpp"
#include "nanocost/obs/stats.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/place/placer.hpp"

namespace {

using namespace nanocost;

// ---- minimal JSON well-formedness checker -------------------------------
//
// Enough of a recursive-descent parser to prove the trace and metrics
// exports parse as JSON (objects, arrays, strings, numbers, literals).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- metrics registry ----------------------------------------------------

TEST(ObsMetrics, CounterGaugeBasics) {
  obs::Counter& c = obs::counter("test.counter_basics");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(obs::counter_value("test.counter_basics"), 42u);
  // The same name resolves to the same metric.
  EXPECT_EQ(&obs::counter("test.counter_basics"), &c);

  obs::Gauge& g = obs::gauge("test.gauge_basics");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  // Lookup of an unregistered counter reports 0 without registering it.
  EXPECT_EQ(obs::counter_value("test.never_registered"), 0u);
  bool found = false;
  for (const auto& [name, value] : obs::snapshot_metrics().counters) {
    if (name == "test.never_registered") found = true;
  }
  EXPECT_FALSE(found);
}

TEST(ObsMetrics, BucketLayoutPartitionsU64) {
  EXPECT_EQ(obs::bucket_lower(0), 0u);
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    const std::uint64_t lower = obs::bucket_lower(i);
    const std::uint64_t upper = obs::bucket_upper(i);
    ASSERT_LE(lower, upper) << "bucket " << i;
    EXPECT_EQ(obs::bucket_index(lower), i);
    EXPECT_EQ(obs::bucket_index(upper), i);
    if (i + 1 < obs::kHistogramBuckets) {
      EXPECT_EQ(upper + 1, obs::bucket_lower(i + 1)) << "gap or overlap after bucket " << i;
    }
    if (i < 16) {
      EXPECT_EQ(lower, upper) << "values below 16 are exact";
    } else {
      EXPECT_LT(upper - lower, lower / 8) << "bucket " << i;
    }
  }
  EXPECT_GT(obs::bucket_upper(16), obs::bucket_lower(16));  // the first bucket wider than 1
  EXPECT_EQ(obs::bucket_upper(obs::kHistogramBuckets - 1), UINT64_MAX);
}

TEST(ObsMetrics, HistogramBuckets) {
  obs::Histogram& h = obs::histogram("test.hist_buckets");
  h.reset();
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{15}, std::uint64_t{16},
                                std::uint64_t{17}, std::uint64_t{1} << 63, UINT64_MAX}) {
    h.record(v);
  }
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(15), 1u);
  EXPECT_EQ(h.bucket_count(16), 2u);   // [16, 17]
  EXPECT_EQ(h.bucket_count(488), 1u);  // 2^63 opens the last power of two
  EXPECT_EQ(h.bucket_count(obs::kHistogramBuckets - 1), 1u);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, 6u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), UINT64_MAX);

  h.reset();
  for (const std::uint64_t v : {5, 10, 11, 100, 999, 5000}) h.record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 5u + 10u + 11u + 100u + 999u + 5000u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum()) / 6.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty histogram reports 0, not the sentinel
  EXPECT_EQ(h.max(), 0u);

  // Re-lookup returns the registered histogram.
  EXPECT_EQ(&obs::histogram("test.hist_buckets"), &h);
}

TEST(ObsMetrics, ConcurrentIncrementsAreExact) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  obs::Histogram& h = obs::histogram("test.concurrent_hist");
  c.reset();
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Concurrent same-name registration must resolve to one metric.
      obs::Counter& mine = obs::counter("test.concurrent_counter");
      EXPECT_EQ(&mine, &c);
      for (int i = 0; i < kPerThread; ++i) {
        mine.add();
        h.record(static_cast<std::uint64_t>((t + i) % 100));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_EQ(h.max(), 99u);
}

TEST(ObsMetrics, SnapshotAndRendersAreWellFormed) {
  obs::counter("test.render_counter").add(3);
  obs::gauge("test.render_gauge").set(0.25);
  obs::histogram("test.render_hist").record(4);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LE(snap.counters[i - 1].first, snap.counters[i].first) << "counters not sorted";
  }

  const std::string json = obs::render_metrics_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"test.render_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.render_hist\": {\"buckets\": [[4, "), std::string::npos) << json;

  const std::string text = obs::render_metrics_text();
  EXPECT_NE(text.find("test.render_gauge"), std::string::npos);
  EXPECT_NE(text.find("test.render_hist"), std::string::npos);

  // A name decoded from a stats blob is any bytes up to 4096: long and
  // quoted names must render whole, and escaped in JSON.
  obs::MetricsSnapshot odd;
  const std::string long_counter(150, 'c');
  const std::string long_histogram(300, 'h');
  odd.counters = {{long_counter, 7}};
  odd.gauges = {{"g\"quote", 0.5}};
  obs::HistogramSnapshot h;
  h.name = long_histogram;
  h.buckets.assign(obs::kHistogramBuckets, 0);
  h.buckets[obs::bucket_index(42)] = 2;
  h.count = 2;
  h.sum = 84;
  h.min = 42;
  h.max = 42;
  odd.histograms.push_back(h);
  const obs::MetricsSnapshot back = obs::decode_stats(obs::encode_stats(odd));
  const std::string odd_json = obs::render_metrics_json(back);
  JsonChecker odd_checker(odd_json);
  EXPECT_TRUE(odd_checker.valid()) << odd_json;
  EXPECT_NE(odd_json.find("\"" + long_counter + "\": 7"), std::string::npos);
  EXPECT_NE(odd_json.find("\"g\\\"quote\": 0.5"), std::string::npos) << odd_json;
  EXPECT_NE(odd_json.find("\"" + long_histogram + "\": {\"buckets\": [[43, 2]]"),
            std::string::npos);
  const std::string odd_text = obs::render_metrics_text(back);
  EXPECT_NE(odd_text.find(long_counter + " 7\n"), std::string::npos) << odd_text;
  EXPECT_NE(odd_text.find(long_histogram + " count 2  sum 84  mean 42.0  min 42  max 42\n"),
            std::string::npos)
      << odd_text;
}

// ---- span tracer ---------------------------------------------------------

TEST(ObsTrace, DisabledSpansAreUnarmed) {
  // Force-settle tracing off (overrides any stale state from other
  // tests in this process).
  (void)obs::stop_trace();
  obs::ObsSpan span("test.disabled");
  EXPECT_FALSE(span.armed());
}

TEST(ObsTrace, TraceFileIsValidChromeJson) {
  const std::string path = "obs_test_trace_valid.json";
  std::remove(path.c_str());
  obs::start_trace(path);
  EXPECT_EQ(obs::trace_path(), path);
  {
    obs::ObsSpan outer("test.outer");
    outer.arg("alpha", 1);
    outer.arg("beta", 2);
    obs::ObsSpan inner("test.inner");
    EXPECT_TRUE(outer.armed());
  }
  // Spans from several threads land in per-thread buffers.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      obs::ObsSpan span("test.threaded");
      span.arg("thread", static_cast<std::uint64_t>(t));
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(obs::stop_trace());

  const std::string trace = slurp(path);
  ASSERT_FALSE(trace.empty());
  JsonChecker checker(trace);
  EXPECT_TRUE(checker.valid());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.threaded\""), std::string::npos);
  EXPECT_NE(trace.find("\"alpha\": 1"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTrace, StopWithoutStartIsANoOp) { EXPECT_TRUE(obs::stop_trace()); }

TEST(ObsTrace, UnwritablePathReportsFailure) {
  obs::start_trace("/nonexistent-dir-for-obs-test/trace.json");
  { obs::ObsSpan span("test.unwritable"); }
  EXPECT_FALSE(obs::stop_trace());
}

// ---- NCSTAT01 stats codec ------------------------------------------------

/// A histogram snapshot of the layout with `counts[k]` samples in the
/// bucket holding `values[k]`, and no bookkeeping fields set.
obs::HistogramSnapshot layout_snapshot(const std::vector<std::uint64_t>& values,
                                       const std::vector<std::uint64_t>& counts) {
  obs::HistogramSnapshot h;
  h.buckets.assign(obs::kHistogramBuckets, 0);
  for (std::size_t k = 0; k < values.size(); ++k) {
    h.buckets[obs::bucket_index(values[k])] += counts[k];
  }
  return h;
}

/// The snapshot every codec test pins: two counters, a gauge, and one
/// histogram with all bookkeeping fields non-trivial.  Its 10 samples
/// sit in the buckets [36, 39], [144, 159], [1920, 2047] and
/// [98304, 106495].
obs::MetricsSnapshot stat_fixture() {
  obs::MetricsSnapshot snap;
  snap.counters = {{"serve.requests", 42}, {"serve.shed", 7}};
  snap.gauges = {{"serve.queue_depth", 1.5}};
  obs::HistogramSnapshot h = layout_snapshot({37, 150, 2000, 99999}, {1, 2, 3, 4});
  h.name = "serve.request_us";
  h.count = 10;
  h.sum = 54321;
  h.min = 37;
  h.max = 99999;
  snap.histograms.push_back(std::move(h));
  return snap;
}

using nanocost::testing::to_hex;

TEST(ObsStats, RoundTripIsBitwise) {
  const obs::MetricsSnapshot snap = stat_fixture();
  const std::vector<std::uint8_t> blob = obs::encode_stats(snap);
  const obs::MetricsSnapshot back = obs::decode_stats(blob);

  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].first, "serve.requests");
  EXPECT_EQ(back.counters[0].second, 42u);
  EXPECT_EQ(back.counters[1].first, "serve.shed");
  EXPECT_EQ(back.counters[1].second, 7u);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_EQ(back.gauges[0].first, "serve.queue_depth");
  EXPECT_DOUBLE_EQ(back.gauges[0].second, 1.5);
  ASSERT_EQ(back.histograms.size(), 1u);
  const obs::HistogramSnapshot& h = back.histograms[0];
  EXPECT_EQ(h.name, "serve.request_us");
  EXPECT_EQ(h.buckets, stat_fixture().histograms[0].buckets);
  EXPECT_EQ(h.count, 10u);
  EXPECT_EQ(h.sum, 54321u);
  EXPECT_EQ(h.min, 37u);
  EXPECT_EQ(h.max, 99999u);

  // Re-encoding the decoded snapshot reproduces the blob bitwise.
  EXPECT_EQ(obs::encode_stats(back), blob);
}

TEST(ObsStats, GoldenVectorPinsTheFormat) {
  // The NCSTAT01 bytes of stat_fixture(), pinned byte for byte.  If
  // this test fails, the wire format changed: that requires a version
  // bump, not a golden update.
  const std::string kGoldenHex =
      "4e43535441543031020000000200000000000000010e00000000000000736572"
      "76652e72657175657374732a00000000000000010a0000000000000073657276"
      "652e736865640700000000000000010000000000000002110000000000000073"
      "657276652e71756575655f6465707468000000000000f83f0100000000000000"
      "03100000000000000073657276652e726571756573745f757304000000000000"
      "0019000000000000000100000000000000290000000000000002000000000000"
      "0047000000000000000300000000000000740000000000000004000000000000"
      "000a0000000000000031d400000000000025000000000000009f860100000000"
      "00f1130241b059bc4d";
  const std::vector<std::uint8_t> blob = obs::encode_stats(stat_fixture());
  EXPECT_EQ(to_hex(blob), kGoldenHex);
}

TEST(ObsStats, EncodeRejectsMalformedSnapshot) {
  obs::MetricsSnapshot snap = stat_fixture();
  snap.histograms[0].buckets.pop_back();  // not one count per layout bucket
  EXPECT_THROW((void)obs::encode_stats(snap), obs::StatError);
}

/// An NCSTAT01 blob holding one histogram "h" whose pair section is
/// exactly `pairs` (index, count), with a valid checksum: what a
/// corrupt or hostile encoder could send.
std::vector<std::uint8_t> blob_with_pairs(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& pairs) {
  cache::ByteWriter w;
  w.raw(obs::kStatMagic, sizeof(obs::kStatMagic));
  w.u32(obs::kStatVersion);
  w.u64(0);  // counters
  w.u64(0);  // gauges
  w.u64(1);  // histograms
  w.u8(0x03);
  w.str("h");
  w.u64(pairs.size());
  for (const auto& [index, count] : pairs) {
    w.u64(index);
    w.u64(count);
  }
  for (int field = 0; field < 4; ++field) w.u64(1);  // count, sum, min, max
  const std::vector<std::uint8_t>& body = w.data();
  w.u64(cache::fnv1a(body.data() + sizeof(obs::kStatMagic),
                     body.size() - sizeof(obs::kStatMagic)));
  return w.take();
}

/// The StatError message decoding `blob` throws, or "(accepted)".
std::string stat_error_of(const std::vector<std::uint8_t>& blob) {
  try {
    (void)obs::decode_stats(blob);
  } catch (const obs::StatError& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(ObsStats, DecodeRejectsWrongMagicAndVersion) {
  std::vector<std::uint8_t> blob = obs::encode_stats(stat_fixture());
  {
    std::vector<std::uint8_t> bad = blob;
    bad[0] = 'X';
    EXPECT_THROW((void)obs::decode_stats(bad), obs::StatError);
  }
  EXPECT_THROW((void)obs::decode_stats(std::vector<std::uint8_t>{'N', 'C'}),
               obs::StatError);

  // A version 1 blob (bound arrays, overflow bucket), checksum intact:
  // the version alone rejects it.
  const std::vector<std::uint8_t> v1 = nanocost::testing::from_hex(
      "4e43535441543031010000000200000000000000010e00000000000000736572"
      "76652e72657175657374732a00000000000000010a0000000000000073657276"
      "652e736865640700000000000000010000000000000002110000000000000073"
      "657276652e71756575655f6465707468000000000000f83f0100000000000000"
      "03100000000000000073657276652e726571756573745f757303000000000000"
      "006400000000000000e803000000000000102700000000000001000000000000"
      "000200000000000000030000000000000004000000000000000a000000000000"
      "0031d400000000000025000000000000009f860100000000000cd4ee8e7bbf65"
      "92");
  EXPECT_NE(stat_error_of(v1).find("unsupported version 1"), std::string::npos);
}

TEST(ObsStats, DecodeRejectsBucketPairsOutsideTheLayout) {
  const obs::MetricsSnapshot ok = obs::decode_stats(blob_with_pairs({{0, 1}, {495, 2}}));
  ASSERT_EQ(ok.histograms.size(), 1u);
  EXPECT_EQ(ok.histograms[0].buckets[495], 2u);

  EXPECT_NE(stat_error_of(blob_with_pairs({{3, 1}, {496, 1}}))
                .find("bucket index 496 is past the layout's last bucket"),
            std::string::npos);
  EXPECT_NE(stat_error_of(blob_with_pairs({{7, 1}, {7, 1}})).find("bucket index 7 does not ascend"),
            std::string::npos);
  EXPECT_NE(stat_error_of(blob_with_pairs({{9, 1}, {2, 1}})).find("bucket index 2 does not ascend"),
            std::string::npos);
  EXPECT_NE(stat_error_of(blob_with_pairs({{4, 0}})).find("bucket 4 has count 0"),
            std::string::npos);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> too_many;
  for (std::uint64_t i = 0; i <= obs::kHistogramBuckets; ++i) too_many.emplace_back(i, 1);
  EXPECT_NE(stat_error_of(blob_with_pairs(too_many)).find("bucket pair count 497 exceeds"),
            std::string::npos);
}

TEST(ObsStats, CorruptionMatrixRejectsEveryMutation) {
  const std::vector<std::uint8_t> good = obs::encode_stats(stat_fixture());
  nanocost::testing::CorruptionMatrixOptions opts;
  // Offset 12: the u64 counter count (after magic + version).  Offset
  // 21: the first counter's u64 name length (after its 1-byte tag).
  opts.u64_length_offsets = {12, 21};
  nanocost::testing::run_corruption_matrix(
      good,
      [](const std::vector<std::uint8_t>& bytes) {
        nanocost::testing::CorruptionVerdict v;
        try {
          (void)obs::decode_stats(bytes);
        } catch (const obs::StatError& e) {
          v.rejected = true;
          v.diagnostic = e.what();
        }
        return v;
      },
      opts);
}

// ---- quantile estimation -------------------------------------------------

TEST(ObsStats, QuantileOfEmptyHistogramIsZero) {
  const obs::HistogramSnapshot h = layout_snapshot({}, {});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.99), 0.0);
}

TEST(ObsStats, QuantileHitsExactBucketBoundaries) {
  // Below 16 every bucket is one value, so the estimate is exact.
  obs::HistogramSnapshot exact = layout_snapshot({3, 7, 11}, {5, 5, 5});
  exact.count = 15;
  exact.min = 3;
  exact.max = 11;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(exact, 1.0 / 3.0), 3.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(exact, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(exact, 2.0 / 3.0), 7.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(exact, 1.0), 11.0);

  // 5 samples in each of [1024, 1151], [1152, 1279], [1280, 1407]: the
  // 1/3 and 2/3 quantiles land exactly on the buckets' upper values.
  obs::HistogramSnapshot h = layout_snapshot({1024, 1152, 1280}, {5, 5, 5});
  h.count = 15;
  h.min = 1024;
  h.max = 1407;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0 / 3.0), 1151.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 2.0 / 3.0), 1279.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 1407.0);
}

TEST(ObsStats, QuantileSingleBucketInterpolatesAndClamps) {
  // Four samples in [64, 71], recorded extremes 66 and 70.
  obs::HistogramSnapshot h = layout_snapshot({64}, {4});
  h.count = 4;
  h.min = 66;
  h.max = 70;
  // Rank 2 of 4 interpolates halfway across [64, 71].
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 67.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.75), 69.25);
  // q=0 clamps to rank 1 -> 65.75, raised to the exact min; q=1
  // interpolates to 71, lowered to the exact max.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.0), 66.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 70.0);
  // Out-of-range q clamps into [0, 1].
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, -3.0), 66.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 7.0), 70.0);

  // A snapshot taken while the first sample is being recorded can hold
  // its min but not yet its max: the estimate stays at the sample.
  obs::HistogramSnapshot racing = layout_snapshot({5}, {1});
  racing.count = 1;
  racing.min = 5;
  racing.max = 0;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(racing, 0.5), 5.0);
}

TEST(ObsStats, QuantilesMatchSortedSampleOracle) {
  // Seeded samples recorded through a live histogram: log-uniform over
  // [1, 10^9], mixed with a growing share of values below 16.  Each
  // estimate must lie within 1/8 of the exact order statistic, and
  // equal it below 16.
  obs::Histogram& live = obs::histogram("test.quantile_oracle");
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> exponent(0.0, 9.0);
  std::uniform_int_distribution<std::uint64_t> small(0, 15);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (const double small_share : {0.0, 0.2, 0.5, 0.7, 0.995}) {
    live.reset();
    std::vector<std::uint64_t> samples(2000);
    for (std::uint64_t& v : samples) {
      v = coin(rng) < small_share ? small(rng)
                                  : static_cast<std::uint64_t>(std::pow(10.0, exponent(rng)));
      live.record(v);
    }
    std::sort(samples.begin(), samples.end());
    obs::HistogramSnapshot h;
    for (const obs::HistogramSnapshot& s : obs::snapshot_metrics().histograms) {
      if (s.name == "test.quantile_oracle") h = s;
    }
    ASSERT_EQ(h.count, samples.size());
    for (const double q : {0.50, 0.90, 0.99, 0.999}) {
      const double target = std::max(1.0, q * static_cast<double>(samples.size()));
      const auto rank = static_cast<std::size_t>(std::ceil(target));
      const double oracle = static_cast<double>(samples[rank - 1]);
      const double est = obs::histogram_quantile(h, q);
      if (oracle < 16.0) {
        EXPECT_EQ(est, oracle) << "q=" << q << " small share " << small_share;
      } else {
        EXPECT_LE(std::abs(est - oracle), oracle / 8.0)
            << "q=" << q << " small share " << small_share << " oracle " << oracle;
      }
    }
  }
}

// ---- snapshot deltas -----------------------------------------------------

TEST(ObsStats, DeltaSubtractsCountersAndHistograms) {
  obs::MetricsSnapshot older = stat_fixture();
  obs::MetricsSnapshot newer = stat_fixture();
  newer.counters[0].second = 100;  // serve.requests 42 -> 100
  newer.gauges[0].second = 9.0;
  newer.histograms[0].buckets = layout_snapshot({37, 150, 2000, 99999}, {2, 2, 4, 5}).buckets;
  newer.histograms[0].count = 13;
  newer.histograms[0].sum = 60000;

  const obs::MetricsSnapshot d = obs::delta_stats(newer, older);
  ASSERT_EQ(d.counters.size(), 2u);
  EXPECT_EQ(d.counters[0].second, 58u);  // 100 - 42
  EXPECT_EQ(d.counters[1].second, 0u);   // 7 - 7
  EXPECT_DOUBLE_EQ(d.gauges[0].second, 9.0);  // levels pass through
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].buckets,
            layout_snapshot({37, 150, 2000, 99999}, {1, 0, 1, 1}).buckets);
  EXPECT_EQ(d.histograms[0].count, 3u);
  EXPECT_EQ(d.histograms[0].sum, 60000u - 54321u);
  // min/max stay lifetime extremes; a delta must not invent tighter ones.
  EXPECT_EQ(d.histograms[0].min, 37u);
  EXPECT_EQ(d.histograms[0].max, 99999u);
}

TEST(ObsStats, DeltaTreatsShrunkCounterAsRestart) {
  obs::MetricsSnapshot older = stat_fixture();
  obs::MetricsSnapshot newer = stat_fixture();
  newer.counters[0].second = 5;  // below the older 42: the server restarted
  // A histogram bucket that shrank means the same.
  newer.histograms[0].buckets = layout_snapshot({37, 150}, {1, 1}).buckets;
  newer.histograms[0].count = 12;
  newer.histograms[0].sum = 60000;
  const obs::MetricsSnapshot d = obs::delta_stats(newer, older);
  EXPECT_EQ(d.counters[0].second, 5u);  // reported whole
  EXPECT_EQ(d.histograms[0].buckets, newer.histograms[0].buckets);
  EXPECT_EQ(d.histograms[0].count, 12u);
}

TEST(ObsStats, DeltaHandlesAppearingAndVanishingMetrics) {
  obs::MetricsSnapshot older = stat_fixture();
  obs::MetricsSnapshot newer = stat_fixture();
  newer.counters.emplace_back("serve.new_counter", 3);
  older.counters.emplace_back("serve.old_counter", 9);
  const obs::MetricsSnapshot d = obs::delta_stats(newer, older);
  bool saw_new = false;
  for (const auto& [name, value] : d.counters) {
    if (name == "serve.new_counter") {
      saw_new = true;
      EXPECT_EQ(value, 3u);  // absent from older: treated as 0 before
    }
    EXPECT_NE(name, "serve.old_counter");  // absent from newer: dropped
  }
  EXPECT_TRUE(saw_new);
}

// ---- Prometheus exposition -----------------------------------------------

TEST(ObsPrometheus, SanitizesMetricNames) {
  EXPECT_EQ(obs::sanitize_metric_name("serve.queue_depth"), "serve_queue_depth");
  EXPECT_EQ(obs::sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(obs::sanitize_metric_name("a-b.c"), "a_b_c");
  EXPECT_EQ(obs::sanitize_metric_name("ok_name:x"), "ok_name:x");
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");
}

TEST(ObsPrometheus, RendersCumulativeHistogramForm) {
  const std::string text = obs::render_metrics_prometheus(stat_fixture());
  EXPECT_NE(text.find("# TYPE serve_requests counter\nserve_requests 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge\nserve_queue_depth 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_request_us histogram\n"), std::string::npos);
  // One line per non-empty bucket at its inclusive upper value; counts
  // accumulate left to right and +Inf equals _count.
  EXPECT_NE(text.find("serve_request_us_bucket{le=\"39\"} 1\n"
                      "serve_request_us_bucket{le=\"159\"} 3\n"
                      "serve_request_us_bucket{le=\"2047\"} 6\n"
                      "serve_request_us_bucket{le=\"106495\"} 10\n"
                      "serve_request_us_bucket{le=\"+Inf\"} 10\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_request_us_sum 54321\n"), std::string::npos);
  EXPECT_NE(text.find("serve_request_us_count 10\n"), std::string::npos);
}

TEST(ObsPrometheus, LiveRegistryRenderRoundTripsThroughNcstat) {
  // The daemon path in miniature: snapshot the live registry, encode,
  // decode, render -- the rendered exposition must equal rendering the
  // original snapshot directly.
  obs::counter("test.prom_live").add(11);
  obs::histogram("test.prom_live_hist").record(7);
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricsSnapshot back = obs::decode_stats(obs::encode_stats(snap));
  EXPECT_EQ(obs::render_metrics_prometheus(back), obs::render_metrics_prometheus(snap));
  EXPECT_EQ(obs::render_metrics_json(back), obs::render_metrics_json(snap));
}

// ---- inertness: observation must not change engine outputs ---------------

fabsim::FabSimulator make_sim() {
  defect::DefectFieldParams field;
  field.density_per_cm2 = 0.6;
  field.clustered = true;
  field.cluster_alpha = 2.0;
  return fabsim::FabSimulator{fabsim::FabConfig{
      geometry::WaferSpec::mm200(),
      geometry::DieSize{units::Millimeters{14.0}, units::Millimeters{14.0}},
      defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25}), field,
      defect::WireArray{units::Micrometers{0.25}, units::Micrometers{0.25},
                        units::Micrometers{100.0}, 50}}};
}

bool same_lot(const fabsim::LotResult& a, const fabsim::LotResult& b) {
  if (a.total_dies != b.total_dies || a.good_dies != b.good_dies ||
      a.fault_histogram != b.fault_histogram || a.wafers.size() != b.wafers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.wafers.size(); ++i) {
    if (a.wafers[i].gross_dies != b.wafers[i].gross_dies ||
        a.wafers[i].good_dies != b.wafers[i].good_dies ||
        a.wafers[i].defects != b.wafers[i].defects ||
        a.wafers[i].defects_on_dies != b.wafers[i].defects_on_dies) {
      return false;
    }
  }
  return true;
}

TEST(ObsDeterminism, ObservationIsBitwiseInert) {
  const fabsim::FabSimulator sim = make_sim();
  const core::UncertainInputs risk_inputs = [] {
    core::UncertainInputs inputs;
    inputs.nominal.transistors_per_chip = 1e7;
    inputs.nominal.n_wafers = 10000.0;
    return inputs;
  }();
  netlist::GeneratorParams gen;
  gen.gate_count = 150;
  gen.locality = 0.4;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);

  const std::vector<int> thread_counts{1, 2, exec::ThreadPool::default_thread_count()};
  for (const int threads : thread_counts) {
    exec::ThreadPool pool(threads);

    // Baseline: observation fully off.
    obs::set_metrics_enabled(false);
    (void)obs::stop_trace();
    const fabsim::LotResult lot_off = sim.run(24, 7, &pool);
    const core::RiskResult risk_off =
        core::monte_carlo_cost(risk_inputs, 300.0, 2000, 1, 0.0, &pool);
    const place::MultistartResult place_off =
        place::anneal_place_multistart(nl, 12, 15, 3, {}, &pool);

    // Instrumented: metrics + tracing on for the same workloads.
    const std::string path = "obs_test_inert_" + std::to_string(threads) + ".json";
    std::remove(path.c_str());
    obs::set_metrics_enabled(true);
    obs::start_trace(path);
    const fabsim::LotResult lot_on = sim.run(24, 7, &pool);
    const core::RiskResult risk_on =
        core::monte_carlo_cost(risk_inputs, 300.0, 2000, 1, 0.0, &pool);
    const place::MultistartResult place_on =
        place::anneal_place_multistart(nl, 12, 15, 3, {}, &pool);
    ASSERT_TRUE(obs::stop_trace());
    obs::set_metrics_enabled(false);

    EXPECT_TRUE(same_lot(lot_off, lot_on)) << "fabsim diverged at " << threads << " threads";
    EXPECT_EQ(risk_off.mean, risk_on.mean) << threads << " threads";
    EXPECT_EQ(risk_off.stddev, risk_on.stddev);
    EXPECT_EQ(risk_off.p10, risk_on.p10);
    EXPECT_EQ(risk_off.p50, risk_on.p50);
    EXPECT_EQ(risk_off.p90, risk_on.p90);
    EXPECT_EQ(place_off.best.final_hpwl, place_on.best.final_hpwl) << threads << " threads";
    EXPECT_EQ(place_off.best_start, place_on.best_start);
    EXPECT_EQ(place_off.start_hpwls, place_on.start_hpwls);
    for (std::int32_t g = 0; g < nl.gate_count(); ++g) {
      ASSERT_EQ(place_off.best.placement.site_of(g), place_on.best.placement.site_of(g));
    }

    // The metrics actually observed the work (not a disabled no-op run).
    EXPECT_GE(obs::counter_value("fabsim.wafers"), 24u);
    EXPECT_GE(obs::counter_value("place.anneals"), 3u);

    // And the trace saw spans from the instrumented layers.
    const std::string trace = slurp(path);
    JsonChecker checker(trace);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(trace.find("\"fabsim.lot\""), std::string::npos);
    EXPECT_NE(trace.find("\"fabsim.wafer\""), std::string::npos);
    EXPECT_NE(trace.find("\"exec.chunk\""), std::string::npos);
    EXPECT_NE(trace.find("\"place.anneal\""), std::string::npos);
    std::remove(path.c_str());
  }
}

}  // namespace
