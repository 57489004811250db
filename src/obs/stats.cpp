#include "nanocost/obs/stats.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "nanocost/cache/bytes.hpp"

namespace nanocost::obs {

namespace {

constexpr std::uint8_t kTagCounter = 0x01;
constexpr std::uint8_t kTagGauge = 0x02;
constexpr std::uint8_t kTagHistogram = 0x03;

void expect_tag(cache::ByteReader& r, std::uint8_t tag, const char* entry) {
  const std::uint8_t got = r.u8();
  if (got != tag) {
    throw StatError(std::string("NCSTAT01 ") + entry + " entry has wrong field tag " +
                    std::to_string(got));
  }
}

/// A metric name: a str field whose declared length is capped before
/// any byte of it is read.
std::string read_name(cache::ByteReader& r, const char* what) {
  const std::uint64_t len = r.u64();
  if (len > kMaxStatNameBytes) {
    throw StatError(std::string("NCSTAT01 ") + what + " declares " + std::to_string(len) +
                    " bytes (cap " + std::to_string(kMaxStatNameBytes) + ")");
  }
  return std::string(reinterpret_cast<const char*>(r.raw(len)), static_cast<std::size_t>(len));
}

[[noreturn]] void reject_histogram(const std::string& name, const std::string& what) {
  throw StatError("NCSTAT01 histogram '" + name + "' " + what);
}

}  // namespace

std::vector<std::uint8_t> encode_stats(const MetricsSnapshot& snap) {
  cache::ByteWriter w;
  w.raw(kStatMagic, sizeof(kStatMagic));
  w.u32(kStatVersion);
  w.u64(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    w.u8(kTagCounter);
    w.str(name);
    w.u64(value);
  }
  w.u64(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    w.u8(kTagGauge);
    w.str(name);
    w.f64(value);
  }
  w.u64(snap.histograms.size());
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.buckets.size() != kHistogramBuckets) {
      throw StatError("NCSTAT01 cannot encode histogram '" + h.name + "': " +
                      std::to_string(h.buckets.size()) + " buckets, the layout has " +
                      std::to_string(kHistogramBuckets));
    }
    w.u8(kTagHistogram);
    w.str(h.name);
    const auto non_empty = std::count_if(h.buckets.begin(), h.buckets.end(),
                                         [](std::uint64_t n) { return n != 0; });
    w.u64(static_cast<std::uint64_t>(non_empty));
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      w.u64(i);
      w.u64(h.buckets[i]);
    }
    w.u64(h.count);
    w.u64(h.sum);
    w.u64(h.min);
    w.u64(h.max);
  }
  const std::vector<std::uint8_t>& body = w.data();
  w.u64(cache::fnv1a(body.data() + sizeof(kStatMagic), body.size() - sizeof(kStatMagic)));
  return w.take();
}

MetricsSnapshot decode_stats(const std::vector<std::uint8_t>& blob) {
  if (blob.size() < sizeof(kStatMagic) + 4 + 8) {
    throw StatError("NCSTAT01 blob truncated: " + std::to_string(blob.size()) +
                    " bytes cannot hold magic, version and checksum");
  }
  // Everything but the trailing checksum word, which covers the part of
  // it after the magic.
  const std::size_t body_end = blob.size() - 8;
  cache::ByteReader r(blob.data(), body_end);
  if (std::memcmp(r.raw(sizeof(kStatMagic)), kStatMagic, sizeof(kStatMagic)) != 0) {
    throw StatError("NCSTAT01 blob has a bad magic header");
  }
  MetricsSnapshot snap;
  try {
    const std::uint32_t version = r.u32();
    if (version != kStatVersion) {
      throw StatError("NCSTAT01 blob declares unsupported version " +
                      std::to_string(version) + " (this decoder speaks " +
                      std::to_string(kStatVersion) + ")");
    }

    // Each count is checked against the smallest entry it can name:
    // tag + name length + value for counters and gauges.
    const std::size_t n_counters = r.count(1 + 8 + 8);
    for (std::size_t i = 0; i < n_counters; ++i) {
      expect_tag(r, kTagCounter, "counter");
      std::string name = read_name(r, "counter name");
      snap.counters.emplace_back(std::move(name), r.u64());
    }

    const std::size_t n_gauges = r.count(1 + 8 + 8);
    for (std::size_t i = 0; i < n_gauges; ++i) {
      expect_tag(r, kTagGauge, "gauge");
      std::string name = read_name(r, "gauge name");
      snap.gauges.emplace_back(std::move(name), r.f64());
    }

    // tag + name length + pair count + count/sum/min/max.
    const std::size_t n_histograms = r.count(1 + 8 + 8 + 32);
    for (std::size_t i = 0; i < n_histograms; ++i) {
      expect_tag(r, kTagHistogram, "histogram");
      HistogramSnapshot h;
      h.name = read_name(r, "histogram name");
      const std::size_t n_pairs = r.count(16);  // (index, count)
      if (n_pairs > kHistogramBuckets) {
        reject_histogram(h.name, "bucket pair count " + std::to_string(n_pairs) +
                                     " exceeds the layout's " +
                                     std::to_string(kHistogramBuckets));
      }
      h.buckets.assign(kHistogramBuckets, 0);
      std::uint64_t next = 0;  // the lowest index the next pair may name
      for (std::size_t p = 0; p < n_pairs; ++p) {
        const std::uint64_t index = r.u64();
        if (index < next) {
          reject_histogram(h.name, "bucket index " + std::to_string(index) +
                                       " does not ascend past " + std::to_string(next - 1));
        }
        if (index >= kHistogramBuckets) {
          reject_histogram(h.name, "bucket index " + std::to_string(index) +
                                       " is past the layout's last bucket " +
                                       std::to_string(kHistogramBuckets - 1));
        }
        const std::uint64_t n = r.u64();
        if (n == 0) {
          reject_histogram(h.name, "bucket " + std::to_string(index) +
                                       " has count 0; only non-empty buckets are listed");
        }
        h.buckets[index] = n;
        next = index + 1;
      }
      h.count = r.u64();
      h.sum = r.u64();
      h.min = r.u64();
      h.max = r.u64();
      snap.histograms.push_back(std::move(h));
    }
    r.expect_end();
  } catch (const cache::DecodeError& e) {
    throw StatError(std::string("NCSTAT01 ") + e.what());
  }
  const std::uint64_t stored = cache::ByteReader(blob.data() + body_end, 8).u64();
  if (stored != cache::fnv1a(blob.data() + sizeof(kStatMagic), body_end - sizeof(kStatMagic))) {
    throw StatError("NCSTAT01 blob failed its fnv1a checksum (bit flip?)");
  }
  return snap;
}

double histogram_quantile(const HistogramSnapshot& h, double q) noexcept {
  if (h.count == 0 || h.buckets.size() != kHistogramBuckets) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, count]: the k-th smallest sample the quantile names.
  const double target = std::max(1.0, q * static_cast<double>(h.count));
  double cum = 0.0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n == 0.0) continue;
    if (cum + n < target) {
      cum += n;
      continue;
    }
    // The target rank, and so the ceil(target)-th sample, is in bucket i.
    const double lower = static_cast<double>(bucket_lower(i));
    const double upper = static_cast<double>(bucket_upper(i));
    const double v = lower + (upper - lower) * (target - cum) / n;
    // min/max are tracked exactly, so they tighten the first/last
    // buckets' edges for free.  A snapshot taken mid-record can hold a
    // new min with the old max, so max is never let below min.
    const double lo = static_cast<double>(h.min);
    return std::clamp(v, lo, std::max(lo, static_cast<double>(h.max)));
  }
  return static_cast<double>(h.max);  // count ran ahead of the buckets
}

HistogramQuantiles histogram_quantiles(const HistogramSnapshot& h) noexcept {
  HistogramQuantiles out;
  out.p50 = histogram_quantile(h, 0.50);
  out.p90 = histogram_quantile(h, 0.90);
  out.p99 = histogram_quantile(h, 0.99);
  return out;
}

MetricsSnapshot delta_stats(const MetricsSnapshot& newer, const MetricsSnapshot& older) {
  MetricsSnapshot out;

  std::map<std::string, std::uint64_t> old_counters(older.counters.begin(),
                                                    older.counters.end());
  out.counters.reserve(newer.counters.size());
  for (const auto& [name, value] : newer.counters) {
    const auto it = old_counters.find(name);
    const std::uint64_t base = it != old_counters.end() ? it->second : 0;
    // A counter that shrank means the process restarted between
    // scrapes; the newer value is itself the delta since that restart.
    out.counters.emplace_back(name, value >= base ? value - base : value);
  }

  out.gauges = newer.gauges;  // levels: the newest reading is the answer

  std::map<std::string, const HistogramSnapshot*> old_hists;
  for (const HistogramSnapshot& h : older.histograms) old_hists.emplace(h.name, &h);
  out.histograms.reserve(newer.histograms.size());
  for (const HistogramSnapshot& h : newer.histograms) {
    HistogramSnapshot d = h;
    const auto it = old_hists.find(h.name);
    if (it != old_hists.end()) {
      const HistogramSnapshot& o = *it->second;
      const bool comparable =
          o.buckets.size() == h.buckets.size() && o.count <= h.count && o.sum <= h.sum;
      if (comparable) {
        bool monotone = true;
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          if (h.buckets[i] < o.buckets[i]) {
            monotone = false;
            break;
          }
        }
        if (monotone) {
          for (std::size_t i = 0; i < h.buckets.size(); ++i) d.buckets[i] -= o.buckets[i];
          d.count -= o.count;
          d.sum -= o.sum;
          // min/max stay lifetime extremes: the registry cannot window
          // them, and a delta must not invent tighter ones.
        }
      }
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

}  // namespace nanocost::obs
