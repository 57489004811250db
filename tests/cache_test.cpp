// Tests for the content-addressed result cache (PR 7).
//
// Four layers under test:
//  * cache/hash.hpp   -- the 128-bit digest is an on-disk format
//                        (artifact filenames embed it), so golden
//                        vectors pin the exact mixing; any change must
//                        bump kKeySchemaVersion and these constants.
//  * cache/key.hpp    -- canonical parameter keys: golden vectors for
//                        the three cached entry points plus sensitivity
//                        (entry point, tag, value, type code all
//                        distinguish); serve_test pins fabsim_run_key.
//  * cache/lru.hpp    -- sharded LRU semantics and exact counters,
//                        including a multi-thread run for TSan.
//  * robust/artifact_store.hpp -- NCBLOB01 round-trip and strict
//                        corrupt-blob rejection naming the file.
// Plus the end-to-end contracts: each of the three *_cached entry
// points returns bytes memcmp-identical to a cold recompute at
// 1/2/hardware threads,
// and a killed-then-rerun campaign with an artifact tier recomputes
// zero completed chunks while matching the undisturbed run bitwise.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "corruption_matrix.hpp"
#include "golden_hex.hpp"
#include "nanocost/cache/cached.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/hash.hpp"
#include "nanocost/cache/key.hpp"
#include "nanocost/cache/lru.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/robust/artifact_store.hpp"
#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/checkpoint.hpp"
#include "temp_dir.hpp"

namespace {

using namespace nanocost;

// ---------------------------------------------------------------------------
// Hash128: golden vectors pin the mixing as a format.

TEST(CacheHash, GoldenVectorsPinTheFormat) {
  // Generated once from this implementation; these are now frozen.  If
  // any of them changes, the on-disk artifact addresses change too:
  // bump cache::kKeySchemaVersion and regenerate.
  EXPECT_EQ(cache::hash128("").hex(), "d11cd54311233a55006fd016bdeab0e6");
  EXPECT_EQ(cache::hash128("a").hex(), "b1c3e309215686fd8d127f7f72548195");
  EXPECT_EQ(cache::hash128("nanocost").hex(), "949d7aef830582994118e93c82183bcd");
  EXPECT_EQ(cache::hash128("The quick brown fox jumps over the lazy dog").hex(),
            "e2896eed971665a90b90d4f576233929");
  // One exact block and one block + 1 tail byte exercise both paths.
  EXPECT_EQ(cache::hash128("0123456789abcdef").hex(), "8df406a626e4d927686cb1f25fd9ecb1");
  EXPECT_EQ(cache::hash128("0123456789abcdef!").hex(), "5da9570962f2f2e89ca272287d7b5e28");
}

TEST(CacheHash, U64UpdateIsLittleEndianBytes) {
  cache::Hash128 h;
  h.update_u64(0x0123456789ABCDEFULL);
  EXPECT_EQ(h.digest().hex(), "dbf055cdf53d7e6968193d6850a4c827");
  // Same digest as feeding the eight LE bytes directly.
  const std::uint8_t bytes[8] = {0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01};
  cache::Hash128 g;
  g.update(bytes, sizeof bytes);
  EXPECT_EQ(g.digest(), h.digest());
}

TEST(CacheHash, IncrementalUpdatesMatchOneShot) {
  const std::string text = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= text.size(); ++split) {
    cache::Hash128 h;
    h.update(text.data(), split);
    h.update(text.data() + split, text.size() - split);
    EXPECT_EQ(h.digest(), cache::hash128(text)) << "split at " << split;
  }
}

TEST(CacheHash, DigestHexRoundTripsAndOrders) {
  const cache::Digest128 d = cache::hash128("nanocost");
  EXPECT_EQ(d.hex().size(), 32u);
  EXPECT_NE(d, cache::hash128("nanocost!"));
  EXPECT_EQ(d, cache::hash128("nanocost"));
}

// ---------------------------------------------------------------------------
// Canonical keys.

TEST(CacheKey, TagHashIsStable) {
  EXPECT_EQ(cache::fnv1a("s_d"), 0x82f27b195d7d0419ULL);
  EXPECT_NE(cache::fnv1a("s_d"), cache::fnv1a("sd_"));
}

TEST(CacheKey, GoldenEntryPointKeys) {
  // Default-constructed inputs, frozen at schema version 2.
  const core::Eq4Inputs eq4;
  EXPECT_EQ(cache::sweep_eq4_key(eq4, 100.0, 2000.0, 24).hex(),
            "f581be55bf367af02cc57cefdf08110e");
  const core::UncertainInputs un;
  EXPECT_EQ(cache::monte_carlo_cost_key(un, 300.0, 20000, 1, 0.0).hex(),
            "e4ff11b823dedc387934525a02a71e2c");
  EXPECT_EQ(cache::robust_sd_key(un, 0.9, 120.0, 1500.0, 24, 2000, 1).hex(),
            "fe1d8212a875089bd97e321669c2bbe8");
}

TEST(CacheKey, KeysAreDeterministicAndSensitive) {
  const core::Eq4Inputs eq4;
  const cache::Digest128 base = cache::sweep_eq4_key(eq4, 100.0, 2000.0, 24);
  EXPECT_EQ(base, cache::sweep_eq4_key(eq4, 100.0, 2000.0, 24));

  core::Eq4Inputs tweaked = eq4;
  tweaked.transistors_per_chip += 1.0;
  EXPECT_NE(base, cache::sweep_eq4_key(tweaked, 100.0, 2000.0, 24));
  EXPECT_NE(base, cache::sweep_eq4_key(eq4, 100.0, 2000.0, 25));
  EXPECT_NE(base, cache::sweep_eq4_key(eq4, 100.0 + 1e-12, 2000.0, 24));
}

TEST(CacheKey, BuilderDistinguishesEntryPointTagValueAndType) {
  const auto key = [](const char* entry, const char* tag, auto write) {
    cache::KeyBuilder b(entry);
    write(b, tag);
    return b.digest();
  };
  const auto f64 = [](cache::KeyBuilder& b, const char* tag) { b.f64(tag, 1.0); };
  const cache::Digest128 base = key("ep_a", "x", f64);
  EXPECT_EQ(base, key("ep_a", "x", f64));
  EXPECT_NE(base, key("ep_b", "x", f64));  // entry point distinguishes
  EXPECT_NE(base, key("ep_a", "y", f64));  // field tag distinguishes
  EXPECT_NE(base, key("ep_a", "x", [](cache::KeyBuilder& b, const char* tag) {
              b.f64(tag, 2.0);  // value distinguishes
            }));
  // Type code distinguishes even with identical payload bits.
  const double one = 1.0;
  std::uint64_t one_bits;
  static_assert(sizeof one_bits == sizeof one);
  std::memcpy(&one_bits, &one, sizeof one_bits);
  EXPECT_NE(base, key("ep_a", "x", [one_bits](cache::KeyBuilder& b, const char* tag) {
              b.u64(tag, one_bits);
            }));
}

// ---------------------------------------------------------------------------
// Codec round-trips.

TEST(CacheCodec, RiskAndRobustRoundTrip) {
  core::RiskResult r{};
  r.mean = 1.25;
  r.stddev = 0.5;
  r.p10 = 0.75;
  r.p50 = 1.2;
  r.p90 = 2.25;
  r.prob_over_budget = 0.125;
  const std::vector<std::uint8_t> blob = cache::encode(r);
  const core::RiskResult back = cache::decode_risk_result(blob);
  EXPECT_EQ(std::memcmp(&r, &back, sizeof r), 0);

  core::RobustOptimum opt{};
  opt.s_d = 321.5;
  opt.quantile_cost = 1e-7;
  const core::RobustOptimum opt_back = cache::decode_robust_optimum(cache::encode(opt));
  EXPECT_EQ(std::memcmp(&opt, &opt_back, sizeof opt), 0);
}

TEST(CacheCodec, SweepPointsRoundTrip) {
  const core::Eq4Inputs inputs;
  const std::vector<core::SweepPoint> points = core::sweep_eq4(inputs, 150.0, 500.0, 5);
  ASSERT_FALSE(points.empty());
  const std::vector<core::SweepPoint> back = cache::decode_sweep_points(cache::encode(points));
  ASSERT_EQ(back.size(), points.size());
  const std::vector<std::uint8_t> a = cache::encode(points);
  const std::vector<std::uint8_t> b = cache::encode(back);
  EXPECT_EQ(a, b);
}

TEST(CacheCodec, LotResultGoldenVectorPinsTheFormat) {
  // cache::encode of a hand-built lot, pinned byte for byte in both
  // directions.  Lot blobs live in the artifact tier across builds, so a
  // failing golden means a kKeySchemaVersion bump, not a golden update.
  const std::string kGoldenHex =
      "02000000000000000a0000000000000008000000000000000300000000000000"
      "02000000000000000c0000000000000006000000000000000700000000000000"
      "060000000000000016000000000000000e000000000000000300000000000000"
      "050000000000000002000000000000000100000000000000";
  fabsim::LotResult lot;
  lot.wafers = {{10, 8, 3, 2}, {12, 6, 7, 6}};
  lot.total_dies = 22;
  lot.good_dies = 14;
  lot.fault_histogram = {5, 2, 1};
  EXPECT_EQ(nanocost::testing::to_hex(cache::encode(lot)), kGoldenHex);

  const fabsim::LotResult back =
      cache::decode_lot_result(nanocost::testing::from_hex(kGoldenHex));
  ASSERT_EQ(back.wafers.size(), 2u);
  EXPECT_EQ(back.wafers[1].gross_dies, 12);
  EXPECT_EQ(back.wafers[1].defects_on_dies, 6);
  EXPECT_EQ(back.total_dies, 22);
  EXPECT_EQ(back.good_dies, 14);
  EXPECT_EQ(back.fault_histogram, lot.fault_histogram);
}

TEST(CacheCodec, TruncatedAndTrailingBlobsThrow) {
  core::RiskResult r{};
  std::vector<std::uint8_t> blob = cache::encode(r);
  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 1);
  EXPECT_THROW((void)cache::decode_risk_result(truncated), std::runtime_error);
  blob.push_back(0);  // trailing garbage must not be silently accepted
  EXPECT_THROW((void)cache::decode_risk_result(blob), std::runtime_error);
  // A length prefix promising more elements than the blob can hold must
  // throw, not allocate.
  std::vector<std::uint8_t> bogus(8, 0xFF);
  EXPECT_THROW((void)cache::decode_sweep_points(bogus), std::runtime_error);
}

TEST(CacheBytes, NarrowingReadsRefuseWhatTheirTypeCannotHold) {
  cache::ByteWriter w;
  w.i32(std::numeric_limits<std::int32_t>::min());
  w.i32(std::numeric_limits<std::int32_t>::max());
  w.i64(std::int64_t{1} << 31);
  w.i64(-(std::int64_t{1} << 31) - 1);
  w.u64(std::numeric_limits<std::uint32_t>::max());
  w.u64(std::uint64_t{1} << 32);
  w.flag(false);
  w.flag(true);
  w.u8(2);
  const std::vector<std::uint8_t> bytes = w.take();

  cache::ByteReader r(bytes);
  EXPECT_EQ(r.i32("low"), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(r.i32("high"), std::numeric_limits<std::int32_t>::max());
  const auto message_of = [&](auto read) {
    try {
      (void)read();
    } catch (const cache::DecodeError& e) {
      return std::string(e.what());
    }
    return std::string("no DecodeError");
  };
  EXPECT_EQ(message_of([&] { return r.i32("steps"); }),
            "steps 2147483648 at byte 16 does not fit 32 bits");
  EXPECT_EQ(message_of([&] { return r.i32("steps"); }),
            "steps -2147483649 at byte 24 does not fit 32 bits");
  EXPECT_EQ(r.u64_as_u32("count"), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(message_of([&] { return r.u64_as_u32("count"); }),
            "count 4294967296 at byte 40 does not fit 32 bits");
  EXPECT_FALSE(r.flag("flag"));
  EXPECT_TRUE(r.flag("flag"));
  EXPECT_EQ(message_of([&] { return r.flag("flag"); }), "flag 2 at byte 50 is neither 0 nor 1");
  r.expect_end();
}

// ---------------------------------------------------------------------------
// Sharded LRU.

std::vector<std::uint8_t> blob_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(CacheLru, HitMissInsertAndStats) {
  cache::ShardedLruCache lru(1 << 20, 4);
  EXPECT_EQ(lru.shard_count(), 4u);
  const cache::Digest128 k = cache::hash128("k");
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(lru.lookup(k, out));
  lru.insert(k, blob_of(100, 0xAB));
  ASSERT_TRUE(lru.lookup(k, out));
  EXPECT_EQ(out, blob_of(100, 0xAB));
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 100u);
}

TEST(CacheLru, InsertRefreshesInsteadOfDuplicating) {
  cache::ShardedLruCache lru(1 << 20, 1);
  const cache::Digest128 k = cache::hash128("k");
  lru.insert(k, blob_of(10, 1));
  lru.insert(k, blob_of(20, 2));
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 20u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(lru.lookup(k, out));
  EXPECT_EQ(out, blob_of(20, 2));
}

TEST(CacheLru, EvictsOldestFirstUnderByteBudget) {
  // One shard with room for exactly two 100-byte blobs.
  cache::ShardedLruCache lru(200, 1);
  const cache::Digest128 ka = cache::hash128("a");
  const cache::Digest128 kb = cache::hash128("b");
  const cache::Digest128 kc = cache::hash128("c");
  lru.insert(ka, blob_of(100, 1));
  lru.insert(kb, blob_of(100, 2));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(lru.lookup(ka, out));  // promote a: b is now oldest
  lru.insert(kc, blob_of(100, 3));   // evicts b
  EXPECT_TRUE(lru.lookup(ka, out));
  EXPECT_FALSE(lru.lookup(kb, out));
  EXPECT_TRUE(lru.lookup(kc, out));
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 200u);
}

TEST(CacheLru, OversizedBlobsAreRejectedNotCached) {
  cache::ShardedLruCache lru(100, 1);
  const cache::Digest128 k = cache::hash128("big");
  lru.insert(k, blob_of(101, 9));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(lru.lookup(k, out));
  EXPECT_EQ(lru.stats().insertions, 0u);
  EXPECT_EQ(lru.stats().entries, 0u);
}

TEST(CacheLru, ClearDropsEntriesAndKeepsCounters) {
  cache::ShardedLruCache lru(1 << 20, 4);
  lru.insert(cache::hash128("x"), blob_of(10, 1));
  lru.insert(cache::hash128("y"), blob_of(10, 2));
  lru.clear();
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.insertions, 2u);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(lru.lookup(cache::hash128("x"), out));
}

TEST(CacheLru, CountersAreExactUnderConcurrency) {
  // Run under TSan in CI.  Each thread does `kOps` lookups and an
  // insert on every miss; hits + misses must equal total lookups
  // exactly -- no lost updates, no double counting.
  cache::ShardedLruCache lru(1 << 18, 8);
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&lru, t] {
      std::vector<std::uint8_t> out;
      for (int i = 0; i < kOps; ++i) {
        // 64 shared keys: plenty of cross-thread contention per shard.
        const cache::Digest128 k =
            cache::hash128("key" + std::to_string((t * 7 + i) % 64));
        if (!lru.lookup(k, out)) {
          lru.insert(k, blob_of(64, static_cast<std::uint8_t>(i)));
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(s.insertions, s.misses);  // every miss inserted, none evicted...
  EXPECT_EQ(s.evictions, 0u);         // ...64 * 64B fits easily per shard
  EXPECT_LE(s.entries, 64u);
}

// ---------------------------------------------------------------------------
// Cached entry points: a hit is memcmp-identical to a cold recompute,
// at 1 / 2 / hardware threads.  (CI re-runs this binary under
// NANOCOST_SIMD=scalar and =avx2, covering the SIMD axis.)

std::vector<exec::ThreadPool*> pool_ladder(exec::ThreadPool& p1, exec::ThreadPool& p2,
                                           exec::ThreadPool& phw) {
  return {&p1, &p2, &phw};
}

TEST(CachedEntryPoints, MonteCarloHitMatchesColdAtEveryThreadCount) {
  const core::UncertainInputs inputs;
  const std::vector<std::uint8_t> cold =
      cache::encode(core::monte_carlo_cost(inputs, 310.0, 2000, 7, 1e-7));
  exec::ThreadPool p1(1), p2(2);
  exec::ThreadPool phw(static_cast<int>(std::thread::hardware_concurrency()));
  for (exec::ThreadPool* pool : pool_ladder(p1, p2, phw)) {
    const std::vector<std::uint8_t> warm =
        cache::encode(cache::monte_carlo_cost_cached(inputs, 310.0, 2000, 7, 1e-7, pool));
    ASSERT_EQ(warm.size(), cold.size());
    EXPECT_EQ(std::memcmp(warm.data(), cold.data(), cold.size()), 0);
  }
}

TEST(CachedEntryPoints, RobustSdHitMatchesColdAtEveryThreadCount) {
  const core::UncertainInputs inputs;
  const std::vector<std::uint8_t> cold =
      cache::encode(core::robust_sd(inputs, 0.9, 150.0, 900.0, 8, 500, 3));
  exec::ThreadPool p1(1), p2(2);
  exec::ThreadPool phw(static_cast<int>(std::thread::hardware_concurrency()));
  for (exec::ThreadPool* pool : pool_ladder(p1, p2, phw)) {
    const std::vector<std::uint8_t> warm =
        cache::encode(cache::robust_sd_cached(inputs, 0.9, 150.0, 900.0, 8, 500, 3, pool));
    ASSERT_EQ(warm.size(), cold.size());
    EXPECT_EQ(std::memcmp(warm.data(), cold.data(), cold.size()), 0);
  }
}

TEST(CachedEntryPoints, SweepEq4HitMatchesCold) {
  const core::Eq4Inputs inputs;
  const std::vector<std::uint8_t> cold =
      cache::encode(core::sweep_eq4(inputs, 120.0, 1200.0, 12));
  exec::ThreadPool p1(1), p2(2);
  exec::ThreadPool phw(static_cast<int>(std::thread::hardware_concurrency()));
  for (exec::ThreadPool* pool : pool_ladder(p1, p2, phw)) {
    EXPECT_EQ(cache::encode(cache::sweep_eq4_cached(inputs, 120.0, 1200.0, 12, pool)), cold);
  }
}

TEST(CachedEntryPoints, SecondCallIsAHit) {
  const cache::CacheStats before = cache::global_result_cache().stats();
  const core::UncertainInputs inputs;
  // A key not used elsewhere in this binary: miss then hit.
  (void)cache::monte_carlo_cost_cached(inputs, 777.0, 400, 11, 0.0);
  (void)cache::monte_carlo_cost_cached(inputs, 777.0, 400, 11, 0.0);
  const cache::CacheStats after = cache::global_result_cache().stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_GE(after.hits - before.hits, 1u);
}

// ---------------------------------------------------------------------------
// Artifact store (NCBLOB01).

using nanocost::testing::TempDir;

TEST(ArtifactStore, RoundTripsAndMissesCleanly) {
  const TempDir tmp("roundtrip");
  robust::ArtifactStore store(tmp.path());
  const cache::Digest128 key = cache::hash128("chunk-0");
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store.load(key, out));
  store.store(key, payload);
  ASSERT_TRUE(store.load(key, out));
  EXPECT_EQ(out, payload);
  // Idempotent: storing again (even different bytes) keeps the first
  // publish -- content addresses never change their content.
  store.store(key, {9, 9, 9});
  ASSERT_TRUE(store.load(key, out));
  EXPECT_EQ(out, payload);
}

TEST(ArtifactStore, BlobFileIsNamedByTheDigest) {
  const TempDir tmp("naming");
  robust::ArtifactStore store(tmp.path());
  const cache::Digest128 key = cache::hash128("named");
  store.store(key, {42});
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(tmp.path()) /
                                      (key.hex() + ".ncblob")));
}

void expect_corrupt_naming_file(robust::ArtifactStore& store, const cache::Digest128& key,
                                const std::string& expected_path) {
  std::vector<std::uint8_t> out;
  try {
    (void)store.load(key, out);
    FAIL() << "expected CheckpointCorrupt for " << expected_path;
  } catch (const robust::CheckpointCorrupt& err) {
    EXPECT_NE(std::string(err.what()).find(expected_path), std::string::npos)
        << "message must name the offending file: " << err.what();
  }
}

TEST(ArtifactStore, CorruptionMatrixRejectsEveryCell) {
  // Stores are atomic (temp + rename), so any structural damage below
  // was never a valid blob.  The shared matrix -- truncation at every
  // boundary, a single bit flip anywhere (magic, stored digest,
  // declared size, payload, checksum), trailing garbage, an oversized
  // declared length -- must come back CheckpointCorrupt naming the
  // offending file, never a giant allocation or a served blob.
  const TempDir tmp("matrix");
  robust::ArtifactStore store(tmp.path());
  const cache::Digest128 key = cache::hash128("matrix-me");
  store.store(key, blob_of(48, 0x5A));
  const std::string path = store.path_for(key);

  std::vector<std::uint8_t> good;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.is_open());
    good.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }

  nanocost::testing::CorruptionMatrixOptions opts;
  // NCBLOB01 header: magic (8) + digest hi/lo (16), then the declared
  // payload size -- validated against the real file size up front.
  opts.u64_length_offsets = {24};
  nanocost::testing::run_corruption_matrix(
      good,
      [&](const std::vector<std::uint8_t>& bytes) {
        {
          std::ofstream f(path, std::ios::binary | std::ios::trunc);
          f.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        }
        std::vector<std::uint8_t> out;
        nanocost::testing::CorruptionVerdict v;
        try {
          (void)store.load(key, out);
        } catch (const robust::CheckpointCorrupt& e) {
          v.rejected = true;
          v.diagnostic = e.what();
          EXPECT_NE(v.diagnostic.find(path), std::string::npos)
              << "diagnostic must name the offending file: " << v.diagnostic;
        }
        return v;
      },
      opts);
}

TEST(ArtifactStore, GoldenVectorPinsTheFormat) {
  // One NCBLOB01 file, pinned byte for byte in both directions.  Blobs
  // outlive builds, so a failing golden means the format changed: that
  // requires a version bump, not a golden update.
  const std::string kGoldenHex =
      "4e43424c4f42303149c272d86c3a8687294e3735bdae41540500000000000000"
      "0102030405887d6b4fbfdc660f";
  const TempDir tmp("golden");
  robust::ArtifactStore store(tmp.path());
  const cache::Digest128 key = cache::hash128("golden");
  store.store(key, {1, 2, 3, 4, 5});
  const std::string path = store.path_for(key);
  {
    std::ifstream f(path, std::ios::binary);
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(f),
                                          std::istreambuf_iterator<char>()};
    EXPECT_EQ(nanocost::testing::to_hex(bytes), kGoldenHex);
  }
  {
    const std::vector<std::uint8_t> golden = nanocost::testing::from_hex(kGoldenHex);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(golden.data()),
            static_cast<std::streamsize>(golden.size()));
  }
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(store.load(key, out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(ArtifactStore, RenamedBlobFailsTheDigestCheck) {
  // A blob copied under the wrong content address must not be served.
  const TempDir tmp("renamed");
  robust::ArtifactStore store(tmp.path());
  const cache::Digest128 key_a = cache::hash128("blob-a");
  const cache::Digest128 key_b = cache::hash128("blob-b");
  store.store(key_a, blob_of(16, 0xAA));
  std::filesystem::rename(store.path_for(key_a), store.path_for(key_b));
  expect_corrupt_naming_file(store, key_b, store.path_for(key_b));
}

TEST(ArtifactStore, SweepEvictsHighestDigestsDownToTheByteCap) {
  // Five equal-size blobs (40 bytes of framing + 64 of payload = 104
  // each, 520 total) under a 320-byte cap: the sweep must drop exactly
  // the two lexicographically-highest digests -- a pure function of the
  // directory contents -- leaving 312 bytes.
  const TempDir tmp("sweep");
  robust::ArtifactStore store(tmp.path(), 320);
  std::vector<cache::Digest128> keys;
  for (int i = 0; i < 5; ++i) {
    const cache::Digest128 key = cache::hash128("sweep-" + std::to_string(i));
    store.store(key, blob_of(64, static_cast<std::uint8_t>(i)));
    keys.push_back(key);
  }
  ASSERT_EQ(store.total_bytes(), 520u);
  std::sort(keys.begin(), keys.end(),
            [](const cache::Digest128& a, const cache::Digest128& b) {
              return a.hex() < b.hex();
            });

  const robust::SweepReport report = store.sweep();
  EXPECT_EQ(report.scanned_blobs, 5u);
  EXPECT_EQ(report.scanned_bytes, 520u);
  EXPECT_EQ(report.evicted_blobs, 2u);
  EXPECT_EQ(report.evicted_bytes, 208u);
  EXPECT_EQ(store.total_bytes(), 312u);

  // Survivors load; the evicted two read as clean misses (recompute,
  // never an error).
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(store.load(keys[static_cast<std::size_t>(i)], payload))
        << keys[static_cast<std::size_t>(i)].hex();
  }
  for (int i = 3; i < 5; ++i) {
    EXPECT_FALSE(store.load(keys[static_cast<std::size_t>(i)], payload))
        << keys[static_cast<std::size_t>(i)].hex();
  }

  // A second sweep finds the cap already satisfied.
  const robust::SweepReport again = store.sweep();
  EXPECT_EQ(again.scanned_blobs, 3u);
  EXPECT_EQ(again.evicted_blobs, 0u);
}

TEST(ArtifactStore, UncappedSweepOnlyScans) {
  const TempDir tmp("uncapped");
  robust::ArtifactStore store(tmp.path());
  EXPECT_EQ(store.byte_cap(), 0u);
  store.store(cache::hash128("keep-me"), blob_of(512, 0x7E));
  const robust::SweepReport report = store.sweep();
  EXPECT_EQ(report.scanned_blobs, 1u);
  EXPECT_EQ(report.scanned_bytes, store.total_bytes());
  EXPECT_EQ(report.evicted_blobs, 0u);
  std::vector<std::uint8_t> payload;
  EXPECT_TRUE(store.load(cache::hash128("keep-me"), payload));
  EXPECT_EQ(payload, blob_of(512, 0x7E));
}

TEST(ArtifactStore, SweepRemovesTheTempFilesOfDeadWritersOnly) {
  // A writer killed mid-publish leaves its temp file behind, which no
  // reader opens and no byte cap counts.  A pid above pid_max names a
  // writer that cannot be alive; our own pid names one that is.
  std::ifstream pid_max_file("/proc/sys/kernel/pid_max");
  long pid_max = 0;
  ASSERT_TRUE(pid_max_file >> pid_max);
  const TempDir tmp("stale_temps");
  const robust::ArtifactStore store(tmp.path());
  const std::string stem = tmp.path() + "/" + cache::hash128("stale").hex();
  const std::string dead = stem + ".ncckpt." + std::to_string(pid_max + 1) + ".0.tmp";
  const std::string live = stem + ".ncblob." + std::to_string(::getpid()) + ".3.tmp";
  for (const std::string& path : {dead, live}) {
    std::ofstream(path, std::ios::binary) << std::string(2048, 'x');
  }
  const robust::SweepReport report = store.sweep();
  EXPECT_EQ(report.removed_temps, 1u);
  EXPECT_EQ(report.scanned_blobs, 0u);
  EXPECT_FALSE(std::filesystem::exists(dead));
  EXPECT_TRUE(std::filesystem::exists(live));
}

// ---------------------------------------------------------------------------
// Campaign artifact tier: kill, rerun, recompute nothing.

/// Deterministic blob-producing campaign (chunk bytes are a pure
/// function of the unit index).
class BlobTask final : public robust::CampaignTask {
 public:
  BlobTask(std::int64_t units, std::int64_t grain) : units_(units), grain_(grain) {}
  [[nodiscard]] std::uint64_t config_fingerprint() const override { return 0xB10BULL; }
  [[nodiscard]] std::int64_t unit_count() const override { return units_; }
  [[nodiscard]] std::int64_t grain() const override { return grain_; }
  void run_chunk(std::int64_t begin, std::int64_t end,
                 std::vector<std::uint8_t>& blob) const override {
    for (std::int64_t i = begin; i < end; ++i) {
      blob.push_back(static_cast<std::uint8_t>((i * 37 + 11) & 0xFF));
    }
  }

 private:
  std::int64_t units_;
  std::int64_t grain_;
};

TEST(CampaignArtifacts, KilledThenRerunRecomputesZeroCompletedChunks) {
  const BlobTask task(40, 4);  // 10 chunks
  exec::ThreadPool serial(1);

  // Undisturbed reference run, no persistence of any kind.
  robust::CampaignOptions plain;
  plain.pool = &serial;
  const robust::CampaignResult reference = robust::run_campaign(task, plain);
  ASSERT_EQ(reference.completed_chunks, 10);

  const TempDir tmp("campaign");
  // Run 1: killed after 6 chunks, publishing into the artifact tier.
  robust::CampaignOptions first;
  first.pool = &serial;
  first.artifact_dir = tmp.path();
  first.max_chunks_this_run = 6;
  const robust::CampaignResult killed = robust::run_campaign(task, first);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.completed_chunks, 6);
  EXPECT_EQ(killed.artifact_stores, 6);
  EXPECT_EQ(killed.artifact_hits, 0);

  // Run 2: fresh process state (no checkpoint!), same artifact dir.
  // Every chunk run 1 completed must come from the tier, not compute.
  robust::CampaignOptions second;
  second.pool = &serial;
  second.artifact_dir = tmp.path();
  const robust::CampaignResult rerun = robust::run_campaign(task, second);
  EXPECT_FALSE(rerun.interrupted);
  EXPECT_EQ(rerun.completed_chunks, 10);
  EXPECT_EQ(rerun.artifact_hits, 6);
  EXPECT_EQ(rerun.artifact_stores, 4);

  // Bitwise identity with the undisturbed run, chunk by chunk.
  ASSERT_EQ(rerun.chunks.size(), reference.chunks.size());
  for (std::size_t c = 0; c < reference.chunks.size(); ++c) {
    EXPECT_EQ(rerun.chunks[c], reference.chunks[c]) << "chunk " << c;
  }

  // Run 3: fully warm -- zero computation.
  const robust::CampaignResult warm = robust::run_campaign(task, second);
  EXPECT_EQ(warm.artifact_hits, 10);
  EXPECT_EQ(warm.artifact_stores, 0);
}

TEST(CampaignArtifacts, CorruptBlobFailsTheRunDeterministically) {
  const BlobTask task(8, 4);  // 2 chunks
  exec::ThreadPool serial(1);
  const TempDir tmp("corrupt");
  robust::CampaignOptions options;
  options.pool = &serial;
  options.artifact_dir = tmp.path();
  (void)robust::run_campaign(task, options);

  // Truncate the campaign's record; the next run must refuse it loudly
  // (a corrupt artifact is an integrity failure, not a retryable miss).
  robust::ArtifactStore store(tmp.path());
  const std::string path = store.record_path(
      robust::campaign_record_key(task.config_fingerprint(), 8, 4));
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  EXPECT_THROW((void)robust::run_campaign(task, options), robust::CheckpointCorrupt);
}

/// BlobTask's chunks, but its first chunk deletes the artifact directory,
/// so every record publish of the run fails.
class VanishingTierTask final : public robust::CampaignTask {
 public:
  explicit VanishingTierTask(std::string dir) : dir_(std::move(dir)) {}
  [[nodiscard]] std::uint64_t config_fingerprint() const override { return 0x7A1ULL; }
  [[nodiscard]] std::int64_t unit_count() const override { return 8; }
  [[nodiscard]] std::int64_t grain() const override { return 4; }
  void run_chunk(std::int64_t begin, std::int64_t end,
                 std::vector<std::uint8_t>& blob) const override {
    std::filesystem::remove_all(dir_);
    BlobTask(8, 4).run_chunk(begin, end, blob);
  }

 private:
  std::string dir_;
};

TEST(CampaignArtifacts, FailedRecordPublishNeverFailsTheRun) {
  const TempDir tmp("vanishing");
  const VanishingTierTask task(tmp.file("tier"));
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;
  options.artifact_dir = tmp.file("tier");
  obs::set_metrics_enabled(true);
  const std::uint64_t errors_before = obs::counter_value("robust.artifact_store_errors");
  const robust::CampaignResult result = robust::run_campaign(task, options);
  const std::uint64_t errors = obs::counter_value("robust.artifact_store_errors") - errors_before;
  obs::set_metrics_enabled(false);

  // The answer is in hand; only the next run pays, with a recompute.
  EXPECT_EQ(result.completed_chunks, 2);
  EXPECT_EQ(result.artifact_stores, 0);
  EXPECT_EQ(errors, 1u);  // one wave, one failed publish
  EXPECT_EQ(result.chunks, robust::run_campaign(BlobTask(8, 4), {}).chunks);
}

TEST(CampaignArtifacts, ChunkKeyBindsFingerprintGeometryAndIndex) {
  const cache::Digest128 base = robust::chunk_artifact_key(1, 40, 4, 0);
  EXPECT_EQ(base, robust::chunk_artifact_key(1, 40, 4, 0));
  EXPECT_NE(base, robust::chunk_artifact_key(2, 40, 4, 0));
  EXPECT_NE(base, robust::chunk_artifact_key(1, 44, 4, 0));
  EXPECT_NE(base, robust::chunk_artifact_key(1, 40, 5, 0));
  EXPECT_NE(base, robust::chunk_artifact_key(1, 40, 4, 1));

  // A campaign's record is keyed by the same identity, minus the index.
  const cache::Digest128 record = robust::campaign_record_key(1, 40, 4);
  EXPECT_EQ(record, robust::campaign_record_key(1, 40, 4));
  EXPECT_NE(record, robust::campaign_record_key(2, 40, 4));
  EXPECT_NE(record, robust::campaign_record_key(1, 44, 4));
  EXPECT_NE(record, robust::campaign_record_key(1, 40, 5));
  EXPECT_NE(record, base);
}

}  // namespace
