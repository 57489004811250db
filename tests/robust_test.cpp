#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "corruption_matrix.hpp"
#include "golden_hex.hpp"
#include "nanocost/robust/checkpoint.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/robust/finite_guard.hpp"
#include "temp_dir.hpp"

namespace nanocost::robust {
namespace {

// Installing plans mutates process state, so every test restores the
// disabled default on exit.
struct PlanGuard {
  ~PlanGuard() { clear_fault_plan(); }
};

TEST(FaultPlan, ParsesTheEnvGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "fabsim.wafer=1e-3:throw:persistent; risk.sample=0.25:nan ;seed=99");
  EXPECT_EQ(plan.schedule_seed(), 99u);
  const FaultSpec* wafer = plan.find(cache::fnv1a("fabsim.wafer"));
  ASSERT_NE(wafer, nullptr);
  EXPECT_DOUBLE_EQ(wafer->rate, 1e-3);
  EXPECT_EQ(wafer->kind, FaultKind::kThrow);
  EXPECT_FALSE(wafer->transient);
  const FaultSpec* sample = plan.find(cache::fnv1a("risk.sample"));
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->rate, 0.25);
  EXPECT_EQ(sample->kind, FaultKind::kNaN);
  EXPECT_TRUE(sample->transient);
  EXPECT_EQ(plan.find(cache::fnv1a("unknown.site")), nullptr);
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW((void)FaultPlan::parse("no-equals-sign"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=notanumber"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=0.5:badflag"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("=0.5"), std::invalid_argument);
}

TEST(FaultInjection, DisabledByDefaultAndAfterClear) {
  PlanGuard guard;
  clear_fault_plan();
  constexpr FaultSite site{"test.site"};
  EXPECT_FALSE(faults_enabled());
  EXPECT_NO_THROW(inject(site, 0));
  EXPECT_DOUBLE_EQ(observe(site, 0, 3.25), 3.25);

  FaultPlan plan;
  plan.add("test.site", FaultSpec{1.0, FaultKind::kThrow, false, 0});
  install_fault_plan(plan);
  EXPECT_TRUE(faults_enabled());
  EXPECT_THROW(inject(site, 0), FaultInjected);
  clear_fault_plan();
  EXPECT_FALSE(faults_enabled());
  EXPECT_NO_THROW(inject(site, 0));
}

TEST(FaultInjection, ExceptionNamesSiteAndIndex) {
  PlanGuard guard;
  FaultPlan plan;
  plan.add("test.throw", FaultSpec{1.0, FaultKind::kThrow, false, 0});
  install_fault_plan(plan);
  constexpr FaultSite site{"test.throw"};
  try {
    inject(site, 1234);
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.site(), "test.throw");
    EXPECT_EQ(e.index(), 1234u);
    EXPECT_NE(std::string(e.what()).find("test.throw"), std::string::npos);
  }
}

TEST(FaultInjection, ScheduleIsAPureFunctionOfSiteIndexAttempt) {
  PlanGuard guard;
  FaultPlan plan;
  plan.seed(7).add("test.sched", FaultSpec{0.2, FaultKind::kNaN, true, 0});
  install_fault_plan(plan);
  constexpr FaultSite site{"test.sched"};
  std::vector<bool> first;
  for (std::uint64_t i = 0; i < 512; ++i) {
    first.push_back(std::isnan(observe(site, i, 1.0)));
  }
  // Replay: identical schedule, call after call.
  int fired = 0;
  for (std::uint64_t i = 0; i < 512; ++i) {
    EXPECT_EQ(std::isnan(observe(site, i, 1.0)), first[i]) << "index " << i;
    fired += first[i] ? 1 : 0;
  }
  // ~20% of 512 draws; a huge tolerance keeps this hash-stable.
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 160);
  // A different plan seed reshuffles the schedule.
  FaultPlan reseeded;
  reseeded.seed(8).add("test.sched", FaultSpec{0.2, FaultKind::kNaN, true, 0});
  install_fault_plan(reseeded);
  bool differs = false;
  for (std::uint64_t i = 0; i < 512 && !differs; ++i) {
    differs = std::isnan(observe(site, i, 1.0)) != first[i];
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjection, TransientFaultsHealAcrossAttemptsPersistentDoNot) {
  PlanGuard guard;
  FaultPlan plan;
  plan.seed(3)
      .add("test.transient", FaultSpec{0.3, FaultKind::kNaN, true, 0})
      .add("test.persistent", FaultSpec{0.3, FaultKind::kNaN, false, 0});
  install_fault_plan(plan);
  constexpr FaultSite transient{"test.transient"};
  constexpr FaultSite persistent{"test.persistent"};
  int healed = 0;
  for (std::uint64_t i = 0; i < 512; ++i) {
    bool attempt0 = false;
    bool attempt1 = false;
    {
      AttemptScope scope(0);
      attempt0 = std::isnan(observe(transient, i, 1.0));
      // Persistent faults ignore the attempt entirely.
      const bool p0 = std::isnan(observe(persistent, i, 1.0));
      AttemptScope nested(1);
      EXPECT_EQ(std::isnan(observe(persistent, i, 1.0)), p0) << "index " << i;
    }
    {
      AttemptScope scope(1);
      attempt1 = std::isnan(observe(transient, i, 1.0));
    }
    if (attempt0 && !attempt1) ++healed;
  }
  // P(fire on attempt 0, heal on attempt 1) = 0.3 * 0.7 over 512 draws.
  EXPECT_GT(healed, 60);
}

TEST(FaultInjection, AttemptScopeRestoresOnExit) {
  EXPECT_EQ(AttemptScope::current(), 0u);
  {
    AttemptScope outer(2);
    EXPECT_EQ(AttemptScope::current(), 2u);
    {
      AttemptScope inner(5);
      EXPECT_EQ(AttemptScope::current(), 5u);
    }
    EXPECT_EQ(AttemptScope::current(), 2u);
  }
  EXPECT_EQ(AttemptScope::current(), 0u);
}

TEST(FiniteGuard, PassesFiniteRejectsNaNAndInf) {
  EXPECT_DOUBLE_EQ(check_finite(2.5, "t.site"), 2.5);
  EXPECT_THROW((void)check_finite(std::nan(""), "t.site"), NonFiniteError);
  EXPECT_THROW((void)check_finite(INFINITY, "t.site"), NonFiniteError);

  const std::vector<double> ok{1.0, 2.0, 3.0};
  EXPECT_NO_THROW(check_finite_range(ok.data(), ok.size(), "t.range"));
  std::vector<double> bad{1.0, 2.0, std::nan(""), 4.0};
  try {
    check_finite_range(bad.data(), bad.size(), "t.range");
    FAIL() << "expected NonFiniteError";
  } catch (const NonFiniteError& e) {
    EXPECT_EQ(e.index(), 2);
    EXPECT_NE(std::string(e.what()).find("t.range"), std::string::npos);
  }

  const FiniteGuard guard("t.guard");
  EXPECT_DOUBLE_EQ(guard(1.5), 1.5);
  EXPECT_THROW((void)guard(-INFINITY), NonFiniteError);
}

class CheckpointFile : public ::testing::Test {
 protected:
  static Checkpoint sample() {
    Checkpoint c;
    c.fingerprint = 0xFEEDBEEF;
    c.unit_count = 10;
    c.grain = 4;
    c.chunks.assign(3, {});
    c.chunks[0] = {1, 2, 3};
    c.chunks[2] = {9, 8, 7, 6};
    return c;
  }

  static std::vector<std::uint8_t> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  static void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  const nanocost::testing::TempDir dir_{"ckpt"};
  const std::string path_ = dir_.file("campaign.ncckpt");
};

TEST_F(CheckpointFile, RoundTripsBitwise) {
  const Checkpoint saved = sample();
  save_checkpoint(path_, saved);
  Checkpoint loaded;
  ASSERT_TRUE(load_checkpoint(path_, saved, loaded));
  EXPECT_EQ(loaded.fingerprint, saved.fingerprint);
  EXPECT_EQ(loaded.unit_count, saved.unit_count);
  EXPECT_EQ(loaded.grain, saved.grain);
  ASSERT_EQ(loaded.chunks.size(), saved.chunks.size());
  EXPECT_EQ(loaded.chunks[0], saved.chunks[0]);
  EXPECT_TRUE(loaded.chunks[1].empty());
  EXPECT_EQ(loaded.chunks[2], saved.chunks[2]);
  EXPECT_EQ(loaded.completed_chunks(), 2);
}

TEST_F(CheckpointFile, GoldenVectorPinsTheFormat) {
  // The NCCKPT01 bytes of sample(), pinned byte for byte in both
  // directions.  If this test fails, the file format changed: that
  // requires a version bump, not a golden update.
  const std::string kGoldenHex =
      "4e43434b50543031efbeedfe000000000a000000000000000400000000000000"
      "020000000000000000000000000000000300000000000000010203abf52c6718"
      "62aad002000000000000000400000000000000090807064d588320baa248f2";
  save_checkpoint(path_, sample());
  EXPECT_EQ(nanocost::testing::to_hex(read_file(path_)), kGoldenHex);

  write_file(path_, nanocost::testing::from_hex(kGoldenHex));
  Checkpoint loaded;
  ASSERT_TRUE(load_checkpoint(path_, sample(), loaded));
  EXPECT_EQ(loaded.chunks, sample().chunks);
}

TEST_F(CheckpointFile, MissingFileReturnsFalse) {
  Checkpoint out;
  EXPECT_FALSE(load_checkpoint(path_, sample(), out));
}

TEST_F(CheckpointFile, FingerprintMismatchThrows) {
  save_checkpoint(path_, sample());
  Checkpoint expected = sample();
  expected.fingerprint ^= 1;
  Checkpoint out;
  EXPECT_THROW((void)load_checkpoint(path_, expected, out), CheckpointMismatch);
  expected = sample();
  expected.grain = 5;
  EXPECT_THROW((void)load_checkpoint(path_, expected, out), CheckpointMismatch);
}

TEST_F(CheckpointFile, CorruptionMatrixRejectsEveryCell) {
  // Saves are atomic (temp + rename), so any structural damage below
  // was never a valid checkpoint.  The shared matrix -- truncation at
  // every boundary, a single bit flip anywhere, trailing garbage, an
  // oversized declared length -- must be rejected with a diagnostic.
  // Damage to the magic or identity header reads as CheckpointMismatch,
  // body damage as CheckpointCorrupt; both count as rejection, and the
  // output checkpoint must stay untouched on every error path.
  const Checkpoint saved = sample();
  save_checkpoint(path_, saved);
  const std::vector<std::uint8_t> good = read_file(path_);

  nanocost::testing::CorruptionMatrixOptions opts;
  // The first record's i64 blob-size field follows the header (magic +
  // four u64 words) and the record's chunk index.
  opts.u64_length_offsets = {8 + 4 * 8 + 8};
  nanocost::testing::run_corruption_matrix(
      good,
      [&](const std::vector<std::uint8_t>& bytes) {
        write_file(path_, bytes);
        Checkpoint out;
        out.fingerprint = 0x12345678;  // sentinel: must survive error paths
        nanocost::testing::CorruptionVerdict v;
        try {
          (void)load_checkpoint(path_, saved, out);
        } catch (const CheckpointCorrupt& e) {
          v.rejected = true;
          v.diagnostic = e.what();
          EXPECT_NE(v.diagnostic.find(path_), std::string::npos)
              << "diagnostic must name the offending file";
        } catch (const CheckpointMismatch& e) {
          v.rejected = true;
          v.diagnostic = e.what();
        }
        if (v.rejected) {
          EXPECT_EQ(out.fingerprint, 0x12345678u) << "out mutated on an error path";
        }
        return v;
      },
      opts);
}

TEST_F(CheckpointFile, ConcurrentSavesToOnePathNeverTearIt) {
  // Two writers of one record -- two daemons sharing a tier -- each
  // publish through a temp file of their own: no save fails, and every
  // concurrent load finds one writer's checkpoint, whole.
  const Checkpoint a = sample();
  Checkpoint b = sample();
  b.chunks[1] = {4, 4, 4, 4, 4, 4, 4, 4};
  b.chunks[2].assign(300, 0x5C);
  save_checkpoint(path_, a);
  constexpr int kRounds = 4000;
  std::atomic<int> failed_saves{0};
  std::atomic<int> writers_left{2};
  const auto writer = [&](const Checkpoint& ckpt) {
    for (int round = 0; round < kRounds; ++round) {
      try {
        save_checkpoint(path_, ckpt);
      } catch (const std::exception&) {
        failed_saves.fetch_add(1);
      }
    }
    writers_left.fetch_sub(1);
  };
  std::thread first(writer, std::cref(a));
  std::thread second(writer, std::cref(b));
  int loads = 0;
  int torn_loads = 0;
  while (writers_left.load() > 0) {
    Checkpoint loaded;
    ++loads;
    try {
      if (!load_checkpoint(path_, a, loaded) ||
          (loaded.chunks != a.chunks && loaded.chunks != b.chunks)) {
        ++torn_loads;
      }
    } catch (const std::exception&) {
      ++torn_loads;
    }
  }
  first.join();
  second.join();
  EXPECT_EQ(failed_saves.load(), 0);
  EXPECT_EQ(torn_loads, 0) << "of " << loads << " loads";
  // Every temp file was renamed into place: the record is all that is left.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_.path()),
                          std::filesystem::directory_iterator{}),
            1);
}

TEST_F(CheckpointFile, GarbageMagicThrows) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOT A CHECKPOINT FILE AT ALL", f);
  std::fclose(f);
  Checkpoint out;
  EXPECT_THROW((void)load_checkpoint(path_, sample(), out), CheckpointMismatch);
}

}  // namespace
}  // namespace nanocost::robust
