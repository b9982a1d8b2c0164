// Tier-1 smoke for the differential simulator (src/sim/): short seeded runs
// with the full adversarial mix must agree with the reference model, the
// same seed must reproduce byte-for-byte, and a deliberately planted
// hash-ordering bug must be caught within one run — proving the oracle
// actually bites. The heavyweight sweeps live in sim_harness_test (label
// "long") and the nightly CI job.

#include <gtest/gtest.h>

#include "sim/driver.h"
#include "test_util.h"

namespace sqlledger {
namespace sim {
namespace {

class SimSmokeTest : public TempDirTest {
 protected:
  SimConfig MakeConfig(uint64_t seed, size_t ops) {
    SimConfig config;
    config.seed = seed;
    config.gen.ops = ops;
    config.data_dir = Path("sim");
    return config;
  }
};

TEST_F(SimSmokeTest, MixedAdversarialRunsMatchModel) {
  for (uint64_t s = 0; s < 2; s++) {
    SimConfig config = MakeConfig(TestCaseSeed(s + 1), 300);
    SimResult result = RunSim(config);
    EXPECT_TRUE(result.ok)
        << "seed " << config.seed << " (SQLLEDGER_TEST_SEED=" << TestSeed()
        << ") diverged @" << result.divergent_op << ": " << result.message;
    EXPECT_FALSE(result.final_digest_hex.empty());
    EXPECT_GT(result.commits, 0u);
  }
}

TEST_F(SimSmokeTest, SameSeedReproducesByteForByte) {
  SimConfig config = MakeConfig(TestCaseSeed(3), 300);
  SimResult first = RunSim(config);
  SimResult second = RunSim(config);
  ASSERT_TRUE(first.ok) << first.message;
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_EQ(first.outcome_fingerprint, second.outcome_fingerprint);
  EXPECT_EQ(first.final_digest_hex, second.final_digest_hex);
  // The observability layer replays too: metrics snapshot + trace export
  // hash identically under the pinned metrics clock.
  ASSERT_FALSE(first.metrics_fingerprint.empty());
  EXPECT_EQ(first.metrics_fingerprint, second.metrics_fingerprint);
}

// Pinned per-seed fingerprints: `sim_harness --seed=N --ops=500` must keep
// printing exactly these `fp=` (outcome log) and `mfp=` (metrics snapshot +
// trace export) values. A refactor that is meant to preserve behaviour must
// leave them alone; one that changes behaviour on purpose updates them here
// and says why. Raw seeds, not TestCaseSeed: the values are absolute.
TEST_F(SimSmokeTest, GoldenFingerprints) {
  struct Golden {
    uint64_t seed;
    const char* fp;
    const char* mfp;
  };
  const Golden kGolden[] = {
      {1, "6ecb2e69a395f9357265874628eb998d4a2f79860ba7a0e62b98615a90a3fd25",
       "e76a96442575469497951ef8c55e475adb5c7ba01f061dceaab174f4deb6f34e"},
      {2, "056ff6b98fe26e119d86fc83cc3d846042f3a389dd1651379c676303d531b354",
       "9c066ade09ee4ae2af3c16c9c848e2f24e926e31222fada5a588a6d1a64a662a"},
      {3, "cba718f6b9021d33d2f5e7fb2c6ab21be2f9bdbce6db42f717dcb2913588d621",
       "3cb5b45d9b14481567228c808d4283bb076fd903612618837118ecacbd23dad1"},
  };
  for (const Golden& g : kGolden) {
    SimResult result = RunSim(MakeConfig(g.seed, 500));
    ASSERT_TRUE(result.ok) << "seed " << g.seed << " diverged @"
                           << result.divergent_op << ": " << result.message;
    EXPECT_EQ(result.outcome_fingerprint, g.fp) << "seed " << g.seed;
    EXPECT_EQ(result.metrics_fingerprint, g.mfp) << "seed " << g.seed;
  }
}

TEST_F(SimSmokeTest, StoreOutageWindowsCatchUpAndAgree) {
  // Outage-heavy mix: the driver asserts after every recovery and outage
  // end that the remote store's digests are an order-preserving match for
  // what the pipeline accepted, and the epilogue asserts staleness fell
  // back to zero when the final digest was queued.
  size_t outage_runs = 0;
  for (uint64_t s = 0; s < 3; s++) {
    SimConfig config = MakeConfig(TestCaseSeed(10 + s), 400);
    SimResult result = RunSim(config);
    EXPECT_TRUE(result.ok)
        << "seed " << config.seed << " (SQLLEDGER_TEST_SEED=" << TestSeed()
        << ") diverged @" << result.divergent_op << ": " << result.message;
    if (result.store_outages > 0) outage_runs++;
  }
  EXPECT_GT(outage_runs, 0u) << "no run exercised a digest-store outage";
}

TEST_F(SimSmokeTest, OutagesDisabledStillRuns) {
  SimConfig config = MakeConfig(TestCaseSeed(20), 300);
  config.gen.enable_store_outage = false;
  SimResult result = RunSim(config);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(result.store_outages, 0u);
}

TEST_F(SimSmokeTest, PlantedHashOrderBugIsCaught) {
  SimConfig config = MakeConfig(TestCaseSeed(4), 600);
  config.break_hash_order = true;
  SimResult result = RunSim(config);
  EXPECT_FALSE(result.ok)
      << "planted hash-order bug survived a full smoke run (seed "
      << config.seed << ")";
}

}  // namespace
}  // namespace sim
}  // namespace sqlledger
