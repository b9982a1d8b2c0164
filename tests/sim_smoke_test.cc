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
      {1, "dcfb0f8446a1bbffca01a11d43d477d5104e246e07ff7b1e8063fc38e8a16318",
       "49e7174009ec2ebc6b323c38fe416a460544395fc3c594d997593e289a474fea"},
      {2, "b64cc494f526cf8fa70307f627ad6d2bb9a6b43521d04195f8c0df8f6df19ff2",
       "deef5cee16aa824e7e0e0dd6627cd8896af11b7e06b4de861d768cee35a8a807"},
      {3, "e6189c49d1b1a1b9a2ef76c52f241e8eaa72a0c955de838a5f99d9994a0550ec",
       "2570a3c61443dd04903e9341d35e0974dacd1a60c23065fb698dcc54bb752b07"},
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
