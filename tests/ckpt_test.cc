// Deterministic checkpoint/restore tests: the restore invariant (resuming a
// checkpoint taken at a barrier is observationally identical to never stopping —
// same simulator fingerprints, same driver latency histograms, at any worker
// count), checkpoints straddling in-flight failover machinery (pending replica
// promotion, queued paced backfill), barrier-to-barrier diffs (apply == full
// restore), corruption detection naming the bad section, and the latency-histogram
// hash memo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/federation.h"
#include "src/util/ckpt.h"
#include "src/workload/query_driver.h"

namespace presto {
namespace {

// ---------- latency histogram hash ----------

TEST(LatencyHistogramTest, HashIsOrderIndependentAndMemoInvalidates) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(Millis(3));
  a.Record(Millis(70));
  a.Record(Seconds(2));
  b.Record(Seconds(2));
  b.Record(Millis(70));
  b.Record(Millis(3));
  EXPECT_EQ(a.Hash(), b.Hash()) << "recording order must not matter";

  LatencyHistogram c;
  c.Record(Millis(9));
  LatencyHistogram ac = a;
  ac.Merge(c);
  LatencyHistogram ca = c;
  ca.Merge(a);
  EXPECT_EQ(ac.Hash(), ca.Hash()) << "merge must commute";

  // The memo must invalidate on mutation (Record / Merge / LoadState) and stay
  // stable across repeated reads.
  const uint64_t before = a.Hash();
  EXPECT_EQ(a.Hash(), before);
  a.Record(Hours(1));
  EXPECT_NE(a.Hash(), before) << "Record must invalidate the cached hash";

  ByteWriter w;
  a.SaveState(w);
  LatencyHistogram restored;
  ByteReader r{span<const uint8_t>(w.buffer())};
  ASSERT_TRUE(restored.LoadState(r).ok());
  EXPECT_EQ(restored.Hash(), a.Hash());
  EXPECT_TRUE(restored == a);
}

// ---------- deployment round trip ----------

DeploymentConfig CkptDeploymentConfig(int threads) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(20);
  config.lane_engine = true;
  config.sim_threads = threads;
  config.sim_epoch = Millis(500);
  config.seed = 811;
  return config;
}

QueryDriverParams CkptDriverParams() {
  QueryDriverParams params;
  params.mix.queries_per_hour = 720.0;
  params.mix.num_sensors = 0;  // whole population
  params.mix.past_fraction = 0.25;
  params.mix.mean_past_age = Minutes(15);
  params.mix.max_past_age = Minutes(30);
  params.mix.min_tolerance = 2.0;
  params.mix.max_tolerance = 3.0;
  params.mix.seed = 812;
  return params;
}

TEST(DeploymentCheckpointTest, RoundTripMatchesUninterruptedRunAtAnyThreadCount) {
  for (const int threads : {1, 8}) {
    const SimTime ckpt_at = Hours(1) + Minutes(5);
    const SimTime end = Hours(1) + Minutes(30);
    Checkpoint ckpt;
    uint64_t fp_cont = 0;
    uint64_t hist_cont = 0;
    {
      Deployment deployment(CkptDeploymentConfig(threads));
      deployment.Start();
      deployment.RunUntil(Hours(1));
      QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
      driver.Start(Minutes(25));
      deployment.RunUntil(ckpt_at);
      ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
      deployment.RunUntil(end);
      fp_cont = deployment.sim().fingerprint();
      hist_cont = driver.stats().latency.Hash();
      EXPECT_GT(driver.stats().issued, 100u);
    }
    // Through the wire format, so framing and section checksums are exercised.
    auto decoded = Checkpoint::Decode(span<const uint8_t>(ckpt.Encode()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    {
      Deployment deployment(CkptDeploymentConfig(threads));
      deployment.Start();
      QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
      ASSERT_TRUE(deployment.LoadCheckpoint(*decoded).ok());
      EXPECT_EQ(deployment.sim().Now(), ckpt_at);
      deployment.RunUntil(end);
      EXPECT_EQ(deployment.sim().fingerprint(), fp_cont)
          << "restore at a barrier must be observationally identical to never "
             "stopping (threads="
          << threads << ")";
      EXPECT_EQ(driver.stats().latency.Hash(), hist_cont)
          << "restored driver histogram diverged (threads=" << threads << ")";
    }
  }
}

// A QueryAndWait that gives up at max_wait leaves its query in flight as a plain
// store record: the checkpoint taken right after must succeed and replay it, and a
// later wait in the restored run must get its own answer, not the abandoned one.
TEST(DeploymentCheckpointTest, SavesWhileAnAbandonedWaitIsInFlight) {
  for (const int threads : {1, 4}) {
    const SimTime wait_at = Hours(1) + Minutes(5);
    const SimTime end = Hours(1) + Minutes(30);
    // Tolerance 0 over a recent range: the cache cannot answer, so the query pulls
    // from the sensor's archive, which takes far longer than max_wait.
    QuerySpec pull;
    pull.type = QueryType::kPast;
    pull.sensor_id = Deployment::SensorId(2, 1);
    pull.tolerance = 0.0;
    pull.range = TimeInterval{wait_at - Minutes(10), wait_at - Minutes(5)};
    QuerySpec probe;
    probe.sensor_id = Deployment::SensorId(1, 3);
    probe.tolerance = 5.0;

    Checkpoint ckpt;
    uint64_t fp_cont = 0;
    uint64_t hist_cont = 0;
    UnifiedQueryResult probe_cont;
    {
      Deployment deployment(CkptDeploymentConfig(threads));
      deployment.Start();
      deployment.RunUntil(Hours(1));
      QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
      driver.Start(Minutes(25));
      deployment.RunUntil(wait_at);
      const UnifiedQueryResult abandoned = deployment.QueryAndWait(pull, Millis(1));
      ASSERT_EQ(abandoned.answer.status.code(), StatusCode::kDeadlineExceeded)
          << "the pull completed inside max_wait: the test is vacuous";
      const Status saved = deployment.SaveCheckpoint(&ckpt);
      ASSERT_TRUE(saved.ok()) << saved.message();
      probe_cont = deployment.QueryAndWait(probe);
      deployment.RunUntil(end);
      fp_cont = deployment.sim().fingerprint();
      hist_cont = driver.stats().latency.Hash();
    }
    Deployment deployment(CkptDeploymentConfig(threads));
    deployment.Start();
    QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
    ASSERT_TRUE(deployment.LoadCheckpoint(ckpt).ok());
    const UnifiedQueryResult probe_restored = deployment.QueryAndWait(probe);
    ASSERT_TRUE(probe_restored.answer.status.ok())
        << probe_restored.answer.status.message();
    EXPECT_EQ(probe_restored.answer.source, probe_cont.answer.source);
    EXPECT_EQ(probe_restored.answer.value, probe_cont.answer.value);
    EXPECT_EQ(probe_restored.completed_at, probe_cont.completed_at);
    deployment.RunUntil(end);
    EXPECT_EQ(deployment.sim().fingerprint(), fp_cont) << "threads=" << threads;
    EXPECT_EQ(driver.stats().latency.Hash(), hist_cont) << "threads=" << threads;
  }
}

// A checkpoint taken between KillProxy and its promotion event must carry the
// pending promotion (timer in the simulator section, re-captured on restore), and
// one taken mid-backfill must carry the queued paced archive pulls — the restored
// run replays both identically.
TEST(DeploymentCheckpointTest, RestoreStraddlesPendingPromotionAndPacedBackfill) {
  const SimTime kill_at = Minutes(30);
  const SimTime ckpt_promotion = kill_at + Seconds(10);   // promotion fires at +20 s
  const SimTime ckpt_backfill = kill_at + Seconds(26);    // backfill drain underway
  const SimTime revive_at = Minutes(32);
  const SimTime end = Minutes(40);
  const int victim = 1;

  Checkpoint at_promotion;
  Checkpoint at_backfill;
  uint64_t fp_cont = 0;
  uint64_t promotions_cont = 0;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(kill_at);
    deployment.KillProxy(victim);
    deployment.RunUntil(ckpt_promotion);
    ASSERT_TRUE(deployment.SaveCheckpoint(&at_promotion).ok());
    EXPECT_EQ(deployment.shard_stats().promotions, 0u)
        << "the first checkpoint must straddle the promotion, not follow it";
    deployment.RunUntil(ckpt_backfill);
    // Promotions count per sensor chain, one per shard the dead proxy owned.
    EXPECT_GT(deployment.shard_stats().promotions, 0u);
    ASSERT_TRUE(deployment.SaveCheckpoint(&at_backfill).ok());
    deployment.RunUntil(revive_at);
    deployment.ReviveProxy(victim);
    deployment.RunUntil(end);
    fp_cont = deployment.sim().fingerprint();
    promotions_cont = deployment.shard_stats().promotions;
    uint64_t backfills = 0;
    for (int p = 0; p < 4; ++p) {
      backfills += deployment.proxy(p).stats().backfill_pulls;
    }
    EXPECT_GT(backfills, 0u) << "scenario never exercised promotion backfill";
  }
  for (const Checkpoint* ckpt : {&at_promotion, &at_backfill}) {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    ASSERT_TRUE(deployment.LoadCheckpoint(*ckpt).ok());
    deployment.RunUntil(revive_at);
    deployment.ReviveProxy(victim);
    deployment.RunUntil(end);
    EXPECT_EQ(deployment.sim().fingerprint(), fp_cont);
    EXPECT_EQ(deployment.shard_stats().promotions, promotions_cont)
        << "the restored run must replay the straddled promotion";
  }
}

// ---------- barrier-to-barrier diffs ----------

TEST(DeploymentCheckpointTest, DiffApplyEqualsFullRestore) {
  const SimTime b1 = Hours(1) + Minutes(5);
  const SimTime b2 = Hours(1) + Minutes(10);
  const SimTime end = Hours(1) + Minutes(20);
  Checkpoint ckpt1;
  Checkpoint ckpt2;
  uint64_t fp_cont = 0;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Hours(1));
    QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
    driver.Start(Minutes(15));
    deployment.RunUntil(b1);
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt1).ok());
    deployment.RunUntil(b2);
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt2).ok());
    deployment.RunUntil(end);
    fp_cont = deployment.sim().fingerprint();
  }
  const std::vector<uint8_t> diff = ckpt2.EncodeDiffFrom(ckpt1);
  EXPECT_LT(diff.size(), ckpt2.Encode().size())
      << "a barrier-to-barrier diff should not exceed the full snapshot";
  auto applied = Checkpoint::ApplyDiff(ckpt1, span<const uint8_t>(diff));
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_EQ(applied->Digest(), ckpt2.Digest());

  Deployment deployment(CkptDeploymentConfig(1));
  deployment.Start();
  deployment.AttachQueryDriver(CkptDriverParams());
  ASSERT_TRUE(deployment.LoadCheckpoint(*applied).ok());
  EXPECT_EQ(deployment.sim().Now(), b2);
  deployment.RunUntil(end);
  EXPECT_EQ(deployment.sim().fingerprint(), fp_cont)
      << "restoring base + diff must equal restoring the full second snapshot";
}

// ---------- corruption and divergence naming ----------

TEST(DeploymentCheckpointTest, CorruptedSectionFailsDecodeNamingTheSection) {
  Checkpoint ckpt;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Minutes(30));
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
  }
  const std::vector<uint8_t>* payload = ckpt.Find("proxy/1");
  ASSERT_NE(payload, nullptr);
  ASSERT_GT(payload->size(), 64u);
  std::vector<uint8_t> encoded = ckpt.Encode();
  // Locate proxy/1's payload inside the framed bytes and flip one bit in the
  // middle (serialized cache state): the section checksum must catch it and the
  // decode must fail naming that section, before any state is handed back.
  auto it = std::search(encoded.begin(), encoded.end(), payload->begin(),
                        payload->end());
  ASSERT_NE(it, encoded.end());
  *(it + static_cast<long>(payload->size() / 2)) ^= 0x40;
  auto corrupted = Checkpoint::Decode(span<const uint8_t>(encoded));
  ASSERT_FALSE(corrupted.ok());
  EXPECT_NE(corrupted.status().message().find("proxy/1"), std::string::npos)
      << "decode error must name the corrupted section: "
      << corrupted.status().message();
}

TEST(DeploymentCheckpointTest, DiffNamesThePerturbedProxyCacheFirst) {
  Checkpoint ckpt;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Minutes(30));
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
  }
  // Perturb one byte of proxy 2's serialized cache: the divergence report must
  // lead with exactly that subsystem section (save order), the bisect hint
  // presto_ckpt diff prints.
  Checkpoint perturbed = ckpt;
  const std::vector<uint8_t>* payload = perturbed.Find("proxy/2");
  ASSERT_NE(payload, nullptr);
  std::vector<uint8_t> bytes = *payload;
  bytes[bytes.size() / 2] ^= 0x01;
  perturbed.Add("proxy/2", std::move(bytes));

  const std::vector<std::string> divergent = ckpt.DivergentSections(perturbed);
  ASSERT_EQ(divergent.size(), 1u);
  EXPECT_EQ(divergent.front(), "proxy/2");
  EXPECT_NE(ckpt.Digest(), perturbed.Digest());
  EXPECT_TRUE(ckpt.DivergentSections(ckpt).empty());
}

// A read-only percentile between two saves must not change the checkpoint: the
// driver's latency samples are checkpointed in arrival order.
TEST(DeploymentCheckpointTest, QuantileBetweenSavesLeavesTheBytesAlone) {
  Deployment deployment(CkptDeploymentConfig(1));
  deployment.Start();
  deployment.RunUntil(Hours(1));
  QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
  driver.Start(Minutes(25));
  deployment.RunUntil(Hours(1) + Minutes(10));
  const SampleSet& latency_ms = driver.stats().latency_ms;
  ASSERT_FALSE(std::is_sorted(latency_ms.samples().begin(), latency_ms.samples().end()))
      << "samples already sorted: the test is vacuous";

  Checkpoint before;
  ASSERT_TRUE(deployment.SaveCheckpoint(&before).ok());
  const double p50 = latency_ms.Quantile(0.5);
  EXPECT_GE(p50, latency_ms.min());
  Checkpoint after;
  ASSERT_TRUE(deployment.SaveCheckpoint(&after).ok());
  EXPECT_TRUE(before.DivergentSections(after).empty());
  EXPECT_EQ(before.Encode(), after.Encode());
}

// ---------- federation round trip ----------

FederationConfig CkptFederationConfig() {
  FederationConfig config;
  config.num_cells = 2;
  config.cell.num_proxies = 2;
  config.cell.sensors_per_proxy = 8;
  config.cell.enable_replication = true;
  config.cell.replication_factor = 2;
  config.cell.lane_engine = true;
  config.cell.sim_threads = 2;
  config.cell.sim_epoch = Millis(250);
  config.link.latency = Millis(250);
  config.epoch = Seconds(1);
  config.auto_epoch = true;
  config.seed = 911;
  return config;
}

std::vector<QueryDriver*> AttachFedDrivers(Federation& fed) {
  std::vector<QueryDriver*> drivers;
  for (int c = 0; c < fed.num_cells(); ++c) {
    QueryDriverParams params;
    params.mix.queries_per_hour = 1800.0;
    params.mix.num_sensors = 0;  // whole federation namespace
    params.mix.past_fraction = 0.2;
    params.mix.mean_past_age = Minutes(5);
    params.mix.max_past_age = Minutes(10);
    params.mix.min_tolerance = 1.5;
    params.mix.max_tolerance = 3.0;
    params.mix.seed = 913 + static_cast<uint64_t>(c);
    drivers.push_back(&fed.AttachQueryDriver(c, params));
  }
  return drivers;
}

TEST(FederationCheckpointTest, RoundTripCarriesInFlightCrossCellQueries) {
  const SimTime ckpt_at = Minutes(6);
  const SimTime end = Minutes(10);
  Checkpoint ckpt;
  uint64_t fp_cont = 0;
  uint64_t hist_cont = 0;
  uint64_t forwarded_cont = 0;
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    std::vector<QueryDriver*> drivers = AttachFedDrivers(fed);
    fed.RunUntil(Minutes(5));
    for (QueryDriver* driver : drivers) {
      driver->Start(0);
    }
    fed.RunUntil(ckpt_at);
    ASSERT_TRUE(fed.SaveCheckpoint(&ckpt).ok());
    fed.RunUntil(end);
    fp_cont = fed.fingerprint();
    LatencyHistogram merged;
    for (const QueryDriver* driver : drivers) {
      merged.Merge(driver->stats().latency);
    }
    hist_cont = merged.Hash();
    forwarded_cont = fed.stats().forwarded;
    EXPECT_GT(forwarded_cont, 0u) << "no cross-cell traffic: the test is vacuous";
  }
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    std::vector<QueryDriver*> drivers = AttachFedDrivers(fed);
    ASSERT_TRUE(fed.LoadCheckpoint(ckpt).ok());
    EXPECT_EQ(fed.Now(), ckpt_at);
    fed.RunUntil(end);
    EXPECT_EQ(fed.fingerprint(), fp_cont);
    LatencyHistogram merged;
    for (const QueryDriver* driver : drivers) {
      merged.Merge(driver->stats().latency);
    }
    EXPECT_EQ(merged.Hash(), hist_cont);
    EXPECT_EQ(fed.stats().forwarded, forwarded_cont);
  }
}

TEST(FederationCheckpointTest, RoundTripCarriesTheOrphanCountAcrossACellKill) {
  // A killed cell keeps stepping and its gateway keeps forwarding, so its late
  // mail is dropped — and counted — at every barrier, before and after the save.
  // The restored run must resume that count, not restart it from zero.
  const SimTime ckpt_at = Minutes(6);
  const SimTime end = Minutes(10);
  Checkpoint ckpt;
  uint64_t orphans_at_save = 0;
  uint64_t orphans_cont = 0;
  uint64_t fp_cont = 0;
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    std::vector<QueryDriver*> drivers = AttachFedDrivers(fed);
    fed.RunUntil(Minutes(5));
    for (QueryDriver* driver : drivers) {
      driver->Start(0);
    }
    fed.RunUntil(Minutes(5) + Seconds(30));
    fed.KillCell(1);
    fed.RunUntil(ckpt_at);
    ASSERT_TRUE(fed.SaveCheckpoint(&ckpt).ok());
    orphans_at_save = fed.stats().orphans;
    fed.RunUntil(end);
    orphans_cont = fed.stats().orphans;
    fp_cont = fed.fingerprint();
  }
  ASSERT_GT(orphans_at_save, 0u) << "no orphans before the save: the test is vacuous";
  ASSERT_GT(orphans_cont, orphans_at_save);
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    AttachFedDrivers(fed);
    ASSERT_TRUE(fed.LoadCheckpoint(ckpt).ok());
    EXPECT_EQ(fed.stats().orphans, orphans_at_save);
    fed.RunUntil(end);
    EXPECT_EQ(fed.fingerprint(), fp_cont);
    EXPECT_EQ(fed.stats().orphans, orphans_cont);
  }
}

}  // namespace
}  // namespace presto
