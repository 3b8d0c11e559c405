// Behavioural tests for the PRESTO proxy: cache provenance, model lifecycle, the
// NOW/PAST query cascade, pulls, timeouts, time correction, and query-sensor matching.
// Uses real sensors on a two-node network (proxy id 1, sensor id 100).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/net/network.h"
#include "src/proxy/proxy_node.h"
#include "src/proxy/summary_cache.h"
#include "src/sensor/sensor_node.h"
#include "src/sim/simulator.h"

namespace presto {
namespace {

double Diurnal(SimTime t) {
  return 20.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(t % kDay) /
                               static_cast<double>(kDay));
}

// Test-local pull client: keeps every answer under the token its query carried.
struct Answers : PullClient {
  std::map<uint64_t, QueryAnswer> by_token;
  void OnPullDone(uint64_t token, const QueryAnswer& answer) override {
    by_token[token] = answer;
  }
};

struct Rig {
  Simulator sim;
  Answers answers;
  uint64_t next_token = 1;
  std::unique_ptr<Network> net;
  std::unique_ptr<ProxyNode> proxy;
  std::unique_ptr<SensorNode> sensor;

  explicit Rig(ProxyMode mode = ProxyMode::kPresto,
               PushPolicy policy = PushPolicy::kModelDriven,
               SensorNode::MeasureFn measure = Diurnal, double drift_ppm = 0.0) {
    net = std::make_unique<Network>(&sim, NetworkParams{}, 6);

    ProxyNodeConfig pc;
    pc.id = 1;
    pc.mode = mode;
    pc.default_tolerance = 0.5;
    pc.manage_models = mode == ProxyMode::kPresto;
    pc.enable_matcher = false;
    proxy = std::make_unique<ProxyNode>(&sim, net.get(), pc);
    proxy->SetPullClient(&answers);

    SensorNodeConfig sc;
    sc.id = 100;
    sc.proxy_id = 1;
    sc.policy = policy;
    sc.model_tolerance = 0.5;
    sc.drift_ppm = drift_ppm;
    sc.clock_offset = drift_ppm != 0.0 ? Seconds(1) : 0;
    sc.clock_jitter = Millis(1);
    sensor = std::make_unique<SensorNode>(&sim, net.get(), sc, std::move(measure));

    proxy->RegisterSensor(100, sc.sensing_period);
    proxy->Start();
    sensor->Start();
  }

  QueryAnswer Now(double tolerance, Duration latency_bound = Minutes(5)) {
    const uint64_t token = next_token++;
    proxy->QueryNow(100, tolerance, latency_bound, token);
    return Await(token);
  }

  QueryAnswer Past(TimeInterval range, double tolerance) {
    const uint64_t token = next_token++;
    proxy->QueryPast(100, range, tolerance, token);
    return Await(token);
  }

  QueryAnswer Await(uint64_t token) {
    while (answers.by_token.count(token) == 0 && sim.Step()) {
    }
    return answers.by_token[token];
  }
};

// ---------- SummaryCache unit behaviour ----------

TEST(SummaryCacheTest, ProvenanceRefinement) {
  SummaryCache cache;
  cache.Insert(100, 1.0, CacheSource::kExtrapolated);
  cache.Insert(100, 2.0, CacheSource::kPushed);  // upgrade
  cache.Insert(100, 3.0, CacheSource::kExtrapolated);  // downgrade rejected
  auto latest = cache.Latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->second.value, 2.0);
  EXPECT_EQ(latest->second.source, CacheSource::kPushed);
  EXPECT_EQ(cache.stats().refinements, 1u);
  EXPECT_EQ(cache.stats().downgrades_rejected, 1u);
}

TEST(SummaryCacheTest, NearestAndCoverage) {
  SummaryCache cache;
  for (int i = 0; i < 10; ++i) {
    cache.Insert(i * Seconds(31), i, CacheSource::kPushed);
  }
  auto near = cache.Nearest(Seconds(100), Seconds(31));
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->second.value, 3.0);  // t=93 is closest
  EXPECT_FALSE(cache.Nearest(Hours(1), Seconds(31)).has_value());
  EXPECT_NEAR(cache.CoverageFraction(TimeInterval{0, 10 * Seconds(31)}, Seconds(31)),
              1.0, 0.01);
  EXPECT_LT(cache.CoverageFraction(TimeInterval{0, Hours(1)}, Seconds(31)), 0.1);
}

TEST(SummaryCacheTest, EvictionCapsMemory) {
  SummaryCache cache(/*max_entries=*/100);
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(i * kSecond, i, CacheSource::kPushed);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 900u);
  // Oldest went first.
  EXPECT_FALSE(cache.Nearest(0, Seconds(10)).has_value());
}

// ---------- proxy behaviour ----------

TEST(ProxyNodeTest, PushesPopulateCacheAndFitModel) {
  Rig rig;
  rig.sim.RunUntil(Days(2));
  const ProxyStats& stats = rig.proxy->stats();
  EXPECT_GT(stats.pushes_received, 20u);
  EXPECT_GE(stats.model_sends, 1u);
  ASSERT_NE(rig.sensor->model(), nullptr);
  EXPECT_EQ(rig.sensor->stats().model_updates, stats.model_sends);
  EXPECT_GT(rig.proxy->cache(100)->size(), 0u);
}

TEST(ProxyNodeTest, NowCascadeHitExtrapolatePull) {
  Rig rig;
  rig.sim.RunUntil(Days(2));  // model in place

  // Loose tolerance: extrapolation (pushes are rare with a good model, so the last
  // cached sample is typically stale).
  QueryAnswer loose = rig.Now(1.0);
  ASSERT_TRUE(loose.status.ok());
  EXPECT_TRUE(loose.source == AnswerSource::kExtrapolated ||
              loose.source == AnswerSource::kCacheHit);
  EXPECT_NEAR(loose.value, Diurnal(loose.completed_at), 1.0);

  // Tight tolerance: must pull from the sensor archive.
  QueryAnswer tight = rig.Now(0.05);
  ASSERT_TRUE(tight.status.ok());
  EXPECT_EQ(tight.source, AnswerSource::kSensorPull);
  EXPECT_NEAR(tight.value, Diurnal(tight.issued_at), 0.3);
  EXPECT_GT(tight.Latency(), Millis(100));  // paid the radio rendezvous

  // Immediately after the pull, the cache is fresh: a repeat query hits.
  QueryAnswer repeat = rig.Now(0.05);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_EQ(repeat.source, AnswerSource::kCacheHit);
  EXPECT_LT(repeat.Latency(), Millis(10));
}

TEST(ProxyNodeTest, PastCascadeAndRefinement) {
  Rig rig;
  rig.sim.RunUntil(Days(2));

  // Loose tolerance on a past range: the model extrapolates the suppressed gaps.
  const TimeInterval range{Days(1) + Hours(3), Days(1) + Hours(3) + Minutes(30)};
  QueryAnswer loose = rig.Past(range, 2.0);
  ASSERT_TRUE(loose.status.ok());
  EXPECT_NE(loose.source, AnswerSource::kFailed);
  ASSERT_FALSE(loose.samples.empty());

  // Tight tolerance: pulled from flash; afterwards the cache covers the range.
  QueryAnswer tight = rig.Past(range, 0.05);
  ASSERT_TRUE(tight.status.ok());
  EXPECT_EQ(tight.source, AnswerSource::kSensorPull);
  EXPECT_GT(rig.proxy->cache(100)->CoverageFraction(range, Seconds(31)), 0.9);
  for (const Sample& s : tight.samples) {
    EXPECT_NEAR(s.value, Diurnal(s.t), 0.3);
  }

  // And the same query again is now a cache hit (progressive refinement).
  QueryAnswer again = rig.Past(range, 0.05);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.source, AnswerSource::kCacheHit);
}

TEST(ProxyNodeTest, PullTimeoutWhenSensorDead) {
  Rig rig;
  rig.sim.RunUntil(Days(2));
  rig.net->SetNodeDown(100, true);
  QueryAnswer answer = rig.Now(0.05, /*latency_bound=*/Minutes(1));
  EXPECT_FALSE(answer.status.ok());
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rig.proxy->stats().pull_timeouts, 1u);
}

TEST(ProxyNodeTest, ExtrapolationStillWorksWhenSensorDead) {
  Rig rig;
  rig.sim.RunUntil(Days(2));
  rig.net->SetNodeDown(100, true);
  // Loose query: the model answers even though the sensor is gone — availability from
  // prediction, the paper's §3 extrapolation story.
  QueryAnswer answer = rig.Now(1.5);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.source, AnswerSource::kExtrapolated);
}

TEST(ProxyNodeTest, TimestampsCorrectedDespiteDrift) {
  // 80 ppm fast clock + 1 s initial offset; proxy sync should absorb both.
  Rig rig(ProxyMode::kPresto, PushPolicy::kModelDriven, Diurnal, /*drift_ppm=*/80.0);
  rig.sim.RunUntil(Days(1));
  auto rms = rig.proxy->SyncResidualRms(100);
  ASSERT_TRUE(rms.ok());
  EXPECT_LT(*rms, static_cast<double>(Seconds(1)));

  // Cached timestamps must be near true time despite the skewed stamps: the newest
  // entry cannot be far from a sensing tick ago.
  auto latest = rig.proxy->cache(100)->Latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_LT(rig.sim.Now() - latest->first, Hours(3));
  EXPECT_LE(latest->first, rig.sim.Now());
}

TEST(ProxyNodeTest, CacheOnlyModeNeverPulls) {
  Rig rig(ProxyMode::kCacheOnly, PushPolicy::kEverySample);
  rig.sim.RunUntil(Hours(2));
  QueryAnswer now = rig.Now(0.01);
  ASSERT_TRUE(now.status.ok());
  EXPECT_EQ(now.source, AnswerSource::kCacheHit);
  QueryAnswer past = rig.Past(TimeInterval{Hours(1), Hours(1) + Minutes(10)}, 0.01);
  ASSERT_TRUE(past.status.ok());
  EXPECT_EQ(past.source, AnswerSource::kCacheHit);
  EXPECT_EQ(rig.proxy->stats().pulls, 0u);
}

TEST(ProxyNodeTest, AlwaysPullModeAlwaysAsksSensor) {
  Rig rig(ProxyMode::kAlwaysPull, PushPolicy::kNone);
  rig.sim.RunUntil(Hours(2));
  QueryAnswer now = rig.Now(2.0);
  ASSERT_TRUE(now.status.ok());
  EXPECT_EQ(now.source, AnswerSource::kSensorPull);
  EXPECT_EQ(rig.proxy->stats().cache_hits, 0u);
  EXPECT_EQ(rig.proxy->stats().extrapolations, 0u);
}

TEST(ProxyNodeTest, UnknownSensorFailsCleanly) {
  Rig rig;
  rig.proxy->QueryNow(999, 1.0, Seconds(10), /*token=*/7);
  ASSERT_EQ(rig.answers.by_token.count(7), 1u);  // fails synchronously
  const QueryAnswer& a = rig.answers.by_token[7];
  EXPECT_FALSE(a.status.ok());
  EXPECT_EQ(a.status.code(), StatusCode::kNotFound);
}

TEST(ProxyNodeTest, MatcherRetunesDutyCycleFromLatencyNeeds) {
  Simulator sim;
  Network net(&sim, NetworkParams{}, 8);
  ProxyNodeConfig pc;
  pc.id = 1;
  pc.enable_matcher = true;
  pc.manage_models = false;
  ProxyNode proxy(&sim, &net, pc);
  Answers answers;
  proxy.SetPullClient(&answers);

  SensorNodeConfig sc;
  sc.id = 100;
  sc.proxy_id = 1;
  sc.policy = PushPolicy::kNone;
  sc.radio.lpl_interval = Seconds(4);
  SensorNode sensor(&sim, &net, sc, Diurnal);
  proxy.RegisterSensor(100, sc.sensing_period);
  proxy.Start();
  sensor.Start();

  const Duration before = net.LplInterval(100);
  // A stream of latency-critical queries (1 s bound).
  for (int i = 0; i < 5; ++i) {
    proxy.QueryNow(100, 2.0, Seconds(1), static_cast<uint64_t>(i));
  }
  sim.RunUntil(Minutes(3));  // let maintenance run and the config propagate
  const Duration after = net.LplInterval(100);
  EXPECT_LT(after, before);
  EXPECT_LE(after, Millis(400));  // ~ bound/4, clamped
  EXPECT_GE(proxy.stats().config_sends, 1u);
}

}  // namespace
}  // namespace presto
