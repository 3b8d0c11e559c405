// Wire-protocol round-trip and robustness tests: every proxy<->sensor message type,
// plus malformed-input handling (a lossy radio must never crash a node) and decoded
// values a receiver could not act on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/net/network.h"
#include "src/sensor/protocol.h"
#include "src/sensor/sensor_node.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace presto {
namespace {

TEST(ProtocolTest, DataPushRoundTrip) {
  DataPushMsg in;
  in.reason = PushReason::kModelDeviation;
  in.local_send_time = Days(3) + Millis(250);
  in.batch = {1, 2, 3, 4, 5};
  auto out = DataPushMsg::Decode(in.Encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->reason, in.reason);
  EXPECT_EQ(out->local_send_time, in.local_send_time);
  EXPECT_EQ(out->batch, in.batch);
}

TEST(ProtocolTest, ModelUpdateRoundTrip) {
  ModelUpdateMsg in;
  in.model_seq = 42;
  in.tolerance = 0.75;
  in.model_params = std::vector<uint8_t>(64, 0xAB);
  auto out = ModelUpdateMsg::Decode(in.Encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->model_seq, 42u);
  EXPECT_NEAR(out->tolerance, 0.75, 1e-6);
  EXPECT_EQ(out->model_params, in.model_params);
}

TEST(ProtocolTest, ConfigUpdatePartialFields) {
  ConfigUpdateMsg in;
  in.fields = kCfgLplInterval | kCfgCompression;
  in.lpl_interval = Seconds(7);
  in.compress = true;
  in.quant_step = 0.125;
  auto out = ConfigUpdateMsg::Decode(in.Encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->fields, in.fields);
  EXPECT_EQ(out->lpl_interval, Seconds(7));
  EXPECT_TRUE(out->compress);
  EXPECT_NEAR(out->quant_step, 0.125, 1e-6);
}

TEST(ProtocolTest, ConfigUpdateAllFields) {
  ConfigUpdateMsg in;
  in.fields = kCfgSensingPeriod | kCfgBatchInterval | kCfgPolicy | kCfgValueDelta |
              kCfgCompression | kCfgLplInterval;
  in.sensing_period = Minutes(1);
  in.batch_interval = Hours(2);
  in.policy = PushPolicy::kBatched;
  in.value_delta = 1.5;
  in.compress = false;
  in.quant_step = 0.01;
  in.lpl_interval = Millis(500);
  auto out = ConfigUpdateMsg::Decode(in.Encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->sensing_period, Minutes(1));
  EXPECT_EQ(out->batch_interval, Hours(2));
  EXPECT_EQ(out->policy, PushPolicy::kBatched);
  EXPECT_NEAR(out->value_delta, 1.5, 1e-6);
  EXPECT_EQ(out->lpl_interval, Millis(500));
}

// The receiver's timers and MAC abort on a non-positive period, so the decoder must
// refuse one, including a varint above INT64_MAX that would cast negative.
TEST(ProtocolTest, ConfigUpdateRejectsNonPositiveDurations) {
  for (const uint16_t field : {kCfgSensingPeriod, kCfgBatchInterval, kCfgLplInterval}) {
    for (const Duration bad : {Duration{0}, Duration{-1}, Duration{INT64_MIN}}) {
      ConfigUpdateMsg in;
      in.fields = field;
      in.sensing_period = bad;
      in.batch_interval = bad;
      in.lpl_interval = bad;
      auto out = ConfigUpdateMsg::Decode(in.Encode());
      ASSERT_FALSE(out.ok()) << "field " << field << " value " << bad;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ProtocolTest, ConfigUpdateRejectsNonPositiveQuantStep) {
  for (const double bad : {0.0, -0.5, std::nan("")}) {
    ConfigUpdateMsg in;
    in.fields = kCfgCompression;
    in.compress = true;
    in.quant_step = bad;
    auto out = ConfigUpdateMsg::Decode(in.Encode());
    ASSERT_FALSE(out.ok()) << "quant_step " << bad;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, ConfigUpdateRejectsUnknownPolicy) {
  ConfigUpdateMsg in;
  in.fields = kCfgPolicy;
  in.policy = static_cast<PushPolicy>(CkptEnumMax(PushPolicy{}));
  ASSERT_TRUE(ConfigUpdateMsg::Decode(in.Encode()).ok());
  for (const int bad : {static_cast<int>(CkptEnumMax(PushPolicy{})) + 1, 255}) {
    in.policy = static_cast<PushPolicy>(bad);
    auto out = ConfigUpdateMsg::Decode(in.Encode());
    ASSERT_FALSE(out.ok()) << "policy byte " << bad;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
}

// A sensor handed a config update that would zero its sensing period, LPL interval
// or quantization step drops it and keeps sampling on its old schedule.
TEST(ProtocolTest, SensorSurvivesInvalidConfigUpdates) {
  Simulator sim;
  Network net(&sim, NetworkParams{}, 7);
  SensorNodeConfig sc;
  sc.id = 100;
  sc.proxy_id = 1;
  sc.policy = PushPolicy::kNone;
  SensorNode sensor(&sim, &net, sc, [](SimTime) { return 20.0; });
  sensor.Start();
  sim.RunUntil(Minutes(10));

  const auto deliver = [&](const ConfigUpdateMsg& update) {
    Message message;
    message.src = 1;
    message.dst = sc.id;
    message.type = static_cast<uint16_t>(MsgType::kConfigUpdate);
    message.payload = update.Encode();
    message.sent_at = sim.Now();
    message.delivered_at = sim.Now();
    sensor.OnMessage(message);
  };
  ConfigUpdateMsg zero_period;
  zero_period.fields = kCfgSensingPeriod;
  deliver(zero_period);
  ConfigUpdateMsg zero_lpl;
  zero_lpl.fields = kCfgLplInterval;
  deliver(zero_lpl);
  ConfigUpdateMsg bad_policy;
  bad_policy.fields = kCfgPolicy;
  bad_policy.policy = static_cast<PushPolicy>(200);
  deliver(bad_policy);
  ConfigUpdateMsg zero_step;
  zero_step.fields = kCfgCompression;
  zero_step.compress = true;
  zero_step.quant_step = 0.0;
  deliver(zero_step);
  EXPECT_EQ(sensor.stats().config_updates, 0u);

  const uint64_t samples = sensor.stats().samples;
  sim.RunUntil(Minutes(20));
  EXPECT_EQ(sensor.config().sensing_period, sc.sensing_period);
  EXPECT_GE(sensor.stats().samples, samples + 10) << "sensing stopped";

  ConfigUpdateMsg valid;
  valid.fields = kCfgSensingPeriod;
  valid.sensing_period = Minutes(1);
  deliver(valid);
  EXPECT_EQ(sensor.stats().config_updates, 1u);
  EXPECT_EQ(sensor.config().sensing_period, Minutes(1));
}

TEST(ProtocolTest, ArchiveQueryRoundTripWithAggregate) {
  ArchiveQueryMsg in;
  in.query_id = 7;
  in.local_start = Hours(1);
  in.local_end = Hours(2);
  in.compress = false;
  in.max_samples = 128;
  in.aggregate = AggregateOp::kMean;
  auto out = ArchiveQueryMsg::Decode(in.Encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->query_id, 7u);
  EXPECT_EQ(out->local_start, Hours(1));
  EXPECT_EQ(out->local_end, Hours(2));
  EXPECT_FALSE(out->compress);
  EXPECT_EQ(out->max_samples, 128u);
  EXPECT_EQ(out->aggregate, AggregateOp::kMean);
}

TEST(ProtocolTest, ArchiveReplyRoundTrip) {
  ArchiveReplyMsg in;
  in.query_id = 9;
  in.status_code = static_cast<uint8_t>(StatusCode::kNotFound);
  in.local_send_time = Days(1);
  auto out = ArchiveReplyMsg::Decode(in.Encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->query_id, 9u);
  EXPECT_EQ(out->status_code, static_cast<uint8_t>(StatusCode::kNotFound));
  EXPECT_TRUE(out->batch.empty());
}

TEST(ProtocolTest, ReplicaMessagesRoundTrip) {
  ReplicaUpdateMsg update;
  update.sensor_id = 1001;
  update.batch = {9, 8, 7};
  auto u = ReplicaUpdateMsg::Decode(update.Encode());
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->sensor_id, 1001u);
  EXPECT_EQ(u->batch, update.batch);

  ReplicaModelMsg model;
  model.sensor_id = 1002;
  model.tolerance = 0.3;
  model.model_params = {1, 2};
  auto m = ReplicaModelMsg::Decode(model.Encode());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->sensor_id, 1002u);
  EXPECT_NEAR(m->tolerance, 0.3, 1e-6);
}

TEST(ProtocolTest, EmptyPayloadsRejected) {
  const std::vector<uint8_t> empty;
  EXPECT_FALSE(DataPushMsg::Decode(empty).ok());
  EXPECT_FALSE(ModelUpdateMsg::Decode(empty).ok());
  EXPECT_FALSE(ConfigUpdateMsg::Decode(empty).ok());
  EXPECT_FALSE(ArchiveQueryMsg::Decode(empty).ok());
  EXPECT_FALSE(ArchiveReplyMsg::Decode(empty).ok());
  EXPECT_FALSE(ReplicaUpdateMsg::Decode(empty).ok());
  EXPECT_FALSE(ReplicaModelMsg::Decode(empty).ok());
}

TEST(ProtocolTest, TruncatedPayloadsRejectedNotCrash) {
  // Encode each message, then decode every strict prefix: must error, never UB.
  DataPushMsg push;
  push.batch = std::vector<uint8_t>(20, 1);
  const std::vector<uint8_t> encoded = push.Encode();
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::vector<uint8_t> prefix(encoded.begin(),
                                encoded.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DataPushMsg::Decode(prefix).ok()) << "prefix " << len;
  }
}

TEST(ProtocolTest, RandomGarbageNeverCrashes) {
  Pcg32 rng(123);
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> junk(static_cast<size_t>(rng.UniformInt(0, 64)));
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    // Any of these may *succeed* by luck on random bytes; they must not crash.
    (void)DataPushMsg::Decode(junk);
    (void)ModelUpdateMsg::Decode(junk);
    (void)ConfigUpdateMsg::Decode(junk);
    (void)ArchiveQueryMsg::Decode(junk);
    (void)ArchiveReplyMsg::Decode(junk);
  }
}

TEST(ProtocolTest, AggregateOpNames) {
  EXPECT_STREQ(AggregateOpName(AggregateOp::kMean), "mean");
  EXPECT_STREQ(AggregateOpName(AggregateOp::kCount), "count");
  EXPECT_STREQ(PushPolicyName(PushPolicy::kModelDriven), "model-driven");
  EXPECT_STREQ(PushReasonName(PushReason::kModelDeviation), "model-deviation");
}

}  // namespace
}  // namespace presto
