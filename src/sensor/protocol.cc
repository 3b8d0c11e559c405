#include "src/sensor/protocol.h"

#include <cmath>
#include <cstdint>
#include <string>

namespace presto {
namespace {

// A configured period or interval. The receiver's timers and MAC abort on a
// non-positive one, so it is refused here; a varint above INT64_MAX would cast
// negative.
Result<Duration> ReadPositiveDuration(ByteReader& r, const char* what) {
  auto v = r.ReadVarU64();
  if (!v.ok()) {
    return v.status();
  }
  if (*v == 0 || *v > static_cast<uint64_t>(INT64_MAX)) {
    return InvalidArgumentError(std::string("ConfigUpdate: non-positive ") + what);
  }
  return static_cast<Duration>(*v);
}

}  // namespace

const char* PushReasonName(PushReason reason) {
  switch (reason) {
    case PushReason::kBootstrap:
      return "bootstrap";
    case PushReason::kModelDeviation:
      return "model-deviation";
    case PushReason::kValueDelta:
      return "value-delta";
    case PushReason::kBatch:
      return "batch";
    case PushReason::kEverySample:
      return "every-sample";
  }
  return "?";
}

const char* PushPolicyName(PushPolicy policy) {
  switch (policy) {
    case PushPolicy::kNone:
      return "none";
    case PushPolicy::kValueDriven:
      return "value-driven";
    case PushPolicy::kModelDriven:
      return "model-driven";
    case PushPolicy::kBatched:
      return "batched";
    case PushPolicy::kEverySample:
      return "every-sample";
  }
  return "?";
}

std::vector<uint8_t> DataPushMsg::Encode() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(reason));
  w.WriteI64(local_send_time);
  w.WriteBytes(batch);
  return w.TakeBuffer();
}

Result<DataPushMsg> DataPushMsg::Decode(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto reason = r.ReadU8();
  auto ts = r.ReadI64();
  auto batch = r.ReadBytes();
  if (!reason.ok() || !ts.ok() || !batch.ok()) {
    return InvalidArgumentError("bad DataPush");
  }
  DataPushMsg m;
  m.reason = static_cast<PushReason>(*reason);
  m.local_send_time = *ts;
  m.batch = std::move(*batch);
  return m;
}

std::vector<uint8_t> ModelUpdateMsg::Encode() const {
  ByteWriter w;
  w.WriteU32(model_seq);
  w.WriteF32(static_cast<float>(tolerance));
  w.WriteBytes(model_params);
  return w.TakeBuffer();
}

Result<ModelUpdateMsg> ModelUpdateMsg::Decode(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto seq = r.ReadU32();
  auto tol = r.ReadF32();
  auto params = r.ReadBytes();
  if (!seq.ok() || !tol.ok() || !params.ok()) {
    return InvalidArgumentError("bad ModelUpdate");
  }
  ModelUpdateMsg m;
  m.model_seq = *seq;
  m.tolerance = static_cast<double>(*tol);
  m.model_params = std::move(*params);
  return m;
}

std::vector<uint8_t> ConfigUpdateMsg::Encode() const {
  ByteWriter w;
  w.WriteU16(fields);
  if (fields & kCfgSensingPeriod) {
    w.WriteVarU64(static_cast<uint64_t>(sensing_period));
  }
  if (fields & kCfgBatchInterval) {
    w.WriteVarU64(static_cast<uint64_t>(batch_interval));
  }
  if (fields & kCfgPolicy) {
    w.WriteU8(static_cast<uint8_t>(policy));
  }
  if (fields & kCfgValueDelta) {
    w.WriteF32(static_cast<float>(value_delta));
  }
  if (fields & kCfgCompression) {
    w.WriteU8(compress ? 1 : 0);
    w.WriteF32(static_cast<float>(quant_step));
  }
  if (fields & kCfgLplInterval) {
    w.WriteVarU64(static_cast<uint64_t>(lpl_interval));
  }
  return w.TakeBuffer();
}

Result<ConfigUpdateMsg> ConfigUpdateMsg::Decode(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto fields = r.ReadU16();
  if (!fields.ok()) {
    return InvalidArgumentError("bad ConfigUpdate");
  }
  ConfigUpdateMsg m;
  m.fields = *fields;
  if (m.fields & kCfgSensingPeriod) {
    auto v = ReadPositiveDuration(r, "sensing_period");
    if (!v.ok()) {
      return v.status();
    }
    m.sensing_period = *v;
  }
  if (m.fields & kCfgBatchInterval) {
    auto v = ReadPositiveDuration(r, "batch_interval");
    if (!v.ok()) {
      return v.status();
    }
    m.batch_interval = *v;
  }
  if (m.fields & kCfgPolicy) {
    auto v = r.ReadU8();
    if (!v.ok()) {
      return v.status();
    }
    if (*v > CkptEnumMax(PushPolicy{})) {
      return InvalidArgumentError("ConfigUpdate: unknown push policy");
    }
    m.policy = static_cast<PushPolicy>(*v);
  }
  if (m.fields & kCfgValueDelta) {
    auto v = r.ReadF32();
    if (!v.ok()) {
      return v.status();
    }
    m.value_delta = static_cast<double>(*v);
  }
  if (m.fields & kCfgCompression) {
    auto on = r.ReadU8();
    auto q = r.ReadF32();
    if (!on.ok() || !q.ok()) {
      return InvalidArgumentError("bad ConfigUpdate compression");
    }
    // The wavelet encoder divides by the step and aborts on a non-positive one.
    if (!(*q > 0.0f) || !std::isfinite(*q)) {
      return InvalidArgumentError("ConfigUpdate: non-positive quant_step");
    }
    m.compress = *on != 0;
    m.quant_step = static_cast<double>(*q);
  }
  if (m.fields & kCfgLplInterval) {
    auto v = ReadPositiveDuration(r, "lpl_interval");
    if (!v.ok()) {
      return v.status();
    }
    m.lpl_interval = *v;
  }
  return m;
}

const char* AggregateOpName(AggregateOp op) {
  switch (op) {
    case AggregateOp::kNone:
      return "none";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
    case AggregateOp::kMean:
      return "mean";
    case AggregateOp::kCount:
      return "count";
  }
  return "?";
}

std::vector<uint8_t> ArchiveQueryMsg::Encode() const {
  ByteWriter w;
  w.WriteU32(query_id);
  w.WriteI64(local_start);
  w.WriteI64(local_end);
  w.WriteU8(compress ? 1 : 0);
  w.WriteU32(max_samples);
  w.WriteU8(static_cast<uint8_t>(aggregate));
  return w.TakeBuffer();
}

Result<ArchiveQueryMsg> ArchiveQueryMsg::Decode(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto id = r.ReadU32();
  auto t1 = r.ReadI64();
  auto t2 = r.ReadI64();
  auto compress = r.ReadU8();
  auto max = r.ReadU32();
  if (!id.ok() || !t1.ok() || !t2.ok() || !compress.ok() || !max.ok()) {
    return InvalidArgumentError("bad ArchiveQuery");
  }
  auto agg = r.ReadU8();
  if (!agg.ok() || *agg > static_cast<uint8_t>(AggregateOp::kCount)) {
    return InvalidArgumentError("bad ArchiveQuery aggregate");
  }
  ArchiveQueryMsg m;
  m.query_id = *id;
  m.local_start = *t1;
  m.local_end = *t2;
  m.compress = *compress != 0;
  m.max_samples = *max;
  m.aggregate = static_cast<AggregateOp>(*agg);
  return m;
}

std::vector<uint8_t> ArchiveReplyMsg::Encode() const {
  ByteWriter w;
  w.WriteU32(query_id);
  w.WriteU8(status_code);
  w.WriteI64(local_send_time);
  w.WriteBytes(batch);
  return w.TakeBuffer();
}

Result<ArchiveReplyMsg> ArchiveReplyMsg::Decode(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto id = r.ReadU32();
  auto code = r.ReadU8();
  auto ts = r.ReadI64();
  auto batch = r.ReadBytes();
  if (!id.ok() || !code.ok() || !ts.ok() || !batch.ok()) {
    return InvalidArgumentError("bad ArchiveReply");
  }
  ArchiveReplyMsg m;
  m.query_id = *id;
  m.status_code = *code;
  m.local_send_time = *ts;
  m.batch = std::move(*batch);
  return m;
}

std::vector<uint8_t> ReplicaUpdateMsg::Encode() const {
  ByteWriter w;
  w.WriteU32(sensor_id);
  w.WriteBytes(batch);
  return w.TakeBuffer();
}

Result<ReplicaUpdateMsg> ReplicaUpdateMsg::Decode(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto id = r.ReadU32();
  auto batch = r.ReadBytes();
  if (!id.ok() || !batch.ok()) {
    return InvalidArgumentError("bad ReplicaUpdate");
  }
  ReplicaUpdateMsg m;
  m.sensor_id = *id;
  m.batch = std::move(*batch);
  return m;
}

std::vector<uint8_t> ReplicaModelMsg::Encode() const {
  ByteWriter w;
  w.WriteU32(sensor_id);
  w.WriteF32(static_cast<float>(tolerance));
  w.WriteBytes(model_params);
  return w.TakeBuffer();
}

Result<ReplicaModelMsg> ReplicaModelMsg::Decode(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto id = r.ReadU32();
  auto tol = r.ReadF32();
  auto params = r.ReadBytes();
  if (!id.ok() || !tol.ok() || !params.ok()) {
    return InvalidArgumentError("bad ReplicaModel");
  }
  ReplicaModelMsg m;
  m.sensor_id = *id;
  m.tolerance = static_cast<double>(*tol);
  m.model_params = std::move(*params);
  return m;
}

}  // namespace presto
