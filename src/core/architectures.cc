#include "src/core/architectures.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/assert.h"
#include "src/util/stats.h"
#include "src/workload/queries.h"

namespace presto {
namespace {

// An event counts as "reported" if an observed (pushed/pulled, not extrapolated) cache
// entry lands at the proxy within this window of its onset.
constexpr Duration kDetectionWindow = Minutes(10);

DeploymentConfig MakeDeploymentConfig(ArchitectureKind kind,
                                      const ArchitectureBenchConfig& config) {
  DeploymentConfig d;
  d.num_proxies = config.num_proxies;
  d.sensors_per_proxy = config.sensors_per_proxy;
  d.seed = config.seed;
  d.field.events_per_day = config.events_per_day;
  d.field.seed = config.seed ^ 0xF1E1D;
  switch (kind) {
    case ArchitectureKind::kDirectQuery:
      d.policy = PushPolicy::kNone;
      d.proxy_mode = ProxyMode::kAlwaysPull;
      d.manage_models = false;
      break;
    case ArchitectureKind::kStreaming:
      d.policy = PushPolicy::kEverySample;
      d.proxy_mode = ProxyMode::kCacheOnly;
      d.manage_models = false;
      break;
    case ArchitectureKind::kPresto:
      d.policy = PushPolicy::kModelDriven;
      d.proxy_mode = ProxyMode::kPresto;
      d.manage_models = true;
      break;
  }
  return d;
}

// Issues a fixed query stream into one deployment's unified store. Each request is
// a typed control-lane event at its issue time (store routing walks cross-shard
// state, which only the barrier-serial context may touch), and each answer comes
// back under the request's index as the store token. The stream takes over as the
// store's query client, so the deployment it drives must issue no queries of its own.
class QueryStream : public EventSink, public UnifiedStore::Client {
 public:
  explicit QueryStream(Deployment* deployment) : deployment_(deployment) {
    deployment_->store().SetClient(this);
  }

  // Schedules the next request; its answer lands at result(<requests so far>).
  void IssueAt(SimTime t, const QuerySpec& spec) {
    EventPayload payload;
    payload.a = specs_.size();
    specs_.push_back(spec);
    results_.emplace_back();
    deployment_->sim().ScheduleEventAt(t, EventKind::kQuery, this, std::move(payload),
                                       Simulator::kLaneControl);
  }

  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    PRESTO_CHECK(kind == EventKind::kQuery);
    deployment_->store().Query(specs_[payload.a], payload.a);
  }

  // Runs in the serving proxy's lane; each request writes only its own slot.
  void OnStoreQueryDone(uint64_t token, const UnifiedQueryResult& result) override {
    results_[token] = result;
  }

  const UnifiedQueryResult& result(size_t i) const { return results_[i]; }

 private:
  Deployment* deployment_;
  std::vector<QuerySpec> specs_;
  std::vector<UnifiedQueryResult> results_;
};

}  // namespace

const char* ArchitectureName(ArchitectureKind kind) {
  switch (kind) {
    case ArchitectureKind::kDirectQuery:
      return "direct-query";
    case ArchitectureKind::kStreaming:
      return "streaming";
    case ArchitectureKind::kPresto:
      return "presto";
  }
  return "?";
}

ArchitectureMetrics RunArchitectureBench(ArchitectureKind kind,
                                         const ArchitectureBenchConfig& config) {
  Deployment deployment(MakeDeploymentConfig(kind, config));
  deployment.Start();
  deployment.RunUntil(config.warmup);

  // Identical query stream for every architecture (seeded independently of kind).
  QueryWorkloadParams qw;
  qw.queries_per_hour = config.queries_per_hour;
  qw.past_fraction = config.past_fraction;
  qw.num_sensors = deployment.total_sensors();
  qw.seed = config.seed ^ 0x5157;
  const SimTime query_end = config.warmup + config.query_window;
  const std::vector<QueryRequest> requests =
      GenerateQueries(qw, TimeInterval{config.warmup, query_end});

  QueryStream stream(&deployment);
  for (const QueryRequest& request : requests) {
    const int proxy_index = request.sensor / config.sensors_per_proxy;
    const int sensor_index = request.sensor % config.sensors_per_proxy;
    QuerySpec spec;
    spec.sensor_id = Deployment::SensorId(proxy_index, sensor_index);
    spec.tolerance = request.tolerance;
    spec.latency_bound = request.latency_bound;
    if (request.past) {
      spec.type = QueryType::kPast;
      spec.range = TimeInterval{request.issue_at - request.age,
                                request.issue_at - request.age + request.window};
    }
    stream.IssueAt(request.issue_at, spec);
  }
  // Slack so trailing pulls can finish.
  deployment.RunUntil(query_end + Hours(1));

  ArchitectureMetrics m;
  m.name = ArchitectureName(kind);

  SampleSet now_latency;
  uint64_t now_total = 0;
  uint64_t now_ok = 0;
  uint64_t past_total = 0;
  uint64_t past_ok = 0;
  uint64_t hits = 0;
  uint64_t extrapolations = 0;
  uint64_t pulls = 0;
  uint64_t answered = 0;
  double past_sq_error = 0.0;
  int64_t past_points = 0;

  for (size_t i = 0; i < requests.size(); ++i) {
    const UnifiedQueryResult& result = stream.result(i);
    const QueryAnswer& answer = result.answer;
    const bool ok = answer.status.ok();
    if (requests[i].past) {
      ++past_total;
      if (ok && !answer.samples.empty()) {
        ++past_ok;
        for (const Sample& s : answer.samples) {
          const double truth = deployment.field().TruthAt(requests[i].sensor, s.t);
          past_sq_error += (s.value - truth) * (s.value - truth);
          ++past_points;
        }
      }
    } else {
      ++now_total;
      if (ok) {
        ++now_ok;
        now_latency.Add(ToMillis(result.Latency()));
      }
    }
    if (ok) {
      ++answered;
      switch (answer.source) {
        case AnswerSource::kCacheHit:
          ++hits;
          break;
        case AnswerSource::kExtrapolated:
          ++extrapolations;
          break;
        case AnswerSource::kSensorPull:
          ++pulls;
          break;
        case AnswerSource::kFailed:
          break;
      }
    }
  }

  m.now_latency_ms_mean = now_latency.mean();
  m.now_latency_ms_p95 = now_latency.Quantile(0.95);
  m.now_success = now_total > 0 ? static_cast<double>(now_ok) / now_total : 0.0;
  m.past_success = past_total > 0 ? static_cast<double>(past_ok) / past_total : 0.0;
  m.past_rmse = past_points > 0 ? std::sqrt(past_sq_error / past_points) : 0.0;
  if (answered > 0) {
    m.cache_hit_share = static_cast<double>(hits) / answered;
    m.extrapolated_share = static_cast<double>(extrapolations) / answered;
    m.pull_share = static_cast<double>(pulls) / answered;
  }

  // Energy and traffic per sensor-day.
  const double days = ToDays(deployment.sim().Now());
  m.energy_j_per_sensor_day = deployment.MeanSensorEnergy() / days;
  uint64_t messages = 0;
  for (int p = 0; p < config.num_proxies; ++p) {
    for (int s = 0; s < config.sensors_per_proxy; ++s) {
      messages += deployment.net().node_stats(Deployment::SensorId(p, s)).messages_sent;
    }
  }
  m.messages_per_sensor_day =
      static_cast<double>(messages) / deployment.total_sensors() / days;

  // Rare-event scoring: each injected transient must show up as *observed* data at the
  // owning proxy shortly after onset.
  uint64_t events = 0;
  uint64_t detected = 0;
  RunningStats detection_delay_s;
  for (int p = 0; p < config.num_proxies; ++p) {
    for (int s = 0; s < config.sensors_per_proxy; ++s) {
      const int global = p * config.sensors_per_proxy + s;
      const NodeId sensor_id = Deployment::SensorId(p, s);
      const auto node_events = deployment.field().EventsIn(
          global, TimeInterval{config.warmup, query_end});
      const SummaryCache* cache = deployment.proxy(p).cache(sensor_id);
      for (const TransientEvent& event : node_events) {
        if (std::abs(event.magnitude) < 2.0 ||
            event.start >= query_end - kDetectionWindow) {
          continue;
        }
        ++events;
        if (cache == nullptr) {
          continue;
        }
        const auto entries = cache->RangeEntries(
            TimeInterval{event.start, event.start + kDetectionWindow});
        for (const auto& entry : entries) {
          // Detection means the proxy *learned* an observed value inside the window —
          // arrival time, not data timestamp (late batches do not count).
          if (entry.source != CacheSource::kExtrapolated &&
              entry.inserted_at <= event.start + kDetectionWindow) {
            ++detected;
            detection_delay_s.Add(ToSeconds(entry.inserted_at - event.start));
            break;
          }
        }
      }
    }
  }
  m.event_detection_rate = events > 0 ? static_cast<double>(detected) / events : 0.0;
  m.event_latency_s = detection_delay_s.mean();
  return m;
}

}  // namespace presto
