#include "src/core/deployment.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/assert.h"
#include "src/util/rng.h"

namespace presto {
namespace {

// kMutation payload.a op codes (payload.b carries the packed arguments).
constexpr uint64_t kOpPromote = 1;   // b = proxy index
constexpr uint64_t kOpHandBack = 2;  // b = proxy index
constexpr uint64_t kOpMigrate = 3;   // b = global index | (new owner << 32)

// Shared/local mix of the temperature field.
constexpr double kSpatialCorrelation = 0.85;
// Sensor clocks: drift drawn uniformly in +/- kMaxDriftPpm, initial offset in
// [0, kMaxClockOffset).
constexpr double kMaxDriftPpm = 40.0;
constexpr Duration kMaxClockOffset = Seconds(2);
// Cache depth shipped with every state handover (migration, hand-back, recruit
// snapshot), and the horizon promotion backfill repairs.
constexpr Duration kHandoffHistory = Hours(4);
// Smoothed max/min per-proxy load ratio above which a rebalance sweep acts.
constexpr double kRebalanceMaxRatio = 1.5;

}  // namespace

Deployment::Deployment(const DeploymentConfig& config) : config_(config) {
  Build([this](int global_index) {
    return [this, global_index](SimTime t) { return field_->MeasureAt(global_index, t); };
  });
}

Deployment::Deployment(const DeploymentConfig& config, MeasureFactory measure_factory)
    : config_(config) {
  Build(std::move(measure_factory));
}

void Deployment::Build(MeasureFactory measure_factory) {
  PRESTO_CHECK(config_.num_proxies >= 1);
  PRESTO_CHECK(config_.sensors_per_proxy >= 1);
  // The (proxy, sensor) naming grid packs ids as 1000*(proxy+1)+sensor, and the
  // failover paths decode them through GlobalIndexOfId — a shard of 1000+ would
  // silently alias into the next proxy's id range. Scale by adding proxies.
  PRESTO_CHECK_MSG(config_.sensors_per_proxy < 1000,
                   "naming grid caps sensors_per_proxy at 999");
  PRESTO_CHECK(config_.replication_factor >= 1);
  PRESTO_CHECK(measure_factory != nullptr);

  // Lane engine: one lane per proxy shard, configured before anything schedules.
  // Sensors start on their home shard's lane so radio neighbourhoods execute
  // together; a long-lived ownership change moves them at a barrier.
  if (config_.lane_engine) {
    sim_.ConfigureLanes(config_.num_proxies, config_.sim_threads, config_.sim_epoch);
  }

  shard_map_ = std::make_unique<ShardMap>(config_.num_proxies, total_sensors(),
                                          config_.shard_policy,
                                          config_.replication_factor);
  proxy_down_.assign(static_cast<size_t>(config_.num_proxies), 0);
  pending_promotions_.resize(static_cast<size_t>(config_.num_proxies));
  promotion_pending_.assign(static_cast<size_t>(config_.num_proxies), 0);
  rebalance_timer_ =
      std::make_unique<PeriodicTimer>(&sim_, [this] { RebalanceSweep(); });
  net_ = std::make_unique<Network>(&sim_, config_.net, config_.seed ^ 0x6e6574);
  TemperatureParams field_params = config_.field;
  field_params.seed = config_.seed ^ 0x6669656c64;
  field_ = std::make_unique<TemperatureField>(total_sensors(), field_params,
                                              kSpatialCorrelation);
  if (sim_.num_lanes() > 0) {
    // The shared component of the temperature field is built lazily on read; extend
    // it at each barrier so concurrent lane measurements are pure reads.
    sim_.SetBarrierHook([this](SimTime epoch_end) { field_->PrepareThrough(epoch_end); });
  }
  store_ = std::make_unique<UnifiedStore>(&sim_, net_.get(), config_.seed ^ 0x696478);
  store_->SetClient(this);
  sim_.RegisterSink(this);

  Pcg32 rng(config_.seed, /*stream=*/0x4450);

  // Proxies first (sensors send to them from their very first sample).
  for (int p = 0; p < config_.num_proxies; ++p) {
    ProxyNodeConfig pc;
    pc.id = ProxyId(p);
    pc.mode = config_.proxy_mode;
    pc.engine = config_.engine;
    pc.engine.model_config = config_.model_config;
    pc.matcher = config_.matcher;
    pc.default_tolerance = config_.model_tolerance;
    pc.pull_timeout = config_.pull_timeout;
    pc.manage_models = config_.manage_models;
    pc.enable_matcher = config_.enable_matcher;
    pc.enable_replication = ReplicationEnabled();
    pc.seed = config_.seed ^ (0x5050 + static_cast<uint64_t>(p));
    proxies_.push_back(std::make_unique<ProxyNode>(&sim_, net_.get(), pc));
    if (sim_.num_lanes() > 0) {
      net_->SetNodeLane(pc.id, p);
      proxies_.back()->BindLane(p);
    }
  }
  // Wired mesh between proxies (replication + query forwarding).
  for (int a = 0; a < config_.num_proxies; ++a) {
    for (int b = a + 1; b < config_.num_proxies; ++b) {
      net_->ConnectWired(ProxyId(a), ProxyId(b));
    }
  }

  // Sensors are created in naming-grid (global index) order so seeded draws replay
  // identically regardless of shard policy; ownership comes from the shard map.
  for (int g = 0; g < total_sensors(); ++g) {
    const int owner = shard_map_->OwnerOf(g);
    SensorNodeConfig sc;
    sc.id = GlobalSensorId(g);
    sc.proxy_id = ProxyId(owner);
    sc.sensing_period = config_.sensing_period;
    sc.policy = config_.policy;
    sc.model_tolerance = config_.model_tolerance;
    sc.value_delta = config_.value_delta;
    sc.batch_interval = config_.batch_interval;
    sc.compress = config_.compress;
    sc.codec = config_.codec;
    sc.flash = config_.flash;
    sc.archive = config_.archive;
    sc.archive.nominal_sample_period = config_.sensing_period;
    sc.model_config = config_.model_config;
    sc.model_config.sample_period = config_.sensing_period;
    sc.drift_ppm = rng.Uniform(-kMaxDriftPpm, kMaxDriftPpm);
    sc.clock_offset =
        static_cast<Duration>(rng.Uniform(0.0, static_cast<double>(kMaxClockOffset)));
    sc.seed = config_.seed ^ (0x5353 + static_cast<uint64_t>(g));

    sensors_.push_back(
        std::make_unique<SensorNode>(&sim_, net_.get(), sc, measure_factory(g)));
    if (sim_.num_lanes() > 0) {
      net_->SetNodeLane(sc.id, owner);
      sensors_.back()->BindLane(owner);
    }
    proxies_[static_cast<size_t>(owner)]->RegisterSensor(sc.id, config_.sensing_period);
    // Every member of the owner's K-way replica set must know the sensor to accept
    // replicated state and serve failover; the owner mirrors its state to all of them.
    if (ReplicationEnabled()) {
      std::vector<NodeId> targets;
      for (int r : shard_map_->ReplicaSetOf(owner)) {
        proxies_[static_cast<size_t>(r)]->RegisterSensor(sc.id, config_.sensing_period,
                                                         /*replica=*/true);
        targets.push_back(ProxyId(r));
      }
      proxies_[static_cast<size_t>(owner)]->SetReplicaTargets(sc.id, std::move(targets));
    }
  }

  for (int p = 0; p < config_.num_proxies; ++p) {
    store_->AddProxy(proxies_[static_cast<size_t>(p)].get());
  }
  // Seed every sensor's holder chain: home owner first, then its K-way standbys in
  // failover priority order. Each subsequent ownership mutation re-derives the chain.
  sensor_chain_.assign(static_cast<size_t>(total_sensors()), {});
  sensor_load_ema_.assign(static_cast<size_t>(total_sensors()), 0.0);
  for (int g = 0; g < total_sensors(); ++g) {
    std::vector<int>& chain = sensor_chain_[static_cast<size_t>(g)];
    chain.push_back(shard_map_->OwnerOf(g));
    if (ReplicationEnabled()) {
      for (int r : shard_map_->ReplicaSetOf(chain.front())) {
        chain.push_back(r);
      }
    }
    std::vector<NodeId> ids;
    for (int c : chain) {
      ids.push_back(ProxyId(c));
    }
    store_->SetSensorChain(GlobalSensorId(g), std::move(ids));
  }
}

SensorNode& Deployment::sensor(int proxy_index, int sensor_index) {
  const int global = GlobalSensorIndex(proxy_index, sensor_index);
  PRESTO_CHECK(global >= 0 && global < total_sensors());
  return *sensors_[static_cast<size_t>(global)];
}

void Deployment::Start() {
  for (auto& proxy : proxies_) {
    proxy->Start();
  }
  for (auto& sensor : sensors_) {
    sensor->Start();
  }
  if (config_.enable_rebalancing && config_.num_proxies > 1) {
    rebalance_timer_->Start(config_.rebalance_period);
  }
}

// ---------- dynamic shard management ----------

bool Deployment::IsProxyDown(int proxy_index) const {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < config_.num_proxies);
  return proxy_down_[static_cast<size_t>(proxy_index)] != 0;
}

int Deployment::ActingOwner(int global_index) const {
  return shard_map_->ActingOwnerOf(global_index);
}

uint64_t Deployment::ProxyWindowLoad(int proxy_index) const {
  // Acting-owner view, not home-shard view: a promoted proxy carries (and must be
  // credited for) the load of the shards it took over, or the rebalancer would pile
  // more sensors onto an already-overloaded acting owner it believes is idle. The
  // shard map's served-by index makes this O(shard), not O(total).
  const ProxyNode& proxy = *proxies_[static_cast<size_t>(proxy_index)];
  uint64_t load = 0;
  for (int g : shard_map_->ServedBy(proxy_index)) {
    load += proxy.SensorWindowLoad(GlobalSensorId(g));
  }
  return load;
}

int Deployment::LiveProxyCount() const {
  int live = 0;
  for (char down : proxy_down_) {
    live += down ? 0 : 1;
  }
  return live;
}

std::vector<int> Deployment::DeriveChain(int global_index, int acting) {
  const NodeId id = GlobalSensorId(global_index);
  const int home = shard_map_->OwnerOf(global_index);
  std::vector<int> chain{acting};
  auto holds = [&](int p) {
    return proxies_[static_cast<size_t>(p)]->ManagesSensor(id);
  };
  auto in_chain = [&](int p) {
    return std::find(chain.begin(), chain.end(), p) != chain.end();
  };
  auto add_holder = [&](int p) {
    if (!in_chain(p) && holds(p)) {
      chain.push_back(p);
    }
  };
  // Existing holders in failover priority order: home (its registration survives a
  // kill, and keeping it chained preserves revive-time rescue), then the home replica
  // set, then recruits surviving from the previous chain.
  add_holder(home);
  for (int r : shard_map_->ReplicaSetOf(home)) {
    add_holder(r);
  }
  for (int c : sensor_chain_[static_cast<size_t>(global_index)]) {
    add_holder(c);
  }
  if (!ReplicationEnabled()) {
    return chain;
  }
  // Top the chain back up to K *live* copies: walk the ring from the acting owner and
  // recruit standbys (register + state snapshot) until the replication factor holds
  // again. This is what keeps a shard routable through cascaded owner failures.
  int live = 0;
  for (int c : chain) {
    live += proxy_down_[static_cast<size_t>(c)] ? 0 : 1;
  }
  const int want = std::min(config_.replication_factor, LiveProxyCount());
  for (int k = 1; k < config_.num_proxies && live < want; ++k) {
    const int r = (acting + k) % config_.num_proxies;
    if (proxy_down_[static_cast<size_t>(r)] || in_chain(r)) {
      continue;
    }
    if (!holds(r)) {
      proxies_[static_cast<size_t>(r)]->RegisterSensor(id, config_.sensing_period,
                                                       /*replica=*/true);
      proxies_[static_cast<size_t>(acting)]->SendStateSnapshot(id, ProxyId(r),
                                                              kHandoffHistory);
    }
    chain.push_back(r);
    ++live;
  }
  return chain;
}

void Deployment::ApplyChain(int global_index, std::vector<int> chain) {
  PRESTO_CHECK(!chain.empty());
  const NodeId id = GlobalSensorId(global_index);
  const int acting = chain.front();
  if (ReplicationEnabled()) {
    std::vector<NodeId> targets;
    for (size_t i = 1; i < chain.size(); ++i) {
      if (!proxy_down_[static_cast<size_t>(chain[i])]) {
        targets.push_back(ProxyId(chain[i]));
      }
    }
    proxies_[static_cast<size_t>(acting)]->SetReplicaTargets(id, std::move(targets));
  }
  std::vector<NodeId> ids;
  for (int c : chain) {
    ids.push_back(ProxyId(c));
  }
  store_->SetSensorChain(id, std::move(ids));
  store_->ReassignSensor(id, ProxyId(acting));
  sensors_[static_cast<size_t>(global_index)]->SetProxy(ProxyId(acting));
  shard_map_->SetActingOwner(global_index, acting);
  sensor_chain_[static_cast<size_t>(global_index)] = std::move(chain);
  // Every acting-ownership change funnels through here, always in control context —
  // the single choke point where lane membership may change (at a barrier).
  RebindSensorLane(global_index, acting);
}

void Deployment::RebindSensorLane(int global_index, int acting) {
  if (sim_.num_lanes() == 0) {
    return;
  }
  const NodeId id = GlobalSensorId(global_index);
  if (net_->NodeLane(id) == acting) {
    return;
  }
  // Hand over pending deliveries + coalescing batches, then the sensor's own timers
  // (it holds their handles, so the generic move must not touch kTimer events).
  net_->RebindNodeLane(id, acting);
  sensors_[static_cast<size_t>(global_index)]->RebindLane(acting);
}

void Deployment::KillProxy(int proxy_index) {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < config_.num_proxies);
  if (proxy_down_[static_cast<size_t>(proxy_index)]) {
    return;
  }
  net_->SetNodeDown(ProxyId(proxy_index), true);
  proxy_down_[static_cast<size_t>(proxy_index)] = 1;
  if (ReplicationEnabled()) {
    // Failure detection + takeover lag: the replica set serves degraded through the
    // unified store's failover chain until this event promotes a full owner. The
    // promotion is a typed barrier event: it rewrites chains across every shard.
    promotion_pending_[static_cast<size_t>(proxy_index)] = 1;
    EventPayload promote;
    promote.a = kOpPromote;
    promote.b = static_cast<uint64_t>(proxy_index);
    pending_promotions_[static_cast<size_t>(proxy_index)] = sim_.ScheduleEventAt(
        sim_.Now() + config_.promotion_delay, EventKind::kMutation, this,
        std::move(promote), Simulator::kLaneControl);
  }
}

void Deployment::ReviveProxy(int proxy_index) {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < config_.num_proxies);
  if (!proxy_down_[static_cast<size_t>(proxy_index)]) {
    return;
  }
  net_->SetNodeDown(ProxyId(proxy_index), false);
  proxy_down_[static_cast<size_t>(proxy_index)] = 0;
  // A revival before the promotion fired simply cancels the takeover.
  pending_promotions_[static_cast<size_t>(proxy_index)].Cancel();
  promotion_pending_[static_cast<size_t>(proxy_index)] = 0;
  if (ReplicationEnabled()) {
    EventPayload handback;
    handback.a = kOpHandBack;
    handback.b = static_cast<uint64_t>(proxy_index);
    sim_.ScheduleEventAt(sim_.Now(), EventKind::kMutation, this, std::move(handback),
                         Simulator::kLaneControl);
  }
}

void Deployment::OnSimEvent(EventKind kind, EventPayload& payload) {
  if (kind == EventKind::kQuery) {
    // An external query's completion marshalled onto the control lane: pop the
    // entry and complete it in control context, dispatched on the entry's origin tag.
    ExternalQuery done;
    {
      std::lock_guard<std::mutex> lock(external_m_);
      auto it = external_.find(payload.a);
      PRESTO_CHECK(it != external_.end());
      done = std::move(it->second);
      external_.erase(it);
    }
    switch (done.origin) {
      case ExternalQuery::Origin::kDriver: {
        PRESTO_CHECK(done.tag < drivers_.size());
        QueryOutcome outcome = OutcomeFromResult(done.result);
        outcome.past = done.past;
        drivers_[static_cast<size_t>(done.tag)]->RecordOutcome(outcome);
        break;
      }
      case ExternalQuery::Origin::kFederation:
        PRESTO_CHECK_MSG(federation_client_ != nullptr,
                         "federation-tagged completion without a client");
        federation_client_->OnDeploymentQueryDone(done.tag, done.result);
        break;
    }
    return;
  }
  PRESTO_CHECK(kind == EventKind::kMutation);
  switch (payload.a) {
    case kOpPromote:
      PromoteShardsOf(static_cast<int>(payload.b));
      break;
    case kOpHandBack:
      HandBackShardsOf(static_cast<int>(payload.b));
      break;
    case kOpMigrate:
      ExecuteMigration(static_cast<int>(payload.b & 0xffffffff),
                       static_cast<int>(payload.b >> 32));
      break;
    default:
      PRESTO_CHECK_MSG(false, "unknown mutation op");
  }
}

void Deployment::PromoteShardsOf(int proxy_index) {
  // Whether fired on schedule or invoked by a revive-time rescue, the
  // failure-detection window for this proxy is now over.
  promotion_pending_[static_cast<size_t>(proxy_index)] = 0;
  if (!proxy_down_[static_cast<size_t>(proxy_index)] || !ReplicationEnabled()) {
    return;
  }
  // Only the sensors this proxy was actually serving — O(shard) via the served-by
  // index, never a full-population rescan. Copy: promotions mutate the index.
  const std::vector<int> served = shard_map_->ServedBy(proxy_index);
  for (int g : served) {
    const NodeId id = GlobalSensorId(g);
    // First live holder on the sensor's own chain (survives cascaded promotions:
    // recruits count, not just the home replica set).
    int target = -1;
    for (int c : sensor_chain_[static_cast<size_t>(g)]) {
      if (!proxy_down_[static_cast<size_t>(c)] &&
          proxies_[static_cast<size_t>(c)]->ManagesSensor(id)) {
        target = c;
        break;
      }
    }
    if (target < 0) {
      continue;  // every holder is down too; the shard stays dark until a revive
    }
    proxies_[static_cast<size_t>(target)]->PromoteSensor(id);
    ApplyChain(g, DeriveChain(g, target));
    if (config_.promotion_backfill) {
      // The promoted owner's replicated state may be shallow (recruit snapshots ship
      // kHandoffHistory at recruit time) or holed (its own outage window): repair the
      // promoted serving window from the sensor's flash archive in the background.
      proxies_[static_cast<size_t>(target)]->BackfillFromArchive(id, kHandoffHistory);
    }
    ++shard_stats_.promotions;
    shard_stats_.last_promotion_at = sim_.Now();
  }
}

void Deployment::HandBackShardsOf(int proxy_index) {
  if (proxy_down_[static_cast<size_t>(proxy_index)]) {
    return;
  }
  // Take home every sensor of this proxy's shard currently in failover — O(shard)
  // over the home shard, never a full-population rescan.
  const std::vector<int> shard = shard_map_->SensorsOf(proxy_index);
  for (int g : shard) {
    if (!shard_map_->InFailover(g)) {
      continue;
    }
    const int acting = shard_map_->ActingOwnerOf(g);
    const NodeId id = GlobalSensorId(g);
    if (!proxy_down_[static_cast<size_t>(acting)]) {
      // The acting owner ships what the revived proxy missed, then steps back down.
      ProxyNode& from = *proxies_[static_cast<size_t>(acting)];
      from.SendStateSnapshot(id, ProxyId(proxy_index), kHandoffHistory);
      from.DemoteSensor(id);
    }
    // Restore the home chain (the home proxy kept its owner registration while
    // down; revived standbys catch up from live traffic). Recruits picked up during
    // failover that survive into the re-derived chain stay on; the rest drop their
    // now-redundant state.
    const std::vector<int> old_chain =
        std::move(sensor_chain_[static_cast<size_t>(g)]);
    sensor_chain_[static_cast<size_t>(g)].clear();
    std::vector<int> chain = DeriveChain(g, proxy_index);
    for (int c : old_chain) {
      if (std::find(chain.begin(), chain.end(), c) == chain.end() &&
          proxies_[static_cast<size_t>(c)]->ManagesSensor(id)) {
        proxies_[static_cast<size_t>(c)]->UnregisterSensor(id);
      }
    }
    ApplyChain(g, std::move(chain));
    ++shard_stats_.handbacks;
  }

  // Reconcile stale ownership: this proxy may still believe it fully owns sensors it
  // only ever stood in for — it was down when that shard was handed back (or
  // re-promoted), so the demotion could not reach it. Left alone, two proxies would
  // manage models and send control traffic to the same sensor forever. The proxy's
  // own registration table bounds the scan.
  ProxyNode& revived = *proxies_[static_cast<size_t>(proxy_index)];
  for (NodeId id : revived.sensors()) {
    if (shard_map_->ActingOwnerOf(GlobalIndexOfId(id)) != proxy_index) {
      revived.DemoteSensor(id);
    }
  }

  // Rescue stranded shards: a promotion skipped because every holder was down can
  // succeed now that this proxy is back. Without this, a shard whose owner and
  // replicas all died would stay degraded (and its sensors would push to a dead
  // proxy) even after replicas revive. Proxies still inside their failure-detection
  // window are left to their scheduled promotion event — rescuing them early would
  // erase the modeled promotion_delay.
  for (int p = 0; p < config_.num_proxies; ++p) {
    if (proxy_down_[static_cast<size_t>(p)] &&
        !promotion_pending_[static_cast<size_t>(p)]) {
      PromoteShardsOf(p);
    }
  }

  // Standby refresh: for every sensor this proxy stands by, the (live) acting owner
  // re-derives the chain — the revived standby rejoins the replica targets it was
  // dropped from at promotion time — and ships a catch-up snapshot, otherwise a later
  // promotion would serve state frozen at this proxy's kill. The proxy's replica
  // registrations bound the scan.
  if (ReplicationEnabled()) {
    for (NodeId id : revived.replica_sensors()) {
      const int g = GlobalIndexOfId(id);
      const int acting = shard_map_->ActingOwnerOf(g);
      if (proxy_down_[static_cast<size_t>(acting)]) {
        continue;
      }
      ProxyNode& owner = *proxies_[static_cast<size_t>(acting)];
      if (!owner.ManagesSensor(id) || owner.IsReplicaFor(id)) {
        continue;
      }
      ApplyChain(g, DeriveChain(g, acting));
      owner.SendStateSnapshot(id, ProxyId(proxy_index), kHandoffHistory);
    }
  }
}

void Deployment::MigrateSensor(int global_index, int new_owner) {
  PRESTO_CHECK(global_index >= 0 && global_index < total_sensors());
  PRESTO_CHECK(new_owner >= 0 && new_owner < config_.num_proxies);
  EventPayload migrate;
  migrate.a = kOpMigrate;
  migrate.b = static_cast<uint64_t>(static_cast<uint32_t>(global_index)) |
              (static_cast<uint64_t>(static_cast<uint32_t>(new_owner)) << 32);
  sim_.ScheduleEventAt(sim_.Now(), EventKind::kMutation, this, std::move(migrate),
                       Simulator::kLaneControl);
}

void Deployment::ExecuteMigration(int global_index, int new_owner) {
  const int home = shard_map_->OwnerOf(global_index);
  if (home == new_owner || shard_map_->InFailover(global_index) ||
      proxy_down_[static_cast<size_t>(home)] ||
      proxy_down_[static_cast<size_t>(new_owner)]) {
    return;  // shards in failover (or dead endpoints) don't migrate
  }
  const NodeId id = GlobalSensorId(global_index);
  ProxyNode& src = *proxies_[static_cast<size_t>(home)];
  ProxyNode& dst = *proxies_[static_cast<size_t>(new_owner)];

  // State transfer over the wired mesh; ownership flips now, the snapshot fills the
  // new owner's cache a few (simulated) milliseconds later. The new owner can pull
  // meanwhile — it is a full owner, not a degraded replica.
  src.SendStateSnapshot(id, ProxyId(new_owner), kHandoffHistory);
  if (dst.ManagesSensor(id)) {
    dst.PromoteSensor(id);
  } else {
    dst.RegisterSensor(id, config_.sensing_period, /*replica=*/false);
  }

  const std::vector<int>& old_set = shard_map_->ReplicaSetOf(home);
  shard_map_->MigrateSensor(global_index, new_owner);
  const std::vector<int>& new_set = shard_map_->ReplicaSetOf(new_owner);

  if (ReplicationEnabled()) {
    for (int r : new_set) {
      ProxyNode& replica = *proxies_[static_cast<size_t>(r)];
      if (!replica.ManagesSensor(id)) {
        replica.RegisterSensor(id, config_.sensing_period, /*replica=*/true);
        if (!proxy_down_[static_cast<size_t>(r)]) {
          // Seed the fresh standby so failover isn't cold.
          src.SendStateSnapshot(id, ProxyId(r), kHandoffHistory);
        }
      }
    }

    // The old owner stays on as a standby only if the new replica set includes it.
    const bool home_is_replica =
        std::find(new_set.begin(), new_set.end(), home) != new_set.end();
    if (home_is_replica) {
      src.DemoteSensor(id);
    } else {
      src.UnregisterSensor(id);
    }
    // Stale standbys outside the new topology drop their state.
    for (int r : old_set) {
      if (r == new_owner || r == home) {
        continue;
      }
      const bool still_replica =
          std::find(new_set.begin(), new_set.end(), r) != new_set.end();
      ProxyNode& replica = *proxies_[static_cast<size_t>(r)];
      if (!still_replica && replica.ManagesSensor(id)) {
        replica.UnregisterSensor(id);
      }
    }
  } else {
    src.UnregisterSensor(id);
  }

  // Re-derive the holder chain around the new home (also re-arms the new owner's
  // replica targets, re-points the index, and re-targets the sensor's pushes).
  sensor_chain_[static_cast<size_t>(global_index)].clear();
  ApplyChain(global_index, DeriveChain(global_index, new_owner));
  ++shard_stats_.migrations;
}

void Deployment::RebalanceSweep() {
  ++shard_stats_.rebalance_sweeps;
  // Every sweep closes its observation window, acted upon or not.
  struct WindowReset {
    Deployment* self;
    ~WindowReset() {
      for (auto& proxy : self->proxies_) {
        proxy->ResetLoadWindow();
      }
    }
  } reset{this};

  // Smooth each sensor's load across sweep windows (EMA, deterministic double math):
  // a single window of the query mix is a noisy sample, and re-packing against it
  // churns a converged layout sweep after sweep. The smoothed signal tracks the
  // workload, not one window's random draw. Sensors in failover are pinned to their
  // acting owner — ExecuteMigration refuses them — so their load counts as immovable
  // base load in that proxy's bin.
  const double ema_alpha = config_.rebalance_ema_alpha;
  struct Item {
    double load;
    int global_index;
    int home;
  };
  std::vector<Item> items;
  std::vector<int> bins;  // live proxies, ascending
  std::vector<double> bin_load(static_cast<size_t>(config_.num_proxies), 0.0);
  double busiest_load = 0.0;
  double calmest_load = 0.0;
  for (int p = 0; p < config_.num_proxies; ++p) {
    if (proxy_down_[static_cast<size_t>(p)]) {
      continue;
    }
    bins.push_back(p);
    const ProxyNode& proxy = *proxies_[static_cast<size_t>(p)];
    double total = 0.0;
    for (int g : shard_map_->ServedBy(p)) {
      double& ema = sensor_load_ema_[static_cast<size_t>(g)];
      const double sample =
          static_cast<double>(proxy.SensorWindowLoad(GlobalSensorId(g)));
      ema += ema_alpha * (sample - ema);
      total += ema;
      if (shard_map_->InFailover(g)) {
        bin_load[static_cast<size_t>(p)] += ema;  // pinned
      } else if (ema > 0.0) {
        items.push_back({ema, g, p});  // movable; idle sensors stay put
      }
    }
    busiest_load = std::max(busiest_load, total);
    calmest_load = bins.size() == 1 ? total : std::min(calmest_load, total);
  }
  if (bins.size() < 2 || busiest_load < static_cast<double>(config_.rebalance_min_load)) {
    return;  // idle or near-idle window: background noise is not worth migrating
  }
  const auto balanced = [&](double max_load, double min_load) {
    return max_load <= kRebalanceMaxRatio * std::max(min_load, 1.0);
  };
  if (balanced(busiest_load, calmest_load)) {
    return;  // balanced enough: re-packing would be pure churn
  }

  // Sticky global LPT (longest-processing-time) assignment: place every loaded
  // sensor, in descending load order, onto the currently lightest bin — but keep a
  // sensor home unless its home bin is already heavier than the lightest bin would
  // be *with* the sensor. A balanced layout re-derives itself move-free (no churn,
  // and partial progress from a capped sweep is preserved by the next one), while a
  // hot shard's surplus spreads across every underloaded bin in one sweep — skew on
  // three shards converges in a single pass where the old busiest/calmest pairing
  // needed a sweep per pair.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.load != b.load ? a.load > b.load : a.global_index < b.global_index;
  });
  struct Move {
    double load;
    int global_index;
    int to;
  };
  std::vector<Move> moves;
  auto load_of = [&](int p) { return bin_load[static_cast<size_t>(p)]; };
  for (const Item& item : items) {
    int best = -1;
    for (int p : bins) {
      if (best < 0 || load_of(p) < load_of(best)) {
        best = p;
      }
    }
    if (config_.rebalance_sticky && load_of(item.home) < load_of(best) + item.load) {
      best = item.home;  // sticky: moving would not leave home lighter than the move
    }
    bin_load[static_cast<size_t>(best)] += item.load;
    if (best != item.home) {
      moves.push_back({item.load, item.global_index, best});
    }
  }

  // Execute the plan hottest-relocation-first, capped per sweep. Once a sweep
  // commits to acting it drives all the way to LPT's packed optimum — stopping at
  // the ratio bound would park the layout right on the edge, where window noise
  // re-trips the gate forever. The smoothed entry gate above is what prevents churn
  // on an already-converged layout. A shard is never drained to zero sensors.
  int executed = 0;
  for (const Move& move : moves) {
    if (executed >= config_.rebalance_max_moves) {
      break;
    }
    if (shard_map_->SensorsOf(shard_map_->OwnerOf(move.global_index)).size() <= 1) {
      continue;
    }
    ExecuteMigration(move.global_index, move.to);
    ++executed;
  }
}

double Deployment::MeanSensorEnergy() {
  net_->SettleIdleEnergy();
  double total = 0.0;
  for (auto& sensor : sensors_) {
    total += sensor->meter().Total();
  }
  return total / static_cast<double>(sensors_.size());
}

Deployment::ExternalQuery* Deployment::FindExternal(uint64_t id) {
  std::lock_guard<std::mutex> lock(external_m_);
  auto it = external_.find(id);
  return it == external_.end() ? nullptr : &it->second;
}

void Deployment::QueryAsyncFederated(const QuerySpec& spec, uint64_t fed_qid) {
  PRESTO_CHECK_MSG(federation_client_ != nullptr,
                   "federation-tagged query without a client");
  ExternalQuery entry;
  entry.origin = ExternalQuery::Origin::kFederation;
  entry.tag = fed_qid;
  QueryAsyncInternal(spec, std::move(entry));
}

void Deployment::QueryAsyncInternal(const QuerySpec& spec, ExternalQuery entry) {
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(external_m_);
    id = next_external_id_++;
    external_.emplace(id, std::move(entry));
  }
  // The store completes through OnStoreQueryDone (token = the entry id), from the
  // serving proxy's lane or inline on routing errors.
  store_->Query(spec, id);
}

void Deployment::OnStoreQueryDone(uint64_t token, const UnifiedQueryResult& result) {
  if ((token & kWaitToken) != 0) {
    // QueryAndWait completes where the store answers, with no control-lane bounce.
    // An answer whose wait already gave up at max_wait is dropped.
    if (token == wait_token_) {
      wait_result_ = result;
      wait_token_ = 0;
    }
    return;
  }
  // Park the result in the entry and bounce a typed event to the control lane,
  // where OnSimEvent completes it.
  ExternalQuery* pending = FindExternal(token);
  PRESTO_CHECK(pending != nullptr);
  pending->result = result;
  EventPayload done;
  done.a = token;
  sim_.ScheduleEventAt(sim_.Now(), EventKind::kQuery, this, std::move(done),
                       Simulator::kLaneControl);
}

QueryDriver& Deployment::AttachQueryDriver(const QueryDriverParams& params) {
  QueryDriverParams p = params;
  if (p.mix.num_sensors <= 0) {
    p.mix.num_sensors = total_sensors();
  }
  PRESTO_CHECK_MSG(p.mix.num_sensors <= total_sensors(),
                   "driver namespace exceeds the sensor population");
  // Completion routes by driver index, so queries in flight serialize into a
  // checkpoint and complete after restore.
  const uint64_t driver_index = drivers_.size();
  auto issue = [this, driver_index](const QueryRequest& request) {
    QuerySpec spec;
    spec.sensor_id = GlobalSensorId(request.sensor);
    spec.tolerance = request.tolerance;
    spec.latency_bound = request.latency_bound;
    if (request.past) {
      spec.type = QueryType::kPast;
      spec.range = PastRangeOf(request, sim_.Now());
    }
    ExternalQuery entry;
    entry.origin = ExternalQuery::Origin::kDriver;
    entry.tag = driver_index;
    entry.past = request.past;
    QueryAsyncInternal(spec, std::move(entry));
  };
  drivers_.push_back(std::make_unique<QueryDriver>(&sim_, p, std::move(issue)));
  return *drivers_.back();
}

UnifiedQueryResult Deployment::QueryAndWait(const QuerySpec& spec, Duration max_wait) {
  // The store's query count is checkpointed, so no wait token repeats across a
  // restore: an answer abandoned at max_wait before a save never completes a later
  // wait.
  wait_token_ = kWaitToken | (store_->stats().queries + 1);
  store_->Query(spec, wait_token_);
  const SimTime deadline = sim_.Now() + max_wait;
  while (wait_token_ != 0 && sim_.NextEventTime() >= 0 &&
         sim_.NextEventTime() <= deadline) {
    sim_.Step();
  }
  if (wait_token_ != 0) {
    wait_token_ = 0;  // abandon: the query stays in flight and its answer is dropped
    UnifiedQueryResult result;
    result.answer.status = DeadlineExceededError("query did not complete in max_wait");
    result.issued_at = sim_.Now();
    result.completed_at = sim_.Now();
    return result;
  }
  return wait_result_;
}

}  // namespace presto

namespace presto {

Status Deployment::OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                                   const EventHandle& handle, int lane) {
  (void)t;
  (void)lane;
  // Promotion timers are the only deployment events whose handles matter (a revive
  // cancels them); completion bounces (kQuery) fire uncancelled.
  if (kind == EventKind::kMutation && payload.a == kOpPromote) {
    if (payload.b >= pending_promotions_.size()) {
      return DataLossError("deploy restore: promotion event names no proxy");
    }
    pending_promotions_[static_cast<size_t>(payload.b)] = handle;
  }
  return OkStatus();
}

template <typename Io>
void Deployment::CkptFields(Io& io) {
  io(proxy_down_, promotion_pending_, sensor_chain_, sensor_load_ema_);
  CkptReject(io,
             proxy_down_.size() != static_cast<size_t>(config_.num_proxies) ||
                 promotion_pending_.size() != proxy_down_.size() ||
                 sensor_chain_.size() != static_cast<size_t>(total_sensors()) ||
                 sensor_load_ema_.size() != sensor_chain_.size(),
             "deploy restore: table size mismatch");
  io(shard_stats_.promotions, shard_stats_.handbacks, shard_stats_.migrations,
     shard_stats_.rebalance_sweeps, shard_stats_.last_promotion_at, *rebalance_timer_,
     next_external_id_, external_);
  if constexpr (Io::kLoading) {
    // Stale pre-restore promotion handles: drop (never cancel) — the simulator
    // section re-announces the live ones.
    for (EventHandle& handle : pending_promotions_) {
      handle = EventHandle();
    }
  }
}

template <typename Book>
void Deployment::CkptSections(Book& book) {
  book("net", [&](auto& io) { io(*net_); });
  book("store", [&](auto& io) { io(*store_); });
  book("shard_map", [&](auto& io) { io(*shard_map_); });
  book("deploy", [&](auto& io) { CkptFields(io); });
  for (int p = 0; p < config_.num_proxies; ++p) {
    book("proxy/" + std::to_string(p),
         [&](auto& io) { io(*proxies_[static_cast<size_t>(p)]); });
  }
  book("sensors", [&](auto& io) {
    for (const auto& sensor : sensors_) {
      io(*sensor);
    }
  });
  book("drivers", [&](auto& io) {
    CkptExpect(io, static_cast<uint64_t>(drivers_.size()),
               StatusCode::kFailedPrecondition,
               "driver restore: attach the same drivers before restoring");
    for (const auto& driver : drivers_) {
      io(*driver);
    }
  });
  // The simulator section comes last: its queue references every sink above, and
  // restored queue events announce through OnEventRestored into the fully
  // restored subsystems.
  book("sim", [&](auto& io) { io(sim_); });
}

Status Deployment::SaveCheckpoint(Checkpoint* out, const std::string& prefix) const {
  PRESTO_CHECK(out != nullptr);
  CkptSectionsOut book(prefix);
  const_cast<Deployment*>(this)->CkptSections(book);
  return book.Commit(out);
}

Status Deployment::LoadCheckpoint(const Checkpoint& ckpt, const std::string& prefix) {
  CkptSectionsIn book(ckpt, prefix);
  CkptSections(book);
  return book.status();
}

}  // namespace presto
