// Federation-layer tests: the cell directory's global namespace, cross-cell query
// routing over inter-cell trunks, the in-sim open-loop query driver, failover of a
// cross-cell target's proxy mid-stream, whole-cell kill/revive, and the federation
// determinism contract — same seed => identical federation fingerprint *and*
// identical latency histogram across sim_threads worker counts, cell_threads
// counts, and cell_processes counts (cells as forked worker processes), plus
// cross-mode checkpoint migration and worker-crash containment.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/cell_worker.h"
#include "src/core/federation.h"
#include "src/util/ckpt.h"
#include "src/workload/query_driver.h"

namespace presto {
namespace {

// ---------- cell directory ----------

TEST(CellDirectoryTest, RoundTripsTheGlobalNamespace) {
  CellDirectory dir(3, 8);
  EXPECT_EQ(dir.total_sensors(), 24);
  for (int fed = 0; fed < dir.total_sensors(); ++fed) {
    const int cell = dir.CellOf(fed);
    const int local = dir.LocalOf(fed);
    EXPECT_GE(cell, 0);
    EXPECT_LT(cell, 3);
    EXPECT_GE(local, 0);
    EXPECT_LT(local, 8);
    EXPECT_EQ(dir.FedIndexOf(cell, local), fed);
  }
  EXPECT_EQ(dir.CellOf(0), 0);
  EXPECT_EQ(dir.CellOf(8), 1);
  EXPECT_EQ(dir.CellOf(23), 2);
}

// ---------- query driver (standalone, synthetic issue function) ----------

TEST(QueryDriverTest, FixedRateIssuesOpenLoop) {
  Simulator sim;
  QueryDriverParams params;
  params.arrivals = ArrivalProcess::kFixedRate;
  params.mix.queries_per_hour = 60.0;  // one a minute
  params.mix.num_sensors = 4;
  params.mix.past_fraction = 0.0;
  // Completions never arrive — an open-loop driver must keep issuing regardless.
  QueryDriver driver(&sim, params, [](const QueryRequest&) {});
  driver.Start(Hours(1));
  sim.RunUntil(Hours(2));
  EXPECT_EQ(driver.stats().issued, 59u);  // arrivals at 1..59 min; 60 min hits until_
  EXPECT_EQ(driver.stats().completed, 0u);
}

// Synthetic system under test: completes every query 250 ms after issue as a typed
// event carrying its issue time, failing every 3rd.
class DelayedCompletions : public EventSink {
 public:
  explicit DelayedCompletions(Simulator* sim) : sim_(sim) {}
  void Bind(QueryDriver* driver) { driver_ = driver; }

  void Issue() {
    EventPayload payload;
    payload.a = static_cast<uint64_t>(sim_->Now());
    payload.b = (++issued_ % 3) != 0 ? 1 : 0;
    sim_->ScheduleEventAt(sim_->Now() + Millis(250), EventKind::kQuery, this,
                          std::move(payload));
  }

  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    ASSERT_EQ(kind, EventKind::kQuery);
    QueryOutcome outcome;
    outcome.issued_at = static_cast<SimTime>(payload.a);
    outcome.completed_at = sim_->Now();
    outcome.ok = payload.b != 0;
    outcome.source = outcome.ok ? 0 : 3;
    driver_->RecordOutcome(outcome);
  }

 private:
  Simulator* sim_;
  QueryDriver* driver_ = nullptr;
  int issued_ = 0;
};

TEST(QueryDriverTest, RecordsOutcomesAndHistogramDeterministically) {
  auto run = [] {
    Simulator sim;
    QueryDriverParams params;
    params.mix.queries_per_hour = 360.0;
    params.mix.num_sensors = 16;
    params.mix.seed = 77;
    DelayedCompletions system(&sim);
    QueryDriver driver(&sim, params, [&system](const QueryRequest&) { system.Issue(); });
    system.Bind(&driver);
    driver.Start(Hours(1));
    sim.RunAll();
    return std::make_pair(driver.stats().latency.Hash(), driver.stats().completed);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.second, 100u);
  EXPECT_EQ(a.first, b.first) << "same seed must reproduce the histogram";
}

TEST(LatencyHistogramTest, BucketsMergeAndCompare) {
  LatencyHistogram a;
  a.Record(Millis(1));   // [1024us, 2048us)
  a.Record(Millis(1.5));
  a.Record(Millis(100));
  LatencyHistogram b;
  b.Record(Millis(1));
  EXPECT_NE(a, b);
  b.Record(Millis(1.2));
  b.Record(Millis(100));
  EXPECT_EQ(a, b) << "same buckets must compare equal even for different values";
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.TotalCount(), 3u);
  LatencyHistogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.TotalCount(), 6u);
}

// ---------- federation scenarios ----------

FederationConfig SmallFederation(int num_cells, int proxies, int sensors_per_proxy) {
  FederationConfig config;
  config.num_cells = num_cells;
  config.cell.num_proxies = proxies;
  config.cell.sensors_per_proxy = sensors_per_proxy;
  config.cell.enable_replication = true;
  config.cell.replication_factor = 2;
  config.cell.promotion_delay = Seconds(10);
  config.epoch = Seconds(1);
  config.seed = 90125;
  return config;
}

TEST(FederationTest, AutoEpochDerivesFromTrunkLatencyAndCellCap) {
  // With lookahead derivation on, the federation steps at the fastest trunk's
  // latency (the conservative bound), floored at the cells' configured lane epoch:
  // barrier clamping then never distorts cross-cell delivery times.
  FederationConfig config = SmallFederation(2, 2, 2);
  config.auto_epoch = true;
  config.epoch = Seconds(1);
  config.link.latency = Millis(250);
  config.cell.lane_engine = true;
  config.cell.sim_epoch = Millis(250);
  {
    Federation fed(config);
    EXPECT_EQ(fed.config().epoch, Millis(250));
  }
  // The cell cap floors the derivation: a trunk faster than the cells can step
  // must not drive the federation below their grid.
  config.cell.sim_epoch = Millis(400);
  {
    Federation fed(config);
    EXPECT_EQ(fed.config().epoch, Millis(400));
  }
  // Legacy (single-queue) cells report kNoEpochGrid — explicitly "no constraint",
  // so the trunk latency alone decides.
  config.cell.lane_engine = false;
  {
    Federation fed(config);
    EXPECT_EQ(fed.cell(0).sim().epoch(), Simulator::kNoEpochGrid);
    EXPECT_EQ(fed.config().epoch, Millis(250));
  }
}

TEST(FederationTest, LocalAndCrossCellQueriesRouteThroughTheDirectory) {
  Federation fed(SmallFederation(2, 2, 4));
  fed.Start();
  fed.RunUntil(Hours(2));

  // Local: a sensor in the origin cell never touches a trunk.
  FederationQuerySpec local;
  local.fed_sensor = 1;
  local.tolerance = 3.0;
  const FederationQueryResult local_result = fed.QueryAndWait(0, local);
  ASSERT_TRUE(local_result.cell.answer.status.ok());
  EXPECT_FALSE(local_result.cross_cell);
  EXPECT_EQ(local_result.target_cell, 0);
  EXPECT_EQ(fed.stats().forwarded, 0u);

  // Cross-cell: a sensor in cell 1 queried from cell 0 rides both trunks and pays
  // at least two propagation latencies (clamped up to federation barriers).
  FederationQuerySpec remote;
  remote.fed_sensor = fed.directory().FedIndexOf(1, 3);
  remote.tolerance = 3.0;
  const FederationQueryResult remote_result = fed.QueryAndWait(0, remote);
  ASSERT_TRUE(remote_result.cell.answer.status.ok());
  EXPECT_TRUE(remote_result.cross_cell);
  EXPECT_EQ(remote_result.target_cell, 1);
  EXPECT_GE(remote_result.Latency(), 2 * fed.config().link.latency);
  EXPECT_EQ(fed.stats().forwarded, 1u);
  EXPECT_GE(fed.link(0, 1).stats().messages, 1u);
  EXPECT_GE(fed.link(1, 0).stats().messages, 1u);
  EXPECT_EQ(fed.stats().failed, 0u);
}

TEST(FederationTest, CrossCellQueriesSurviveTargetProxyKillMidStream) {
  Federation fed(SmallFederation(2, 4, 4));
  fed.Start();
  fed.RunUntil(Hours(2));

  // Open-loop driver entering at cell 0, targeting the whole namespace (so a steady
  // share of its queries crosses into cell 1), running through the kill below.
  QueryDriverParams params;
  params.mix.queries_per_hour = 1800.0;  // one every 2 s
  params.mix.num_sensors = 0;            // whole federation namespace
  params.mix.past_fraction = 0.0;
  params.mix.min_tolerance = 2.0;
  params.mix.max_tolerance = 3.0;
  params.mix.seed = 4242;
  QueryDriver& driver = fed.AttachQueryDriver(0, params);
  driver.Start(Minutes(10));

  fed.RunUntil(fed.Now() + Minutes(2));
  // Kill one of cell 1's proxies mid-stream: its shard must keep answering through
  // the in-cell replica chain, then first-class again after promotion.
  fed.cell(1).KillProxy(0);
  fed.RunUntil(fed.Now() + Minutes(4));
  fed.cell(1).ReviveProxy(0);
  fed.RunUntil(fed.Now() + Minutes(6));

  EXPECT_GT(driver.stats().issued, 250u);
  EXPECT_EQ(driver.stats().completed, driver.stats().issued);
  EXPECT_GT(driver.stats().cross_cell, 50u);
  EXPECT_EQ(driver.stats().failed, 0u)
      << "in-cell failover must keep every cross-cell query answerable";
  EXPECT_GT(fed.cell(1).shard_stats().promotions, 0u);

  // And a direct probe into the killed proxy's shard while it is down again, from
  // the other cell, rides the replica chain.
  fed.cell(1).KillProxy(0);
  const int victim_sensor =
      fed.directory().FedIndexOf(1, fed.cell(1).shard().SensorsOf(0).front());
  FederationQuerySpec probe;
  probe.fed_sensor = victim_sensor;
  probe.tolerance = 3.0;
  const FederationQueryResult probed = fed.QueryAndWait(0, probe);
  ASSERT_TRUE(probed.cell.answer.status.ok());
  EXPECT_TRUE(probed.cross_cell);
  EXPECT_TRUE(probed.cell.used_replica);
}

TEST(FederationTest, KilledCellFailsFastAndRevives) {
  Federation fed(SmallFederation(2, 2, 2));
  fed.Start();
  fed.RunUntil(Hours(1));

  fed.KillCell(1);
  FederationQuerySpec spec;
  spec.fed_sensor = fed.directory().FedIndexOf(1, 0);
  spec.tolerance = 3.0;
  const FederationQueryResult dark = fed.QueryAndWait(0, spec);
  EXPECT_FALSE(dark.cell.answer.status.ok())
      << "a fully killed cell's namespace block must fail, not hang";
  EXPECT_EQ(fed.stats().failed, 1u);

  // The other cell is untouched.
  FederationQuerySpec alive;
  alive.fed_sensor = 0;
  alive.tolerance = 3.0;
  EXPECT_TRUE(fed.QueryAndWait(0, alive).cell.answer.status.ok());

  fed.ReviveCell(1);
  fed.RunUntil(fed.Now() + Minutes(10));
  const FederationQueryResult back = fed.QueryAndWait(0, spec);
  EXPECT_TRUE(back.cell.answer.status.ok()) << back.cell.answer.status.message();
}

// ---------- determinism across worker counts ----------

struct FedDigest {
  uint64_t fingerprint = 0;
  uint64_t histogram = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cross_cell = 0;
};

// A full scenario on lane-engine cells: two gateways driving, a mid-stream proxy
// kill + revive in each cell, and cross-cell traffic throughout. cell_threads = 1
// is sequential cell stepping; > 1 steps the cells concurrently on the federation
// pool inside each epoch.
FedDigest RunLaneFederation(int sim_threads, int cell_threads = 1) {
  FederationConfig config = SmallFederation(2, 8, 2);
  config.cell.lane_engine = true;
  config.cell.sim_threads = sim_threads;
  config.cell.sim_epoch = Millis(500);
  config.cell_threads = cell_threads;
  Federation fed(config);
  fed.Start();

  QueryDriverParams params;
  params.mix.queries_per_hour = 1200.0;
  params.mix.num_sensors = 0;  // whole federation namespace
  params.mix.past_fraction = 0.2;
  params.mix.mean_past_age = Minutes(20);
  params.mix.max_past_age = Minutes(40);
  params.mix.min_tolerance = 2.0;
  params.mix.max_tolerance = 3.0;
  std::vector<QueryDriver*> drivers;
  for (int c = 0; c < fed.num_cells(); ++c) {
    QueryDriverParams p = params;
    p.mix.seed = 5150 + static_cast<uint64_t>(c);
    drivers.push_back(&fed.AttachQueryDriver(c, p));
  }
  fed.RunUntil(Hours(1));
  for (QueryDriver* driver : drivers) {
    driver->Start(Minutes(12));
  }
  fed.RunUntil(fed.Now() + Minutes(3));
  fed.cell(0).KillProxy(2);
  fed.cell(1).KillProxy(5);
  fed.RunUntil(fed.Now() + Minutes(4));
  fed.cell(0).ReviveProxy(2);
  fed.cell(1).ReviveProxy(5);
  fed.RunUntil(fed.Now() + Minutes(8));

  FedDigest digest;
  digest.fingerprint = fed.fingerprint();
  LatencyHistogram merged;
  for (QueryDriver* driver : drivers) {
    merged.Merge(driver->stats().latency);
    digest.issued += driver->stats().issued;
    digest.completed += driver->stats().completed;
    digest.failed += driver->stats().failed;
    digest.cross_cell += driver->stats().cross_cell;
  }
  digest.histogram = merged.Hash();
  return digest;
}

TEST(FederationDeterminismTest, FingerprintAndHistogramIdenticalAcrossWorkerCounts) {
  const FedDigest one = RunLaneFederation(1);
  EXPECT_GT(one.issued, 200u);
  EXPECT_EQ(one.completed, one.issued);
  EXPECT_EQ(one.failed, 0u);
  EXPECT_GT(one.cross_cell, 50u);
  const FedDigest rerun = RunLaneFederation(1);
  EXPECT_EQ(one.fingerprint, rerun.fingerprint) << "same seed must replay";
  EXPECT_EQ(one.histogram, rerun.histogram);
  const FedDigest eight = RunLaneFederation(8);
  EXPECT_EQ(one.fingerprint, eight.fingerprint)
      << "federation fingerprint must not depend on the worker count";
  EXPECT_EQ(one.histogram, eight.histogram)
      << "latency histogram must not depend on the worker count";
  EXPECT_EQ(one.issued, eight.issued);
  EXPECT_EQ(one.completed, eight.completed);
  EXPECT_EQ(one.failed, eight.failed);
  EXPECT_EQ(one.cross_cell, eight.cross_cell);
}

TEST(FederationDeterminismTest, CellParallelSteppingMatchesSequential) {
  // The same driven kill/revive scenario, sequential vs cell-parallel stepping
  // across {1, 2, 8} host threads (2 cells clamp 8 down to 2 — the over-provisioned
  // pool must behave identically), with the lane engine threaded underneath too.
  const FedDigest sequential = RunLaneFederation(/*sim_threads=*/2,
                                                 /*cell_threads=*/1);
  EXPECT_GT(sequential.issued, 200u);
  EXPECT_EQ(sequential.completed, sequential.issued);
  for (int cell_threads : {2, 8}) {
    const FedDigest parallel = RunLaneFederation(/*sim_threads=*/2, cell_threads);
    EXPECT_EQ(sequential.fingerprint, parallel.fingerprint)
        << "fingerprint diverged at cell_threads=" << cell_threads;
    EXPECT_EQ(sequential.histogram, parallel.histogram)
        << "latency histogram diverged at cell_threads=" << cell_threads;
    EXPECT_EQ(sequential.issued, parallel.issued);
    EXPECT_EQ(sequential.completed, parallel.completed);
    EXPECT_EQ(sequential.failed, parallel.failed);
    EXPECT_EQ(sequential.cross_cell, parallel.cross_cell);
  }
}

// ---------- pending-query-table contention ----------

TEST(FederationTest, PendingTableSurvivesCrossCellContentionThroughOneGateway) {
  // One gateway floods the whole namespace of a 4-cell federation while the cells
  // step concurrently: issue/finalize run on cell 0's control lane while execute/
  // answer ops for earlier queries run on cells 1..3 — many in-flight qids hitting
  // the sharded pending table from four threads at once. Arrivals ride the control
  // step, so a single driver is clamped to the barrier cadence no matter its rate;
  // eight drivers on the same gateway flood several concurrent qids per epoch.
  // Each gateway owns its own single-writer pending table (indexed by target cell
  // for the kill sweep), so every query must complete exactly once (an entry lost
  // or double-finalized trips the driver accounting or a PRESTO_CHECK), and the
  // outcome must be bit-identical to sequential stepping.
  auto run = [](int cell_threads) {
    FederationConfig config = SmallFederation(4, 2, 4);
    config.cell.lane_engine = true;
    config.cell.sim_threads = 2;
    config.cell.sim_epoch = Millis(500);
    config.cell_threads = cell_threads;
    Federation fed(config);
    fed.Start();
    fed.RunUntil(Hours(1));

    QueryDriverParams params;
    params.mix.queries_per_hour = 72000.0;  // saturate every control step
    params.mix.num_sensors = 0;             // whole namespace: ~3/4 cross-cell
    params.mix.past_fraction = 0.1;
    params.mix.mean_past_age = Minutes(10);
    params.mix.max_past_age = Minutes(30);
    params.mix.min_tolerance = 2.0;
    params.mix.max_tolerance = 3.0;
    std::vector<QueryDriver*> drivers;
    for (int d = 0; d < 8; ++d) {
      QueryDriverParams p = params;
      p.mix.seed = 777 + static_cast<uint64_t>(d);
      drivers.push_back(&fed.AttachQueryDriver(0, p));
    }
    for (QueryDriver* driver : drivers) {
      driver->Start(Minutes(3));
    }
    fed.RunUntil(fed.Now() + Minutes(5));

    struct Out {
      uint64_t issued = 0, completed = 0, failed = 0, cross_cell = 0;
      uint64_t histogram = 0, fingerprint = 0;
      FederationStats stats;
    };
    Out out;
    LatencyHistogram merged;
    for (QueryDriver* driver : drivers) {
      out.issued += driver->stats().issued;
      out.completed += driver->stats().completed;
      out.failed += driver->stats().failed;
      out.cross_cell += driver->stats().cross_cell;
      merged.Merge(driver->stats().latency);
    }
    out.histogram = merged.Hash();
    out.fingerprint = fed.fingerprint();
    out.stats = fed.stats();
    return out;
  };
  const auto parallel = run(4);
  EXPECT_GT(parallel.issued, 3000u);
  EXPECT_EQ(parallel.completed, parallel.issued)
      << "every flooded query must finalize exactly once";
  EXPECT_EQ(parallel.failed, 0u);
  EXPECT_GT(parallel.cross_cell, parallel.issued / 2);
  EXPECT_EQ(parallel.stats.queries, parallel.issued);
  EXPECT_EQ(parallel.stats.forwarded, parallel.cross_cell);

  const auto sequential = run(1);
  EXPECT_EQ(sequential.fingerprint, parallel.fingerprint);
  EXPECT_EQ(sequential.histogram, parallel.histogram);
  EXPECT_EQ(sequential.issued, parallel.issued);
  EXPECT_EQ(sequential.failed, parallel.failed);
}

// ---------- cells as processes ----------

// Spawns n `presto_cell --listen 0` worker processes on localhost and fills a
// FederationConfig's endpoint map with them; SIGKILLs whatever is still running
// on destruction. The live TCP analogue of fork-mode cell_processes.
struct ScopedSocketWorkers {
  std::vector<SpawnedCellWorker> workers;

  explicit ScopedSocketWorkers(int n) {
    for (int i = 0; i < n; ++i) {
      auto spawned = SpawnCellWorkerListening();
      PRESTO_CHECK_MSG(spawned.ok(), "failed to spawn a --listen presto_cell");
      workers.push_back(*spawned);
    }
  }
  ~ScopedSocketWorkers() {
    for (SpawnedCellWorker& worker : workers) {
      StopCellWorker(worker);
    }
  }
  ScopedSocketWorkers(const ScopedSocketWorkers&) = delete;
  ScopedSocketWorkers& operator=(const ScopedSocketWorkers&) = delete;

  void Fill(FederationConfig* config) const {
    for (size_t i = 0; i < workers.size(); ++i) {
      config->cell_endpoints[i] = MakeFedEndpoint("127.0.0.1", workers[i].port);
    }
    config->num_endpoints = static_cast<int>(workers.size());
  }
};

// A driven kill/revive scenario built entirely on the mode-independent facade
// (AttachDriver / StartDriver / DriverStats / KillProxyInCell / KillCell /
// QueryAndWait), so the identical code runs whether the cells live in this
// process (sequential or cell-parallel) or in forked presto_cell workers.
FedDigest RunFacadeFederation(int cell_threads, int cell_processes,
                              int sockets = 0) {
  FederationConfig config = SmallFederation(4, 4, 2);
  config.cell.lane_engine = true;
  config.cell.sim_epoch = Millis(500);
  config.cell_threads = cell_threads;
  config.cell_processes = cell_processes;
  // Socket mode: the same scenario with the cells living in spawned --listen
  // workers reached over localhost TCP instead of forked socketpair children.
  std::unique_ptr<ScopedSocketWorkers> socket_workers;
  if (sockets > 0) {
    socket_workers = std::make_unique<ScopedSocketWorkers>(sockets);
    socket_workers->Fill(&config);
  }
  Federation fed(config);

  QueryDriverParams params;
  params.mix.queries_per_hour = 1200.0;
  params.mix.num_sensors = 0;  // whole federation namespace
  params.mix.past_fraction = 0.2;
  params.mix.mean_past_age = Minutes(20);
  params.mix.max_past_age = Minutes(40);
  params.mix.min_tolerance = 2.0;
  params.mix.max_tolerance = 3.0;
  std::vector<int> drivers;
  for (int c = 0; c < fed.num_cells(); c += 2) {  // gateways at cells 0 and 2
    QueryDriverParams p = params;
    p.mix.seed = 6060 + static_cast<uint64_t>(c);
    drivers.push_back(fed.AttachDriver(c, p));
  }
  fed.Start();
  fed.RunUntil(Hours(1));
  for (const int d : drivers) {
    fed.StartDriver(d, Minutes(12));
  }
  fed.RunUntil(fed.Now() + Minutes(2));
  fed.KillProxyInCell(1, 0);  // in-cell failover under cross-cell load
  fed.RunUntil(fed.Now() + Minutes(2));
  fed.KillCell(3);  // whole-cell outage: queries toward it fail fast
  fed.RunUntil(fed.Now() + Minutes(2));
  fed.ReviveProxyInCell(1, 0);
  fed.ReviveCell(3);
  fed.RunUntil(fed.Now() + Minutes(3));

  // A host probe rides whichever seam is active (closure in-process, kInject +
  // host_done fold across the process boundary) — and must not perturb replay.
  FederationQuerySpec probe;
  probe.fed_sensor = fed.directory().FedIndexOf(2, 1);
  probe.tolerance = 3.0;
  const FederationQueryResult probed = fed.QueryAndWait(0, probe);
  EXPECT_TRUE(probed.cell.answer.status.ok()) << probed.cell.answer.status.message();
  EXPECT_TRUE(probed.cross_cell);
  fed.RunUntil(fed.Now() + Minutes(3));

  FedDigest digest;
  digest.fingerprint = fed.fingerprint();
  LatencyHistogram merged;
  for (const int d : drivers) {
    const QueryDriverStats stats = fed.DriverStats(d);
    merged.Merge(stats.latency);
    digest.issued += stats.issued;
    digest.completed += stats.completed;
    digest.failed += stats.failed;
    digest.cross_cell += stats.cross_cell;
  }
  digest.histogram = merged.Hash();
  return digest;
}

TEST(FederationProcessModeTest, MultiProcessSteppingMatchesInProcess) {
  const FedDigest in_process = RunFacadeFederation(/*cell_threads=*/1,
                                                   /*cell_processes=*/1);
  EXPECT_GT(in_process.issued, 200u);
  EXPECT_EQ(in_process.completed, in_process.issued);
  EXPECT_GT(in_process.cross_cell, 50u);
  EXPECT_GT(in_process.failed, 0u) << "the cell-3 outage must fail some queries";

  // Threaded in-process stepping through the same facade, then worker processes
  // at even, uneven (4 cells over 3 workers), and one-cell-per-worker splits:
  // fingerprint and histogram must be bit-identical in every mode.
  const FedDigest threaded = RunFacadeFederation(/*cell_threads=*/8,
                                                 /*cell_processes=*/1);
  EXPECT_EQ(in_process.fingerprint, threaded.fingerprint);
  EXPECT_EQ(in_process.histogram, threaded.histogram);
  for (const int procs : {2, 3, 4}) {
    const FedDigest multi = RunFacadeFederation(/*cell_threads=*/1, procs);
    EXPECT_EQ(in_process.fingerprint, multi.fingerprint)
        << "fingerprint diverged at cell_processes=" << procs;
    EXPECT_EQ(in_process.histogram, multi.histogram)
        << "latency histogram diverged at cell_processes=" << procs;
    EXPECT_EQ(in_process.issued, multi.issued);
    EXPECT_EQ(in_process.completed, multi.completed);
    EXPECT_EQ(in_process.failed, multi.failed);
    EXPECT_EQ(in_process.cross_cell, multi.cross_cell);
  }
  // Socket transport (spawned --listen workers over localhost TCP), even and
  // uneven splits: the transport under the seam must not be observable either.
  for (const int sockets : {3, 4}) {
    const FedDigest socket =
        RunFacadeFederation(/*cell_threads=*/1, /*cell_processes=*/1, sockets);
    EXPECT_EQ(in_process.fingerprint, socket.fingerprint)
        << "fingerprint diverged at sockets=" << sockets;
    EXPECT_EQ(in_process.histogram, socket.histogram)
        << "latency histogram diverged at sockets=" << sockets;
    EXPECT_EQ(in_process.issued, socket.issued);
    EXPECT_EQ(in_process.completed, socket.completed);
    EXPECT_EQ(in_process.failed, socket.failed);
    EXPECT_EQ(in_process.cross_cell, socket.cross_cell);
  }
}

TEST(FederationProcessModeTest, WorkerCrashSurfacesAsCellFailure) {
  FederationConfig config = SmallFederation(4, 2, 2);
  config.cell_processes = 4;
  Federation fed(config);
  fed.Start();
  fed.RunUntil(Hours(1));
  ASSERT_EQ(fed.num_workers(), 4);
  ASSERT_TRUE(fed.worker_alive(1));

  // SIGKILL, not kShutdown: no goodbye frame, just a torn channel. The next
  // barrier must detect it and keep going — a crashed worker is a deployment-
  // visible cell failure, never a federation hang or a parent abort.
  ASSERT_EQ(::kill(fed.worker_pid(1), SIGKILL), 0);
  fed.RunUntil(fed.Now() + Minutes(5));
  EXPECT_FALSE(fed.worker_alive(1));
  EXPECT_TRUE(fed.worker_alive(0));

  // Queries toward the dead worker's cell fail fast at their origin gateway.
  FederationQuerySpec dark;
  dark.fed_sensor = fed.directory().FedIndexOf(1, 0);
  dark.tolerance = 3.0;
  const FederationQueryResult toward = fed.QueryAndWait(0, dark);
  EXPECT_FALSE(toward.cell.answer.status.ok())
      << "a crashed worker's namespace block must fail, not hang";

  // Probes *from* the dead cell fail cleanly too (no frame can reach it).
  const FederationQueryResult from = fed.QueryAndWait(1, dark);
  EXPECT_FALSE(from.cell.answer.status.ok());

  // The surviving cells keep serving local and cross-cell traffic.
  FederationQuerySpec alive;
  alive.fed_sensor = fed.directory().FedIndexOf(2, 1);
  alive.tolerance = 3.0;
  EXPECT_TRUE(fed.QueryAndWait(3, alive).cell.answer.status.ok());

  // Telemetry stays serveable and stable: the dead worker's cells freeze at
  // their last folded values instead of vanishing or wedging the fold.
  const uint64_t fp = fed.fingerprint();
  EXPECT_EQ(fp, fed.fingerprint());
  fed.RunUntil(fed.Now() + Minutes(2));
  EXPECT_GT(fed.EventsExecuted(), 0u);

  // A checkpoint of a degraded federation is refused (a crashed worker's cells
  // cannot be serialized), not silently partial.
  Checkpoint ckpt;
  EXPECT_FALSE(fed.SaveCheckpoint(&ckpt).ok());
}

TEST(FederationProcessModeTest, CrossModeCheckpointMigration) {
  // The checkpoint container is the live-migration format: bytes written by an
  // in-process federation restore into worker processes and vice versa, and both
  // modes serialize the same scenario to the same Digest().
  auto fresh = [](int cell_processes) {
    FederationConfig config = SmallFederation(2, 2, 4);
    config.cell_processes = cell_processes;
    auto fed = std::make_unique<Federation>(config);
    for (int c = 0; c < 2; ++c) {
      QueryDriverParams p;
      p.mix.queries_per_hour = 1200.0;
      p.mix.num_sensors = 0;
      p.mix.past_fraction = 0.1;
      p.mix.mean_past_age = Minutes(5);
      p.mix.max_past_age = Minutes(8);
      p.mix.min_tolerance = 2.0;
      p.mix.max_tolerance = 3.0;
      p.mix.seed = 31337 + static_cast<uint64_t>(c);
      fed->AttachDriver(c, p);
    }
    fed->Start();
    return fed;
  };
  auto prefix = [&](int cell_processes) {
    auto fed = fresh(cell_processes);
    fed->RunUntil(Minutes(10));
    fed->StartDriver(0, Minutes(10));
    fed->StartDriver(1, Minutes(10));
    fed->RunUntil(Minutes(13));
    fed->KillProxyInCell(1, 0);  // save mid-failover, queries in flight
    fed->RunUntil(Minutes(14));
    return fed;
  };
  auto finish = [](Federation& fed) {
    fed.ReviveProxyInCell(1, 0);
    fed.RunUntil(Minutes(25));
    FedDigest digest;
    digest.fingerprint = fed.fingerprint();
    LatencyHistogram merged;
    for (int d = 0; d < fed.num_drivers(); ++d) {
      const QueryDriverStats stats = fed.DriverStats(d);
      merged.Merge(stats.latency);
      digest.issued += stats.issued;
      digest.completed += stats.completed;
      digest.failed += stats.failed;
    }
    digest.histogram = merged.Hash();
    return digest;
  };

  // Same prefix in both modes => byte-identical checkpoint containers.
  auto in_proc = prefix(1);
  Checkpoint from_in_proc;
  ASSERT_TRUE(in_proc->SaveCheckpoint(&from_in_proc).ok());
  auto multi = prefix(2);
  Checkpoint from_multi;
  ASSERT_TRUE(multi->SaveCheckpoint(&from_multi).ok());
  EXPECT_EQ(from_in_proc.Digest(), from_multi.Digest())
      << "checkpoint bytes must not depend on the execution mode";

  // Uninterrupted reference: the in-process run just keeps going.
  const FedDigest reference = finish(*in_proc);
  EXPECT_GT(reference.issued, 100u);
  EXPECT_EQ(reference.completed, reference.issued);

  // Migrate each way: in-process bytes into workers, worker bytes in-process.
  auto migrated_out = fresh(2);
  ASSERT_TRUE(migrated_out->LoadCheckpoint(from_in_proc).ok());
  auto migrated_in = fresh(1);
  ASSERT_TRUE(migrated_in->LoadCheckpoint(from_multi).ok());

  // Restoring the same bytes into either mode must re-serialize identically:
  // load canonicalizes (event-pool layout is rebuilt, so the resave need not
  // equal the original container), but the canonical form cannot depend on
  // whether the cells live in-process or in workers.
  Checkpoint resaved_out;
  ASSERT_TRUE(migrated_out->SaveCheckpoint(&resaved_out).ok());
  Checkpoint resaved_in;
  {
    auto reload = fresh(1);
    ASSERT_TRUE(reload->LoadCheckpoint(from_in_proc).ok());
    ASSERT_TRUE(reload->SaveCheckpoint(&resaved_in).ok());
  }
  EXPECT_EQ(resaved_out.Digest(), resaved_in.Digest());

  const FedDigest out_digest = finish(*migrated_out);
  const FedDigest in_digest = finish(*migrated_in);
  EXPECT_EQ(reference.fingerprint, out_digest.fingerprint)
      << "in-process checkpoint must replay inside worker processes";
  EXPECT_EQ(reference.fingerprint, in_digest.fingerprint)
      << "worker checkpoint must replay in-process";
  EXPECT_EQ(reference.histogram, out_digest.histogram);
  EXPECT_EQ(reference.histogram, in_digest.histogram);
  EXPECT_EQ(reference.issued, out_digest.issued);
  EXPECT_EQ(reference.issued, in_digest.issued);
}

// ---------- socket transport ----------

TEST(FederationSocketModeTest, DeadTcpPeerSurfacesAsCellFailure) {
  // The TCP twin of WorkerCrashSurfacesAsCellFailure: SIGKILLing a --listen
  // worker tears the connection (RST/EOF, no goodbye frame), and the next
  // barrier must degrade it into a contained cell failure — fail-fast queries,
  // frozen telemetry, refused checkpoints — never a hang.
  ScopedSocketWorkers workers(4);
  FederationConfig config = SmallFederation(4, 2, 2);
  workers.Fill(&config);
  Federation fed(config);
  fed.Start();
  fed.RunUntil(Hours(1));
  ASSERT_EQ(fed.num_workers(), 4);
  ASSERT_TRUE(fed.worker_alive(1));

  const auto killed_at = std::chrono::steady_clock::now();
  StopCellWorker(workers.workers[1]);
  fed.RunUntil(fed.Now() + Minutes(5));
  const auto contained =
      std::chrono::steady_clock::now() - killed_at;
  EXPECT_FALSE(fed.worker_alive(1));
  EXPECT_TRUE(fed.worker_alive(0));
  // Abrupt peer death is an immediate RST/EOF, nowhere near the 30 s deadline.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(contained).count(), 20);

  FederationQuerySpec dark;
  dark.fed_sensor = fed.directory().FedIndexOf(1, 0);
  dark.tolerance = 3.0;
  EXPECT_FALSE(fed.QueryAndWait(0, dark).cell.answer.status.ok())
      << "a dead TCP worker's namespace block must fail, not hang";
  EXPECT_FALSE(fed.QueryAndWait(1, dark).cell.answer.status.ok());

  FederationQuerySpec alive;
  alive.fed_sensor = fed.directory().FedIndexOf(2, 1);
  alive.tolerance = 3.0;
  EXPECT_TRUE(fed.QueryAndWait(3, alive).cell.answer.status.ok());

  const uint64_t fp = fed.fingerprint();
  EXPECT_EQ(fp, fed.fingerprint());
  fed.RunUntil(fed.Now() + Minutes(2));
  EXPECT_GT(fed.EventsExecuted(), 0u);

  // Degraded-save refusal holds over TCP exactly as it does for fork workers.
  Checkpoint ckpt;
  EXPECT_FALSE(fed.SaveCheckpoint(&ckpt).ok());
}

TEST(FederationSocketModeTest, FrameDeadlineContainsAStalledPeer) {
  // A SIGSTOPped worker is the nasty case TCP cannot surface on its own: the
  // kernel keeps ACKing into the socket buffers, so without deadlines the
  // orchestrator would block in recv() forever. The per-frame deadline must
  // degrade it into the standard contained cell failure within bounded time.
  ScopedSocketWorkers workers(2);
  FederationConfig config = SmallFederation(2, 2, 2);
  workers.Fill(&config);
  config.frame_deadline = Millis(250);
  Federation fed(config);
  fed.Start();
  fed.RunUntil(Hours(1));
  ASSERT_TRUE(fed.worker_alive(1));

  ASSERT_EQ(::kill(static_cast<pid_t>(workers.workers[1].pid), SIGSTOP), 0);
  const auto stalled_at = std::chrono::steady_clock::now();
  fed.RunUntil(fed.Now() + Minutes(1));
  const auto contained = std::chrono::steady_clock::now() - stalled_at;
  EXPECT_FALSE(fed.worker_alive(1));
  EXPECT_TRUE(fed.worker_alive(0));
  // One deadline per frame, a handful of frames in flight at the detection
  // barrier: containment lands in ~one deadline, never minutes.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(contained).count(),
            10000);

  FederationQuerySpec dark;
  dark.fed_sensor = fed.directory().FedIndexOf(1, 0);
  dark.tolerance = 3.0;
  EXPECT_FALSE(fed.QueryAndWait(0, dark).cell.answer.status.ok());
  FederationQuerySpec alive;
  alive.fed_sensor = 0;
  alive.tolerance = 3.0;
  EXPECT_TRUE(fed.QueryAndWait(0, alive).cell.answer.status.ok());
}

// ---------- chaos: seeded kill schedules across the three execution modes ----

// Tiny deterministic RNG for kill schedules (no libc rand state shared with the
// code under test).
struct Pcg32 {
  uint64_t state;
  explicit Pcg32(uint64_t seed)
      : state(seed * 0x9e3779b97f4a7c15ull + 1442695040888963407ull) {}
  uint32_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t xorshifted = static_cast<uint32_t>(((state >> 18u) ^ state) >> 27u);
    uint32_t rot = static_cast<uint32_t>(state >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }
  int Below(int bound) { return static_cast<int>(Next() % static_cast<uint32_t>(bound)); }
};

struct KillEvent {
  SimTime at = 0;  // on the epoch grid; the kill lands between RunUntil calls
  int cell = 0;    // == worker index (one cell per worker in the chaos runs)
};

// One seeded schedule: two distinct victim cells (never the gateway cells 0 and
// 2), each at a distinct epoch barrier inside the driven window.
std::vector<KillEvent> ChaosSchedule(uint64_t seed) {
  Pcg32 rng(seed);
  const int candidates[] = {1, 3, 4, 5};
  const int first = rng.Below(4);
  int second = rng.Below(3);
  if (second >= first) {
    ++second;
  }
  std::vector<KillEvent> kills;
  kills.push_back({Hours(1) + Minutes(3) + Seconds(rng.Below(60)), candidates[first]});
  kills.push_back({Hours(1) + Minutes(6) + Seconds(rng.Below(60)), candidates[second]});
  return kills;
}

struct ChaosDigest {
  std::vector<uint64_t> survivor_fp;  // CellFingerprint of every never-killed cell
  uint64_t issued = 0, completed = 0, failed = 0, cross_cell = 0;
  uint64_t histogram = 0;
};

enum class ChaosMode {
  kReferenceKillCell,  // in-process; kills injected via the KillCell facade
  kForkSigkill,        // forked workers; kills are SIGKILLs of the host process
  kSocketKill,         // --listen workers; kills tear the TCP connection
};

ChaosDigest RunChaosFederation(ChaosMode mode, uint64_t schedule_seed) {
  const int kCells = 6;
  FederationConfig config = SmallFederation(kCells, 2, 2);
  config.cell.lane_engine = true;
  config.cell.sim_epoch = Millis(500);
  std::unique_ptr<ScopedSocketWorkers> socket_workers;
  if (mode == ChaosMode::kForkSigkill) {
    config.cell_processes = kCells;  // one cell per worker: kill cell == kill worker
  } else if (mode == ChaosMode::kSocketKill) {
    socket_workers = std::make_unique<ScopedSocketWorkers>(kCells);
    socket_workers->Fill(&config);
  }
  Federation fed(config);
  std::vector<int> drivers;
  for (const int c : {0, 2}) {  // gateways never die; victims host no drivers
    QueryDriverParams p;
    p.mix.queries_per_hour = 1800.0;
    p.mix.num_sensors = 0;
    p.mix.past_fraction = 0.1;
    p.mix.mean_past_age = Minutes(10);
    p.mix.max_past_age = Minutes(20);
    p.mix.min_tolerance = 2.0;
    p.mix.max_tolerance = 3.0;
    p.mix.seed = 8686 + static_cast<uint64_t>(c);
    drivers.push_back(fed.AttachDriver(c, p));
  }
  fed.Start();
  fed.RunUntil(Hours(1));
  for (const int d : drivers) {
    fed.StartDriver(d, Minutes(10));
  }

  std::vector<KillEvent> kills = ChaosSchedule(schedule_seed);
  std::vector<uint8_t> down(kCells, 0);
  for (const KillEvent& kill : kills) {
    fed.RunUntil(kill.at);
    if (mode == ChaosMode::kReferenceKillCell) {
      // A killed worker is only *detected* at the next barrier, so the
      // equivalent facade kill lands one epoch after the host-side SIGKILL:
      // survivors treat the victim as alive through the same final epoch.
      fed.RunUntil(kill.at + fed.config().epoch);
      fed.KillCell(kill.cell);
    } else if (mode == ChaosMode::kForkSigkill) {
      PRESTO_CHECK(::kill(fed.worker_pid(kill.cell), SIGKILL) == 0);
    } else {
      StopCellWorker(socket_workers->workers[static_cast<size_t>(kill.cell)]);
    }
    down[static_cast<size_t>(kill.cell)] = 1;
  }
  fed.RunUntil(Hours(1) + Minutes(12));

  // A federation with dead workers refuses to checkpoint (their cells cannot
  // be serialized). In-process KillCell keeps the cells constructible, so the
  // reference mode still saves — the refusal is a worker-liveness property.
  if (mode != ChaosMode::kReferenceKillCell) {
    Checkpoint refused;
    EXPECT_FALSE(fed.SaveCheckpoint(&refused).ok());
  }

  ChaosDigest digest;
  for (int c = 0; c < kCells; ++c) {
    if (!down[static_cast<size_t>(c)]) {
      digest.survivor_fp.push_back(fed.CellFingerprint(c));
    }
  }
  LatencyHistogram merged;
  for (const int d : drivers) {
    const QueryDriverStats stats = fed.DriverStats(d);
    merged.Merge(stats.latency);
    digest.issued += stats.issued;
    digest.completed += stats.completed;
    digest.failed += stats.failed;
    digest.cross_cell += stats.cross_cell;
  }
  digest.histogram = merged.Hash();
  return digest;
}

TEST(FederationChaosTest, SeededWorkerKillsMatchTheKillCellReference) {
  // For each seeded schedule: SIGKILLed fork workers and torn TCP connections
  // must leave every survivor bit-identical to an in-process run where the same
  // cells died by KillCell — the "a dead worker IS a dead cell" contract, fuzzed
  // over kill times and victims instead of hand-picked.
  for (const uint64_t seed : {11ull, 29ull, 47ull}) {
    const ChaosDigest reference =
        RunChaosFederation(ChaosMode::kReferenceKillCell, seed);
    EXPECT_GT(reference.issued, 200u);
    EXPECT_EQ(reference.completed, reference.issued)
        << "every query must finalize (fail-fast counts) even through kills";
    EXPECT_GT(reference.failed, 0u) << "the outages must fail some queries";
    ASSERT_EQ(reference.survivor_fp.size(), 4u);

    for (const ChaosMode mode : {ChaosMode::kForkSigkill, ChaosMode::kSocketKill}) {
      const ChaosDigest chaos = RunChaosFederation(mode, seed);
      ASSERT_EQ(chaos.survivor_fp.size(), reference.survivor_fp.size());
      for (size_t i = 0; i < chaos.survivor_fp.size(); ++i) {
        EXPECT_EQ(chaos.survivor_fp[i], reference.survivor_fp[i])
            << "survivor " << i << " diverged, seed=" << seed
            << " mode=" << static_cast<int>(mode);
      }
      EXPECT_EQ(chaos.issued, reference.issued) << "seed=" << seed;
      EXPECT_EQ(chaos.completed, reference.completed) << "seed=" << seed;
      EXPECT_EQ(chaos.failed, reference.failed) << "seed=" << seed;
      EXPECT_EQ(chaos.cross_cell, reference.cross_cell) << "seed=" << seed;
      EXPECT_EQ(chaos.histogram, reference.histogram) << "seed=" << seed;
    }
  }
}

// ---------- checkpoint migration across the socket seam ----------

TEST(FederationSocketModeTest, CheckpointHopsAcrossAllThreeModes) {
  // in-process save -> socket-worker restore -> fork-worker restore, asserting
  // canonical resave identity at each hop and full replay equality at the end:
  // live migration really is "the same bytes over a different fd".
  auto fresh = [](int cell_processes, const ScopedSocketWorkers* sockets) {
    FederationConfig config = SmallFederation(2, 2, 4);
    config.cell_processes = cell_processes;
    if (sockets != nullptr) {
      sockets->Fill(&config);
    }
    auto fed = std::make_unique<Federation>(config);
    for (int c = 0; c < 2; ++c) {
      QueryDriverParams p;
      p.mix.queries_per_hour = 1200.0;
      p.mix.num_sensors = 0;
      p.mix.past_fraction = 0.1;
      p.mix.mean_past_age = Minutes(5);
      p.mix.max_past_age = Minutes(8);
      p.mix.min_tolerance = 2.0;
      p.mix.max_tolerance = 3.0;
      p.mix.seed = 24601 + static_cast<uint64_t>(c);
      fed->AttachDriver(c, p);
    }
    fed->Start();
    return fed;
  };
  auto finish = [](Federation& fed) {
    fed.RunUntil(Minutes(25));
    FedDigest digest;
    digest.fingerprint = fed.fingerprint();
    LatencyHistogram merged;
    for (int d = 0; d < fed.num_drivers(); ++d) {
      const QueryDriverStats stats = fed.DriverStats(d);
      merged.Merge(stats.latency);
      digest.issued += stats.issued;
      digest.completed += stats.completed;
      digest.failed += stats.failed;
    }
    digest.histogram = merged.Hash();
    return digest;
  };

  // Prefix in-process, mid-stream save.
  auto origin = fresh(1, nullptr);
  origin->RunUntil(Minutes(10));
  origin->StartDriver(0, Minutes(10));
  origin->StartDriver(1, Minutes(10));
  origin->RunUntil(Minutes(14));
  Checkpoint hop0;
  ASSERT_TRUE(origin->SaveCheckpoint(&hop0).ok());
  const FedDigest reference = finish(*origin);
  EXPECT_GT(reference.issued, 50u);
  EXPECT_EQ(reference.completed, reference.issued);

  // Hop 1: restore into --listen socket workers; resave must canonicalize to
  // the same bytes an in-process reload resaves.
  Checkpoint hop1;
  FedDigest socket_digest;
  {
    ScopedSocketWorkers workers(2);
    auto socket_fed = fresh(1, &workers);
    ASSERT_TRUE(socket_fed->LoadCheckpoint(hop0).ok());
    ASSERT_TRUE(socket_fed->SaveCheckpoint(&hop1).ok());
    socket_digest = finish(*socket_fed);
  }
  Checkpoint in_proc_resave;
  {
    auto reload = fresh(1, nullptr);
    ASSERT_TRUE(reload->LoadCheckpoint(hop0).ok());
    ASSERT_TRUE(reload->SaveCheckpoint(&in_proc_resave).ok());
  }
  EXPECT_EQ(hop1.Digest(), in_proc_resave.Digest())
      << "socket-worker restore must canonicalize identically to in-process";

  // Hop 2: the socket resave restores into fork workers; same canonical form.
  auto fork_fed = fresh(2, nullptr);
  ASSERT_TRUE(fork_fed->LoadCheckpoint(hop1).ok());
  Checkpoint hop2;
  ASSERT_TRUE(fork_fed->SaveCheckpoint(&hop2).ok());
  EXPECT_EQ(hop2.Digest(), hop1.Digest())
      << "a canonical container must be a resave fixed point across modes";
  const FedDigest fork_digest = finish(*fork_fed);

  EXPECT_EQ(reference.fingerprint, socket_digest.fingerprint)
      << "in-process bytes must replay inside socket workers";
  EXPECT_EQ(reference.fingerprint, fork_digest.fingerprint)
      << "socket-worker bytes must replay inside fork workers";
  EXPECT_EQ(reference.histogram, socket_digest.histogram);
  EXPECT_EQ(reference.histogram, fork_digest.histogram);
  EXPECT_EQ(reference.issued, socket_digest.issued);
  EXPECT_EQ(reference.issued, fork_digest.issued);
}

TEST(FederationSocketModeTest, LiveMigrationToAFreshEndpointReplays) {
  // Mid-run, move worker 1's cells to a brand-new --listen process: checkpoint,
  // shutdown the old endpoint, re-bootstrap + restore over the new fd. The
  // migrated run must stay bit-identical to an unmigrated socket run.
  auto run = [](bool migrate) {
    ScopedSocketWorkers workers(2);
    FederationConfig config = SmallFederation(2, 2, 4);
    workers.Fill(&config);
    Federation fed(config);
    std::vector<int> drivers;
    for (int c = 0; c < 2; ++c) {
      QueryDriverParams p;
      p.mix.queries_per_hour = 1200.0;
      p.mix.num_sensors = 0;
      p.mix.past_fraction = 0.1;
      p.mix.mean_past_age = Minutes(5);
      p.mix.max_past_age = Minutes(8);
      p.mix.min_tolerance = 2.0;
      p.mix.max_tolerance = 3.0;
      p.mix.seed = 1701 + static_cast<uint64_t>(c);
      drivers.push_back(fed.AttachDriver(c, p));
    }
    fed.Start();
    fed.RunUntil(Minutes(10));
    for (const int d : drivers) {
      fed.StartDriver(d, Minutes(10));
    }
    fed.RunUntil(Minutes(14));
    std::unique_ptr<ScopedSocketWorkers> replacement;
    if (migrate) {
      replacement = std::make_unique<ScopedSocketWorkers>(1);
      const Status moved = fed.MigrateWorkerEndpoint(
          1, MakeFedEndpoint("127.0.0.1", replacement->workers[0].port));
      EXPECT_TRUE(moved.ok()) << moved.message();
      EXPECT_TRUE(fed.worker_alive(1));
    }
    fed.RunUntil(Minutes(25));
    FedDigest digest;
    digest.fingerprint = fed.fingerprint();
    LatencyHistogram merged;
    for (const int d : drivers) {
      const QueryDriverStats stats = fed.DriverStats(d);
      merged.Merge(stats.latency);
      digest.issued += stats.issued;
      digest.completed += stats.completed;
      digest.failed += stats.failed;
    }
    digest.histogram = merged.Hash();
    return digest;
  };
  const FedDigest stayed = run(/*migrate=*/false);
  EXPECT_GT(stayed.issued, 50u);
  EXPECT_EQ(stayed.completed, stayed.issued);
  EXPECT_EQ(stayed.failed, 0u);
  const FedDigest moved = run(/*migrate=*/true);
  EXPECT_EQ(stayed.fingerprint, moved.fingerprint)
      << "live migration must be invisible to the simulation";
  EXPECT_EQ(stayed.histogram, moved.histogram);
  EXPECT_EQ(stayed.issued, moved.issued);
  EXPECT_EQ(stayed.completed, moved.completed);
  EXPECT_EQ(stayed.failed, moved.failed);
}

// ---------- worker bootstrap validation ----------

TEST(CellWorkerTest, BootstrapRefusesConfigsACellWouldAbortOn) {
  // A --listen worker accepts frames from any peer, so every config that
  // Deployment::Build or Simulator::ConfigureLanes would abort on must come back
  // as a kError reply — and leave the worker serving the same channel.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread worker_thread([fd = fds[1]] {
    FrameChannel channel(fd);
    CellWorker worker(&channel);
    worker.Serve();
  });
  FrameChannel channel(fds[0]);
  auto bootstrap = [&channel](const FederationConfig& config) {
    ByteWriter payload;
    const auto* raw = reinterpret_cast<const uint8_t*>(&config);
    payload.WriteBytes(span<const uint8_t>(raw, sizeof(config)));
    CkptWrite(payload, 0);  // host index
    CkptWrite(payload, 1);  // host count
    FedFrame frame;
    frame.type = FedFrameType::kBootstrap;
    frame.payload = payload.TakeBuffer();
    return channel.Call(frame);
  };
  FederationConfig valid;
  valid.num_cells = 2;
  valid.cell.num_proxies = 2;
  valid.cell.sensors_per_proxy = 2;

  std::vector<FederationConfig> bad(7, valid);
  bad[0].cell.sensors_per_proxy = 1000;  // naming grid caps shards at 999
  bad[1].cell.replication_factor = 0;
  bad[2].cell.lane_engine = true;  // lanes need a positive epoch
  bad[2].cell.sim_epoch = 0;
  bad[3].num_cells = 1 << 16;  // 2^16 cells x 2^12 proxies x 999 sensors > 2^31
  bad[3].cell.num_proxies = 1 << 12;
  bad[3].cell.sensors_per_proxy = 999;
  bad[4].num_cells = 1 << 20;  // population fits int, but ~2 PB of sensor flash
  bad[4].cell.sensors_per_proxy = 999;
  bad[5].cell.flash.num_blocks = 1 << 30;  // 4 TiB of flash per sensor
  bad[6].cell.flash.page_size_bytes = 0;
  for (size_t i = 0; i < bad.size(); ++i) {
    auto reply = bootstrap(bad[i]);
    ASSERT_TRUE(reply.ok()) << "config " << i << " killed the worker";
    ASSERT_EQ(reply->type, FedFrameType::kError) << "config " << i;
    ByteReader r{span<const uint8_t>(reply->payload)};
    Status refusal = OkStatus();
    ASSERT_TRUE(CkptRead(r, refusal).ok());
    EXPECT_EQ(refusal.code(), StatusCode::kInvalidArgument) << "config " << i;
  }
  auto accepted = bootstrap(valid);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->type, FedFrameType::kAck);

  FedFrame bye;
  bye.type = FedFrameType::kShutdown;
  auto closed = channel.Call(bye);
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->type, FedFrameType::kAck);
  worker_thread.join();
}

}  // namespace
}  // namespace presto
