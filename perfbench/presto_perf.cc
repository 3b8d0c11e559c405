// presto_perf: the repository benchmark.
//
//   presto_perf --workload <model_steady|query_storm|cells_procs> --seed <n>
//               --seconds <s> --trace <0|1> [--short] [--drain-s <s>]
//
// Every workload is driven through the public Federation facade only: open-loop
// Poisson query drivers, one per gateway cell, targeting the whole namespace.
// Arrivals are simulator events, so the generator can never run late; there is no
// lateness to report.
//
// --trace 0 measures the end-to-end metrics. One repetition builds a federation,
// starts it and warms it up (set-up, timed as setup_s), then runs a fixed
// simulated window in kChunks slices (timed: sim_s_per_wall_s,
// answers_per_wall_s) and drains it. Repetitions continue until the measured
// windows add up to --seconds (at least kMinReps); wall times are rescaled to a
// reference host speed (see kRefKernelS) and combined by medians. Every
// repetition replays the same simulated world, so the simulated-time metrics are
// taken from the first, and every later one must reproduce its fingerprint and
// latency histogram exactly.
//
// --trace 1 measures the per-layer metrics: a traced repetition between two
// untraced ones. It times the bench's own calls into the facade, steps the window
// one federation epoch per RunUntil call, and reads counts from the public stats
// accessors. For cells_procs a fourth, in-process repetition of the same grid
// supplies the in-process-only counts and the reference step time.
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. The exit code is non-zero when any output check fails.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cell_worker.h"
#include "src/core/federation.h"
#include "src/proxy/proxy_node.h"
#include "src/util/stats.h"

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif

namespace presto {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up is reported as a median, so even a run whose first window already fills
// --seconds builds the federation this many times.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
// The untraced window runs as this many equal RunUntil slices. Each slice's wall
// time is the median over repetitions, and the window's wall time is the sum of
// those medians, so a burst of host noise that hits one slice of one repetition
// is filtered out.
constexpr int kChunks = 8;

// Host-speed reference. The shared virtual host this benchmark was tuned on (4
// vCPUs, Xeon, 300 MiB shared L3) changes speed by up to ±20% over tens of
// seconds as neighbours come and go, which moved every wall-clock figure by more
// than any regression bound can allow. A fixed calibration kernel shaped like the
// simulator's hot path runs before set-up and before each window slice; it is
// part of the benchmark, never of the program. The wall-clock metrics are
// rescaled to a host on which one kernel pass takes kRefKernelS, its median on
// the tuning host, so there they read as measured; the raw figures are printed
// beside them. On that host the rescaling cut the run-to-run spread of
// sim_s_per_wall_s from 11-24% to 2-9%. Samples taken only before and after the
// window tracked the host worse (5-8%). The price of sampling between slices is
// a cache refill at the start of each slice, a few percent of raw throughput,
// paid alike by every commit.
constexpr double kRefKernelS = 0.036;

uint64_t g_ref_sink = 0;  // keeps the kernel's results observable

// Wall time of one pass of the calibration kernel: a binary-heap event queue
// with random reads and writes over 16 MiB, then small-allocation churn (a map
// of growing byte vectors, like the simulator's messages and caches). A linear
// sweep first pulls the table back into cache, so the program's own cache
// footprint does not leak into the reference.
double TimeRefKernel() {
  static std::vector<uint64_t> table(1 << 21);
  for (const uint64_t v : table) {
    g_ref_sink += v;
  }
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ull;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::pair<int64_t, uint32_t>,
                      std::vector<std::pair<int64_t, uint32_t>>, std::greater<>>
      queue;
  for (uint32_t i = 0; i < 4096; ++i) {
    queue.push({static_cast<int64_t>(next() % 1000000), i});
  }
  for (int i = 0; i < 75000; ++i) {
    const auto top = queue.top();
    queue.pop();
    const uint64_t r = next();
    table[r & (table.size() - 1)] += top.second;
    g_ref_sink += table[(r >> 24) & (table.size() - 1)];
    queue.push({top.first + static_cast<int64_t>(r % 50000), top.second});
  }
  std::map<uint32_t, std::vector<uint8_t>> buffers;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t r = next();
    std::vector<uint8_t>& bytes = buffers[static_cast<uint32_t>(r % 8192)];
    for (uint64_t j = 0; j < (r >> 16) % 64; ++j) {
      bytes.push_back(static_cast<uint8_t>(j));
    }
    if ((r >> 32) % 3 == 0) {
      buffers.erase(static_cast<uint32_t>((r >> 40) % 8192));
    }
  }
  g_ref_sink += buffers.size();
  return SecondsSince(t0);
}

enum class Regime {
  kAny,
  kMostlyExtrapolated,  // model_steady: PRESTO's model-answered operating point
  kNeverExtrapolated,   // query_storm: tolerance below every model bound
};

struct Workload {
  const char* name;
  int cells;
  int proxies;
  int sensors_per_proxy;
  int cell_processes;
  double queries_per_hour_per_cell;
  double past_fraction;
  double min_tolerance;
  double max_tolerance;
  Duration warmup;
  Duration window;
  Regime regime;
};

// Why each workload exists (see perfbench/README.md for the full table):
//  - model_steady: PRESTO's intended operating point. The warm-up runs past
//    PredictionEngineParams::min_training_span (26 h), so models are fitted and
//    most NOW answers are extrapolated; host time goes to the per-sample sensing,
//    archive-write and push-check path.
//  - query_storm: the query path does the work (routing, cross-cell trunk hops,
//    unified store, proxy cache, pulls over the LPL radio). Tolerances sit below
//    every model bound, so extrapolation is bypassed; read-heavy where
//    model_steady is write-heavy.
//  - cells_procs: cells forked into presto_cell workers; barrier round trips and
//    fed_wire framing dominate its wall time.
const Workload kWorkloads[] = {
    {"model_steady", 4, 4, 64, 1, 1800.0, 0.2, 1.5, 3.0, Hours(27), Hours(12),
     Regime::kMostlyExtrapolated},
    {"query_storm", 4, 4, 16, 1, 36000.0, 0.5, 0.1, 0.5, Hours(12), Hours(2),
     Regime::kNeverExtrapolated},
    {"cells_procs", 4, 4, 256, 2, 7200.0, 0.2, 1.5, 3.0, Hours(2), Hours(2),
     Regime::kAny},
};

// Short mode: a smoke-sized grid for the self-test (metric names and checks,
// not timings). The model_steady warm-up is kept: its regime needs fitted models.
Workload Shorten(Workload w) {
  w.sensors_per_proxy = std::max(4, w.sensors_per_proxy / 8);
  w.window /= 8;
  return w;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One workload seed derives the federation seed and every driver's mix seed.
uint64_t FederationSeedOf(uint64_t seed) { return SplitMix(seed); }
uint64_t DriverSeedOf(uint64_t seed, int cell) {
  const uint64_t salt = 0xd1e5ull + 0x100000001b3ull * static_cast<uint64_t>(cell + 1);
  return SplitMix(seed ^ salt);
}

FederationConfig MakeConfig(const Workload& w, uint64_t seed, bool in_process) {
  FederationConfig config;
  config.num_cells = w.cells;
  config.cell.num_proxies = w.proxies;
  config.cell.sensors_per_proxy = w.sensors_per_proxy;
  // Interactive pull timeout, as in bench_federation_scale.
  config.cell.pull_timeout = Seconds(30);
  // 64 KiB archive per sensor keeps the 4096-sensor grid small while every sample
  // still takes the flash append path.
  config.cell.flash.num_blocks = 16;
  config.cell.lane_engine = true;
  config.cell.sim_threads = 1;
  config.cell.sim_epoch = Millis(250);
  config.link.latency = Millis(250);
  config.epoch = Seconds(1);
  config.auto_epoch = true;
  config.cell_threads = 1;
  config.cell_processes = in_process ? 1 : w.cell_processes;
  config.seed = FederationSeedOf(seed);
  return config;
}

QueryDriverParams DriverParams(const Workload& w, uint64_t seed, int cell) {
  QueryDriverParams params;
  params.arrivals = ArrivalProcess::kPoisson;
  params.mix.queries_per_hour = w.queries_per_hour_per_cell;
  params.mix.num_sensors = 0;  // whole federation namespace
  params.mix.past_fraction = w.past_fraction;
  params.mix.mean_past_age = Minutes(30);
  params.mix.max_past_age = Hours(1);
  params.mix.min_tolerance = w.min_tolerance;
  params.mix.max_tolerance = w.max_tolerance;
  params.mix.seed = DriverSeedOf(seed, cell);
  return params;
}

// Counts read from the per-cell stats accessors (in-process federations only).
struct LayerCounts {
  uint64_t events = 0;
  uint64_t events_pending = 0;
  uint64_t samples = 0;
  uint64_t pushed_samples = 0;
  uint64_t records_appended = 0;
  uint64_t records_read = 0;
  uint64_t messages_sent = 0;
  uint64_t frames_sent = 0;
  uint64_t frame_retries = 0;
  uint64_t batched_messages = 0;
  uint64_t proxy_queries = 0;
  uint64_t cache_hits = 0;
  uint64_t extrapolations = 0;
  uint64_t pulls = 0;
  uint64_t coalesced_pulls = 0;
  uint64_t pull_timeouts = 0;
  uint64_t model_sends = 0;
  uint64_t store_queries = 0;
  uint64_t index_hops = 0;

  LayerCounts operator-(const LayerCounts& b) const {
    LayerCounts d = *this;
    d.events -= b.events;
    d.samples -= b.samples;
    d.pushed_samples -= b.pushed_samples;
    d.records_appended -= b.records_appended;
    d.records_read -= b.records_read;
    d.messages_sent -= b.messages_sent;
    d.frames_sent -= b.frames_sent;
    d.frame_retries -= b.frame_retries;
    d.batched_messages -= b.batched_messages;
    d.proxy_queries -= b.proxy_queries;
    d.cache_hits -= b.cache_hits;
    d.extrapolations -= b.extrapolations;
    d.pulls -= b.pulls;
    d.coalesced_pulls -= b.coalesced_pulls;
    d.pull_timeouts -= b.pull_timeouts;
    d.model_sends -= b.model_sends;
    d.store_queries -= b.store_queries;
    d.index_hops -= b.index_hops;
    return d;  // events_pending stays a level, not a delta
  }
};

LayerCounts ReadLayerCounts(Federation& fed) {
  LayerCounts c;
  for (int i = 0; i < fed.num_cells(); ++i) {
    Deployment& cell = fed.cell(i);
    c.events += cell.sim().events_executed();
    c.events_pending += cell.sim().events_pending();
    const DeploymentConfig& dc = cell.config();
    for (int p = 0; p < dc.num_proxies; ++p) {
      for (int s = 0; s < dc.sensors_per_proxy; ++s) {
        SensorNode& sensor = cell.sensor(p, s);
        c.samples += sensor.stats().samples;
        c.pushed_samples += sensor.stats().pushed_samples;
        c.records_appended += sensor.archive().stats().records_appended;
        c.records_read += sensor.archive().stats().records_read;
      }
      const ProxyStats& ps = cell.proxy(p).stats();
      c.proxy_queries += ps.queries;
      c.cache_hits += ps.cache_hits;
      c.extrapolations += ps.extrapolations;
      c.pulls += ps.pulls;
      c.coalesced_pulls += ps.coalesced_pulls;
      c.pull_timeouts += ps.pull_timeouts;
      c.model_sends += ps.model_sends;
    }
    const NetStats& ns = cell.net().stats();
    c.messages_sent += ns.messages_sent;
    c.frames_sent += ns.frames_sent;
    c.frame_retries += ns.frame_retries;
    c.batched_messages += ns.batched_messages;
    c.store_queries += cell.store().stats().queries;
    c.index_hops += cell.store().stats().total_index_hops;
  }
  return c;
}

// Driver stats summed over every gateway's driver.
struct DriverTotals {
  uint64_t issued = 0;
  uint64_t completed = 0;  // includes failures (QueryDriverStats semantics)
  uint64_t failed = 0;
  std::array<uint64_t, 4> by_source{};
  double energy_j = 0.0;
  SampleSet latency_ms;
  LatencyHistogram latency;

  uint64_t answered() const { return completed - failed; }
};

DriverTotals ReadDriverTotals(const Federation& fed) {
  DriverTotals t;
  for (int d = 0; d < fed.num_drivers(); ++d) {
    const QueryDriverStats s = fed.DriverStats(d);
    t.issued += s.issued;
    t.completed += s.completed;
    t.failed += s.failed;
    for (size_t i = 0; i < t.by_source.size(); ++i) {
      t.by_source[i] += s.by_source[i];
    }
    t.energy_j += s.energy_j;
    for (double ms : s.latency_ms.samples()) {
      t.latency_ms.Add(ms);
    }
    t.latency.Merge(s.latency);
  }
  return t;
}

// VmHWM (peak resident set) of a process in MiB, or a negative value when the
// status file cannot be read.
double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

struct RepOptions {
  bool in_process = false;
  bool traced = false;
  bool read_energy = false;
  Duration drain = Minutes(2);
};

struct Rep {
  double build_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  double window_wall_s = 0.0;
  std::vector<double> chunk_wall_s;  // untraced: the window in kChunks slices
  std::vector<double> ref_kernel_s;  // untraced: calibration passes before set-up
                                     // and before each slice
  uint64_t answered_in_window = 0;
  DriverTotals drivers;  // after the drain
  uint64_t fingerprint = 0;
  double self_peak_mb = 0.0;
  double worker_peak_mb = 0.0;
  int workers = 0;
  int workers_alive = 0;
  double sensor_j_per_day = 0.0;
  bool energy_ok = true;
  // Window deltas of the mode-independent facade counters.
  FederationStats fed;
  FederationTrunkTotals trunk;
  uint64_t events = 0;
  uint64_t orphans = 0;  // whole run
  // In-process only.
  bool has_layers = false;
  LayerCounts layers;
  // Traced only: wall time of each one-epoch RunUntil call.
  SampleSet step_us;

  double setup_s() const { return build_s + start_s + warmup_s; }
  // Multiplies this repetition's wall times into reference-host seconds.
  double host_scale() const {
    const double mean_ref =
        std::accumulate(ref_kernel_s.begin(), ref_kernel_s.end(), 0.0) /
        static_cast<double>(ref_kernel_s.size());
    return kRefKernelS / mean_ref;
  }
};

void AttachDrivers(Federation& fed, const Workload& w, uint64_t seed) {
  for (int c = 0; c < w.cells; ++c) {
    fed.AttachDriver(c, DriverParams(w, seed, c));
  }
}

// Mean sensor energy per sensor-day across every cell. Multi-process federations
// hold no cells, so their state is moved through a checkpoint into an identically
// configured in-process federation — the live-migration path the facade supports
// — whose fingerprint must match.
double SensorJoulesPerDay(Federation& fed, const Workload& w, uint64_t seed,
                          bool* ok) {
  std::unique_ptr<Federation> local;
  Federation* reader = &fed;
  if (fed.process_mode()) {
    Checkpoint ckpt;
    const Status saved = fed.SaveCheckpoint(&ckpt);
    if (!saved.ok()) {
      std::printf("CHECK FAILED: checkpoint for the energy read-out: %s\n",
                  saved.message().c_str());
      *ok = false;
      return 0.0;
    }
    local = std::make_unique<Federation>(MakeConfig(w, seed, /*in_process=*/true));
    AttachDrivers(*local, w, seed);
    local->Start();
    const Status loaded = local->LoadCheckpoint(ckpt);
    if (!loaded.ok() || local->fingerprint() != fed.fingerprint()) {
      std::printf("CHECK FAILED: in-process copy of the worker cells diverges (%s)\n",
                  loaded.ok() ? "fingerprint" : loaded.message().c_str());
      *ok = false;
      return 0.0;
    }
    reader = local.get();
  }
  double joules = 0.0;
  for (int i = 0; i < reader->num_cells(); ++i) {
    joules += reader->cell(i).MeanSensorEnergy();
  }
  return joules / reader->num_cells() / ToDays(reader->Now());
}

Rep RunRep(const Workload& w, uint64_t seed, const RepOptions& opt) {
  Rep rep;
  if (!opt.traced) {
    // Set-up is rescaled too: sample the host right before it as well.
    rep.ref_kernel_s.push_back(TimeRefKernel());
  }
  const Clock::time_point t0 = Clock::now();
  Federation fed(MakeConfig(w, seed, opt.in_process));
  AttachDrivers(fed, w, seed);
  rep.build_s = SecondsSince(t0);
  const Clock::time_point t1 = Clock::now();
  fed.Start();
  rep.start_s = SecondsSince(t1);
  const Clock::time_point t2 = Clock::now();
  fed.RunUntil(w.warmup);
  rep.warmup_s = SecondsSince(t2);

  for (int d = 0; d < fed.num_drivers(); ++d) {
    fed.StartDriver(d, w.window);
  }
  rep.has_layers = opt.traced && !fed.process_mode();
  const LayerCounts layers_before = rep.has_layers ? ReadLayerCounts(fed) : LayerCounts{};
  const FederationStats fed_before = fed.stats();
  const FederationTrunkTotals trunk_before = fed.TrunkTotals();
  const uint64_t events_before = fed.EventsExecuted();

  const SimTime end = w.warmup + w.window;
  const Clock::time_point t3 = Clock::now();
  if (opt.traced) {
    const Duration epoch = fed.config().epoch;
    while (fed.Now() < end) {
      const SimTime next = std::min(end, fed.Now() + epoch);
      const Clock::time_point s0 = Clock::now();
      fed.RunUntil(next);
      rep.step_us.Add(1e6 * SecondsSince(s0));
    }
  } else {
    for (int k = 1; k <= kChunks; ++k) {
      rep.ref_kernel_s.push_back(TimeRefKernel());
      const Clock::time_point c0 = Clock::now();
      fed.RunUntil(w.warmup + w.window * k / kChunks);
      rep.chunk_wall_s.push_back(SecondsSince(c0));
    }
  }
  rep.window_wall_s = opt.traced ? SecondsSince(t3)
                                 : std::accumulate(rep.chunk_wall_s.begin(),
                                                   rep.chunk_wall_s.end(), 0.0);

  rep.answered_in_window = ReadDriverTotals(fed).answered();
  const FederationStats fed_after = fed.stats();
  rep.fed.queries = fed_after.queries - fed_before.queries;
  rep.fed.forwarded = fed_after.forwarded - fed_before.forwarded;
  rep.fed.barriers = fed_after.barriers - fed_before.barriers;
  rep.fed.mail_drained = fed_after.mail_drained - fed_before.mail_drained;
  const FederationTrunkTotals trunk_after = fed.TrunkTotals();
  rep.trunk.messages = trunk_after.messages - trunk_before.messages;
  rep.trunk.bytes = trunk_after.bytes - trunk_before.bytes;
  rep.events = fed.EventsExecuted() - events_before;
  if (rep.has_layers) {
    rep.layers = ReadLayerCounts(fed) - layers_before;
  }

  fed.RunUntil(end + opt.drain);
  rep.drivers = ReadDriverTotals(fed);
  rep.orphans = fed.stats().orphans;
  rep.fingerprint = fed.fingerprint();
  rep.workers = fed.num_workers();
  for (int i = 0; i < fed.num_workers(); ++i) {
    if (fed.worker_alive(i)) {
      ++rep.workers_alive;
      rep.worker_peak_mb += std::max(0.0, PeakRssMb(std::to_string(fed.worker_pid(i))));
    }
  }
  rep.self_peak_mb = PeakRssMb("self");
  if (opt.read_energy) {
    rep.sensor_j_per_day = SensorJoulesPerDay(fed, w, seed, &rep.energy_ok);
  }
  return rep;
}

double Median(std::vector<double> v) {
  SampleSet s;
  for (double x : v) {
    s.Add(x);
  }
  return s.Median();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    correct_ = false;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
  }
  bool correct() const { return correct_; }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct_ ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Output checks every repetition must pass.
void CheckRep(const Workload& w, const Rep& rep, Report& report) {
  const DriverTotals& d = rep.drivers;
  report.Check(d.issued > 0 && d.answered() > 0, "no query was answered");
  report.Check(d.issued == d.answered() + d.failed,
               "conservation: issued " + std::to_string(d.issued) + " != answered " +
                   std::to_string(d.answered()) + " + failed " +
                   std::to_string(d.failed) + " after the drain");
  const uint64_t by_source = d.by_source[static_cast<int>(AnswerSource::kCacheHit)] +
                             d.by_source[static_cast<int>(AnswerSource::kExtrapolated)] +
                             d.by_source[static_cast<int>(AnswerSource::kSensorPull)];
  report.Check(by_source == d.answered(),
               "conservation: answer sources sum to " + std::to_string(by_source) +
                   ", answered " + std::to_string(d.answered()));
  const uint64_t extrapolated =
      d.by_source[static_cast<int>(AnswerSource::kExtrapolated)];
  if (w.regime == Regime::kMostlyExtrapolated) {
    // Extrapolations answer NOW queries only, so more than half of all answers
    // being extrapolated means most NOW answers are.
    report.Check(2 * extrapolated > d.answered(),
                 "regime: only " + std::to_string(extrapolated) + " of " +
                     std::to_string(d.answered()) + " answers extrapolated");
  } else if (w.regime == Regime::kNeverExtrapolated) {
    report.Check(extrapolated == 0, "regime: " + std::to_string(extrapolated) +
                                        " answers extrapolated, expected none");
  }
  if (rep.workers > 0) {
    report.Check(rep.workers_alive == rep.workers,
                 std::to_string(rep.workers - rep.workers_alive) + " cell workers died");
  }
  report.Check(rep.orphans == 0,
               std::to_string(rep.orphans) + " orphaned trunk messages");
  report.Check(rep.energy_ok, "sensor energy read-out");
}

void CheckSameWorld(const Rep& a, const Rep& b, const std::string& what,
                    Report& report) {
  report.Check(a.fingerprint == b.fingerprint && a.drivers.latency == b.drivers.latency,
               what + ": fingerprint or latency histogram differs");
}

// Simulated-time metrics, identical on every run of one seed.
void AddSimMetrics(const Rep& rep, Report& report) {
  const DriverTotals& d = rep.drivers;
  report.Add("query_p50_sim_ms", d.latency_ms.Quantile(0.50), "ms");
  report.Add("query_p99_sim_ms", d.latency_ms.Quantile(0.99), "ms");
  report.Add("answered_share", Ratio(static_cast<double>(d.answered()),
                                     static_cast<double>(d.issued)),
             "share");
  report.Add("sensor_j_per_day", rep.sensor_j_per_day, "J/sensor-day");
}

void PrintHeader(const Workload& w, uint64_t seed, int trace, int reps) {
  std::printf(
      "# presto_perf workload=%s seed=%llu trace=%d hardware_threads=%u build=%s "
      "cpu=%d grid=%dx%dx%d cell_processes=%d warmup_h=%.2f window_h=%.2f reps=%d\n",
      w.name, static_cast<unsigned long long>(seed), trace,
      std::thread::hardware_concurrency(), PERF_BUILD_TYPE, sched_getcpu(), w.cells,
      w.proxies, w.sensors_per_proxy, w.cell_processes, ToHours(w.warmup),
      ToHours(w.window), reps);
}

int RunUntraced(const Workload& w, uint64_t seed, double seconds, Duration drain) {
  Report report;
  std::vector<Rep> reps;
  double measured = 0.0;
  for (bool last = false; !last;) {
    // The rep expected to fill --seconds is the last; it alone reads the sensor
    // energy, after sampling its peak RSS, so the in-process copy a multi-process
    // run needs for the read-out never counts toward the benchmark's memory.
    const int done = static_cast<int>(reps.size());
    last = done + 1 >= kMaxReps ||
           (done + 1 >= kMinReps && measured + reps.back().window_wall_s >= seconds);
    RepOptions opt;
    opt.drain = drain;
    opt.read_energy = last;
    reps.push_back(RunRep(w, seed, opt));
    measured += reps.back().window_wall_s;
  }
  PrintHeader(w, seed, 0, static_cast<int>(reps.size()));

  std::vector<double> setup, raw_setup;
  uint64_t attempted = 0, failed = 0;
  for (const Rep& rep : reps) {
    CheckRep(w, rep, report);
    CheckSameWorld(reps.front(), rep, "repetitions of one seed", report);
    setup.push_back(rep.setup_s() * rep.host_scale());
    raw_setup.push_back(rep.setup_s());
    attempted += rep.drivers.issued;
    failed += rep.drivers.failed;
    std::printf("# rep %zu raw setup_s=%.4f window_s=%.4f ref_kernel_ms=%.3f\n",
                setup.size(), rep.setup_s(), rep.window_wall_s,
                1e3 * kRefKernelS / rep.host_scale());
  }
  double window_wall_s = 0.0, raw_window_wall_s = 0.0;
  for (int k = 0; k < kChunks; ++k) {
    std::vector<double> chunk, raw_chunk;
    for (const Rep& rep : reps) {
      chunk.push_back(rep.chunk_wall_s[static_cast<size_t>(k)] * rep.host_scale());
      raw_chunk.push_back(rep.chunk_wall_s[static_cast<size_t>(k)]);
    }
    window_wall_s += Median(chunk);
    raw_window_wall_s += Median(raw_chunk);
  }
  const Rep& last = reps.back();
  const double window_s = ToSeconds(w.window);
  const double answered = static_cast<double>(reps.front().answered_in_window);
  report.Add("sim_s_per_wall_s", window_s / window_wall_s, "sim-s/s");
  report.Add("answers_per_wall_s", answered / window_wall_s, "1/s");
  report.Add("setup_s", Median(setup), "s");
  // Sampled on the first repetition: a fresh process over one federation
  // lifetime, so heap growth across repetitions does not leak into the figure.
  report.Add("peak_rss_mb", reps.front().self_peak_mb + reps.front().worker_peak_mb,
             "MB");
  Rep sim_source = reps.front();
  sim_source.sensor_j_per_day = last.sensor_j_per_day;
  AddSimMetrics(sim_source, report);
  std::printf("# raw (not rescaled): sim_s_per_wall_s=%.1f answers_per_wall_s=%.1f "
              "setup_s=%.4f\n",
              window_s / raw_window_wall_s, answered / raw_window_wall_s,
              Median(raw_setup));
  std::printf("# latency samples=%lld (p50, p99) measured_window_s=%.3f\n",
              static_cast<long long>(reps.front().drivers.latency_ms.count()), measured);
  report.Print(attempted, failed);
  return report.correct() ? 0 : 1;
}

int RunTraced(const Workload& w, uint64_t seed, Duration drain) {
  Report report;
  RepOptions untraced_opt;
  untraced_opt.drain = drain;
  // Untraced repetitions bracket the traced one, so the first repetition's cold
  // start does not masquerade as negative tracing overhead.
  const Rep untraced = RunRep(w, seed, untraced_opt);
  RepOptions traced_opt = untraced_opt;
  traced_opt.traced = true;
  const Rep traced = RunRep(w, seed, traced_opt);
  const Rep untraced_after = RunRep(w, seed, untraced_opt);
  CheckRep(w, untraced, report);
  CheckRep(w, traced, report);
  CheckRep(w, untraced_after, report);
  CheckSameWorld(untraced, traced, "traced vs untraced stepping", report);
  CheckSameWorld(untraced, untraced_after, "repetitions of one seed", report);

  // The in-process layer counts and reference step time: the traced repetition
  // itself when it already runs in-process, else the same grid in-process.
  Rep inproc_storage;
  const Rep* inproc = &traced;
  if (w.cell_processes > 1) {
    RepOptions opt = traced_opt;
    opt.in_process = true;
    inproc_storage = RunRep(w, seed, opt);
    inproc = &inproc_storage;
    CheckRep(w, *inproc, report);
    CheckSameWorld(traced, *inproc, "multi-process vs in-process reference", report);
  }
  PrintHeader(w, seed, 1, w.cell_processes > 1 ? 4 : 3);

  const LayerCounts& l = inproc->layers;
  const double window_s = ToSeconds(w.window);
  const double sensors = static_cast<double>(w.cells * w.proxies * w.sensors_per_proxy);
  const auto d = [](uint64_t x) { return static_cast<double>(x); };
  const double untraced_rate =
      2.0 * window_s / (untraced.window_wall_s + untraced_after.window_wall_s);
  const double traced_rate = window_s / traced.window_wall_s;

  report.Add("sim.events_per_sim_s", d(l.events) / window_s, "1/sim-s");
  report.Add("sim.ns_per_event", 1e9 * inproc->window_wall_s / d(l.events), "ns");
  report.Add("sim.events_pending", d(l.events_pending), "count");
  report.Add("sensor.samples_per_sim_s", d(l.samples) / window_s, "1/sim-s");
  report.Add("sensor.push_share", Ratio(d(l.pushed_samples), d(l.samples)), "share");
  report.Add("flash.records_appended", d(l.records_appended), "count");
  report.Add("flash.records_appended_per_sensor", d(l.records_appended) / sensors,
             "count");
  report.Add("flash.records_read", d(l.records_read), "count");
  report.Add("net.frames_sent", d(l.frames_sent), "count");
  report.Add("net.frame_retry_share", Ratio(d(l.frame_retries), d(l.frames_sent)),
             "share");
  report.Add("net.batched_share", Ratio(d(l.batched_messages), d(l.messages_sent)),
             "share");
  report.Add("proxy.cache_hit_share", Ratio(d(l.cache_hits), d(l.proxy_queries)),
             "share");
  report.Add("proxy.extrapolated_share", Ratio(d(l.extrapolations), d(l.proxy_queries)),
             "share");
  report.Add("proxy.pull_share", Ratio(d(l.pulls), d(l.proxy_queries)), "share");
  report.Add("proxy.coalesced_share", Ratio(d(l.coalesced_pulls), d(l.proxy_queries)),
             "share");
  report.Add("proxy.pull_timeouts", d(l.pull_timeouts), "count");
  report.Add("proxy.model_sends", d(l.model_sends), "count");
  report.Add("store.index_hops_per_query", Ratio(d(l.index_hops), d(l.store_queries)),
             "hops");
  report.Add("federation.forwarded_share",
             Ratio(d(traced.fed.forwarded), d(traced.fed.queries)), "share");
  report.Add("trunk.messages", d(traced.trunk.messages), "count");
  report.Add("trunk.bytes", d(traced.trunk.bytes), "B");
  report.Add("federation.steps", d(traced.step_us.count()), "count");
  report.Add("federation.step_us_p50", traced.step_us.Quantile(0.50), "us");
  report.Add("federation.step_us_p99", traced.step_us.Quantile(0.99), "us");
  report.Add("federation.mail_per_barrier",
             Ratio(d(traced.fed.mail_drained), d(traced.fed.barriers)), "count");
  report.Add("federation.step_us_p50_inproc", inproc->step_us.Quantile(0.50), "us");
  report.Add("fed_wire.seam_share",
             1.0 - inproc->step_us.Quantile(0.50) / traced.step_us.Quantile(0.50),
             "share");
  report.Add("federation.orphans", d(traced.orphans), "count");
  report.Add("core.build_s", traced.build_s, "s");
  report.Add("core.start_s", traced.start_s, "s");
  report.Add("core.warmup_s", traced.warmup_s, "s");
  report.Add("workload.latency_samples", d(traced.drivers.latency_ms.count()), "count");
  // Per-layer, not end-to-end: where pulls are rare (model_steady) the figure
  // swings by half between seeds.
  report.Add("proxy.query_j_per_answer",
             Ratio(traced.drivers.energy_j, d(traced.drivers.answered())), "J/answer");
  report.Add("trace.overhead_share", 1.0 - traced_rate / untraced_rate, "share");
  std::printf("# untraced sim_s_per_wall_s=%.1f traced=%.1f step samples=%lld\n",
              untraced_rate, traced_rate,
              static_cast<long long>(traced.step_us.count()));
  report.Print(untraced.drivers.issued + traced.drivers.issued +
                   untraced_after.drivers.issued + inproc_storage.drivers.issued,
               untraced.drivers.failed + traced.drivers.failed +
                   untraced_after.drivers.failed + inproc_storage.drivers.failed);
  return report.correct() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: presto_perf --workload <model_steady|query_storm|cells_procs> "
               "--seed <n> --seconds <s> --trace <0|1> [--short] [--drain-s <s>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool short_mode = false;
  Duration drain = Minutes(2);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--drain-s" && has_value) {
      // Self-test hook: a truncated drain must trip the conservation check.
      drain = Seconds(std::strtod(argv[++i], nullptr));
    } else if (arg == "--short") {
      short_mode = true;
    } else {
      return Usage();
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      chosen = &w;
    }
  }
  if (chosen == nullptr || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const Workload w = short_mode ? Shorten(*chosen) : *chosen;
  // One CPU for the bench and every worker it forks. On a shared virtual host,
  // cross-CPU wake-ups at each federation barrier made the same cells_procs run
  // vary fourfold; on one CPU the seam costs its own work (framing, syscalls,
  // context switches), which repeats. All workloads share the rule so their
  // figures compare.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(std::max(0, sched_getcpu()), &one_cpu);
  if (sched_setaffinity(0, sizeof(one_cpu), &one_cpu) != 0) {
    std::fprintf(stderr, "presto_perf: cannot pin to one CPU\n");
    return 1;
  }
  if (w.cell_processes > 1) {
    // Fail loudly rather than let a missing worker binary go unnoticed.
    const std::string bin = ResolveCellWorkerBinary();
    if (::access(bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "presto_perf: cell worker binary %s is missing (build "
                   "presto_cell beside presto_perf or set PRESTO_CELL_BIN)\n",
                   bin.c_str());
      return 1;
    }
  }
  return trace == 1 ? RunTraced(w, seed, drain) : RunUntraced(w, seed, seconds, drain);
}

}  // namespace
}  // namespace presto

int main(int argc, char** argv) { return presto::Main(argc, argv); }
