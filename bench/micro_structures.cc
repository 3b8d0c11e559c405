// Microbench M4 — core data-structure throughput: skip-graph ops, summary-cache ops,
// and the event queue that everything runs on.

#include <benchmark/benchmark.h>

#include "src/index/skip_graph.h"
#include "src/proxy/summary_cache.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace presto {
namespace {

void BM_SkipGraphInsert(benchmark::State& state) {
  SkipGraph graph(1);
  Pcg32 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.Insert(rng.NextU64(), 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipGraphInsert);

void BM_SkipGraphSearch(benchmark::State& state) {
  SkipGraph graph(1);
  Pcg32 rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < state.range(0); ++i) {
    keys.push_back(rng.NextU64());
    graph.Insert(keys.back(), 1);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.Search(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipGraphSearch)->Arg(256)->Arg(4096)->Arg(65536);

void BM_SummaryCacheInsert(benchmark::State& state) {
  SummaryCache cache(1 << 20);
  SimTime t = 0;
  for (auto _ : state) {
    t += Seconds(31);
    cache.Insert(t, 20.0, CacheSource::kPushed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCacheInsert);

void BM_SummaryCacheNearest(benchmark::State& state) {
  SummaryCache cache(1 << 20);
  for (SimTime t = 0; t < Days(7); t += Seconds(31)) {
    cache.Insert(t, 20.0, CacheSource::kPushed);
  }
  Pcg32 rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Nearest(static_cast<SimTime>(rng.UniformInt(0, Days(7))), Minutes(5)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCacheNearest);

void BM_SummaryCacheCoverage(benchmark::State& state) {
  SummaryCache cache(1 << 20);
  for (SimTime t = 0; t < Days(7); t += Seconds(31)) {
    cache.Insert(t, 20.0, CacheSource::kPushed);
  }
  Pcg32 rng(6);
  for (auto _ : state) {
    const SimTime start = static_cast<SimTime>(rng.UniformInt(0, Days(6)));
    benchmark::DoNotOptimize(
        cache.CoverageFraction(TimeInterval{start, start + Hours(1)}, Seconds(31)));
  }
}
BENCHMARK(BM_SummaryCacheCoverage);

// Counts typed events: the per-event cost is the queue and dispatch alone.
struct CountingSink : EventSink {
  int fired = 0;
  void OnSimEvent(EventKind, EventPayload&) override { ++fired; }
};

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    CountingSink sink;
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleEventAt(i, EventKind::kTimer, &sink, EventPayload{});
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink.fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace
}  // namespace presto
