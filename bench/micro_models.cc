// Microbench M1 — the §3 asymmetry requirement: "models ... can be hard to build at
// the proxy, but they must require little resources to verify at the sensor."
//
// Measures wall-clock cost of proxy-side Fit vs sensor-side Predict (the per-sample
// check) for every model family, plus Deserialize (installation) and OnAnchor.

#include <benchmark/benchmark.h>

#include <cmath>

#include "src/models/registry.h"
#include "src/util/rng.h"

namespace presto {
namespace {

constexpr Duration kPeriod = Seconds(31);

ModelConfig Config() {
  ModelConfig c;
  c.sample_period = kPeriod;
  return c;
}

std::vector<Sample> History(int days) {
  Pcg32 rng(12);
  std::vector<Sample> out;
  double ar = 0.0;
  for (SimTime t = 0; t < Days(days); t += kPeriod) {
    ar = 0.97 * ar + rng.Gaussian(0, 0.08);
    out.push_back(Sample{t, 20.0 + 5.0 * std::sin(2.0 * M_PI *
                                                  static_cast<double>(t % kDay) /
                                                  static_cast<double>(kDay)) +
                                ar});
  }
  return out;
}

ModelType TypeFromIndex(int64_t i) {
  static const ModelType kTypes[] = {ModelType::kLastValue, ModelType::kSeasonal,
                                     ModelType::kAr, ModelType::kSeasonalAr,
                                     ModelType::kMarkov};
  return kTypes[i];
}

void BM_ProxyFit(benchmark::State& state) {
  const ModelType type = TypeFromIndex(state.range(0));
  const std::vector<Sample> history = History(3);
  for (auto _ : state) {
    auto model = CreateModel(type, Config());
    benchmark::DoNotOptimize(model->Fit(history));
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_ProxyFit)->DenseRange(0, 4);

void BM_SensorCheck(benchmark::State& state) {
  const ModelType type = TypeFromIndex(state.range(0));
  auto model = CreateModel(type, Config());
  const std::vector<Sample> history = History(3);
  if (!model->Fit(history).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  SimTime t = history.back().t;
  for (auto _ : state) {
    t += kPeriod;  // the sensor checks the next sample, one step ahead
    benchmark::DoNotOptimize(model->Predict(t));
    // Every check anchors (the sensor pushes each sample). The forecast stays one
    // step ahead of the anchor, so this is the cheap case for the host.
    model->OnAnchor(Sample{t, 20.0});
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_SensorCheck)->DenseRange(0, 4);

// Suppressed checks: no anchor for `range(1)` steps (1,400 is 12 h at 31 s), the
// common case when the model tracks the data. Time per check should be flat in the
// run length: each check continues the previous one's forecast. Each iteration walks
// the run from the fitted state (its first check jumps back and restarts).
void BM_SensorCheckSuppressed(benchmark::State& state) {
  const ModelType type = TypeFromIndex(state.range(0));
  const int64_t run = state.range(1);
  auto model = CreateModel(type, Config());
  const std::vector<Sample> history = History(3);
  if (!model->Fit(history).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  const SimTime t0 = history.back().t;
  for (auto _ : state) {
    for (int64_t k = 1; k <= run; ++k) {
      benchmark::DoNotOptimize(model->Predict(t0 + k * kPeriod));
    }
  }
  state.SetItemsProcessed(state.iterations() * run);
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_SensorCheckSuppressed)->ArgsProduct({{2, 3}, {100, 1400}});

void BM_SensorInstall(benchmark::State& state) {
  const ModelType type = TypeFromIndex(state.range(0));
  auto model = CreateModel(type, Config());
  if (!model->Fit(History(3)).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  const std::vector<uint8_t> wire = model->Serialize();
  for (auto _ : state) {
    auto installed = DeserializeModel(wire, Config());
    benchmark::DoNotOptimize(installed);
  }
  state.SetLabel(std::string(ModelTypeName(type)) + "/" + std::to_string(wire.size()) +
                 "B");
}
BENCHMARK(BM_SensorInstall)->DenseRange(0, 4);

// Long-horizon forecast (proxy-side extrapolation of a day-long gap).
void BM_ProxyExtrapolateDayGap(benchmark::State& state) {
  auto model = CreateModel(ModelType::kSeasonalAr, Config());
  const std::vector<Sample> history = History(3);
  if (!model->Fit(history).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  const SimTime t = history.back().t + Days(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Predict(t));
  }
}
BENCHMARK(BM_ProxyExtrapolateDayGap);

}  // namespace
}  // namespace presto
