#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/assert.h"

namespace presto {

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::Add(double x) { samples_.push_back(x); }

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double m = mean();
  double sq = 0.0;
  for (double s : samples_) {
    sq += (s - m) * (s - m);
  }
  return std::sqrt(sq / static_cast<double>(samples_.size()));
}

double SampleSet::min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::Quantile(double q) const {
  PRESTO_CHECK(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) {
    return 0.0;
  }
  // Sort a copy: samples_ keeps insertion order, so a read-only percentile never
  // changes what a checkpoint or mean() sees.
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(double lo, double hi, int buckets) : lo_(lo) {
  PRESTO_CHECK(buckets > 0 && hi > lo);
  width_ = (hi - lo) / buckets;
  counts_.assign(static_cast<size_t>(buckets), 0);
}

void Histogram::Add(double x) {
  int i = static_cast<int>((x - lo_) / width_);
  i = std::clamp(i, 0, static_cast<int>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(i)];
  ++count_;
}

std::string Histogram::ToString(int max_width) const {
  int64_t peak = 1;
  for (int64_t c : counts_) {
    peak = std::max(peak, c);
  }
  std::string out;
  char label[64];
  for (size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(label, sizeof(label), "%10.3g | ", BucketLow(static_cast<int>(i)));
    out += label;
    const int bar = static_cast<int>(counts_[i] * max_width / peak);
    out.append(static_cast<size_t>(bar), '#');
    std::snprintf(label, sizeof(label), " %lld\n", static_cast<long long>(counts_[i]));
    out += label;
  }
  return out;
}

double Rmse(const std::vector<double>& a, const std::vector<double>& b) {
  PRESTO_CHECK(a.size() == b.size());
  if (a.empty()) {
    return 0.0;
  }
  double sq = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(a.size()));
}

double MeanAbsError(const std::vector<double>& a, const std::vector<double>& b) {
  PRESTO_CHECK(a.size() == b.size());
  if (a.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += std::abs(a[i] - b[i]);
  }
  return sum / static_cast<double>(a.size());
}

double MaxAbsError(const std::vector<double>& a, const std::vector<double>& b) {
  PRESTO_CHECK(a.size() == b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace presto
