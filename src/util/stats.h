// Streaming and batch statistics used across the simulator, benches, and the
// prediction engine's residual tracking.

#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace presto {

// Numerically stable streaming moments (Welford). O(1) space; cannot produce quantiles
// (use SampleSet for that).
class RunningStats {
 public:
  void Add(double x);

  // Merges another accumulator into this one (parallel Welford combination).
  void Merge(const RunningStats& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // population variance; 0 for n < 2
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Retains every sample; supports exact quantiles. Fine for the sample counts PRESTO
// benches produce (<= millions); not for unbounded streams.
class SampleSet {
 public:
  void Add(double x);
  // Replaces the contents with `samples` (checkpoint restore).
  void Assign(std::vector<double> samples) { samples_ = std::move(samples); }

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  // Exact q-quantile with linear interpolation, q in [0, 1]. Sorts a copy per call;
  // the samples stay in insertion order.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

// Fixed-width histogram over [lo, hi); out-of-range samples clamp into the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);

  void Add(double x);
  int64_t count() const { return count_; }
  int64_t BucketCount(int i) const { return counts_[i]; }
  int buckets() const { return static_cast<int>(counts_.size()); }
  double BucketLow(int i) const { return lo_ + width_ * i; }

  // One bar per line, for quick terminal inspection.
  std::string ToString(int max_width = 50) const;

 private:
  double lo_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
};

// Root-mean-square error between two equal-length series.
double Rmse(const std::vector<double>& a, const std::vector<double>& b);

// Mean absolute error between two equal-length series.
double MeanAbsError(const std::vector<double>& a, const std::vector<double>& b);

// Largest absolute difference between two equal-length series.
double MaxAbsError(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace presto

#endif  // SRC_UTIL_STATS_H_
