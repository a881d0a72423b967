#pragma once

// Lightweight statistics containers used by benchmarks and tests:
// a streaming summary (count/mean/min/max/stddev), an exact-percentile
// reservoir, and a fixed-bucket histogram for size distributions.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dlfs {

/// Streaming summary statistics (Welford's algorithm for variance).
class Summary {
 public:
  void add(double x) {
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores every sample; exact percentiles. Fine for the sample counts used
/// in this repo's experiments (≤ a few million doubles).
class Percentiles {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return values_.size(); }

  /// p in [0, 100]; nearest-rank on the sorted values.
  [[nodiscard]] double percentile(double p);

  [[nodiscard]] double median() { return percentile(50.0); }
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

/// Histogram over power-of-two (or custom) bucket boundaries.
class Histogram {
 public:
  /// Buckets: (-inf, b0], (b0, b1], ..., (bn-1, +inf).
  explicit Histogram(std::vector<double> boundaries);

  /// Power-of-two boundaries from `lo` to `hi` inclusive.
  static Histogram pow2(double lo, double hi);

  void add(double x, std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] const std::vector<double>& boundaries() const {
    return boundaries_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

  /// Fraction of mass at or below `x` (interpolates within a bucket).
  [[nodiscard]] double cdf(double x) const;

  /// Upper boundary of the bucket holding the `q`-quantile (0 < q <= 1);
  /// +infinity when it falls past the last boundary or nothing was added.
  [[nodiscard]] double quantile_bound(double q) const;

  /// Renders an ASCII CDF table (used by the Fig. 1 bench).
  [[nodiscard]] std::string render_cdf(const std::string& unit) const;

 private:
  std::vector<double> boundaries_;
  std::vector<std::uint64_t> counts_;  // boundaries_.size() + 1 buckets
  std::uint64_t total_ = 0;
};

}  // namespace dlfs
