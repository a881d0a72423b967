#include "common/stats.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace dlfs {

double Summary::stddev() const { return std::sqrt(variance()); }

double Percentiles::percentile(double p) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  if (p <= 0.0) return values_.front();
  if (p >= 100.0) return values_.back();
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values_.size()) return values_.back();
  return values_[lo] * (1.0 - frac) + values_[lo + 1] * frac;
}

double Percentiles::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      counts_(boundaries_.size() + 1, 0) {}

Histogram Histogram::pow2(double lo, double hi) {
  std::vector<double> b;
  for (double x = lo; x <= hi; x *= 2.0) b.push_back(x);
  return Histogram(std::move(b));
}

void Histogram::add(double x, std::uint64_t weight) {
  std::size_t i = 0;
  while (i < boundaries_.size() && x > boundaries_[i]) ++i;
  counts_[i] += weight;
  total_ += weight;
}

double Histogram::cdf(double x) const {
  if (total_ == 0) return 0.0;
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < boundaries_.size(); ++i) {
    if (x >= boundaries_[i]) {
      below += counts_[i];
    } else {
      // Interpolate inside bucket i: [prev boundary, boundaries_[i]].
      const double prev = i == 0 ? 0.0 : boundaries_[i - 1];
      const double span = boundaries_[i] - prev;
      const double frac = span > 0 ? (x - prev) / span : 0.0;
      below += static_cast<std::uint64_t>(
          frac * static_cast<double>(counts_[i]));
      break;
    }
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

double Histogram::quantile_bound(double q) const {
  const double want = q * static_cast<double>(total_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; total_ > 0 && i < boundaries_.size(); ++i) {
    below += counts_[i];
    if (static_cast<double>(below) >= want) return boundaries_[i];
  }
  return std::numeric_limits<double>::infinity();
}

std::string Histogram::render_cdf(const std::string& unit) const {
  std::string out;
  std::uint64_t cum = 0;
  char line[128];
  for (std::size_t i = 0; i < boundaries_.size(); ++i) {
    cum += counts_[i];
    const double frac =
        total_ ? static_cast<double>(cum) / static_cast<double>(total_) : 0.0;
    std::snprintf(line, sizeof(line), "  <= %10.0f %-4s : %6.2f%%\n",
                  boundaries_[i], unit.c_str(), frac * 100.0);
    out += line;
  }
  return out;
}

}  // namespace dlfs
