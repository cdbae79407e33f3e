#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

namespace incore::support {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  auto hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {}

void Histogram::add(double x) {
  std::size_t b;
  if (x < lo_) {
    b = 0;
  } else if (x >= hi_) {
    b = counts_.size() - 1;
  } else {
    b = static_cast<std::size_t>((x - lo_) / width_);
    b = std::min(b, counts_.size() - 1);
  }
  ++counts_[b];
  ++total_;
  raw_.push_back(x);
}

double Histogram::bucket_lo(std::size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket);
}

double Histogram::bucket_hi(std::size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket + 1);
}

double Histogram::fraction_in(double lo, double hi) const {
  if (total_ == 0) return 0.0;
  std::size_t n = 0;
  for (double x : raw_) {
    if (x >= lo && x < hi) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(total_);
}

}  // namespace incore::support
