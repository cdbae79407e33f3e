#pragma once
// Small statistics helpers used by the reporting layer and the benches.

#include <cstddef>
#include <span>
#include <vector>

namespace incore::support {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 1]. Sorts a copy.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

/// Fixed-width histogram.  Values below `lo` go into bucket 0, values at or
/// above `hi` into the last bucket.  This mirrors the paper's Fig. 3 style
/// where the leftmost bucket collects "off by more than a factor of two".
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bucket) const { return counts_[bucket]; }
  [[nodiscard]] std::size_t total() const { return total_; }
  /// Inclusive lower edge of a bucket.
  [[nodiscard]] double bucket_lo(std::size_t bucket) const;
  [[nodiscard]] double bucket_hi(std::size_t bucket) const;
  /// Fraction of samples with value in [lo, hi).
  [[nodiscard]] double fraction_in(double lo, double hi) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::vector<double> raw_;
  std::size_t total_ = 0;
};

}  // namespace incore::support
