#pragma once

#include <cstddef>
#include <vector>

namespace gaurast::common {

/// The newest kCapacity samples of a stream (per-frame latencies, route
/// overheads), so a long-running server's stats stay fixed-size. Once full,
/// each push overwrites the oldest sample, and samples() is in ring order,
/// not arrival order (percentile consumers sort a copy anyway).
class SampleRing {
 public:
  /// 64k samples (512 KiB) is plenty for stable percentiles.
  static constexpr std::size_t kCapacity = 65536;

  void push(double value) {
    if (samples_.size() < kCapacity) {
      samples_.push_back(value);
      return;
    }
    samples_[oldest_] = value;
    oldest_ = (oldest_ + 1) % kCapacity;
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t oldest_ = 0;  ///< next slot to overwrite once full
  std::vector<double> samples_;
};

}  // namespace gaurast::common
