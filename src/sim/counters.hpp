// Named event counters for hardware activity accounting.
//
// The PE model tallies its datapath operations as plain integers per pair
// (core::OpTally) and writes each frame's totals here once; the EnergyModel
// converts the final counts into joules. Keeping counting separate from
// energy lets tests assert exact op counts (paper Table II) without touching
// the energy tables.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gaurast::sim {

class CounterSet {
 public:
  /// A map lookup per call (heterogeneous, so no std::string allocation):
  /// meant for per-frame or per-tile totals, not per-pair loops.
  void increment(std::string_view name, std::uint64_t by = 1) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
      it->second += by;
    } else {
      counters_.emplace(std::string(name), by);
    }
  }

  std::uint64_t get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void merge(const CounterSet& other) {
    for (const auto& [k, v] : other.counters_) increment(k, v);
  }

  void clear() { counters_.clear(); }

  const std::map<std::string, std::uint64_t, std::less<>>& all() const {
    return counters_;
  }

  /// Sum of counters whose name starts with `prefix` (e.g. "fp32.").
  std::uint64_t sum_prefix(std::string_view prefix) const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

/// Canonical datapath-op counter names shared by the PE model and the
/// energy/area tables. Using constants avoids silent typo mismatches.
namespace ops {
inline constexpr const char* kFp32Add = "fp32.add";
inline constexpr const char* kFp32Mul = "fp32.mul";
inline constexpr const char* kFp32Div = "fp32.div";
inline constexpr const char* kFp32Exp = "fp32.exp";
inline constexpr const char* kFp32Cmp = "fp32.cmp";
inline constexpr const char* kBufRead = "buf.read";
inline constexpr const char* kBufWrite = "buf.write";
inline constexpr const char* kMemBytes = "mem.bytes";
inline constexpr const char* kPairsProcessed = "pe.pairs";
inline constexpr const char* kPairsCulled = "pe.pairs_culled";
inline constexpr const char* kPrimitives = "pe.primitives";
}  // namespace ops

}  // namespace gaurast::sim
