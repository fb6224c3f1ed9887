#include "core/hw_rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "core/pe.hpp"
#include "gsmath/fastmath.hpp"

namespace gaurast::core {

namespace {

/// Bytes of pixel-state read-modify-write traffic charged per pair (split
/// evenly between read and write for the counters).
constexpr std::uint64_t kPairStateReadBytes = 10;
constexpr std::uint64_t kPairStateWriteBytes = 10;

/// Writes one frame's plain tallies into the result's named counters. Only
/// pe.pairs is written when zero; every other counter stays absent unless
/// the frame retired that op or traffic.
void write_frame_counters(const OpTally& ops, std::uint64_t primitives,
                          std::uint64_t bytes_per_primitive,
                          HwRasterResult& result) {
  ops.add_to(result.counters);
  const std::pair<const char*, std::uint64_t> traffic[] = {
      {sim::ops::kBufRead, primitives * bytes_per_primitive +
                               result.pairs_evaluated * kPairStateReadBytes},
      {sim::ops::kBufWrite, result.pairs_evaluated * kPairStateWriteBytes},
      {sim::ops::kPrimitives, primitives}};
  for (const auto& [name, count] : traffic) {
    if (count != 0) result.counters.increment(name, count);
  }
  result.counters.increment(sim::ops::kPairsProcessed, result.pairs_evaluated);
}

/// Gaussian-mode tile loop, instantiated once per datapath precision.
template <Precision P>
void rasterize_gaussian_tiles(const std::vector<pipeline::Splat2D>& splats,
                              const pipeline::TileWorkload& work,
                              const pipeline::BlendParams& params,
                              const RasterizerConfig& config,
                              HwRasterResult& result) {
  const pipeline::TileGrid& grid = work.grid;
  const std::uint64_t prim_bytes = gaussian_primitive_bytes(P);
  const std::uint64_t px_bytes = pixel_state_bytes(P);

  // One exp-skip bound per splat (not per duplicated tile instance); FP16
  // never skips, so its bounds stay -inf.
  std::vector<float> cutoffs(splats.size(),
                             -std::numeric_limits<float>::infinity());
  if constexpr (P == Precision::kFp32) {
    for (std::size_t s = 0; s < splats.size(); ++s) {
      cutoffs[s] = alpha_cutoff_power(params.alpha_min, splats[s].opacity);
    }
  }

  OpTally ops;
  std::uint64_t primitives = 0;
  std::vector<TileLoad>& tile_loads = result.tile_loads;
  tile_loads.reserve(work.ranges.size());

  const int tiles_x = grid.tiles_x();
  const int tiles_y = grid.tiles_y();
  for (int ty = 0; ty < tiles_y; ++ty) {
    for (int tx = 0; tx < tiles_x; ++tx) {
      const std::uint32_t tile_id =
          static_cast<std::uint32_t>(ty) * static_cast<std::uint32_t>(tiles_x) +
          static_cast<std::uint32_t>(tx);
      const pipeline::TileRange range = work.ranges[tile_id];
      if (range.size() == 0) continue;

      TileLoad load;
      load.fill_bytes =
          static_cast<std::uint64_t>(range.size()) * prim_bytes +
          static_cast<std::uint64_t>(config.pixels_per_tile()) * px_bytes;
      primitives += range.size();

      const int px0 = tx * grid.tile_size;
      const int py0 = ty * grid.tile_size;
      const int px1 = std::min(px0 + grid.tile_size, grid.width);
      const int py1 = std::min(py0 + grid.tile_size, grid.height);

      for (int py = py0; py < py1; ++py) {
        for (int px = px0; px < px1; ++px) {
          pipeline::PixelBlendState state;
          const Vec2f pixel{static_cast<float>(px) + 0.5f,
                            static_cast<float>(py) + 0.5f};
          for (std::uint32_t i = range.begin; i < range.end; ++i) {
            if (state.transmittance < params.transmittance_min) break;
            const std::uint32_t s = work.instances[i].splat_index;
            const GaussianPairResult pr = detail::gaussian_pair<P>(
                splats[s], cutoffs[s], pixel, state, params, ops);
            ++load.pairs;
            if (pr.blended) ++result.pairs_blended;
          }
          result.image.at(px, py) =
              state.accumulated + params.background * state.transmittance;
        }
      }
      result.pairs_evaluated += load.pairs;
      tile_loads.push_back(load);
    }
  }
  write_frame_counters(ops, primitives, prim_bytes, result);
}

}  // namespace

HardwareRasterizer::HardwareRasterizer(RasterizerConfig config)
    : config_(config) {
  config_.validate();
}

HwRasterResult HardwareRasterizer::rasterize_gaussians(
    const std::vector<pipeline::Splat2D>& splats,
    const pipeline::TileWorkload& work,
    const pipeline::BlendParams& params) const {
  GAURAST_CHECK_MSG(work.grid.tile_size == config_.tile_size,
                    "workload tiling " << work.grid.tile_size
                                       << " != rasterizer tiling "
                                       << config_.tile_size);
  HwRasterResult result;
  result.image = Image(work.grid.width, work.grid.height, params.background);
  if (config_.precision == Precision::kFp16) {
    rasterize_gaussian_tiles<Precision::kFp16>(splats, work, params, config_,
                                               result);
  } else {
    rasterize_gaussian_tiles<Precision::kFp32>(splats, work, params, config_,
                                               result);
  }
  result.timing = run_design_timeline(result.tile_loads, config_);
  return result;
}

HwRasterResult HardwareRasterizer::rasterize_triangles(
    const std::vector<mesh::ScreenTriangle>& prims, int width, int height,
    Vec3f background) const {
  GAURAST_CHECK(width > 0 && height > 0);
  HwRasterResult result;
  result.image = Image(width, height, background);

  const int ts = config_.tile_size;
  const int tiles_x = (width + ts - 1) / ts;
  const int tiles_y = (height + ts - 1) / ts;
  const std::size_t prim_bytes = triangle_primitive_bytes(config_.precision);
  const std::size_t px_bytes = pixel_state_bytes(config_.precision);

  OpTally ops;
  std::uint64_t primitives = 0;

  // Bin primitives to tiles by bounding box (primitive order preserved, so
  // z-buffer tie-breaking matches the reference renderer).
  std::vector<std::vector<std::uint32_t>> bins(
      static_cast<std::size_t>(tiles_x) * static_cast<std::size_t>(tiles_y));
  for (std::uint32_t p = 0; p < prims.size(); ++p) {
    const mesh::ScreenTriangle& tri = prims[p];
    const float min_x = std::min({tri.p0.x, tri.p1.x, tri.p2.x});
    const float max_x = std::max({tri.p0.x, tri.p1.x, tri.p2.x});
    const float min_y = std::min({tri.p0.y, tri.p1.y, tri.p2.y});
    const float max_y = std::max({tri.p0.y, tri.p1.y, tri.p2.y});
    const int tx0 = std::max(0, static_cast<int>(min_x) / ts);
    const int tx1 = std::min(tiles_x - 1, static_cast<int>(max_x) / ts);
    const int ty0 = std::max(0, static_cast<int>(min_y) / ts);
    const int ty1 = std::min(tiles_y - 1, static_cast<int>(max_y) / ts);
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        bins[static_cast<std::size_t>(ty) * static_cast<std::size_t>(tiles_x) +
             static_cast<std::size_t>(tx)]
            .push_back(p);
      }
    }
    pe_triangle_setup(ops);
  }

  std::vector<TileLoad>& tile_loads = result.tile_loads;
  std::vector<float> depth(static_cast<std::size_t>(width) *
                               static_cast<std::size_t>(height),
                           std::numeric_limits<float>::infinity());

  for (int ty = 0; ty < tiles_y; ++ty) {
    for (int tx = 0; tx < tiles_x; ++tx) {
      const auto& bin =
          bins[static_cast<std::size_t>(ty) * static_cast<std::size_t>(tiles_x) +
               static_cast<std::size_t>(tx)];
      if (bin.empty()) continue;
      TileLoad load;
      load.fill_bytes = bin.size() * prim_bytes +
                        static_cast<std::uint64_t>(config_.pixels_per_tile()) *
                            px_bytes;
      primitives += bin.size();

      const int px0 = tx * ts;
      const int py0 = ty * ts;
      const int px1 = std::min(px0 + ts, width);
      const int py1 = std::min(py0 + ts, height);
      for (int py = py0; py < py1; ++py) {
        for (int px = px0; px < px1; ++px) {
          const std::size_t idx =
              static_cast<std::size_t>(py) * static_cast<std::size_t>(width) +
              static_cast<std::size_t>(px);
          const Vec2f pixel{static_cast<float>(px) + 0.5f,
                            static_cast<float>(py) + 0.5f};
          for (std::uint32_t p : bin) {
            pe_triangle_pair(prims[p], pixel, depth[idx],
                             result.image.at(px, py), config_.precision, ops);
          }
          load.pairs += bin.size();
        }
      }
      result.pairs_evaluated += load.pairs;
      tile_loads.push_back(load);
    }
  }
  result.pairs_blended = result.pairs_evaluated;
  write_frame_counters(ops, primitives, prim_bytes, result);
  result.timing = run_design_timeline(tile_loads, config_);
  return result;
}

}  // namespace gaurast::core
