#include "pipeline/rasterize.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "gsmath/conic.hpp"
#include "gsmath/fastmath.hpp"

namespace gaurast::pipeline {

const char* to_string(RasterKernel kernel) {
  return kernel == RasterKernel::kFast ? "fast" : "reference";
}

RasterKernel raster_kernel_from_string(const std::string& name) {
  if (name == "reference") return RasterKernel::kReference;
  if (name == "fast") return RasterKernel::kFast;
  throw Error("unknown raster kernel '" + name +
              "'; expected 'reference' or 'fast'");
}

float eval_splat_alpha(const Splat2D& splat, Vec2f pixel,
                       const BlendParams& params) {
  const Vec2f d = pixel - splat.mean;
  const float power = gaussian_power(splat.conic, d);
  if (power > 0.0f) return 0.0f;
  const float alpha = splat.opacity * std::exp(power);
  return std::min(params.alpha_max, alpha);
}

bool accumulate(PixelBlendState& state, float alpha, Vec3f color,
                const BlendParams& params) {
  if (alpha < params.alpha_min) return false;
  state.accumulated += color * (alpha * state.transmittance);
  state.transmittance *= (1.0f - alpha);
  return true;
}

namespace {

/// Rasterizes tiles [tile_begin, tile_end) into `image`, accumulating stats
/// into `*stats` when kCollectStats. Tiles write disjoint pixels, so
/// concurrent workers are safe. Templating hoists the stats bookkeeping out
/// of the stats-off instantiation entirely — when the caller passed no
/// RasterStats, the inner loop carries zero accounting overhead.
template <bool kCollectStats>
void rasterize_tile_span(const std::vector<Splat2D>& splats,
                         const TileWorkload& work, const BlendParams& params,
                         std::uint32_t tile_begin, std::uint32_t tile_end,
                         Image& image, RasterStats* stats) {
  const TileGrid& grid = work.grid;
  const int tiles_x = grid.tiles_x();
  for (std::uint32_t tile_id = tile_begin; tile_id < tile_end; ++tile_id) {
    const TileRange range = work.ranges[tile_id];
    if (range.size() == 0) continue;
    const int tx = static_cast<int>(tile_id) % tiles_x;
    const int ty = static_cast<int>(tile_id) / tiles_x;
    const int px0 = tx * grid.tile_size;
    const int py0 = ty * grid.tile_size;
    const int px1 = std::min(px0 + grid.tile_size, grid.width);
    const int py1 = std::min(py0 + grid.tile_size, grid.height);

    // Reference-kernel iteration order: each pixel walks the depth-sorted
    // splat list until its transmittance crosses the threshold.
    for (int py = py0; py < py1; ++py) {
      for (int px = px0; px < px1; ++px) {
        PixelBlendState st;
        const Vec2f pixel{static_cast<float>(px) + 0.5f,
                          static_cast<float>(py) + 0.5f};
        for (std::uint32_t i = range.begin; i < range.end; ++i) {
          if (st.transmittance < params.transmittance_min) {
            if constexpr (kCollectStats) ++stats->pixels_terminated;
            break;
          }
          const Splat2D& sp = splats[work.instances[i].splat_index];
          if constexpr (kCollectStats) {
            ++stats->pairs_evaluated;
            ++stats->pairs_per_tile[tile_id];
          }
          const float alpha = eval_splat_alpha(sp, pixel, params);
          if (accumulate(st, alpha, sp.color, params)) {
            if constexpr (kCollectStats) ++stats->pairs_blended;
          }
        }
        image.at(px, py) =
            st.accumulated + params.background * st.transmittance;
      }
    }
  }
}

}  // namespace

namespace detail {

void raster_span_reference(const std::vector<Splat2D>& splats,
                           const TileWorkload& work, const BlendParams& params,
                           std::uint32_t tile_begin, std::uint32_t tile_end,
                           Image& image, RasterStats* stats) {
  if (stats) {
    rasterize_tile_span<true>(splats, work, params, tile_begin, tile_end,
                              image, stats);
  } else {
    rasterize_tile_span<false>(splats, work, params, tile_begin, tile_end,
                               image, nullptr);
  }
}

}  // namespace detail

namespace {

/// rasterize_into() body; `path` is the fast kernel's code path.
void rasterize_on(Image& image, const std::vector<Splat2D>& splats,
                  const TileWorkload& work, const BlendParams& params,
                  RasterStats* stats, int num_threads, RasterKernel kernel,
                  detail::FastRasterPath path) {
  GAURAST_CHECK(num_threads >= 1);
  const TileGrid& grid = work.grid;
  GAURAST_CHECK(image.width() == grid.width && image.height() == grid.height);
  for (Vec3f& pixel : image.pixels()) pixel = params.background;
  const std::uint32_t tiles = grid.tile_count();

  // The fast kernel's exp()-skip bound depends only on frame-constant
  // inputs (alpha_min, opacity), so compute it once per splat here rather
  // than per duplicated tile instance during staging.
  std::vector<float> cutoffs;
  if (kernel == RasterKernel::kFast) {
    cutoffs.resize(splats.size());
    for (std::size_t i = 0; i < splats.size(); ++i) {
      cutoffs[i] = alpha_cutoff_power(params.alpha_min, splats[i].opacity);
    }
  }
  const auto span = [&](std::uint32_t begin, std::uint32_t end,
                        RasterStats* local) {
    if (kernel == RasterKernel::kFast) {
      detail::raster_span_fast(path, splats, work, params, cutoffs.data(),
                               begin, end, image, local);
    } else {
      detail::raster_span_reference(splats, work, params, begin, end, image,
                                    local);
    }
  };

  if (num_threads == 1 || tiles < 2) {
    if (stats) {
      RasterStats local;
      local.pairs_per_tile.assign(tiles, 0);
      span(0, tiles, &local);
      *stats = std::move(local);
    } else {
      span(0, tiles, nullptr);
    }
    return;
  }

  const auto workers = static_cast<std::uint32_t>(
      std::min<std::uint32_t>(static_cast<std::uint32_t>(num_threads), tiles));
  std::vector<RasterStats> per_thread(stats ? workers : 0);
  for (auto& st : per_thread) st.pairs_per_tile.assign(tiles, 0);
  common::parallel_for_workers(workers, [&](std::size_t w) {
    const auto worker = static_cast<std::uint32_t>(w);
    const std::uint32_t begin = tiles * worker / workers;
    const std::uint32_t end = tiles * (worker + 1) / workers;
    span(begin, end, stats ? &per_thread[worker] : nullptr);
  });

  if (stats) {
    RasterStats merged;
    merged.pairs_per_tile.assign(tiles, 0);
    for (const RasterStats& st : per_thread) {
      merged.pairs_evaluated += st.pairs_evaluated;
      merged.pairs_blended += st.pairs_blended;
      merged.pixels_terminated += st.pixels_terminated;
      for (std::uint32_t t = 0; t < tiles; ++t) {
        merged.pairs_per_tile[t] += st.pairs_per_tile[t];
      }
    }
    *stats = std::move(merged);
  }
}

}  // namespace

Image rasterize(const std::vector<Splat2D>& splats, const TileWorkload& work,
                const BlendParams& params, RasterStats* stats, int num_threads,
                RasterKernel kernel) {
  Image image(work.grid.width, work.grid.height);
  rasterize_into(image, splats, work, params, stats, num_threads, kernel);
  return image;
}

void rasterize_into(Image& image, const std::vector<Splat2D>& splats,
                    const TileWorkload& work, const BlendParams& params,
                    RasterStats* stats, int num_threads, RasterKernel kernel) {
  rasterize_on(image, splats, work, params, stats, num_threads, kernel,
               detail::dispatched_fast_raster_path());
}

Image detail::rasterize_fast(FastRasterPath path,
                             const std::vector<Splat2D>& splats,
                             const TileWorkload& work,
                             const BlendParams& params, RasterStats* stats,
                             int num_threads) {
  Image image(work.grid.width, work.grid.height);
  rasterize_on(image, splats, work, params, stats, num_threads,
               RasterKernel::kFast, path);
  return image;
}

}  // namespace gaurast::pipeline
