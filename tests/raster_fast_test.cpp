// Golden tests for the optimized Step-3 kernel (RasterKernel::kFast) and
// the parallel Step-2 binning path: both must be bit-identical to their
// serial/reference oracles — same images, same stats totals, same
// TileWorkload — across tile sizes, culling modes, stats modes and thread
// counts, and for the fast kernel on every SIMD path the host can run. This
// is the contract that lets the fast paths replace the reference
// implementations everywhere without weakening the repo's
// software-vs-hardware validation story.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gsmath/fastmath.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"

namespace gaurast::pipeline {
namespace {

scene::Camera test_camera(int w = 96, int h = 72) {
  scene::GeneratorParams params;
  return scene::default_camera(params, w, h);
}

scene::GaussianScene small_scene(std::uint64_t count = 1200,
                                 std::uint64_t seed = 42) {
  scene::GeneratorParams params;
  params.gaussian_count = count;
  params.seed = seed;
  return scene::generate_scene(params);
}

void expect_stats_equal(const RasterStats& a, const RasterStats& b) {
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
  EXPECT_EQ(a.pairs_blended, b.pairs_blended);
  EXPECT_EQ(a.pixels_terminated, b.pixels_terminated);
  ASSERT_EQ(a.pairs_per_tile.size(), b.pairs_per_tile.size());
  for (std::size_t t = 0; t < a.pairs_per_tile.size(); ++t) {
    EXPECT_EQ(a.pairs_per_tile[t], b.pairs_per_tile[t]) << "tile " << t;
  }
}

/// Bitwise image equality: stricter than max_abs_diff() == 0, which cannot
/// tell -0.0f from 0.0f or see a NaN.
void expect_bit_identical(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  EXPECT_EQ(std::memcmp(a.pixels().data(), b.pixels().data(),
                        a.pixels().size() * sizeof(Vec3f)),
            0);
}

/// Runs the fast kernel on every path the host supports, at each thread
/// count, stats on and off, and holds each run to the reference kernel's
/// image and stats totals.
void expect_fast_paths_match(const std::vector<Splat2D>& splats,
                             const TileWorkload& work,
                             const BlendParams& params,
                             const std::vector<int>& thread_counts = {1}) {
  RasterStats ref_stats;
  const Image reference = rasterize(splats, work, params, &ref_stats, 1,
                                    RasterKernel::kReference);
  for (const detail::FastRasterPath path :
       detail::supported_fast_raster_paths()) {
    for (const int threads : thread_counts) {
      SCOPED_TRACE(std::string("path=") + detail::to_string(path) +
                   " threads=" + std::to_string(threads));
      RasterStats fast_stats;
      expect_bit_identical(detail::rasterize_fast(path, splats, work, params,
                                                  &fast_stats, threads),
                           reference);
      expect_stats_equal(fast_stats, ref_stats);
      // Stats off: the zero-bookkeeping instantiation renders the same
      // image.
      expect_bit_identical(
          detail::rasterize_fast(path, splats, work, params, nullptr, threads),
          reference);
    }
  }
}

void expect_workloads_equal(const TileWorkload& a, const TileWorkload& b) {
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].key, b.instances[i].key) << "instance " << i;
    EXPECT_EQ(a.instances[i].splat_index, b.instances[i].splat_index)
        << "instance " << i;
  }
  ASSERT_EQ(a.ranges.size(), b.ranges.size());
  for (std::size_t t = 0; t < a.ranges.size(); ++t) {
    EXPECT_EQ(a.ranges[t].begin, b.ranges[t].begin) << "tile " << t;
    EXPECT_EQ(a.ranges[t].end, b.ranges[t].end) << "tile " << t;
  }
}

// ------------------------------------------------- Fast kernel golden --

/// The acceptance matrix: tile sizes {8,16,32,64} x both culling modes x
/// stats {on,off} x 1..8 threads x every SIMD path, every cell
/// bit-identical to the reference kernel (image) with exactly matching
/// stats totals.
TEST(FastKernelGolden, MatchesReferenceAcrossMatrix) {
  const auto gscene = small_scene();
  const auto cam = test_camera();
  for (const int tile_size : {8, 16, 32, 64}) {
    for (const CullingMode culling :
         {CullingMode::kBoundingBox, CullingMode::kTightEllipse}) {
      RendererConfig config;
      config.tile_size = tile_size;
      config.culling = culling;
      const GaussianRenderer renderer(config);
      const FrameResult prep = renderer.prepare(gscene, cam);
      SCOPED_TRACE("tile=" + std::to_string(tile_size) + " culling=" +
                   std::to_string(static_cast<int>(culling)));
      expect_fast_paths_match(prep.splats, prep.workload, config.blend,
                              {1, 2, 3, 4, 5, 6, 7, 8});
    }
  }
}

/// A width that is not a multiple of the 8-lane batch leaves a partial
/// batch (lanes < 8) at the right edge of every tile row that reaches it.
TEST(FastKernelGolden, PartialLaneBatchesMatch) {
  const auto gscene = small_scene(1500, 7);
  const auto cam = test_camera(83, 61);
  for (const int tile_size : {8, 16, 32, 64}) {
    RendererConfig config;
    config.tile_size = tile_size;
    const FrameResult prep = GaussianRenderer(config).prepare(gscene, cam);
    SCOPED_TRACE("tile=" + std::to_string(tile_size));
    expect_fast_paths_match(prep.splats, prep.workload, config.blend, {1, 3});
  }
}

TEST(FastKernel, DispatchesToTheLastSupportedPath) {
  const std::vector<detail::FastRasterPath> paths =
      detail::supported_fast_raster_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(detail::dispatched_fast_raster_path(), paths.back());
#if defined(__x86_64__)
  // SSE2 is the x86-64 baseline; the plain per-lane path is for other
  // architectures and refuses to run here.
  EXPECT_EQ(paths.front(), detail::FastRasterPath::kSse2);
  std::vector<Splat2D> splats(1);
  splats[0].mean = {4.0f, 4.0f};
  splats[0].radius = 4.0f;
  splats[0].depth = 1.0f;
  const TileWorkload work = sort_splats(splats, TileGrid{16, 16, 16});
  EXPECT_THROW(detail::rasterize_fast(detail::FastRasterPath::kPortable,
                                      splats, work, BlendParams{}),
               Error);
#else
  EXPECT_EQ(paths.front(), detail::FastRasterPath::kPortable);
#endif
}

TEST(FastKernelGolden, RendererLevelSelectionIsBitExact) {
  const auto gscene = small_scene(900);
  const auto cam = test_camera();
  RendererConfig reference_config;
  RendererConfig fast_config;
  fast_config.kernel = RasterKernel::kFast;
  fast_config.num_threads = 3;
  const FrameResult a =
      GaussianRenderer(reference_config).render(gscene, cam);
  const FrameResult b = GaussianRenderer(fast_config).render(gscene, cam);
  expect_bit_identical(a.image, b.image);
  expect_stats_equal(a.raster_stats, b.raster_stats);
}

/// An opaque stack saturates pixels quickly: the fast kernel's batch
/// early-out and per-lane termination accounting must reproduce the
/// reference pixels_terminated count exactly.
TEST(FastKernelGolden, TerminationHeavyStackMatches) {
  std::vector<Splat2D> splats(40);
  for (std::size_t i = 0; i < splats.size(); ++i) {
    splats[i].mean = {24.0f, 24.0f};
    splats[i].conic = {0.01f, 0.0f, 0.01f};
    splats[i].opacity = 0.95f;
    splats[i].radius = 24.0f;
    splats[i].depth = 1.0f + static_cast<float>(i);
    splats[i].color = {0.5f, 0.4f, 0.3f};
  }
  TileGrid grid{16, 48, 48};
  const TileWorkload work = sort_splats(splats, grid);
  RasterStats ref_stats;
  rasterize(splats, work, BlendParams{}, &ref_stats, 1,
            RasterKernel::kReference);
  EXPECT_GT(ref_stats.pixels_terminated, 0u);
  expect_fast_paths_match(splats, work, BlendParams{});
}

/// Non-default blend parameters exercise every discard branch: zero
/// alpha_min (where even guarded alpha == 0 pairs blend), disabled early
/// termination, an opacity exactly at the blend threshold, and a non-black
/// background. The indefinite conic of splat 3 gives positive powers, so
/// the numerical guard fires.
TEST(FastKernelGolden, EdgeBlendParamsMatch) {
  std::vector<Splat2D> splats(4);
  splats[0].mean = {10.0f, 10.0f};
  splats[0].conic = {0.08f, 0.01f, 0.06f};
  splats[0].opacity = 1.0f / 255.0f;  // exactly alpha_min
  splats[0].color = {0.9f, 0.1f, 0.2f};
  splats[0].depth = 1.0f;
  splats[0].radius = 12.0f;
  splats[1].mean = {20.0f, 14.0f};
  splats[1].conic = {0.02f, 0.0f, 0.02f};
  splats[1].opacity = 0.9f;
  splats[1].color = {0.2f, 0.8f, 0.4f};
  splats[1].depth = 2.0f;
  splats[1].radius = 20.0f;
  splats[2].mean = {16.0f, 20.0f};
  splats[2].conic = {0.5f, 0.2f, 0.4f};
  splats[2].opacity = 0.0f;  // never blends
  splats[2].color = {1.0f, 1.0f, 1.0f};
  splats[2].depth = 3.0f;
  splats[2].radius = 6.0f;
  splats[3].mean = {12.0f, 18.0f};
  splats[3].conic = {0.02f, 0.3f, 0.02f};
  splats[3].opacity = 0.7f;
  splats[3].color = {0.3f, 0.3f, 0.9f};
  splats[3].depth = 4.0f;
  splats[3].radius = 14.0f;
  TileGrid grid{16, 32, 32};
  const TileWorkload work = sort_splats(splats, grid);

  std::vector<BlendParams> cases(4);
  cases[0].alpha_min = 0.0f;  // zero-alpha pairs blend as exact no-ops
  cases[1].transmittance_min = 0.0f;  // early termination disabled
  cases[2].alpha_max = 2.0f;  // clamp never engages
  cases[3].background = {0.25f, 0.5f, 0.75f};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    expect_fast_paths_match(splats, work, cases[c]);
  }
}

/// Regression: a conic large enough to overflow the Gaussian power to
/// -inf, combined with alpha_min == 0 (where zero-alpha pairs still blend
/// as exact no-ops), must not be skipped by the exp() cutoff — stats and
/// image both have to match the reference.
TEST(FastKernelGolden, OverflowedPowerWithZeroAlphaMinMatches) {
  std::vector<Splat2D> splats(1);
  splats[0].mean = {0.5f, 0.5f};
  splats[0].conic = {3e38f, 0.0f, 3e38f};
  splats[0].opacity = 0.9f;
  splats[0].color = {1.0f, 0.5f, 0.2f};
  splats[0].depth = 1.0f;
  splats[0].radius = 40.0f;
  TileGrid grid{16, 32, 32};
  const TileWorkload work = sort_splats(splats, grid);
  BlendParams params;
  params.alpha_min = 0.0f;
  expect_fast_paths_match(splats, work, params);
}

/// Regression: a NaN opacity (unsanitized scene input) blends at alpha_max
/// through the reference arithmetic (std::min(alpha_max, NaN) returns
/// alpha_max); the cutoff must not classify it as skippable.
TEST(FastKernelGolden, NanOpacityMatchesReference) {
  std::vector<Splat2D> splats(1);
  splats[0].mean = {8.0f, 8.0f};
  splats[0].conic = {0.05f, 0.0f, 0.05f};
  splats[0].opacity = std::numeric_limits<float>::quiet_NaN();
  splats[0].color = {0.3f, 0.6f, 0.9f};
  splats[0].depth = 1.0f;
  splats[0].radius = 10.0f;
  TileGrid grid{16, 32, 32};
  const TileWorkload work = sort_splats(splats, grid);
  RasterStats ref_stats;
  rasterize(splats, work, BlendParams{}, &ref_stats, 1,
            RasterKernel::kReference);
  EXPECT_GT(ref_stats.pairs_blended, 0u);
  expect_fast_paths_match(splats, work, BlendParams{});
}

TEST(FastKernel, ScratchArenaIsReusedAcrossFrames) {
  const auto gscene = small_scene(800);
  const auto cam = test_camera();
  const GaussianRenderer renderer;
  const FrameResult prep = renderer.prepare(gscene, cam);
  rasterize(prep.splats, prep.workload, renderer.config().blend, nullptr, 1,
            RasterKernel::kFast);
  RasterScratch& scratch = thread_raster_scratch();
  const std::size_t capacity = scratch.capacity();
  const float* staged = scratch.mean_x.data();
  EXPECT_GT(capacity, 0u);
  // A second frame of the same shape must not grow or reallocate the
  // calling thread's arena — serving reuses it job after job.
  rasterize(prep.splats, prep.workload, renderer.config().blend, nullptr, 1,
            RasterKernel::kFast);
  EXPECT_EQ(thread_raster_scratch().capacity(), capacity);
  EXPECT_EQ(thread_raster_scratch().mean_x.data(), staged);
}

TEST(FastKernel, KernelNamesRoundTrip) {
  EXPECT_EQ(raster_kernel_from_string("reference"), RasterKernel::kReference);
  EXPECT_EQ(raster_kernel_from_string("fast"), RasterKernel::kFast);
  EXPECT_STREQ(to_string(RasterKernel::kReference), "reference");
  EXPECT_STREQ(to_string(RasterKernel::kFast), "fast");
  EXPECT_THROW(raster_kernel_from_string("cuda"), Error);
}

TEST(AlphaCutoff, NeverSkipsABlendablePair) {
  // Sweep powers across the cutoff neighborhood: every power the cutoff
  // would skip must evaluate below alpha_min through the reference
  // arithmetic.
  const float alpha_min = 1.0f / 255.0f;
  for (const float opacity : {0.001f, 0.004f, 0.05f, 0.5f, 0.99f, 1.0f}) {
    const float cutoff = alpha_cutoff_power(alpha_min, opacity);
    for (int i = 0; i < 100; ++i) {
      const float power = cutoff - static_cast<float>(i) * 1e-4f;
      const float alpha = std::min(0.99f, opacity * std::exp(power));
      EXPECT_LT(alpha, alpha_min)
          << "opacity " << opacity << " power " << power;
    }
  }
  // Degenerate parameter regimes fall back to never/always cuttable.
  EXPECT_LT(alpha_cutoff_power(0.0f, 0.5f), -1e30f);
  EXPECT_GT(alpha_cutoff_power(alpha_min, 0.0f), 1e30f);
}

// --------------------------------------------- Parallel binning golden --

/// Parallel binning must produce the identical TileWorkload — same
/// instances, same ranges, same per-tile depth order — as the serial
/// radix-sort path, for every thread count, tile size and culling mode.
TEST(ParallelSortGolden, MatchesSerialAcrossMatrix) {
  const auto gscene = small_scene(1500);
  const auto cam = test_camera(128, 96);
  const auto splats = preprocess(gscene, cam);
  for (const int tile_size : {8, 16, 32, 64}) {
    TileGrid grid{tile_size, cam.width(), cam.height()};
    for (const CullingMode culling :
         {CullingMode::kBoundingBox, CullingMode::kTightEllipse}) {
      SortStats serial_stats;
      const TileWorkload serial =
          sort_splats(splats, grid, &serial_stats, culling);
      for (int threads = 2; threads <= 8; ++threads) {
        SCOPED_TRACE("tile=" + std::to_string(tile_size) + " culling=" +
                     std::to_string(static_cast<int>(culling)) +
                     " threads=" + std::to_string(threads));
        SortStats parallel_stats;
        const TileWorkload parallel = sort_splats(
            splats, grid, &parallel_stats, culling, 1.0f / 255.0f, threads);
        expect_workloads_equal(serial, parallel);
        EXPECT_EQ(parallel_stats.instances, serial_stats.instances);
        EXPECT_EQ(parallel_stats.splats_in, serial_stats.splats_in);
      }
    }
  }
}

TEST(ParallelSortGolden, MoreThreadsThanSplatsIsSafe) {
  std::vector<Splat2D> splats(3);
  for (std::size_t i = 0; i < splats.size(); ++i) {
    splats[i].mean = {10.0f + 8.0f * static_cast<float>(i), 10.0f};
    splats[i].radius = 3.0f;
    splats[i].depth = 3.0f - static_cast<float>(i);
  }
  TileGrid grid{16, 64, 64};
  const TileWorkload serial = sort_splats(splats, grid);
  const TileWorkload parallel = sort_splats(
      splats, grid, nullptr, CullingMode::kBoundingBox, 1.0f / 255.0f, 8);
  expect_workloads_equal(serial, parallel);
}

TEST(ParallelSortGolden, EmptySplatListYieldsEmptyWorkload) {
  TileGrid grid{16, 64, 64};
  const TileWorkload work = sort_splats(
      {}, grid, nullptr, CullingMode::kBoundingBox, 1.0f / 255.0f, 4);
  EXPECT_TRUE(work.instances.empty());
  ASSERT_EQ(work.ranges.size(), grid.tile_count());
  for (const TileRange& r : work.ranges) EXPECT_EQ(r.size(), 0u);
}

// ------------------------------------------------- Depth validation --

/// depth_key_bits is debug-assert-only now; the user-facing validation
/// happens once at workload build and names the offending splat.
TEST(DepthValidation, NegativeDepthRejectedAtWorkloadBuild) {
  std::vector<Splat2D> splats(2);
  splats[0].mean = {10.0f, 10.0f};
  splats[0].radius = 3.0f;
  splats[0].depth = 1.0f;
  splats[1].mean = {20.0f, 20.0f};
  splats[1].radius = 3.0f;
  splats[1].depth = -2.0f;
  TileGrid grid{16, 64, 64};
  for (const int threads : {1, 4}) {
    try {
      sort_splats(splats, grid, nullptr, CullingMode::kBoundingBox,
                  1.0f / 255.0f, threads);
      FAIL() << "negative depth must be rejected (threads " << threads << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("splat 1"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(duplicate_to_tiles(splats, grid), Error);
  splats[1].depth = 2.0f;
  EXPECT_NO_THROW(sort_splats(splats, grid));
}

}  // namespace
}  // namespace gaurast::pipeline
