// Step 3 of the 3DGS pipeline (paper Fig. 3(d)-(e)): Gaussian rasterization —
// per-pixel alpha evaluation and front-to-back color accumulation.
//
// This is the reference software implementation of the operator GauRast
// accelerates; the hardware model executes eval_splat_alpha/accumulate with
// identical arithmetic so images match exactly (paper Sec. V-A validation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gsmath/image.hpp"
#include "pipeline/sort.hpp"

namespace gaurast::pipeline {

/// Which Step-3 software kernel executes the tile workload.
///
/// kReference is the scalar oracle: per-pixel front-to-back blending exactly
/// as the paper's CUDA kernel (and the GauRast PE datapath) computes it.
/// kFast is the optimized host kernel: it stages each tile's splats once
/// into SoA scratch arrays and walks pixels in 8-lane row batches with
/// explicit SIMD (SSE2, or AVX where the host has it, picked once per
/// process). Per splat, vector lane masks reject terminated lanes and pairs
/// provably below the blend threshold; only the surviving lanes run the
/// scalar exp() and blend. It stays bit-identical to kReference on every
/// dispatched path (enforced by the raster_fast_test golden matrix).
enum class RasterKernel {
  kReference,
  kFast,
};

/// "reference" | "fast" — the spelling used by CLI flags and JSON reports.
const char* to_string(RasterKernel kernel);

/// Parses "reference" | "fast"; throws gaurast::Error (naming the valid
/// spellings) otherwise.
RasterKernel raster_kernel_from_string(const std::string& name);

/// Blending constants of the reference implementation.
struct BlendParams {
  float alpha_min = 1.0f / 255.0f;  ///< discard contributions below this
  float alpha_max = 0.99f;          ///< clamp per-splat alpha
  float transmittance_min = 1e-4f;  ///< early termination threshold on T
  Vec3f background{0.0f, 0.0f, 0.0f};
};

/// Per-splat-per-pixel alpha evaluation:
///   power = -1/2 d^T Conic d,  alpha = min(alpha_max, opacity * exp(power)).
/// Returns alpha, or 0 when power > 0 (numerical guard, as in the
/// reference kernel). `d` is pixel_center - splat_mean.
float eval_splat_alpha(const Splat2D& splat, Vec2f pixel,
                       const BlendParams& params);

/// Running blend state of one pixel.
struct PixelBlendState {
  Vec3f accumulated{0, 0, 0};
  float transmittance = 1.0f;
  bool terminated() const { return transmittance < 1e-4f; }
};

/// Applies one splat contribution front-to-back:
///   C += T * alpha * color;  T *= (1 - alpha).
/// Skips alphas below params.alpha_min. Returns true if applied.
bool accumulate(PixelBlendState& state, float alpha, Vec3f color,
                const BlendParams& params);

/// Per-frame Step 3 statistics (these are the quantities SceneProfile
/// captures at full scale).
struct RasterStats {
  std::uint64_t pairs_evaluated = 0;  ///< splat-pixel alpha evaluations
  std::uint64_t pairs_blended = 0;    ///< passed the alpha_min threshold
  std::uint64_t pixels_terminated = 0;
  std::vector<std::uint64_t> pairs_per_tile;  ///< load per tile (for the sim)

  double mean_pairs_per_pixel(std::uint64_t pixels) const {
    return pixels == 0 ? 0.0
                       : static_cast<double>(pairs_evaluated) /
                             static_cast<double>(pixels);
  }
};

/// Per-thread scratch arena for the fast kernel's SoA tile staging. The
/// vectors only ever grow, so a long-lived thread (a serve worker, the CLI
/// main thread) stops allocating after its first frame — staging becomes a
/// copy into already-warm buffers instead of a per-tile malloc.
struct RasterScratch {
  std::vector<float> mean_x, mean_y;
  std::vector<float> conic_a, conic_b, conic_c;
  std::vector<float> opacity, cutoff;
  std::vector<float> color_r, color_g, color_b;

  /// Grows every array to hold at least `n` splats; never shrinks.
  void ensure(std::size_t n);

  /// Staged capacity in splats (what ensure() has grown to so far).
  std::size_t capacity() const { return mean_x.size(); }
};

/// The calling thread's scratch arena, reused across frames for the
/// lifetime of the thread (this is what lets the runtime serve loop render
/// job after job without per-job staging allocations).
RasterScratch& thread_raster_scratch();

namespace detail {
/// Reference (scalar oracle) kernel over tiles [tile_begin, tile_end).
/// `stats` may be null, in which case no counter is touched (the stats-off
/// instantiation carries zero bookkeeping in the inner loop).
void raster_span_reference(const std::vector<Splat2D>& splats,
                           const TileWorkload& work, const BlendParams& params,
                           std::uint32_t tile_begin, std::uint32_t tile_end,
                           Image& image, RasterStats* stats);

/// The fast kernel's row-batch code paths: one 8-lane kernel body compiled
/// for the x86-64 SSE2 baseline, for AVX, or as plain per-lane code on other
/// architectures. All are bit-identical to the reference kernel.
enum class FastRasterPath { kPortable, kSse2, kAvx };

/// "portable" | "sse2" | "avx".
const char* to_string(FastRasterPath path);

/// The paths this host can execute, the one rasterize() dispatches to last.
std::vector<FastRasterPath> supported_fast_raster_paths();

/// The path RasterKernel::kFast runs on, picked once per process.
FastRasterPath dispatched_fast_raster_path();

/// Fast kernel over tiles [tile_begin, tile_end) on `path`; bit-identical
/// images and identical stats totals to raster_span_reference. Uses the
/// calling thread's RasterScratch. `splat_cutoffs` holds one precomputed
/// gsmath::alpha_cutoff_power value per splat (computed once per frame by
/// rasterize(), not per duplicated tile instance). Throws gaurast::Error
/// when the host cannot run `path`.
void raster_span_fast(FastRasterPath path, const std::vector<Splat2D>& splats,
                      const TileWorkload& work, const BlendParams& params,
                      const float* splat_cutoffs, std::uint32_t tile_begin,
                      std::uint32_t tile_end, Image& image,
                      RasterStats* stats);

/// rasterize() with RasterKernel::kFast forced onto `path` instead of the
/// dispatched one, so tests can hold every path to the reference kernel.
Image rasterize_fast(FastRasterPath path, const std::vector<Splat2D>& splats,
                     const TileWorkload& work, const BlendParams& params,
                     RasterStats* stats = nullptr, int num_threads = 1);
}  // namespace detail

/// Rasterizes the sorted tile workload over all pixels. Mirrors the
/// reference CUDA kernel: every pixel of a tile walks the tile's
/// depth-sorted splat list, evaluating alpha and accumulating until the
/// transmittance threshold. Tiles are independent, so `num_threads` > 1
/// splits them across host threads with bit-identical results (per-thread
/// statistics are merged deterministically). `kernel` selects the Step-3
/// software kernel; both produce bit-identical images and stats.
Image rasterize(const std::vector<Splat2D>& splats, const TileWorkload& work,
                const BlendParams& params, RasterStats* stats = nullptr,
                int num_threads = 1,
                RasterKernel kernel = RasterKernel::kReference);

/// Allocation-free variant: rasterizes into `image`, which must already
/// have the workload's grid dimensions. Every pixel is overwritten
/// (background fill, then blending), so the result is bit-identical to
/// rasterize() whatever `image` held before. This is what lets a frame
/// reuse the buffer its preprocess stage allocated instead of paying a
/// second image allocation in Step 3.
void rasterize_into(Image& image, const std::vector<Splat2D>& splats,
                    const TileWorkload& work, const BlendParams& params,
                    RasterStats* stats = nullptr, int num_threads = 1,
                    RasterKernel kernel = RasterKernel::kReference);

}  // namespace gaurast::pipeline
