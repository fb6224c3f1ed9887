// Integration tests for the GauRast hardware rasterizer model: functional
// image equality against the software pipelines (the repo's analogue of the
// paper's RTL validation), timing sanity, and configuration errors.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "common/error.hpp"
#include "core/hw_rasterizer.hpp"
#include "core/pe.hpp"
#include "gsmath/fastmath.hpp"
#include "mesh/primitives.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"

namespace gaurast::core {
namespace {

struct Workbench {
  scene::GaussianScene gscene;
  scene::Camera camera;
  pipeline::GaussianRenderer renderer;
  pipeline::FrameResult frame;

  Workbench(std::uint64_t gaussians, int w, int h, std::uint64_t seed = 42)
      : gscene([&] {
          scene::GeneratorParams params;
          params.gaussian_count = gaussians;
          params.seed = seed;
          return scene::generate_scene(params);
        }()),
        camera(scene::default_camera({}, w, h)),
        renderer(),
        frame(renderer.render(gscene, camera)) {}
};

TEST(HwGaussian, ImageBitExactVsSoftware) {
  Workbench wb(3000, 160, 120);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_EQ(r.image.max_abs_diff(wb.frame.image), 0.0f);
}

TEST(HwGaussian, PairCountsMatchSoftwareStats) {
  Workbench wb(2000, 128, 96);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_EQ(r.pairs_evaluated, wb.frame.raster_stats.pairs_evaluated);
  EXPECT_EQ(r.pairs_blended, wb.frame.raster_stats.pairs_blended);
}

TEST(HwGaussian, MoreModulesNeverSlower) {
  Workbench wb(4000, 160, 120);
  RasterizerConfig one = RasterizerConfig::prototype16();
  RasterizerConfig four = one;
  four.module_count = 4;
  const HwRasterResult r1 = HardwareRasterizer(one).rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  const HwRasterResult r4 = HardwareRasterizer(four).rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_LT(r4.timing.makespan_cycles, r1.timing.makespan_cycles);
  EXPECT_EQ(r4.image.max_abs_diff(r1.image), 0.0f);  // timing-independent
}

TEST(HwGaussian, UtilizationWithinBounds) {
  Workbench wb(3000, 160, 120);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_GT(r.utilization(), 0.3);
  EXPECT_LE(r.utilization(), 1.0);
}

TEST(HwGaussian, EmptyWorkloadIsBackgroundAndFast) {
  pipeline::TileGrid grid{16, 64, 48};
  pipeline::TileWorkload work;
  work.grid = grid;
  work.ranges.assign(grid.tile_count(), pipeline::TileRange{});
  pipeline::BlendParams params;
  params.background = {0.3f, 0.2f, 0.1f};
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians({}, work, params);
  EXPECT_EQ(r.pairs_evaluated, 0u);
  EXPECT_EQ(r.timing.makespan_cycles, 0u);
  EXPECT_EQ(r.image.at(10, 10), params.background);
}

TEST(HwGaussian, MismatchedTileSizeThrows) {
  Workbench wb(500, 64, 48);
  RasterizerConfig cfg = RasterizerConfig::prototype16();
  cfg.tile_size = 32;
  const HardwareRasterizer hw(cfg);
  EXPECT_THROW(hw.rasterize_gaussians(wb.frame.splats, wb.frame.workload,
                                      wb.renderer.config().blend),
               Error);
}

TEST(HwGaussian, Fp16CloseButNotBitExact) {
  Workbench wb(2000, 128, 96);
  RasterizerConfig cfg = RasterizerConfig::fp16(16);
  const HardwareRasterizer hw(cfg);
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  const float diff = r.image.max_abs_diff(wb.frame.image);
  EXPECT_GT(diff, 0.0f);
  EXPECT_LT(diff, 0.1f);
  EXPECT_GT(r.image.psnr(wb.frame.image), 30.0);
}

TEST(HwGaussian, CountersPopulated) {
  Workbench wb(1000, 96, 64);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_GT(r.counters.get(sim::ops::kFp32Mul), r.pairs_evaluated * 6);
  EXPECT_GT(r.counters.get(sim::ops::kBufRead), 0u);
  EXPECT_EQ(r.counters.get(sim::ops::kPairsProcessed), r.pairs_evaluated);
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Div), 0u);
}

// ------------------------------------------------------- Golden frames --

/// Every named counter, the pair totals, the makespan and the energy of one
/// fixed frame. The values were recorded from an earlier build of the model
/// (string-keyed counting per op), so they check the current code against
/// numbers it did not produce. Any drift in op accounting, buffer traffic or
/// timing shows up here as an exact mismatch.
struct GoldenFrame {
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t pairs_evaluated;
  std::uint64_t pairs_blended;
  std::uint64_t makespan_cycles;
  double energy_mj;
};

void expect_golden(const HwRasterResult& r, const RasterizerConfig& config,
                   const GoldenFrame& golden) {
  const std::map<std::string, std::uint64_t> counters(r.counters.all().begin(),
                                                      r.counters.all().end());
  EXPECT_EQ(counters, golden.counters);
  EXPECT_EQ(r.pairs_evaluated, golden.pairs_evaluated);
  EXPECT_EQ(r.pairs_blended, golden.pairs_blended);
  EXPECT_EQ(r.timing.makespan_cycles, golden.makespan_cycles);
  EXPECT_DOUBLE_EQ(
      EnergyModel(config).from_counters(r.counters, r.runtime_ms()).total_mj(),
      golden.energy_mj);
}

TEST(HwGolden, Fp32GaussianFrameCountersUnchanged) {
  Workbench wb(2000, 128, 96);
  const RasterizerConfig config = RasterizerConfig::scaled300();
  const HwRasterResult r = HardwareRasterizer(config).rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  expect_golden(r, config,
                {{{"buf.read", 9060040u},
                  {"buf.write", 8934400u},
                  {"fp32.add", 3677524u},
                  {"fp32.cmp", 2680320u},
                  {"fp32.exp", 893440u},
                  {"fp32.mul", 6383785u},
                  {"pe.pairs", 893440u},
                  {"pe.primitives", 3490u}},
                 893440u,
                 25941u,
                 6580u,
                 0.080034120114999996});
}

TEST(HwGolden, Fp16GaussianFrameCountersUnchanged) {
  Workbench wb(2000, 128, 96);
  const RasterizerConfig config = RasterizerConfig::fp16(30, 5);  // edge-fp16
  const HwRasterResult r = HardwareRasterizer(config).rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  expect_golden(r, config,
                {{{"buf.read", 8997220u},
                  {"buf.write", 8934400u},
                  {"fp32.add", 3677512u},
                  {"fp32.cmp", 2680320u},
                  {"fp32.exp", 893440u},
                  {"fp32.mul", 6383770u},
                  {"pe.pairs", 893440u},
                  {"pe.primitives", 3490u}},
                 893440u,
                 25938u,
                 1845u,
                 0.042040636434499998});
}

TEST(HwGolden, TriangleFrameCountersUnchanged) {
  const scene::Camera cam = scene::default_camera({}, 160, 120);
  const auto prims =
      mesh::build_primitives(mesh::make_sphere(16, 24, 2.0f), cam);
  const RasterizerConfig config = RasterizerConfig::prototype16();
  const HwRasterResult r = HardwareRasterizer(config).rasterize_triangles(
      prims, 160, 120, {0.05f, 0.05f, 0.08f});
  expect_golden(r, config,
                {{{"buf.read", 1539428u},
                  {"buf.write", 1518080u},
                  {"fp32.add", 465070u},
                  {"fp32.cmp", 456670u},
                  {"fp32.div", 434u},
                  {"fp32.mul", 12082u},
                  {"pe.pairs", 151808u},
                  {"pe.primitives", 593u}},
                 151808u,
                 151808u,
                 9644u,
                 0.0056871777500000003});
}

// ----------------------------------------------------------- Triangles --

TEST(HwTriangle, ImageBitExactVsReferenceRenderer) {
  const scene::Camera cam = scene::default_camera({}, 160, 120);
  const mesh::TriangleMesh sphere = mesh::make_sphere(16, 24, 2.0f);
  const Vec3f bg{0.05f, 0.05f, 0.08f};
  const mesh::RasterOutput sw = mesh::render_mesh(sphere, cam, bg);
  const auto prims = mesh::build_primitives(sphere, cam);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_triangles(prims, 160, 120, bg);
  EXPECT_EQ(r.image.max_abs_diff(sw.color), 0.0f);
}

TEST(HwTriangle, WorksAcrossMeshes) {
  const scene::Camera cam = scene::default_camera({}, 128, 96);
  const Vec3f bg{0, 0, 0};
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  for (const mesh::TriangleMesh& m :
       {mesh::make_cube(), mesh::make_torus(12, 8, 2.0f, 0.6f),
        mesh::make_terrain(16, 10.0f, 1.0f, 3)}) {
    const mesh::RasterOutput sw = mesh::render_mesh(m, cam, bg);
    const auto prims = mesh::build_primitives(m, cam);
    const HwRasterResult r =
        hw.rasterize_triangles(prims, cam.width(), cam.height(), bg);
    EXPECT_EQ(r.image.max_abs_diff(sw.color), 0.0f);
  }
}

TEST(HwTriangle, EmptyPrimitiveStreamGivesBackground) {
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const Vec3f bg{0.5f, 0.6f, 0.7f};
  const HwRasterResult r = hw.rasterize_triangles({}, 64, 48, bg);
  EXPECT_EQ(r.image.at(32, 24), bg);
  EXPECT_EQ(r.pairs_evaluated, 0u);
}

TEST(HwTriangle, DividerCountMatchesPrimitiveCount) {
  const scene::Camera cam = scene::default_camera({}, 96, 72);
  const auto prims = mesh::build_primitives(mesh::make_cube(), cam);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r =
      hw.rasterize_triangles(prims, 96, 72, {0, 0, 0});
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Div), prims.size());
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Exp), 0u);
}

TEST(HwTriangle, InvalidDimensionsThrow) {
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  EXPECT_THROW(hw.rasterize_triangles({}, 0, 48, {0, 0, 0}), Error);
}

// ------------------------------------------------------ Config presets --

TEST(Config, PresetsValidateAndScale) {
  EXPECT_NO_THROW(RasterizerConfig::prototype16().validate());
  EXPECT_EQ(RasterizerConfig::prototype16().total_pes(), 16);
  EXPECT_EQ(RasterizerConfig::scaled240().total_pes(), 240);
  EXPECT_EQ(RasterizerConfig::scaled300().total_pes(), 300);
  EXPECT_NEAR(RasterizerConfig::scaled300().peak_pairs_per_second(), 300e9,
              1e6);
}

TEST(Config, Fp16QuadruplesPairRate) {
  EXPECT_EQ(RasterizerConfig::prototype16().pairs_per_cycle_per_pe(), 1);
  EXPECT_EQ(RasterizerConfig::fp16(16).pairs_per_cycle_per_pe(), 4);
}

TEST(Config, PrimitiveBytesTrackPrecision) {
  EXPECT_EQ(gaussian_primitive_bytes(Precision::kFp32), 36u);
  EXPECT_EQ(gaussian_primitive_bytes(Precision::kFp16), 18u);
  EXPECT_EQ(pixel_state_bytes(Precision::kFp32), 16u);
}

TEST(Config, ValidationCatchesNonsense) {
  RasterizerConfig c = RasterizerConfig::prototype16();
  c.clock_ghz = -1.0;
  EXPECT_THROW(c.validate(), Error);
  c = RasterizerConfig::prototype16();
  c.module_count = 0;
  EXPECT_THROW(c.validate(), Error);
  c = RasterizerConfig::prototype16();
  c.pipeline_depth = 0;
  EXPECT_THROW(c.validate(), Error);
}

/// Parameterized image-equality sweep across scene sizes, resolutions and
/// viewpoints — the broad version of the paper's functional validation —
/// plus the inputs at the edge of the FP32 exp skip: alpha_min = 0 (the
/// cutoff is -inf, nothing is skipped), opacity 0 / negative / NaN, and a
/// conic so sharp that the power underflows to -inf.
enum class EdgeInput : std::uint32_t {
  kNone,
  kZeroAlphaMin,
  kZeroOpacity,
  kNegativeOpacity,
  kNanOpacity,
  kSharpConic,
  kSharpConicZeroAlphaMin,
};

// Field layout keeps the byte image of the plain sweep cases (edge == kNone
// fills the high half of the former 64-bit splat count with zeros), so
// their ctest names, which print the parameter's bytes, do not change.
struct EqualityCase {
  std::uint32_t gaussians;
  EdgeInput edge;
  int width;
  int height;
  std::uint64_t seed;
};

constexpr EqualityCase sweep(std::uint32_t gaussians, int width, int height,
                             std::uint64_t seed,
                             EdgeInput edge = EdgeInput::kNone) {
  return {gaussians, edge, width, height, seed};
}

/// The case's splats and blend parameters. Splat edits go to every third
/// splat, so edited and ordinary splats share tiles; the workload (tile
/// lists) stays the unedited frame's.
struct CaseInputs {
  std::vector<pipeline::Splat2D> splats;
  pipeline::BlendParams params;
};

CaseInputs case_inputs(const Workbench& wb, EdgeInput edge) {
  CaseInputs in{wb.frame.splats, wb.renderer.config().blend};
  if (edge == EdgeInput::kZeroAlphaMin ||
      edge == EdgeInput::kSharpConicZeroAlphaMin) {
    in.params.alpha_min = 0.0f;
  }
  for (std::size_t i = 0; i < in.splats.size(); i += 3) {
    pipeline::Splat2D& s = in.splats[i];
    switch (edge) {
      case EdgeInput::kNone:
      case EdgeInput::kZeroAlphaMin:
        break;
      case EdgeInput::kZeroOpacity:
        s.opacity = 0.0f;
        break;
      case EdgeInput::kNegativeOpacity:
        s.opacity = -0.5f;
        break;
      case EdgeInput::kNanOpacity:
        s.opacity = std::numeric_limits<float>::quiet_NaN();
        break;
      case EdgeInput::kSharpConic:
      case EdgeInput::kSharpConicZeroAlphaMin:
        // d^2 * FLT_MAX overflows for any offset past one pixel.
        s.conic = {std::numeric_limits<float>::max(), 0.0f,
                   std::numeric_limits<float>::max()};
        break;
    }
  }
  return in;
}

/// What the tile loop must produce: the workload walked in the model's
/// order, calling the per-pair datapath (which never skips exp) once per
/// pair.
struct UnskippedFrame {
  Image image;
  OpTally ops;
  std::uint64_t pairs = 0;
};

UnskippedFrame unskipped_loop(const std::vector<pipeline::Splat2D>& splats,
                              const pipeline::TileWorkload& work,
                              const pipeline::BlendParams& params,
                              Precision precision) {
  const pipeline::TileGrid& grid = work.grid;
  UnskippedFrame out;
  out.image = Image(grid.width, grid.height, params.background);
  for (int py = 0; py < grid.height; ++py) {
    for (int px = 0; px < grid.width; ++px) {
      const int tile = (py / grid.tile_size) * grid.tiles_x() +
                       px / grid.tile_size;
      const pipeline::TileRange range = work.ranges[tile];
      if (range.size() == 0) continue;
      pipeline::PixelBlendState state;
      const Vec2f pixel{static_cast<float>(px) + 0.5f,
                        static_cast<float>(py) + 0.5f};
      for (std::uint32_t i = range.begin; i < range.end; ++i) {
        if (state.transmittance < params.transmittance_min) break;
        pe_gaussian_pair(splats[work.instances[i].splat_index], pixel, state,
                         params, precision, out.ops);
        ++out.pairs;
      }
      out.image.at(px, py) =
          state.accumulated + params.background * state.transmittance;
    }
  }
  return out;
}

/// Bitwise image equality (NaN-safe, unlike max_abs_diff).
bool same_bits(const Image& a, const Image& b) {
  return a.pixel_count() == b.pixel_count() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixel_count() * sizeof(Vec3f)) == 0;
}

void expect_ops_equal(const HwRasterResult& r, const UnskippedFrame& loop) {
  EXPECT_EQ(r.pairs_evaluated, loop.pairs);
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Add), loop.ops.add);
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Mul), loop.ops.mul);
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Exp), loop.ops.exp);
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Cmp), loop.ops.cmp);
  EXPECT_EQ(r.counters.get(sim::ops::kFp32Div), loop.ops.div);
}

class HwEqualityTest : public ::testing::TestWithParam<EqualityCase> {};

TEST_P(HwEqualityTest, HardwareMatchesSoftwareExactly) {
  const EqualityCase& ec = GetParam();
  Workbench wb(ec.gaussians, ec.width, ec.height, ec.seed);
  const auto [splats, params] = case_inputs(wb, ec.edge);
  pipeline::RasterStats stats;
  const Image reference =
      pipeline::rasterize(splats, wb.frame.workload, params, &stats, 1,
                          pipeline::RasterKernel::kReference);

  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r =
      hw.rasterize_gaussians(splats, wb.frame.workload, params);
  EXPECT_TRUE(same_bits(r.image, reference));
  EXPECT_EQ(r.pairs_evaluated, stats.pairs_evaluated);
  // The exp skip never changes what is tallied.
  expect_ops_equal(r, unskipped_loop(splats, wb.frame.workload, params,
                                     Precision::kFp32));
}

TEST_P(HwEqualityTest, Fp16NeverSkipsExp) {
  const EqualityCase& ec = GetParam();
  Workbench wb(ec.gaussians, ec.width, ec.height, ec.seed);
  const auto [splats, params] = case_inputs(wb, ec.edge);

  const HardwareRasterizer hw(RasterizerConfig::fp16(16));
  const HwRasterResult r =
      hw.rasterize_gaussians(splats, wb.frame.workload, params);
  const UnskippedFrame loop =
      unskipped_loop(splats, wb.frame.workload, params, Precision::kFp16);
  EXPECT_TRUE(same_bits(r.image, loop.image));
  expect_ops_equal(r, loop);
}

INSTANTIATE_TEST_SUITE_P(
    ScenesAndResolutions, HwEqualityTest,
    ::testing::Values(sweep(500, 64, 48, 1), sweep(1000, 96, 96, 2),
                      sweep(2000, 160, 90, 3), sweep(4000, 128, 128, 4),
                      sweep(8000, 200, 150, 5), sweep(100, 48, 64, 6),
                      sweep(1, 32, 32, 7),
                      sweep(2000, 96, 72, 8, EdgeInput::kZeroAlphaMin),
                      sweep(2000, 96, 72, 9, EdgeInput::kZeroOpacity),
                      sweep(2000, 96, 72, 10, EdgeInput::kNegativeOpacity),
                      sweep(2000, 96, 72, 11, EdgeInput::kNanOpacity),
                      sweep(2000, 96, 72, 12, EdgeInput::kSharpConic),
                      sweep(2000, 96, 72, 13,
                            EdgeInput::kSharpConicZeroAlphaMin)));

}  // namespace
}  // namespace gaurast::core
