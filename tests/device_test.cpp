// Tests for the GauRastDevice public API, texture sampling, scene filters
// and the GPU raster kernel breakdown.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/device.hpp"
#include "mesh/primitives.hpp"
#include "mesh/texture.hpp"
#include "scene/filters.hpp"
#include "scene/generator.hpp"

namespace gaurast {
namespace {

scene::GaussianScene device_scene(std::uint64_t n = 2000) {
  scene::GeneratorParams params;
  params.gaussian_count = n;
  return scene::generate_scene(params);
}

// -------------------------------------------------------------- Device --

TEST(Device, GaussianFrameMatchesPipelines) {
  const core::GauRastDevice device(core::RasterizerConfig::prototype16());
  const auto sc = device_scene();
  const scene::Camera cam = scene::default_camera({}, 128, 96);
  const auto frame = device.render(sc, cam);

  const pipeline::GaussianRenderer reference;
  const auto ref = reference.render(sc, cam);
  EXPECT_EQ(frame.image.max_abs_diff(ref.image), 0.0f);
  EXPECT_EQ(frame.pairs_evaluated, ref.raster_stats.pairs_evaluated);
  EXPECT_GT(frame.raster_model_ms, 0.0);
  EXPECT_GT(frame.stage12_model_ms, 0.0);
  EXPECT_GT(frame.energy_soc.total_mj(), 0.0);
}

TEST(Device, RasterPreparedLeavesTheImageInTheFrameOnly) {
  const core::GauRastDevice device(core::RasterizerConfig::prototype16());
  const auto sc = device_scene();
  const scene::Camera cam = scene::default_camera({}, 96, 72);
  const pipeline::RendererConfig config;
  pipeline::FrameResult rendered;
  const auto whole = device.render(sc, cam, config, &rendered);

  pipeline::FrameResult frame = pipeline::GaussianRenderer(config).prepare(sc, cam);
  const auto staged = device.raster_prepared(frame, config);
  EXPECT_EQ(staged.image.pixel_count(), 0u);
  ASSERT_EQ(whole.image.pixel_count(), 96u * 72u);
  EXPECT_EQ(frame.image.max_abs_diff(whole.image), 0.0f);
  EXPECT_EQ(rendered.image.max_abs_diff(whole.image), 0.0f);
  EXPECT_EQ(staged.raster_model_ms, whole.raster_model_ms);
}

TEST(Device, PipelinedIntervalIsMaxOfStages) {
  const core::GauRastDevice device;
  const auto frame = device.render(device_scene(), scene::default_camera({}, 96, 72));
  EXPECT_DOUBLE_EQ(frame.pipelined_frame_ms,
                   std::max(frame.stage12_model_ms, frame.raster_model_ms));
  EXPECT_GT(frame.pipelined_fps(), 0.0);
}

TEST(Device, MeshFrameMatchesReference) {
  const core::GauRastDevice device(core::RasterizerConfig::prototype16());
  const scene::Camera cam = scene::default_camera({}, 128, 96);
  const mesh::TriangleMesh torus = mesh::make_torus(16, 12, 2.0f, 0.7f);
  const Vec3f bg{0.05f, 0.05f, 0.08f};
  const auto frame = device.render_mesh(torus, cam, bg);
  const mesh::RasterOutput ref = mesh::render_mesh(torus, cam, bg);
  EXPECT_EQ(frame.image.max_abs_diff(ref.color), 0.0f);
  EXPECT_GT(frame.raster_model_ms, 0.0);
}

TEST(Device, SiliconMetricsMatchModels) {
  const core::GauRastDevice device(core::RasterizerConfig::scaled240());
  const core::AreaModel area(core::RasterizerConfig::scaled240());
  EXPECT_DOUBLE_EQ(device.enhancement_area_mm2(), area.enhanced_soc_mm2());
  EXPECT_NEAR(device.enhancement_soc_fraction(), 0.002, 0.001);
  EXPECT_NEAR(device.module_power_w(), 1.7, 0.2);
}

TEST(Device, BiggerRasterizerLowersRasterTime) {
  const auto sc = device_scene(4000);
  const scene::Camera cam = scene::default_camera({}, 128, 96);
  const core::GauRastDevice small(core::RasterizerConfig::prototype16());
  const core::GauRastDevice large(core::RasterizerConfig::scaled300());
  EXPECT_GT(small.render(sc, cam).raster_model_ms,
            large.render(sc, cam).raster_model_ms);
}

TEST(Device, RejectsInvalidConfig) {
  core::RasterizerConfig bad = core::RasterizerConfig::prototype16();
  bad.pes_per_module = 0;
  EXPECT_THROW(core::GauRastDevice{bad}, Error);
}

// ------------------------------------------------------------- Texture --

TEST(Texture, CheckerboardAlternates) {
  const mesh::Texture tex = mesh::Texture::checkerboard(64, 8, {1, 1, 1},
                                                        {0, 0, 0});
  const Vec3f a = tex.sample({0.05f, 0.05f}, mesh::TextureFilter::kNearest);
  const Vec3f b = tex.sample({0.18f, 0.05f}, mesh::TextureFilter::kNearest);
  EXPECT_NE(a.x, b.x);
}

TEST(Texture, UvGradientInterpolatesLinearly) {
  const mesh::Texture tex = mesh::Texture::uv_gradient(128);
  const Vec3f mid = tex.sample({0.5f, 0.5f});
  EXPECT_NEAR(mid.x, 0.5f, 0.02f);
  EXPECT_NEAR(mid.y, 0.5f, 0.02f);
  const Vec3f left = tex.sample({0.1f, 0.5f});
  EXPECT_LT(left.x, mid.x);
}

TEST(Texture, RepeatWrapsClampHolds) {
  const mesh::Texture tex = mesh::Texture::uv_gradient(64);
  const Vec3f wrapped = tex.sample({1.25f, 0.5f}, mesh::TextureFilter::kNearest,
                                   mesh::TextureWrap::kRepeat);
  const Vec3f direct = tex.sample({0.25f, 0.5f}, mesh::TextureFilter::kNearest,
                                  mesh::TextureWrap::kRepeat);
  EXPECT_EQ(wrapped.x, direct.x);
  const Vec3f clamped = tex.sample({5.0f, 0.5f}, mesh::TextureFilter::kNearest,
                                   mesh::TextureWrap::kClamp);
  EXPECT_NEAR(clamped.x, 1.0f, 0.02f);  // right edge of the gradient
}

TEST(Texture, BilinearSmoothsNearest) {
  const mesh::Texture tex = mesh::Texture::checkerboard(8, 4, {1, 1, 1},
                                                        {0, 0, 0});
  // On a cell boundary, bilinear blends; nearest snaps.
  const Vec3f bi = tex.sample({0.25f, 0.1f}, mesh::TextureFilter::kBilinear);
  EXPECT_GT(bi.x, 0.0f);
  EXPECT_LT(bi.x, 1.0f);
}

TEST(Texture, NoiseDeterministicInSeed) {
  const mesh::Texture a = mesh::Texture::noise(16, 5, {0.5f, 0.5f, 0.5f});
  const mesh::Texture b = mesh::Texture::noise(16, 5, {0.5f, 0.5f, 0.5f});
  const mesh::Texture c = mesh::Texture::noise(16, 6, {0.5f, 0.5f, 0.5f});
  EXPECT_EQ(a.sample({0.3f, 0.7f}).x, b.sample({0.3f, 0.7f}).x);
  EXPECT_NE(a.sample({0.3f, 0.7f}).x, c.sample({0.3f, 0.7f}).x);
}

TEST(Texture, TexturedRenderDiffersFromFlatAndCoversSamePixels) {
  const scene::Camera cam = scene::default_camera({}, 128, 96);
  const mesh::TriangleMesh sphere = mesh::make_sphere(16, 24, 2.0f);
  const mesh::Texture tex = mesh::Texture::checkerboard(64, 8);
  const mesh::RasterOutput flat = mesh::render_mesh(sphere, cam);
  const mesh::RasterOutput textured =
      mesh::render_mesh_textured(sphere, cam, tex);
  EXPECT_GT(textured.color.max_abs_diff(flat.color), 0.05f);
  // Coverage (depth buffer) identical: texturing is a fragment-stage-only
  // change downstream of the rasterizer.
  for (std::size_t i = 0; i < flat.depth.size(); i += 97) {
    EXPECT_EQ(textured.depth[i], flat.depth[i]);
  }
}

// ------------------------------------------------------------- Filters --

TEST(Filters, PruneByOpacityDropsOnlyFaint) {
  const auto sc = device_scene(1000);
  const auto kept = scene::prune_by_opacity(sc, 0.3f);
  EXPECT_LT(kept.size(), sc.size());
  for (float o : kept.opacities()) EXPECT_GE(o, 0.3f);
}

TEST(Filters, PruneByOpacityImageNearIdenticalAtThreshold) {
  // Pruning below 1/255 cannot change any blended contribution... but it
  // can change early-termination pair counts; the image must stay close.
  const auto sc = device_scene(3000);
  const auto kept = scene::prune_by_opacity(sc, 1.0f / 255.0f);
  const scene::Camera cam = scene::default_camera({}, 96, 72);
  const pipeline::GaussianRenderer renderer;
  const auto a = renderer.render(sc, cam);
  const auto b = renderer.render(kept, cam);
  // Not bit-exact: copying Gaussians through the filter re-normalizes the
  // (already unit) rotation quaternions, perturbing conics by ~1 ULP.
  EXPECT_LT(b.image.max_abs_diff(a.image), 1e-5f);
}

TEST(Filters, TruncateShReducesDegreeAndTraffic) {
  const auto sc = device_scene(500);
  const auto flat = scene::truncate_sh(sc, 0);
  EXPECT_EQ(flat.sh_degree(), 0);
  EXPECT_EQ(flat.size(), sc.size());
  EXPECT_LT(flat.bytes_per_gaussian(), sc.bytes_per_gaussian());
  // DC coefficients survive.
  EXPECT_EQ(flat.sh()[0][0], sc.sh()[0][0]);
}

TEST(Filters, TruncateShCannotRaiseDegree) {
  const auto flat = scene::truncate_sh(device_scene(10), 0);
  EXPECT_THROW(scene::truncate_sh(flat, 3), Error);
}

TEST(Filters, SubsampleKeepsExpectedFraction) {
  const auto sc = device_scene(5000);
  const auto half = scene::subsample(sc, 0.5, 11);
  EXPECT_NEAR(static_cast<double>(half.size()),
              static_cast<double>(sc.size()) * 0.5,
              static_cast<double>(sc.size()) * 0.05);
  // Deterministic in seed.
  EXPECT_EQ(scene::subsample(sc, 0.5, 11).size(), half.size());
}

TEST(Filters, SubsampleInvalidFractionThrows) {
  EXPECT_THROW(scene::subsample(device_scene(10), 0.0, 1), Error);
  EXPECT_THROW(scene::subsample(device_scene(10), 1.5, 1), Error);
}

// ------------------------------------------------- Kernel breakdown -----

TEST(RasterBreakdown, ComputeBoundOnAllProfiles) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  for (const auto& p : scene::nerf360_profiles()) {
    const auto b = model.raster_breakdown(p);
    EXPECT_TRUE(b.compute_bound()) << p.name;
    EXPECT_GT(b.memory_ms, 0.0);
    EXPECT_NEAR(b.compute_ms, model.raster_ms(p), 1e-12);
  }
}

TEST(RasterBreakdown, MemoryTermScalesWithInstances) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  scene::SceneProfile p = scene::profile_by_name("garden");
  const double base = model.raster_breakdown(p).memory_ms;
  p.tile_instances_per_gaussian *= 3.0;
  EXPECT_GT(model.raster_breakdown(p).memory_ms, base * 2.0);
}

}  // namespace
}  // namespace gaurast
