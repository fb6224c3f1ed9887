// Tests for the GauRastDevice public API and the GPU raster kernel
// breakdown.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/device.hpp"
#include "mesh/primitives.hpp"
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
