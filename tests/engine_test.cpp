// Tests for the engine backend API (src/engine): registry semantics
// (register/create/list/duplicate/unknown-name diagnostics), the
// capability contract of every built-in backend, cross-backend
// functional equivalence — sw and gaurast (both FP32) must produce
// bit-identical images through the one RenderBackend interface — and the
// stage seam: stage_preprocess -> stage_sort -> stage_raster is render().

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/backends.hpp"
#include "engine/registry.hpp"
#include "scene/generator.hpp"

namespace {

using namespace gaurast;
using namespace gaurast::engine;

scene::GaussianScene small_scene(std::uint64_t count = 800,
                                 std::uint64_t seed = 9) {
  scene::GeneratorParams params;
  params.gaussian_count = count;
  params.seed = seed;
  return scene::generate_scene(params);
}

scene::Camera small_camera(int width = 96, int height = 72) {
  return scene::default_camera({}, width, height);
}

bool contains(const std::vector<std::string>& names,
              const std::string& name) {
  for (const std::string& n : names) {
    if (n == name) return true;
  }
  return false;
}

TEST(BackendRegistry, GlobalRegistryListsTheFiveBuiltins) {
  const std::vector<std::string> known = names();
  EXPECT_GE(known.size(), 5u);
  for (const char* builtin :
       {"sw", "gaurast", "gscore", "edge-fp16", "orin-agx"}) {
    EXPECT_TRUE(contains(known, builtin)) << "missing builtin " << builtin;
    EXPECT_TRUE(registry().contains(builtin));
  }
  // names() is sorted (std::map order) so help text is stable.
  std::vector<std::string> sorted = known;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(known, sorted);
}

TEST(BackendRegistry, UnknownNameEnumeratesRegisteredBackends) {
  try {
    create("gsocre");  // the classic typo
    FAIL() << "create() accepted an unknown backend";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown backend 'gsocre'"), std::string::npos)
        << message;
    // The diagnostic must teach the user what IS valid.
    for (const char* builtin : {"sw", "gaurast", "gscore"}) {
      EXPECT_NE(message.find(builtin), std::string::npos)
          << "diagnostic does not mention '" << builtin << "': " << message;
    }
  }
}

TEST(BackendRegistry, DuplicateAndEmptyNamesAreRejected) {
  BackendRegistry local;
  local.add("custom", [](const BackendOptions&) {
    return std::make_unique<SoftwareBackend>();
  });
  EXPECT_THROW(local.add("custom",
                         [](const BackendOptions&) {
                           return std::make_unique<SoftwareBackend>();
                         }),
               Error);
  EXPECT_THROW(local.add("", [](const BackendOptions&) {
    return std::make_unique<SoftwareBackend>();
  }),
               Error);
  EXPECT_THROW(local.add("nofactory", BackendFactory{}), Error);
  EXPECT_EQ(local.size(), 1u);
}

TEST(BackendRegistry, RegisterCreateListRoundTrip) {
  BackendRegistry local;
  register_builtin_backends(local);
  const std::size_t builtin_count = local.size();
  // A new operating point is ONE registration; everything else (create,
  // list, capability queries) picks it up with no further edits.
  local.add("proto16", [](const BackendOptions&) {
    GauRastBackend::Spec spec;
    spec.name = "proto16";
    spec.rasterizer = core::RasterizerConfig::prototype16();
    spec.description = "the synthesized 16-PE prototype";
    return std::make_unique<GauRastBackend>(std::move(spec));
  });
  EXPECT_EQ(local.size(), builtin_count + 1);
  const std::unique_ptr<RenderBackend> backend = local.create("proto16");
  EXPECT_EQ(backend->name(), "proto16");
  EXPECT_TRUE(backend->capabilities().is_hardware_model);
  ASSERT_TRUE(backend->rasterizer_config().has_value());
  EXPECT_EQ(backend->rasterizer_config()->total_pes(), 16);
  bool listed = false;
  for (const BackendInfo& info : local.list()) {
    if (info.name == "proto16") {
      listed = true;
      EXPECT_EQ(info.description, "the synthesized 16-PE prototype");
    }
  }
  EXPECT_TRUE(listed);
}

TEST(BackendCapabilities, BuiltinsAdvertiseTheirContracts) {
  const BackendInfo sw = registry().info("sw");
  EXPECT_TRUE(sw.capabilities.supports_raster_threads);
  EXPECT_TRUE(sw.capabilities.supports_kernel_select);
  EXPECT_FALSE(sw.capabilities.accepts_external_rasterizer_config);
  EXPECT_FALSE(sw.capabilities.is_hardware_model);
  EXPECT_EQ(sw.capabilities.default_precision, core::Precision::kFp32);
  EXPECT_FALSE(sw.rasterizer.has_value());

  const BackendInfo gaurast_info = registry().info("gaurast");
  EXPECT_FALSE(gaurast_info.capabilities.supports_raster_threads);
  EXPECT_FALSE(gaurast_info.capabilities.supports_kernel_select);
  EXPECT_TRUE(gaurast_info.capabilities.accepts_external_rasterizer_config);
  EXPECT_TRUE(gaurast_info.capabilities.is_hardware_model);
  EXPECT_EQ(gaurast_info.capabilities.default_precision,
            core::Precision::kFp32);
  ASSERT_TRUE(gaurast_info.rasterizer.has_value());
  EXPECT_EQ(gaurast_info.rasterizer->total_pes(), 300);

  const BackendInfo gscore = registry().info("gscore");
  EXPECT_TRUE(gscore.capabilities.is_hardware_model);
  EXPECT_FALSE(gscore.capabilities.accepts_external_rasterizer_config);
  EXPECT_EQ(gscore.capabilities.default_precision, core::Precision::kFp16);
  EXPECT_GT(gscore.rasterizer->total_pes(), 0);

  const BackendInfo edge = registry().info("edge-fp16");
  EXPECT_TRUE(edge.capabilities.is_hardware_model);
  EXPECT_EQ(edge.capabilities.default_precision, core::Precision::kFp16);
  EXPECT_EQ(edge.rasterizer->total_pes(), 150);

  const BackendInfo agx = registry().info("orin-agx");
  EXPECT_TRUE(agx.capabilities.is_hardware_model);
  EXPECT_TRUE(agx.capabilities.accepts_external_rasterizer_config);
  EXPECT_EQ(agx.capabilities.default_precision, core::Precision::kFp32);
}

TEST(BackendRegistry, NamesWhereFiltersOnCapabilities) {
  const std::vector<std::string> threaded =
      registry().names_where([](const Capabilities& caps) {
        return caps.supports_raster_threads;
      });
  EXPECT_TRUE(contains(threaded, "sw"));
  EXPECT_FALSE(contains(threaded, "gaurast"));
  const std::vector<std::string> configurable =
      registry().names_where([](const Capabilities& caps) {
        return caps.accepts_external_rasterizer_config;
      });
  EXPECT_TRUE(contains(configurable, "gaurast"));
  EXPECT_TRUE(contains(configurable, "orin-agx"));
  EXPECT_FALSE(contains(configurable, "sw"));
}

TEST(BackendOptionsTest, ExternalRasterizerConfigIsHonoredWhereAccepted) {
  BackendOptions options;
  options.rasterizer = core::RasterizerConfig::prototype16();
  const std::unique_ptr<RenderBackend> backend = create("gaurast", options);
  ASSERT_TRUE(backend->rasterizer_config().has_value());
  EXPECT_EQ(backend->rasterizer_config()->total_pes(), 16);
}

TEST(BackendOptionsTest, ExternalConfigRejectedNamingAcceptingBackends) {
  BackendOptions options;
  options.rasterizer = core::RasterizerConfig::prototype16();
  for (const char* incapable : {"sw", "gscore", "edge-fp16"}) {
    try {
      create(incapable, options);
      FAIL() << incapable << " accepted an external rasterizer config";
    } catch (const Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(std::string("backend '") + incapable + "'"),
                std::string::npos)
          << message;
      // The diagnostic lists the backends that DO accept one.
      EXPECT_NE(message.find("gaurast"), std::string::npos) << message;
      EXPECT_NE(message.find("orin-agx"), std::string::npos) << message;
    }
  }
}

TEST(CrossBackend, SwAndGauRastFp32AreBitIdentical) {
  const scene::GaussianScene gscene = small_scene();
  const scene::Camera camera = small_camera();
  const FrameOptions options;
  const FrameOutput sw = create("sw")->render(gscene, camera, options);
  const FrameOutput hw = create("gaurast")->render(gscene, camera, options);
  EXPECT_GT(sw.frame.image.mean_luminance(), 0.0);
  EXPECT_EQ(hw.frame.image.max_abs_diff(sw.frame.image), 0.0f)
      << "FP32 hardware model deviates from the software reference";
  // Both expose the full workload/step stats through the same interface...
  EXPECT_GT(sw.frame.workload.instance_count(), 0u);
  EXPECT_EQ(hw.frame.workload.instance_count(),
            sw.frame.workload.instance_count());
  EXPECT_EQ(hw.frame.raster_stats.pairs_evaluated,
            sw.frame.raster_stats.pairs_evaluated);
  // ...and only the hardware model carries modeled deployment metrics.
  EXPECT_FALSE(sw.hw.has_value());
  ASSERT_TRUE(hw.hw.has_value());
  EXPECT_GT(hw.hw->raster_model_ms, 0.0);
  EXPECT_GT(hw.hw->pipelined_fps(), 0.0);
  EXPECT_GT(hw.hw->energy_soc_mj, 0.0);
}

TEST(CrossBackend, EveryRegisteredBackendServesAFrame) {
  const scene::GaussianScene gscene = small_scene(300);
  const scene::Camera camera = small_camera(64, 48);
  const FrameOptions options;
  for (const BackendInfo& info : list()) {
    const FrameOutput out =
        create(info.name)->render(gscene, camera, options);
    EXPECT_GT(out.frame.image.mean_luminance(), 0.0)
        << info.name << " produced an empty image";
    EXPECT_EQ(out.hw.has_value(), info.capabilities.is_hardware_model)
        << info.name;
  }
}

TEST(CrossBackend, StageCompositionBitIdenticalToRender) {
  // Callers that time the three stages one at a time (the hardware-model
  // benchmark does) rely on this: for every registered backend and both
  // software kernels, the stage composition is render(), image bits and
  // modelled metrics alike.
  const scene::GaussianScene gscene = small_scene(400);
  const scene::Camera camera = small_camera(64, 48);
  for (const pipeline::RasterKernel kernel :
       {pipeline::RasterKernel::kReference, pipeline::RasterKernel::kFast}) {
    FrameOptions options;
    options.pipeline.kernel = kernel;
    for (const std::string& name : names()) {
      SCOPED_TRACE(name + "/" + pipeline::to_string(kernel));
      const std::unique_ptr<RenderBackend> backend = create(name);
      const FrameOutput whole = backend->render(gscene, camera, options);
      pipeline::FrameResult frame =
          backend->stage_preprocess(gscene, camera, options);
      backend->stage_sort(frame, options);
      const FrameOutput staged =
          backend->stage_raster(std::move(frame), options);
      EXPECT_GT(whole.frame.image.mean_luminance(), 0.0);
      EXPECT_EQ(whole.frame.image.max_abs_diff(staged.frame.image), 0.0f);
      EXPECT_EQ(whole.frame.raster_stats.pairs_evaluated,
                staged.frame.raster_stats.pairs_evaluated);
      ASSERT_EQ(whole.hw.has_value(), staged.hw.has_value());
      if (whole.hw) {
        EXPECT_EQ(whole.hw->raster_model_ms, staged.hw->raster_model_ms);
        EXPECT_EQ(whole.hw->stage12_model_ms, staged.hw->stage12_model_ms);
        EXPECT_EQ(whole.hw->pipelined_frame_ms,
                  staged.hw->pipelined_frame_ms);
        EXPECT_EQ(whole.hw->utilization, staged.hw->utilization);
        EXPECT_EQ(whole.hw->energy_soc_mj, staged.hw->energy_soc_mj);
      }
    }
  }
}

TEST(BackendDefaults, RenderOnlyBackendRefusesStageRaster) {
  // A backend that overrides only render() inherits the shared Steps 1-2
  // but has no Step 3 of its own: the default stage_raster refuses with a
  // diagnostic naming the backend instead of rendering something else.
  class RenderOnlyBackend : public RenderBackend {
   public:
    std::string name() const override { return "render-only"; }
    std::string describe() const override { return "test double"; }
    Capabilities capabilities() const override { return {}; }
    FrameOutput render(const scene::GaussianScene& scene,
                       const scene::Camera& camera,
                       const FrameOptions& options) const override {
      return SoftwareBackend{}.render(scene, camera, options);
    }
  };
  const RenderOnlyBackend backend;
  const scene::GaussianScene gscene = small_scene(100);
  const FrameOptions options;
  pipeline::FrameResult frame =
      backend.stage_preprocess(gscene, small_camera(32, 24), options);
  backend.stage_sort(frame, options);
  EXPECT_GT(frame.workload.instance_count(), 0u);
  try {
    backend.stage_raster(std::move(frame), options);
    FAIL() << "render-only backend ran a Step 3";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("render-only"), std::string::npos) << message;
  }
}

TEST(SoftwareBackendTest, RasterThreadCountDoesNotChangeTheImage) {
  const scene::GaussianScene gscene = small_scene(500);
  const scene::Camera camera = small_camera();
  const std::unique_ptr<RenderBackend> backend = create("sw");
  FrameOptions one;
  one.pipeline.num_threads = 1;
  FrameOptions four;
  four.pipeline.num_threads = 4;
  const FrameOutput a = backend->render(gscene, camera, one);
  const FrameOutput b = backend->render(gscene, camera, four);
  EXPECT_EQ(a.frame.image.max_abs_diff(b.frame.image), 0.0f);
}

TEST(SoftwareBackendTest, FastKernelSelectionIsBitIdentical) {
  // The kernel knob advertised by supports_kernel_select: selecting the
  // fast kernel through the engine interface changes nothing observable
  // about the frame (image bits and raster stats alike).
  const scene::GaussianScene gscene = small_scene(500);
  const scene::Camera camera = small_camera();
  const std::unique_ptr<RenderBackend> backend = create("sw");
  FrameOptions reference;
  FrameOptions fast;
  fast.pipeline.kernel = pipeline::RasterKernel::kFast;
  fast.pipeline.num_threads = 2;
  const FrameOutput a = backend->render(gscene, camera, reference);
  const FrameOutput b = backend->render(gscene, camera, fast);
  EXPECT_EQ(a.frame.image.max_abs_diff(b.frame.image), 0.0f);
  EXPECT_EQ(a.frame.raster_stats.pairs_evaluated,
            b.frame.raster_stats.pairs_evaluated);
  EXPECT_EQ(a.frame.raster_stats.pairs_blended,
            b.frame.raster_stats.pairs_blended);
}

}  // namespace
