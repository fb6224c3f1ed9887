#include "core/device.hpp"

#include <utility>

#include "common/error.hpp"

namespace gaurast::core {

GauRastDevice::GauRastDevice(RasterizerConfig rasterizer, gpu::GpuConfig host,
                             EnergyTable energy)
    : rasterizer_(rasterizer),
      host_(std::move(host)),
      energy_table_(energy),
      hw_(rasterizer),
      cuda_(host_),
      area_(rasterizer, AreaTable{}),
      energy_(rasterizer, energy) {
  rasterizer_.validate();
}

double GauRastDevice::stage12_ms_for(const pipeline::FrameResult& frame) const {
  // Build an ad-hoc profile from the frame's *measured* workload so the
  // CUDA model prices exactly what this frame did.
  scene::SceneProfile p;
  p.name = "frame";
  p.gaussian_count = frame.preprocess_stats.gaussians_in;
  p.width = frame.workload.grid.width;
  p.height = frame.workload.grid.height;
  p.sh_degree = 3;
  p.tile_instances_per_gaussian =
      frame.preprocess_stats.gaussians_in == 0
          ? 0.0
          : static_cast<double>(frame.workload.instance_count()) /
                static_cast<double>(frame.preprocess_stats.gaussians_in);
  p.pairs_per_pixel = 1.0;  // unused by the stage 1-2 models
  return cuda_.preprocess_ms(p) + cuda_.sort_ms(p);
}

DeviceGaussianFrame GauRastDevice::raster_prepared(
    pipeline::FrameResult& frame,
    const pipeline::RendererConfig& pipeline_config) const {
  // Step 3 on the enhanced rasterizer. Non-const so the image can be moved
  // into the frame below; `out.image` stays empty (render() fills it).
  HwRasterResult hw = hw_.rasterize_gaussians(frame.splats, frame.workload,
                                              pipeline_config.blend);

  DeviceGaussianFrame out;
  out.pairs_evaluated = hw.pairs_evaluated;
  out.utilization = hw.utilization();
  out.raster_model_ms = hw.runtime_ms();
  out.stage12_model_ms = stage12_ms_for(frame);
  out.pipelined_frame_ms =
      out.stage12_model_ms > out.raster_model_ms ? out.stage12_model_ms
                                                 : out.raster_model_ms;
  const EnergyBreakdown proto =
      energy_.from_counters(hw.counters, hw.runtime_ms());
  out.energy_soc = energy_.at_soc_node(proto);
  frame.image = std::move(hw.image);
  frame.raster_stats.pairs_evaluated = hw.pairs_evaluated;
  frame.raster_stats.pairs_blended = hw.pairs_blended;
  return out;
}

DeviceGaussianFrame GauRastDevice::render(
    const scene::GaussianScene& scene, const scene::Camera& camera,
    const pipeline::RendererConfig& pipeline_config,
    pipeline::FrameResult* out_frame) const {
  const pipeline::GaussianRenderer renderer(pipeline_config);
  // Steps 1-2 on the "CUDA cores" (functionally here on the CPU).
  pipeline::FrameResult frame = renderer.prepare(scene, camera);
  DeviceGaussianFrame out = raster_prepared(frame, pipeline_config);
  if (out_frame != nullptr) {
    out.image = frame.image;
    *out_frame = std::move(frame);
  } else {
    out.image = std::move(frame.image);
  }
  return out;
}

DeviceMeshFrame GauRastDevice::render_mesh(const mesh::TriangleMesh& mesh,
                                           const scene::Camera& camera,
                                           Vec3f background) const {
  const auto prims = mesh::build_primitives(mesh, camera);
  const HwRasterResult hw = hw_.rasterize_triangles(
      prims, camera.width(), camera.height(), background);
  DeviceMeshFrame out;
  out.image = hw.image;
  out.pairs_evaluated = hw.pairs_evaluated;
  out.raster_model_ms = hw.runtime_ms();
  out.utilization = hw.utilization();
  return out;
}

double GauRastDevice::enhancement_area_mm2() const {
  return area_.enhanced_soc_mm2();
}

double GauRastDevice::enhancement_soc_fraction() const {
  return area_.soc_fraction(host_);
}

double GauRastDevice::module_power_w() const {
  return energy_.typical_module_power_w();
}

}  // namespace gaurast::core
