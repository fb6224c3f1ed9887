// GauRastDevice — the top-level public API a downstream user adopts.
//
// Wraps the whole stack behind one object: a device is an edge SoC (host
// GPU config) whose rasterizer has been enhanced with GauRast (rasterizer
// config + energy/area tables). `render()` runs Steps 1-2 of the 3DGS
// pipeline on the host (functionally on the CPU here, priced by the CUDA
// cost model) and Step 3 on the enhanced-rasterizer model, returning the
// image plus the modeled deployment metrics; `render_mesh()` exercises the
// preserved triangle path. One device instance serves both primitive types,
// which is the paper's core claim.
#pragma once

#include <optional>

#include "core/area.hpp"
#include "core/config.hpp"
#include "core/energy.hpp"
#include "core/hw_rasterizer.hpp"
#include "core/scheduler.hpp"
#include "gpu/config.hpp"
#include "gpu/cost_model.hpp"
#include "mesh/mesh.hpp"
#include "pipeline/renderer.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"

namespace gaurast::core {

/// Everything a Gaussian-frame render returns: the image plus modeled
/// deployment metrics at the device's operating point.
struct DeviceGaussianFrame {
  Image image;  ///< filled by render(); raster_prepared() leaves it empty
  std::uint64_t pairs_evaluated = 0;
  double utilization = 0.0;

  /// Modeled Step-3 time on the enhanced rasterizer for THIS frame's
  /// measured workload (not the full-scale profile).
  double raster_model_ms = 0.0;
  /// Modeled Steps 1-2 time on the host GPU for this frame's workload.
  double stage12_model_ms = 0.0;
  /// Steady-state frame interval under CUDA-collaborative pipelining.
  double pipelined_frame_ms = 0.0;
  double pipelined_fps() const {
    return pipelined_frame_ms > 0 ? 1000.0 / pipelined_frame_ms : 0.0;
  }
  /// Step-3 energy at the SoC node.
  EnergyBreakdown energy_soc;
};

struct DeviceMeshFrame {
  Image image;
  std::uint64_t pairs_evaluated = 0;
  double raster_model_ms = 0.0;
  double utilization = 0.0;
};

class GauRastDevice {
 public:
  /// Default device: Jetson-Orin-NX-class host with the paper's scaled
  /// 300-PE enhanced rasterizer.
  explicit GauRastDevice(
      RasterizerConfig rasterizer = RasterizerConfig::scaled300(),
      gpu::GpuConfig host = gpu::orin_nx_10w(), EnergyTable energy = {});

  /// Renders a Gaussian scene end-to-end (Steps 1-3). The image is the
  /// functional hardware-model output (bit-exact vs the software pipeline
  /// in FP32). When `out_frame` is non-null it receives the full pipeline
  /// FrameResult — splats, tile workload and per-step stats, with the
  /// Step-3 image and pair counters coming from the hardware model — so
  /// engine::RenderBackend consumers get workload stats without a second
  /// pipeline pass.
  DeviceGaussianFrame render(const scene::GaussianScene& scene,
                             const scene::Camera& camera,
                             const pipeline::RendererConfig& pipeline_config =
                                 pipeline::RendererConfig{},
                             pipeline::FrameResult* out_frame = nullptr) const;

  /// Step 3 only, over an already-prepared frame (GaussianRenderer
  /// prepare() or the begin_frame/sort_frame stage path): runs the
  /// enhanced-rasterizer model on the frame's sorted workload, writes the
  /// hardware image and pair counters back into `frame`, and returns the
  /// modeled metrics with `image` left empty (the frame holds the only
  /// copy). render() is exactly prepare + raster_prepared, so an
  /// engine backend's stage_raster and render() cannot drift apart.
  DeviceGaussianFrame raster_prepared(
      pipeline::FrameResult& frame,
      const pipeline::RendererConfig& pipeline_config) const;

  /// Renders a triangle mesh through the same enhanced rasterizer
  /// (preserved original functionality).
  DeviceMeshFrame render_mesh(const mesh::TriangleMesh& mesh,
                              const scene::Camera& camera,
                              Vec3f background = {0.05f, 0.05f, 0.08f}) const;

  const RasterizerConfig& rasterizer_config() const { return rasterizer_; }
  const gpu::GpuConfig& host_config() const { return host_; }

  /// Silicon cost of the enhancement on this host (mm^2 at SoC node and
  /// fraction of die).
  double enhancement_area_mm2() const;
  double enhancement_soc_fraction() const;

  /// Typical power of one rasterizer module (the paper's 1.7 W figure).
  double module_power_w() const;

 private:
  /// Prices Steps 1-2 for a frame's measured workload via the CUDA model.
  /// Frame dimensions come from frame.workload.grid — the image is not yet
  /// allocated when a prepared (pre-raster) frame reaches this.
  double stage12_ms_for(const pipeline::FrameResult& frame) const;

  RasterizerConfig rasterizer_;
  gpu::GpuConfig host_;
  EnergyTable energy_table_;
  HardwareRasterizer hw_;
  gpu::CudaCostModel cuda_;
  AreaModel area_;
  EnergyModel energy_;
};

}  // namespace gaurast::core
