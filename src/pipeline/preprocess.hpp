// Step 1 of the 3DGS pipeline (paper Fig. 3(b)): frustum culling, EWA
// projection of each 3D Gaussian to a 2D screen-space splat, SH-to-RGB color
// conversion along the view ray, and depth computation.
#pragma once

#include <cstdint>
#include <vector>

#include "gsmath/conic.hpp"
#include "gsmath/vec.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"

namespace gaurast::pipeline {

/// A projected 2D Gaussian — the primitive Step 3 rasterizes. The per-pixel
/// datapath consumes exactly 9 FP values (conic a/b/c, mean x/y, opacity,
/// color r/g/b), matching the paper's Table II input width; depth feeds the
/// Step 2 sort only.
struct Splat2D {
  Vec2f mean;           ///< screen-space center, pixels
  Conic2 conic;         ///< inverse 2D covariance
  float opacity = 0.0f;
  Vec3f color;          ///< RGB from SH evaluation
  float depth = 0.0f;   ///< view-space depth (sort key)
  float radius = 0.0f;  ///< conservative 3-sigma pixel radius
  std::uint32_t source_id = 0;  ///< index into the source scene
};

struct PreprocessStats {
  std::uint64_t gaussians_in = 0;
  std::uint64_t culled_frustum = 0;    ///< behind near plane / out of view
  std::uint64_t culled_degenerate = 0; ///< singular projected covariance
  std::uint64_t splats_out = 0;
};

/// Runs Step 1 for every Gaussian in the scene. Deterministic; splats retain
/// scene order (the sort in Step 2 establishes depth order).
std::vector<Splat2D> preprocess(const scene::GaussianScene& scene,
                                const scene::Camera& camera,
                                PreprocessStats* stats = nullptr);

/// Projects a single Gaussian; returns false if culled. Exposed for unit
/// tests and for the GauRast CUDA-collaborative scheduler model, which keeps
/// Step 1 on the (modeled) CUDA cores.
bool project_gaussian(const scene::GaussianScene& scene, std::size_t index,
                      const scene::Camera& camera, Splat2D& out);

}  // namespace gaurast::pipeline
