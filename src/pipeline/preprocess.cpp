#include "pipeline/preprocess.hpp"

#include <cmath>

#include "common/error.hpp"
#include "gsmath/fastmath.hpp"
#include "gsmath/sh.hpp"

namespace gaurast::pipeline {

namespace {
constexpr float kNearPlane = 0.2f;  // matches the reference implementation
}

bool project_gaussian(const scene::GaussianScene& scene, std::size_t index,
                      const scene::Camera& camera, Splat2D& out) {
  // Per-Gaussian contract checks: debug-only, like every other per-element
  // invariant on the hot path (callers loop this over the whole scene).
  GAURAST_DCHECK(index < scene.size());
  const Vec3f world = scene.positions()[index];
  const Vec3f view = camera.to_view(world);
  if (view.z <= kNearPlane) return false;

  // Generous screen-bounds cull, as in the reference implementation: keep
  // anything whose center projects within 1.3x the frustum.
  const float lim_x = 1.3f * camera.tan_half_fov_x() * view.z;
  const float lim_y = 1.3f * camera.tan_half_fov_y() * view.z;
  if (std::abs(view.x) > lim_x || std::abs(view.y) > lim_y) return false;

  const Mat3f cov3d =
      covariance3d(scene.rotations()[index], scene.scales()[index]);
  const Cov2 cov2d = project_covariance(
      cov3d, view, camera.focal_x(), camera.focal_y(), camera.tan_half_fov_x(),
      camera.tan_half_fov_y(), camera.view_rotation());

  Conic2 conic;
  if (!invert_covariance(cov2d, conic)) return false;

  out.mean = camera.view_to_pixel(view);
  out.conic = conic;
  out.opacity = scene.opacities()[index];
  out.depth = view.z;
  out.radius = splat_radius(cov2d);
  out.color = eval_sh_color(scene.sh()[index], scene.sh_degree(),
                            world - camera.eye());
  out.source_id = static_cast<std::uint32_t>(index);
  return out.radius > 0.0f;
}

std::vector<Splat2D> preprocess(const scene::GaussianScene& scene,
                                const scene::Camera& camera,
                                PreprocessStats* stats) {
  std::vector<Splat2D> splats;
  splats.reserve(scene.size());
  PreprocessStats local;
  local.gaussians_in = scene.size();
  for (std::size_t i = 0; i < scene.size(); ++i) {
    Splat2D s;
    const Vec3f view = camera.to_view(scene.positions()[i]);
    if (view.z <= kNearPlane) {
      ++local.culled_frustum;
      continue;
    }
    if (!project_gaussian(scene, i, camera, s)) {
      // project_gaussian re-checks the frustum; failures here beyond the
      // near-plane test are degenerate covariances or off-screen centers.
      const float lim_x = 1.3f * camera.tan_half_fov_x() * view.z;
      const float lim_y = 1.3f * camera.tan_half_fov_y() * view.z;
      if (std::abs(view.x) > lim_x || std::abs(view.y) > lim_y) {
        ++local.culled_frustum;
      } else {
        ++local.culled_degenerate;
      }
      continue;
    }
    splats.push_back(s);
  }
  local.splats_out = splats.size();
  if (stats) *stats = local;
  return splats;
}

}  // namespace gaurast::pipeline
