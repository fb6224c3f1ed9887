// Camera and model transforms shared by the Gaussian and triangle
// pipelines.
#pragma once

#include "gsmath/mat.hpp"
#include "gsmath/vec.hpp"

namespace gaurast {

/// Right-handed look-at view matrix (camera looks down -Z in view space,
/// +X right, +Y up). `eye` must differ from `target`.
Mat4f look_at(Vec3f eye, Vec3f target, Vec3f up);

/// Rotation about an axis, as a 4x4 (for camera orbits and mesh animation).
Mat4f rotation4(Vec3f axis, float radians);

/// Translation 4x4.
Mat4f translation4(Vec3f t);

/// Uniform/axis scale 4x4.
Mat4f scale4(Vec3f s);

/// Focal length in pixels for a given vertical FOV and image height:
/// fy = height / (2 tan(fov_y / 2)).
float focal_from_fov(float fov_y, int image_size);

}  // namespace gaurast
