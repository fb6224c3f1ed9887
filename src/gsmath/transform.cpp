#include "gsmath/transform.hpp"

#include <cmath>

#include "common/error.hpp"
#include "gsmath/quat.hpp"

namespace gaurast {

Mat4f look_at(Vec3f eye, Vec3f target, Vec3f up) {
  const Vec3f delta = target - eye;
  GAURAST_CHECK_MSG(delta.norm2() > 0.0f, "look_at eye == target");
  const Vec3f f = delta.normalized();        // forward
  const Vec3f s = f.cross(up).normalized();  // right
  const Vec3f u = s.cross(f);                // true up
  Mat4f m = Mat4f::identity();
  m.m = {s.x,  s.y,  s.z,  -s.dot(eye),
         u.x,  u.y,  u.z,  -u.dot(eye),
         -f.x, -f.y, -f.z, f.dot(eye),
         0,    0,    0,    1};
  return m;
}

Mat4f rotation4(Vec3f axis, float radians) {
  const Mat3f r = Quatf::from_axis_angle(axis, radians).to_matrix();
  Mat4f m = Mat4f::identity();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) m.at(i, j) = r.at(i, j);
  return m;
}

Mat4f translation4(Vec3f t) {
  Mat4f m = Mat4f::identity();
  m.at(0, 3) = t.x;
  m.at(1, 3) = t.y;
  m.at(2, 3) = t.z;
  return m;
}

Mat4f scale4(Vec3f s) {
  Mat4f m = Mat4f::identity();
  m.at(0, 0) = s.x;
  m.at(1, 1) = s.y;
  m.at(2, 2) = s.z;
  return m;
}

float focal_from_fov(float fov_y, int image_size) {
  GAURAST_CHECK(fov_y > 0.0f && image_size > 0);
  return static_cast<float>(image_size) / (2.0f * std::tan(0.5f * fov_y));
}

}  // namespace gaurast
