#include "mesh/raster.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gaurast::mesh {

float edge_function(Vec2f a, Vec2f b, Vec2f p) {
  return (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
}

bool setup_triangle(const Vertex& v0, const Vertex& v1, const Vertex& v2,
                    const scene::Camera& camera, ScreenTriangle& out) {
  const Vec3f a = camera.to_view(v0.position);
  const Vec3f b = camera.to_view(v1.position);
  const Vec3f c = camera.to_view(v2.position);
  constexpr float kNear = 0.05f;
  if (a.z <= kNear || b.z <= kNear || c.z <= kNear) return false;

  out.p0 = camera.view_to_pixel(a);
  out.p1 = camera.view_to_pixel(b);
  out.p2 = camera.view_to_pixel(c);
  out.z0 = a.z;
  out.z1 = b.z;
  out.z2 = c.z;

  // Headlight diffuse shading at the vertex stage (view-space normal z).
  auto lit = [&](const Vertex& v) {
    const Vec3f n_view = camera.view_rotation() * v.normal;
    const float lambert = std::max(0.0f, -n_view.z);  // light along +Z view
    const float shade = 0.30f + 0.70f * lambert;
    return v.color * shade;
  };
  out.c0 = lit(v0);
  out.c1 = lit(v1);
  out.c2 = lit(v2);

  const float double_area = edge_function(out.p0, out.p1, out.p2);
  // Cull back faces and slivers. In our convention front faces wind
  // counter-clockwise in screen space (positive area).
  if (!(double_area > 1e-6f)) return false;
  out.inv_double_area = 1.0f / double_area;  // the triangle-mode DIV
  return true;
}

TriangleFragment eval_triangle_at(const ScreenTriangle& tri, Vec2f pixel) {
  TriangleFragment frag;
  // Subtask 2: intersection detection via three edge functions.
  const float e0 = edge_function(tri.p1, tri.p2, pixel);
  const float e1 = edge_function(tri.p2, tri.p0, pixel);
  const float e2 = edge_function(tri.p0, tri.p1, pixel);
  if (e0 < 0.0f || e1 < 0.0f || e2 < 0.0f) return frag;
  frag.inside = true;
  // Subtask 3: barycentric (UV) weights from the edge values.
  frag.w0 = e0 * tri.inv_double_area;
  frag.w1 = e1 * tri.inv_double_area;
  frag.w2 = e2 * tri.inv_double_area;
  frag.depth = frag.w0 * tri.z0 + frag.w1 * tri.z1 + frag.w2 * tri.z2;
  frag.color = tri.c0 * frag.w0 + tri.c1 * frag.w1 + tri.c2 * frag.w2;
  return frag;
}

RasterOutput::RasterOutput(int width, int height, Vec3f background)
    : color(width, height, background),
      depth(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
            std::numeric_limits<float>::infinity()) {}

std::vector<ScreenTriangle> build_primitives(const TriangleMesh& mesh,
                                             const scene::Camera& camera,
                                             TriangleRasterStats* stats) {
  std::vector<ScreenTriangle> prims;
  prims.reserve(mesh.triangle_count());
  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    std::uint32_t ia, ib, ic;
    mesh.triangle(t, ia, ib, ic);
    ScreenTriangle tri;
    if (stats) ++stats->triangles_submitted;
    if (setup_triangle(mesh.vertices()[ia], mesh.vertices()[ib],
                       mesh.vertices()[ic], camera, tri)) {
      prims.push_back(tri);
    } else if (stats) {
      ++stats->triangles_culled;
    }
  }
  return prims;
}

RasterOutput render_mesh(const TriangleMesh& mesh, const scene::Camera& camera,
                         Vec3f background, TriangleRasterStats* stats) {
  RasterOutput out(camera.width(), camera.height(), background);
  const std::vector<ScreenTriangle> prims =
      build_primitives(mesh, camera, stats);

  const int w = camera.width();
  const int h = camera.height();
  for (const ScreenTriangle& tri : prims) {
    const float min_xf = std::min({tri.p0.x, tri.p1.x, tri.p2.x});
    const float max_xf = std::max({tri.p0.x, tri.p1.x, tri.p2.x});
    const float min_yf = std::min({tri.p0.y, tri.p1.y, tri.p2.y});
    const float max_yf = std::max({tri.p0.y, tri.p1.y, tri.p2.y});
    const int x0 = std::max(0, static_cast<int>(std::floor(min_xf)));
    const int x1 = std::min(w - 1, static_cast<int>(std::ceil(max_xf)));
    const int y0 = std::max(0, static_cast<int>(std::floor(min_yf)));
    const int y1 = std::min(h - 1, static_cast<int>(std::ceil(max_yf)));
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const Vec2f pixel{static_cast<float>(x) + 0.5f,
                          static_cast<float>(y) + 0.5f};
        if (stats) ++stats->pixels_tested;
        const TriangleFragment frag = eval_triangle_at(tri, pixel);
        if (!frag.inside) continue;
        if (stats) ++stats->pixels_covered;
        const std::size_t idx = static_cast<std::size_t>(y) *
                                    static_cast<std::size_t>(w) +
                                static_cast<std::size_t>(x);
        // Subtask 4: min-depth color hold (z-buffer).
        if (frag.depth < out.depth[idx]) {
          out.depth[idx] = frag.depth;
          out.color.at(x, y) = frag.color;
          if (stats) ++stats->depth_passes;
        }
      }
    }
  }
  return out;
}

}  // namespace gaurast::mesh
