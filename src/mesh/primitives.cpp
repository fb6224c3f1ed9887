#include "mesh/primitives.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gaurast::mesh {

namespace {
constexpr float kPi = 3.14159265358979323846f;
}

TriangleMesh make_cube() {
  TriangleMesh m;
  const Vec3f face_colors[6] = {{0.9f, 0.3f, 0.3f}, {0.3f, 0.9f, 0.3f},
                                {0.3f, 0.3f, 0.9f}, {0.9f, 0.9f, 0.3f},
                                {0.9f, 0.3f, 0.9f}, {0.3f, 0.9f, 0.9f}};
  const Vec3f normals[6] = {{1, 0, 0}, {-1, 0, 0}, {0, 1, 0},
                            {0, -1, 0}, {0, 0, 1}, {0, 0, -1}};
  for (int f = 0; f < 6; ++f) {
    const Vec3f n = normals[f];
    // Build a tangent frame for the face.
    const Vec3f t = std::abs(n.y) < 0.9f ? n.cross({0, 1, 0}).normalized()
                                         : n.cross({1, 0, 0}).normalized();
    const Vec3f b = n.cross(t);
    const Vec3f center = n * 0.5f;
    Vertex v[4];
    const float su[4] = {-0.5f, 0.5f, 0.5f, -0.5f};
    const float sv[4] = {-0.5f, -0.5f, 0.5f, 0.5f};
    std::uint32_t idx[4];
    for (int k = 0; k < 4; ++k) {
      v[k].position = center + t * su[k] + b * sv[k];
      v[k].normal = n;
      v[k].color = face_colors[f];
      idx[k] = m.add_vertex(v[k]);
    }
    m.add_triangle(idx[0], idx[1], idx[2]);
    m.add_triangle(idx[0], idx[2], idx[3]);
  }
  return m;
}

TriangleMesh make_sphere(int stacks, int slices, float radius) {
  GAURAST_CHECK(stacks >= 3 && slices >= 3 && radius > 0.0f);
  TriangleMesh m;
  for (int i = 0; i <= stacks; ++i) {
    const float phi = kPi * static_cast<float>(i) / static_cast<float>(stacks);
    for (int j = 0; j <= slices; ++j) {
      const float theta =
          2.0f * kPi * static_cast<float>(j) / static_cast<float>(slices);
      Vertex v;
      v.normal = {std::sin(phi) * std::cos(theta), std::cos(phi),
                  std::sin(phi) * std::sin(theta)};
      v.position = v.normal * radius;
      v.color = {0.5f + 0.5f * v.normal.x, 0.5f + 0.5f * v.normal.y,
                 0.5f + 0.5f * v.normal.z};
      m.add_vertex(v);
    }
  }
  const auto cols = static_cast<std::uint32_t>(slices + 1);
  for (int i = 0; i < stacks; ++i) {
    for (int j = 0; j < slices; ++j) {
      const auto a = static_cast<std::uint32_t>(i) * cols +
                     static_cast<std::uint32_t>(j);
      const auto b = a + cols;
      m.add_triangle(a, b, a + 1);
      m.add_triangle(a + 1, b, b + 1);
    }
  }
  return m;
}

TriangleMesh make_torus(int major_segments, int minor_segments,
                        float major_radius, float minor_radius) {
  GAURAST_CHECK(major_segments >= 3 && minor_segments >= 3);
  GAURAST_CHECK(major_radius > minor_radius && minor_radius > 0.0f);
  TriangleMesh m;
  for (int i = 0; i <= major_segments; ++i) {
    const float u = 2.0f * kPi * static_cast<float>(i) /
                    static_cast<float>(major_segments);
    for (int j = 0; j <= minor_segments; ++j) {
      const float v = 2.0f * kPi * static_cast<float>(j) /
                      static_cast<float>(minor_segments);
      Vertex vert;
      const Vec3f ring_center{major_radius * std::cos(u), 0.0f,
                              major_radius * std::sin(u)};
      const Vec3f radial{std::cos(u) * std::cos(v), std::sin(v),
                         std::sin(u) * std::cos(v)};
      vert.position = ring_center + radial * minor_radius;
      vert.normal = radial;
      vert.color = {0.8f, 0.5f + 0.3f * std::sin(v), 0.4f};
      m.add_vertex(vert);
    }
  }
  const auto cols = static_cast<std::uint32_t>(minor_segments + 1);
  for (int i = 0; i < major_segments; ++i) {
    for (int j = 0; j < minor_segments; ++j) {
      const auto a = static_cast<std::uint32_t>(i) * cols +
                     static_cast<std::uint32_t>(j);
      const auto b = a + cols;
      m.add_triangle(a, b, a + 1);
      m.add_triangle(a + 1, b, b + 1);
    }
  }
  return m;
}

TriangleMesh make_plane(int cells, float size) {
  GAURAST_CHECK(cells >= 1 && size > 0.0f);
  TriangleMesh m;
  for (int i = 0; i <= cells; ++i) {
    for (int j = 0; j <= cells; ++j) {
      Vertex v;
      const float fx = static_cast<float>(j) / static_cast<float>(cells);
      const float fz = static_cast<float>(i) / static_cast<float>(cells);
      v.position = {(fx - 0.5f) * size, 0.0f, (fz - 0.5f) * size};
      v.normal = {0, 1, 0};
      v.color = ((i + j) % 2 == 0) ? Vec3f{0.75f, 0.75f, 0.75f}
                                   : Vec3f{0.35f, 0.35f, 0.35f};
      m.add_vertex(v);
    }
  }
  const auto cols = static_cast<std::uint32_t>(cells + 1);
  for (int i = 0; i < cells; ++i) {
    for (int j = 0; j < cells; ++j) {
      const auto a = static_cast<std::uint32_t>(i) * cols +
                     static_cast<std::uint32_t>(j);
      const auto b = a + cols;
      // Winding chosen so the face normal points +y (up).
      m.add_triangle(a, b, a + 1);
      m.add_triangle(a + 1, b, b + 1);
    }
  }
  return m;
}

TriangleMesh make_terrain(int cells, float size, float height_scale,
                          std::uint64_t seed) {
  TriangleMesh m = make_plane(cells, size);
  Pcg32 rng(seed);
  // Sum of random low-frequency cosine waves — cheap smooth heightfield.
  struct Wave {
    float kx, kz, phase, amp;
  };
  std::vector<Wave> waves;
  for (int w = 0; w < 6; ++w) {
    waves.push_back({static_cast<float>(rng.uniform(0.5, 3.0)),
                     static_cast<float>(rng.uniform(0.5, 3.0)),
                     static_cast<float>(rng.uniform(0.0, 6.28)),
                     static_cast<float>(rng.uniform(0.1, 0.4))});
  }
  TriangleMesh out;
  for (Vertex v : m.vertices()) {
    float h = 0.0f;
    for (const Wave& w : waves) {
      h += w.amp * std::cos(w.kx * v.position.x + w.kz * v.position.z + w.phase);
    }
    v.position.y = h * height_scale;
    v.color = {0.3f + 0.2f * h, 0.5f + 0.2f * h, 0.3f};
    out.add_vertex(v);
  }
  for (std::size_t t = 0; t < m.triangle_count(); ++t) {
    std::uint32_t a, b, c;
    m.triangle(t, a, b, c);
    out.add_triangle(a, b, c);
  }
  out.recompute_normals();
  return out;
}

}  // namespace gaurast::mesh
