// Indexed triangle meshes — the workload the original (unenhanced) rasterizer
// serves, and which GauRast must keep serving (paper Sec. III-C: the enhanced
// rasterizer preserves triangle functionality).
#pragma once

#include <cstdint>
#include <vector>

#include "gsmath/mat.hpp"
#include "gsmath/vec.hpp"

namespace gaurast::mesh {

/// Per-vertex attributes.
struct Vertex {
  Vec3f position;
  Vec3f normal{0, 1, 0};
  Vec3f color{0.8f, 0.8f, 0.8f};
};

/// Indexed triangle mesh with invariant-checked construction.
class TriangleMesh {
 public:
  TriangleMesh() = default;

  /// Appends a vertex, returning its index.
  std::uint32_t add_vertex(const Vertex& v);

  /// Appends a triangle; indices must reference existing vertices.
  void add_triangle(std::uint32_t a, std::uint32_t b, std::uint32_t c);

  std::size_t vertex_count() const { return vertices_.size(); }
  std::size_t triangle_count() const { return indices_.size() / 3; }

  const std::vector<Vertex>& vertices() const { return vertices_; }
  const std::vector<std::uint32_t>& indices() const { return indices_; }

  /// Vertex indices of triangle t.
  void triangle(std::size_t t, std::uint32_t& a, std::uint32_t& b,
                std::uint32_t& c) const;

  /// Applies a rigid/affine transform to all vertex positions and (as a
  /// direction) to normals.
  void transform(const Mat4f& m);

  /// Recomputes per-vertex normals as the area-weighted average of incident
  /// face normals.
  void recompute_normals();

  /// Merges another mesh into this one (indices offset).
  void append(const TriangleMesh& other);

 private:
  std::vector<Vertex> vertices_;
  std::vector<std::uint32_t> indices_;
};

}  // namespace gaurast::mesh
