// Reference triangle rasterizer (the pipeline the pre-existing GPU rasterizer
// hardware implements; paper Table II left column).
//
// The per-pixel arithmetic is factored into ScreenTriangle/eval_triangle_at
// so the GauRast PE's triangle mode executes the *same* operations and tests
// can assert image equality between this software path and the hardware
// model, mirroring the paper's RTL validation against TinyRenderer.
#pragma once

#include <limits>
#include <vector>

#include "gsmath/image.hpp"
#include "mesh/mesh.hpp"
#include "scene/camera.hpp"

namespace gaurast::mesh {

/// A triangle after vertex processing, in screen space — the "primitive" the
/// rasterizer iterates over. 9 input floats characterize the geometry
/// (3 vertices x (x, y, z)), matching Table II's input width.
struct ScreenTriangle {
  Vec2f p0, p1, p2;   ///< pixel coordinates
  float z0 = 0.0f, z1 = 0.0f, z2 = 0.0f;  ///< view-space depths
  Vec3f c0, c1, c2;   ///< lit vertex colors
  float inv_double_area = 0.0f;  ///< 1 / (2 * signed area); uses the DIV unit
};

/// Result of evaluating one triangle at one pixel center.
struct TriangleFragment {
  bool inside = false;
  float depth = std::numeric_limits<float>::infinity();
  Vec3f color;
  float w0 = 0.0f, w1 = 0.0f, w2 = 0.0f;  ///< barycentric weights
};

/// Edge function e(p) = (b-a) x (p-a); positive for p left of ab.
float edge_function(Vec2f a, Vec2f b, Vec2f p);

/// Builds the screen-space primitive from three transformed vertices.
/// Returns false (culled) for degenerate or back-facing triangles.
bool setup_triangle(const Vertex& v0, const Vertex& v1, const Vertex& v2,
                    const scene::Camera& camera, ScreenTriangle& out);

/// Evaluates coverage + attributes at a pixel center. This is the exact
/// arithmetic the PE's triangle datapath performs (subtasks 1-3 of
/// Table II); subtask 4 (min-depth color hold) is the z-buffer update done
/// by the caller.
TriangleFragment eval_triangle_at(const ScreenTriangle& tri, Vec2f pixel);

/// Full-frame depth buffer output alongside color.
struct RasterOutput {
  Image color;
  std::vector<float> depth;  ///< row-major, +inf where uncovered

  RasterOutput(int width, int height, Vec3f background);
};

/// Per-frame rasterization statistics used by cost models and tests.
struct TriangleRasterStats {
  std::uint64_t triangles_submitted = 0;
  std::uint64_t triangles_culled = 0;
  std::uint64_t pixels_tested = 0;   ///< pixel-primitive pairs evaluated
  std::uint64_t pixels_covered = 0;  ///< pairs passing the inside test
  std::uint64_t depth_passes = 0;    ///< pairs winning the depth test
};

/// Renders a mesh through the camera with a simple headlight diffuse model
/// applied at the vertex stage. Triangles crossing the near plane are
/// rejected (no clipping — adequate for the closed meshes we generate).
RasterOutput render_mesh(const TriangleMesh& mesh, const scene::Camera& camera,
                         Vec3f background = {0.05f, 0.05f, 0.08f},
                         TriangleRasterStats* stats = nullptr);

/// Vertex-stage transform + lighting only; returns the primitive stream that
/// render_mesh would rasterize. Exposed so the GauRast hardware model can
/// consume the identical primitives.
std::vector<ScreenTriangle> build_primitives(const TriangleMesh& mesh,
                                             const scene::Camera& camera,
                                             TriangleRasterStats* stats = nullptr);

}  // namespace gaurast::mesh
