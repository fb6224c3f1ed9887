#include "core/pe.hpp"

#include <utility>

namespace gaurast::core {

void OpTally::add_to(sim::CounterSet& counters) const {
  const std::pair<const char*, std::uint64_t> tallies[] = {
      {sim::ops::kFp32Add, add}, {sim::ops::kFp32Mul, mul},
      {sim::ops::kFp32Div, div}, {sim::ops::kFp32Exp, exp},
      {sim::ops::kFp32Cmp, cmp}};
  for (const auto& [name, count] : tallies) {
    if (count != 0) counters.increment(name, count);
  }
}

bool pe_triangle_pair(const mesh::ScreenTriangle& tri, Vec2f pixel,
                      float& depth_state, Vec3f& color_state,
                      Precision precision, OpTally& ops) {
  // The functional math mirrors mesh::eval_triangle_at exactly (FP32) so
  // hardware images equal the reference renderer. The *counted* ops use the
  // hardware form: three incremental edge updates per pixel step.
  const mesh::TriangleFragment frag = mesh::eval_triangle_at(tri, pixel);
  ops.add += 3;  // edge increments
  ops.cmp += 3;  // inside tests
  if (!frag.inside) return false;

  // Barycentric weights (3 muls by 1/2A from setup) + attribute
  // interpolation (depth 3 muls/2 adds handled below, color 3 MACs counted
  // as the remaining shared-unit work).
  ops.mul += 9;
  ops.add += 6;
  ops.cmp += 1;  // depth compare

  float depth = frag.depth;
  Vec3f color = frag.color;
  if (precision == Precision::kFp16) {
    depth = round_to_half(depth);
    color = {round_to_half(color.x), round_to_half(color.y),
             round_to_half(color.z)};
  }
  if (depth < depth_state) {
    depth_state = depth;
    color_state = color;
    return true;
  }
  return false;
}

void pe_triangle_setup(OpTally& ops) {
  ops.div += 1;  // 1 / (2 * area)
  ops.mul += 2;
  ops.add += 5;
}

}  // namespace gaurast::core
