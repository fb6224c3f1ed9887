// Unit tests for vectors, matrices, quaternions, camera transforms and the
// image type.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "gsmath/image.hpp"
#include "gsmath/mat.hpp"
#include "gsmath/quat.hpp"
#include "gsmath/transform.hpp"
#include "gsmath/vec.hpp"

namespace gaurast {
namespace {

constexpr float kEps = 1e-5f;

// ----------------------------------------------------------------- Vec --

TEST(Vec3, DotAndCrossIdentities) {
  const Vec3f a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FLOAT_EQ(a.dot(b), 32.0f);
  const Vec3f c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0f, kEps);
  EXPECT_NEAR(c.dot(b), 0.0f, kEps);
}

TEST(Vec3, NormalizedHasUnitLength) {
  const Vec3f v{3, 4, 12};
  EXPECT_NEAR(v.normalized().norm(), 1.0f, kEps);
}

TEST(Vec3, NormalizeZeroThrows) {
  EXPECT_THROW(Vec3f{}.normalized(), Error);
}

TEST(Vec3, HadamardIsComponentwise) {
  const Vec3f p = Vec3f{1, 2, 3}.hadamard({4, 5, 6});
  EXPECT_EQ(p, (Vec3f{4, 10, 18}));
}

TEST(Vec2, ArithmeticAndNorm) {
  const Vec2f a{3, 4};
  EXPECT_FLOAT_EQ(a.norm(), 5.0f);
  EXPECT_EQ(a + Vec2f(1, 1), Vec2f(4, 5));
  EXPECT_EQ(a * 2.0f, Vec2f(6, 8));
  EXPECT_EQ(2.0f * a, Vec2f(6, 8));
}

TEST(Vec4, DotAndXyz) {
  const Vec4f h{1, 2, 3, 4};
  EXPECT_FLOAT_EQ(h.dot({1, 1, 1, 1}), 10.0f);
  EXPECT_EQ(h.xyz(), (Vec3f{1, 2, 3}));
}

TEST(Clampf, Bounds) {
  EXPECT_EQ(clampf(5.0f, 0.0f, 1.0f), 1.0f);
  EXPECT_EQ(clampf(-5.0f, 0.0f, 1.0f), 0.0f);
  EXPECT_EQ(clampf(0.5f, 0.0f, 1.0f), 0.5f);
}

// ----------------------------------------------------------------- Mat --

TEST(Mat2, InverseRecoversIdentity) {
  const Mat2f m{2, 1, 1, 3};
  const Mat2f mi = m.inverse();
  const Mat2f id = m * mi;
  EXPECT_NEAR(id.a, 1.0f, kEps);
  EXPECT_NEAR(id.b, 0.0f, kEps);
  EXPECT_NEAR(id.c, 0.0f, kEps);
  EXPECT_NEAR(id.d, 1.0f, kEps);
}

TEST(Mat2, SingularInverseThrows) {
  const Mat2f m{1, 2, 2, 4};
  EXPECT_THROW(m.inverse(), Error);
}

TEST(Mat3, MultiplyAgainstHandComputed) {
  Mat3f a = Mat3f::from_rows({1, 2, 3}, {4, 5, 6}, {7, 8, 9});
  Mat3f id = Mat3f::identity();
  const Mat3f r = a * id;
  for (std::size_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(r.m[i], a.m[i]);
}

TEST(Mat3, TransposeInvolution) {
  Mat3f a = Mat3f::from_rows({1, 2, 3}, {4, 5, 6}, {7, 8, 10});
  const Mat3f tt = a.transposed().transposed();
  for (std::size_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(tt.m[i], a.m[i]);
}

TEST(Mat3, DeterminantOfKnownMatrix) {
  Mat3f a = Mat3f::from_rows({2, 0, 0}, {0, 3, 0}, {0, 0, 4});
  EXPECT_FLOAT_EQ(a.det(), 24.0f);
}

TEST(Mat4, TransformPointAppliesTranslation) {
  const Mat4f t = translation4({1, 2, 3});
  EXPECT_EQ(t.transform_point({0, 0, 0}), (Vec3f{1, 2, 3}));
  // Directions ignore translation.
  EXPECT_EQ(t.transform_dir({1, 0, 0}), (Vec3f{1, 0, 0}));
}

TEST(Mat4, CompositionOrder) {
  const Mat4f t = translation4({1, 0, 0});
  const Mat4f s = scale4({2, 2, 2});
  // (t*s) scales first, then translates.
  EXPECT_EQ((t * s).transform_point({1, 0, 0}), (Vec3f{3, 0, 0}));
  EXPECT_EQ((s * t).transform_point({1, 0, 0}), (Vec3f{4, 0, 0}));
}

TEST(Mat4, Upper3x3ExtractsRotationPart) {
  const Mat4f r = rotation4({0, 1, 0}, 3.14159265f / 2.0f);
  const Mat3f rot = r.upper3x3();
  const Vec3f v = rot * Vec3f{1, 0, 0};
  EXPECT_NEAR(v.x, 0.0f, kEps);
  EXPECT_NEAR(v.z, -1.0f, kEps);
}

// ---------------------------------------------------------------- Quat --

TEST(Quat, IdentityRotatesNothing) {
  const Quatf q = Quatf::identity();
  const Vec3f v{1, 2, 3};
  const Vec3f r = q.rotate(v);
  EXPECT_NEAR((r - v).norm(), 0.0f, kEps);
}

TEST(Quat, AxisAngleMatchesMatrix) {
  const Quatf q = Quatf::from_axis_angle({0, 0, 1}, 3.14159265f / 2.0f);
  const Vec3f r = q.to_matrix() * Vec3f{1, 0, 0};
  EXPECT_NEAR(r.x, 0.0f, kEps);
  EXPECT_NEAR(r.y, 1.0f, kEps);
}

TEST(Quat, RotationPreservesLength) {
  Pcg32 rng(5);
  for (int i = 0; i < 50; ++i) {
    const Quatf q = Quatf::from_axis_angle(
        {static_cast<float>(rng.normal()), static_cast<float>(rng.normal()),
         static_cast<float>(rng.normal() + 2.0)},
        static_cast<float>(rng.uniform(0, 6.28)));
    const Vec3f v{static_cast<float>(rng.normal()),
                  static_cast<float>(rng.normal()),
                  static_cast<float>(rng.normal())};
    EXPECT_NEAR(q.rotate(v).norm(), v.norm(), 1e-3f);
  }
}

TEST(Quat, MatrixIsOrthonormal) {
  const Quatf q = Quatf::from_axis_angle({1, 2, 3}, 0.7f);
  const Mat3f r = q.to_matrix();
  const Mat3f rrt = r * r.transposed();
  const Mat3f id = Mat3f::identity();
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(rrt.m[i], id.m[i], 1e-5f);
  EXPECT_NEAR(r.det(), 1.0f, 1e-5f);
}

TEST(Quat, HamiltonProductComposesRotations) {
  const Quatf a = Quatf::from_axis_angle({0, 1, 0}, 0.5f);
  const Quatf b = Quatf::from_axis_angle({0, 1, 0}, 0.25f);
  const Quatf c = a * b;
  const Quatf expect = Quatf::from_axis_angle({0, 1, 0}, 0.75f);
  EXPECT_NEAR(c.normalized().w, expect.w, kEps);
  EXPECT_NEAR(c.normalized().y, expect.y, kEps);
}

TEST(Quat, NormalizeZeroThrows) {
  EXPECT_THROW((Quatf{0, 0, 0, 0}).normalized(), Error);
}

// ---------------------------------------------------------- Transforms --

TEST(LookAt, EyeMapsToOrigin) {
  const Mat4f v = look_at({1, 2, 3}, {0, 0, 0}, {0, 1, 0});
  const Vec3f o = v.transform_point({1, 2, 3});
  EXPECT_NEAR(o.norm(), 0.0f, 1e-4f);
}

TEST(LookAt, TargetOnNegativeZAxis) {
  const Mat4f v = look_at({0, 0, 5}, {0, 0, 0}, {0, 1, 0});
  const Vec3f t = v.transform_point({0, 0, 0});
  EXPECT_NEAR(t.x, 0.0f, kEps);
  EXPECT_NEAR(t.y, 0.0f, kEps);
  EXPECT_NEAR(t.z, -5.0f, 1e-4f);  // GL convention: forward is -Z
}

TEST(LookAt, DegenerateThrows) {
  EXPECT_THROW(look_at({1, 1, 1}, {1, 1, 1}, {0, 1, 0}), Error);
}

TEST(FocalFromFov, MatchesTrig) {
  const float f = focal_from_fov(1.0f, 480);
  EXPECT_NEAR(f, 480.0f / (2.0f * std::tan(0.5f)), 1e-3f);
  EXPECT_THROW(focal_from_fov(0.0f, 480), Error);
}

// --------------------------------------------------------------- Image --

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3, {0.5f, 0.25f, 0.125f});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.at(3, 2), (Vec3f{0.5f, 0.25f, 0.125f}));
  img.at(0, 0) = {1, 0, 0};
  EXPECT_EQ(img.at(0, 0).x, 1.0f);
}

TEST(Image, OutOfRangeAccessThrows) {
  Image img(2, 2);
  EXPECT_THROW(img.at(2, 0), Error);
  EXPECT_THROW(img.at(0, -1), Error);
}

TEST(Image, PsnrIdenticalIsHuge) {
  Image a(8, 8, {0.3f, 0.3f, 0.3f});
  EXPECT_GT(a.psnr(a), 1e8);
}

TEST(Image, PsnrDropsWithNoise) {
  Image a(16, 16, {0.5f, 0.5f, 0.5f});
  Image b = a;
  b.at(0, 0) = {1.0f, 0.5f, 0.5f};
  const double p1 = a.psnr(b);
  Image c = a;
  for (int i = 0; i < 16; ++i) c.at(i, i) = {1.0f, 1.0f, 1.0f};
  EXPECT_GT(p1, a.psnr(c));
}

TEST(Image, MaxAbsDiffFindsWorstChannel) {
  Image a(2, 2), b(2, 2);
  b.at(1, 1) = {0.0f, -0.75f, 0.25f};
  EXPECT_FLOAT_EQ(a.max_abs_diff(b), 0.75f);
}

TEST(Image, MismatchedSizesThrow) {
  Image a(2, 2), b(3, 2);
  EXPECT_THROW(a.psnr(b), Error);
}

TEST(Image, SavePpmWritesHeaderAndPayload) {
  Image img(3, 2, {1.0f, 0.0f, 0.0f});
  const std::string path = ::testing::TempDir() + "/gaurast_img.ppm";
  img.save_ppm(path);
  std::ifstream is(path, std::ios::binary);
  std::string magic, dims;
  std::getline(is, magic);
  EXPECT_EQ(magic, "P6");
}

TEST(Image, MeanLuminance) {
  Image img(2, 1);
  img.at(0, 0) = {1, 1, 1};
  img.at(1, 0) = {0, 0, 0};
  EXPECT_DOUBLE_EQ(img.mean_luminance(), 0.5);
}

}  // namespace
}  // namespace gaurast
