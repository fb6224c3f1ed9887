// Tests for the Gaussian scene container, cameras, profiles and synthetic
// generator.

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"
#include "scene/generator.hpp"
#include "scene/profile.hpp"

namespace gaurast::scene {
namespace {

Gaussian3D make_valid_gaussian() {
  Gaussian3D g;
  g.position = {1, 2, 3};
  g.scale = {0.1f, 0.2f, 0.3f};
  g.opacity = 0.5f;
  g.sh[0] = {0.1f, 0.2f, 0.3f};
  return g;
}

// --------------------------------------------------------------- Scene --

TEST(GaussianScene, AddAndRetrieve) {
  GaussianScene scene(3);
  scene.add(make_valid_gaussian());
  ASSERT_EQ(scene.size(), 1u);
  const Gaussian3D g = scene.gaussian(0);
  EXPECT_EQ(g.position, (Vec3f{1, 2, 3}));
  EXPECT_FLOAT_EQ(g.opacity, 0.5f);
}

TEST(GaussianScene, RotationsNormalizedOnInsert) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.rotation = {2.0f, 0.0f, 0.0f, 0.0f};
  scene.add(g);
  EXPECT_NEAR(scene.rotations()[0].norm(), 1.0f, 1e-6f);
}

TEST(GaussianScene, RejectsInvalidOpacity) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.opacity = 1.5f;
  EXPECT_THROW(scene.add(g), Error);
  g.opacity = -0.1f;
  EXPECT_THROW(scene.add(g), Error);
}

TEST(GaussianScene, RejectsNegativeScaleAndNonFinitePosition) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.scale.x = -1.0f;
  EXPECT_THROW(scene.add(g), Error);
  g = make_valid_gaussian();
  g.position.y = std::numeric_limits<float>::infinity();
  EXPECT_THROW(scene.add(g), Error);
}

TEST(GaussianScene, InvalidShDegreeThrows) {
  EXPECT_THROW(GaussianScene(-1), Error);
  EXPECT_THROW(GaussianScene(4), Error);
}

TEST(GaussianScene, BytesPerGaussianByDegree) {
  EXPECT_EQ(GaussianScene(0).bytes_per_gaussian(), (11 + 3) * 4u);
  EXPECT_EQ(GaussianScene(3).bytes_per_gaussian(), (11 + 48) * 4u);
}

TEST(GaussianScene, BoundsCoverAllPositions) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.position = {-5, 0, 0};
  scene.add(g);
  g.position = {3, 7, -2};
  scene.add(g);
  const Aabb box = scene.bounds();
  ASSERT_TRUE(box.valid);
  EXPECT_EQ(box.lo.x, -5.0f);
  EXPECT_EQ(box.hi.y, 7.0f);
}

TEST(GaussianScene, EmptyBoundsInvalid) {
  EXPECT_FALSE(GaussianScene(0).bounds().valid);
}

TEST(GaussianScene, PrunedKeepsMostImportant) {
  GaussianScene scene(0);
  Gaussian3D big = make_valid_gaussian();
  big.scale = {1.0f, 1.0f, 1.0f};
  big.opacity = 0.9f;
  big.position = {9, 9, 9};
  Gaussian3D small = make_valid_gaussian();
  small.scale = {0.01f, 0.01f, 0.01f};
  small.opacity = 0.1f;
  for (int i = 0; i < 9; ++i) scene.add(small);
  scene.add(big);
  const GaussianScene kept = scene.pruned(1);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.positions()[0], (Vec3f{9, 9, 9}));
}

TEST(GaussianScene, PruneMoreThanSizeKeepsAll) {
  GaussianScene scene(0);
  scene.add(make_valid_gaussian());
  EXPECT_EQ(scene.pruned(100).size(), 1u);
}

// -------------------------------------------------------------- Camera --

TEST(Camera, EyeProjectsToPositiveDepthAhead) {
  const Camera cam(640, 480, 0.9f, {0, 0, -5}, {0, 0, 0});
  const Vec3f v = cam.to_view({0, 0, 0});
  EXPECT_NEAR(v.z, 5.0f, 1e-4f);  // +Z forward convention
}

TEST(Camera, CenterOfViewMapsToImageCenter) {
  const Camera cam(640, 480, 0.9f, {0, 0, -5}, {0, 0, 0});
  const Vec2f px = cam.view_to_pixel({0, 0, 5.0f});
  EXPECT_NEAR(px.x, 320.0f, 0.5f);
  EXPECT_NEAR(px.y, 240.0f, 0.5f);
}

TEST(Camera, UpIsImageUp) {
  const Camera cam(640, 480, 0.9f, {0, 0, -5}, {0, 0, 0});
  const Vec3f above = cam.to_view({0, 1, 0});
  const Vec2f px = cam.view_to_pixel(above);
  EXPECT_LT(px.y, 240.0f);  // rows decrease upward
}

TEST(Camera, NegativeDepthPixelThrows) {
  const Camera cam(64, 48, 0.9f, {0, 0, -5}, {0, 0, 0});
  EXPECT_THROW(cam.view_to_pixel({0, 0, -1.0f}), Error);
}

TEST(Camera, FocalConsistentWithFov) {
  const Camera cam(800, 600, 1.0f, {0, 0, -3}, {0, 0, 0});
  EXPECT_NEAR(cam.focal_y(),
              600.0f / (2.0f * std::tan(0.5f)), 1e-2f);
  EXPECT_GT(cam.fov_x(), cam.fov_y());  // wider than tall
}

TEST(Camera, InvalidConstructionThrows) {
  EXPECT_THROW(Camera(0, 480, 0.9f, {0, 0, -5}, {0, 0, 0}), Error);
  EXPECT_THROW(Camera(640, 480, 0.0f, {0, 0, -5}, {0, 0, 0}), Error);
}

TEST(OrbitPath, GeneratesRequestedViews) {
  const auto cams = orbit_path(320, 240, 0.9f, {0, 0, 0}, 5.0f, 1.0f, 8);
  ASSERT_EQ(cams.size(), 8u);
  for (const Camera& cam : cams) {
    // Every camera sees the center at positive depth.
    EXPECT_GT(cam.to_view({0, 0, 0}).z, 0.0f);
  }
}

// ------------------------------------------------------------ Profiles --

TEST(Profiles, SevenScenesInPaperOrder) {
  const auto profiles = nerf360_profiles();
  ASSERT_EQ(profiles.size(), 7u);
  EXPECT_EQ(profiles[0].name, "bicycle");
  EXPECT_EQ(profiles[6].name, "bonsai");
}

TEST(Profiles, MiniVariantHasFewerGaussiansAndPairs) {
  for (const auto& name : nerf360_scene_names()) {
    const SceneProfile orig = profile_by_name(name, PipelineVariant::kOriginal);
    const SceneProfile mini =
        profile_by_name(name, PipelineVariant::kMiniSplatting);
    EXPECT_LT(mini.gaussian_count, orig.gaussian_count) << name;
    EXPECT_LT(mini.total_pairs(), orig.total_pairs()) << name;
  }
}

TEST(Profiles, DerivedQuantitiesConsistent) {
  const SceneProfile p = profile_by_name("bicycle");
  EXPECT_EQ(p.pixel_count(), 1237u * 822u);
  EXPECT_NEAR(static_cast<double>(p.total_pairs()),
              p.pairs_per_pixel * static_cast<double>(p.pixel_count()),
              static_cast<double>(p.pixel_count()));
  EXPECT_EQ(p.tile_count(16), 78u * 52u);
}

TEST(Profiles, UnknownNameThrows) {
  EXPECT_THROW(profile_by_name("nonexistent"), Error);
}

TEST(Profiles, ScaledPreservesIntensiveQuantities) {
  const SceneProfile p = profile_by_name("garden");
  const SceneProfile s = p.scaled(0.01);
  EXPECT_NEAR(static_cast<double>(s.gaussian_count),
              static_cast<double>(p.gaussian_count) * 0.01, 2.0);
  EXPECT_DOUBLE_EQ(s.pairs_per_pixel, p.pairs_per_pixel);
  // Pixel count scales ~linearly with the factor.
  EXPECT_NEAR(static_cast<double>(s.pixel_count()) /
                  static_cast<double>(p.pixel_count()),
              0.01, 0.002);
}

TEST(Profiles, ScaledRejectsBadFactors) {
  const SceneProfile p = profile_by_name("room");
  EXPECT_THROW(p.scaled(0.0), Error);
  EXPECT_THROW(p.scaled(1.5), Error);
}

// ----------------------------------------------------------- Generator --

TEST(Generator, DeterministicInSeed) {
  GeneratorParams params;
  params.gaussian_count = 500;
  const GaussianScene a = generate_scene(params);
  const GaussianScene b = generate_scene(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 50) {
    EXPECT_EQ(a.positions()[i], b.positions()[i]);
    EXPECT_EQ(a.opacities()[i], b.opacities()[i]);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorParams params;
  params.gaussian_count = 100;
  const GaussianScene a = generate_scene(params);
  params.seed = 43;
  const GaussianScene b = generate_scene(params);
  EXPECT_NE(a.positions()[0], b.positions()[0]);
}

TEST(Generator, CountRespected) {
  GeneratorParams params;
  params.gaussian_count = 1234;
  EXPECT_EQ(generate_scene(params).size(), 1234u);
}

TEST(Generator, AllInvariantsHold) {
  GeneratorParams params;
  params.gaussian_count = 2000;
  const GaussianScene scene = generate_scene(params);
  for (std::size_t i = 0; i < scene.size(); ++i) {
    EXPECT_GE(scene.opacities()[i], 0.0f);
    EXPECT_LE(scene.opacities()[i], 1.0f);
    EXPECT_GT(scene.scales()[i].x, 0.0f);
  }
}

TEST(Generator, BackgroundShellIsFar) {
  GeneratorParams params;
  params.gaussian_count = 1000;
  params.object_fraction = 0.0;
  params.ground_fraction = 0.0;  // everything in the background shell
  const GaussianScene scene = generate_scene(params);
  // Shell radius is 0.8-1.2x background_radius before the y-flattening the
  // generator applies, so the norm can shrink to ~0.4x at the poles.
  int far_count = 0;
  for (const Vec3f& p : scene.positions()) {
    EXPECT_GT(p.norm(), params.background_radius * 0.35f);
    if (p.norm() > params.background_radius * 0.7f) ++far_count;
  }
  EXPECT_GT(far_count, static_cast<int>(scene.size() / 2));
}

TEST(Generator, ProfileDrivenSceneMatchesCount) {
  const SceneProfile profile = profile_by_name("bonsai").scaled(0.001);
  const GaussianScene scene = generate_scene_for_profile(profile);
  EXPECT_EQ(scene.size(), profile.gaussian_count);
}

TEST(Generator, InvalidFractionsThrow) {
  GeneratorParams params;
  params.object_fraction = 0.8;
  params.ground_fraction = 0.3;
  EXPECT_THROW(generate_scene(params), Error);
}

}  // namespace
}  // namespace gaurast::scene
