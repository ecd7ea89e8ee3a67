#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "geom/hyperplane.h"
#include "geom/hull2d.h"
#include "geom/vec.h"

namespace gir {
namespace {

TEST(VecTest, DotAndNorm) {
  Vec a = {1.0, 2.0, 3.0};
  Vec b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(NormSquared(a), 14.0);
  EXPECT_DOUBLE_EQ(Norm(a), std::sqrt(14.0));
}

TEST(VecTest, Arithmetic) {
  Vec a = {1.0, 2.0};
  Vec b = {3.0, 5.0};
  EXPECT_EQ(Sub(b, a), (Vec{2.0, 3.0}));
  EXPECT_EQ(Add(a, b), (Vec{4.0, 7.0}));
  EXPECT_EQ(Scale(a, 2.0), (Vec{2.0, 4.0}));
  EXPECT_EQ(AddScaled(a, b, 2.0), (Vec{7.0, 12.0}));
}

TEST(VecTest, NormalizeInPlace) {
  Vec a = {3.0, 4.0};
  ASSERT_TRUE(NormalizeInPlace(a));
  EXPECT_DOUBLE_EQ(a[0], 0.6);
  EXPECT_DOUBLE_EQ(a[1], 0.8);
  Vec zero = {0.0, 0.0};
  EXPECT_FALSE(NormalizeInPlace(zero));
}

TEST(VecTest, LInfDistance) {
  Vec a = {0.0, 1.0};
  Vec b = {0.5, -1.0};
  EXPECT_DOUBLE_EQ(LInfDistance(a, b), 2.0);
}

TEST(VecTest, ToStringFormats) {
  Vec a = {0.5, 1.0};
  EXPECT_EQ(ToString(a), "(0.5, 1)");
}

TEST(LinearSystemTest, SolvesIdentity) {
  std::vector<Vec> a = {{1.0, 0.0}, {0.0, 1.0}};
  Result<Vec> x = SolveLinearSystem(a, {3.0, 4.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 4.0, 1e-12);
}

TEST(LinearSystemTest, SolvesGeneral3x3) {
  std::vector<Vec> a = {{2.0, 1.0, -1.0}, {-3.0, -1.0, 2.0}, {-2.0, 1.0, 2.0}};
  Result<Vec> x = SolveLinearSystem(a, {8.0, -11.0, -3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-9);
  EXPECT_NEAR((*x)[1], 3.0, 1e-9);
  EXPECT_NEAR((*x)[2], -1.0, 1e-9);
}

TEST(LinearSystemTest, DetectsSingular) {
  std::vector<Vec> a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(SolveLinearSystem(a, {1.0, 2.0}).ok());
}

TEST(HyperplaneTest, FitIn2D) {
  std::vector<Vec> points = {{0.0, 1.0}, {1.0, 0.0}};
  Vec interior = {0.0, 0.0};
  Result<Hyperplane> plane = FitHyperplane(points, {0, 1}, interior);
  ASSERT_TRUE(plane.ok());
  // Plane x + y = 1 with outward normal away from the origin.
  EXPECT_NEAR(plane->Evaluate(Vec{0.5, 0.5}), 0.0, 1e-12);
  EXPECT_LT(plane->Evaluate(interior), 0.0);
  EXPECT_GT(plane->Evaluate(Vec{1.0, 1.0}), 0.0);
}

TEST(HyperplaneTest, FitIn4D) {
  // Plane x0 = 0.5 through four points, interior at the origin.
  std::vector<Vec> points = {{0.5, 0.0, 0.0, 0.0},
                             {0.5, 1.0, 0.0, 0.0},
                             {0.5, 0.0, 1.0, 0.0},
                             {0.5, 0.0, 0.0, 1.0}};
  Vec interior(4, 0.0);
  Result<Hyperplane> plane = FitHyperplane(points, {0, 1, 2, 3}, interior);
  ASSERT_TRUE(plane.ok());
  EXPECT_NEAR(std::fabs(plane->normal[0]), 1.0, 1e-12);
  EXPECT_GT(plane->Evaluate(Vec{1.0, 0.3, 0.3, 0.3}), 0.0);
  EXPECT_LT(plane->Evaluate(Vec{0.0, 0.3, 0.3, 0.3}), 0.0);
}

TEST(HyperplaneTest, RejectsDegenerate) {
  std::vector<Vec> points = {{0.0, 0.0, 0.0},
                             {1.0, 0.0, 0.0},
                             {2.0, 0.0, 0.0}};  // collinear
  Vec interior = {0.0, 1.0, 0.0};
  EXPECT_FALSE(FitHyperplane(points, {0, 1, 2}, interior).ok());
}

// FitHyperplane's contract across the dimensions the library runs at
// (ConvexHull, CP, half-space intersection and the FP star all fit
// through it).
TEST(HyperplaneTest, FitContractAcrossDimensions) {
  Rng rng(2024);
  for (size_t d = 2; d <= 8; ++d) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<Vec> points(d, Vec(d));
      for (Vec& p : points) {
        for (double& x : p) x = rng.Uniform(0.0, 1.0);
      }
      Vec interior(d);
      for (double& x : interior) x = rng.Uniform(0.0, 1.0);
      std::vector<int> indices(d);
      for (size_t i = 0; i < d; ++i) indices[i] = static_cast<int>(i);
      Result<Hyperplane> plane = FitHyperplane(points, indices, interior);
      ASSERT_TRUE(plane.ok()) << "d=" << d << ": " << plane.status().ToString();
      EXPECT_NEAR(Norm(plane->normal), 1.0, 1e-12) << "d=" << d;
      EXPECT_LT(plane->Evaluate(interior), 0.0) << "d=" << d;
      for (const Vec& p : points) {
        EXPECT_NEAR(plane->Evaluate(p), 0.0, 1e-12) << "d=" << d;
      }
    }
  }
}

TEST(HyperplaneTest, FitRejectsRankDeficientAndOnPlaneInterior) {
  Rng rng(2025);
  for (size_t d = 2; d <= 8; ++d) {
    std::vector<Vec> points(d, Vec(d));
    for (Vec& p : points) {
      for (double& x : p) x = rng.Uniform(0.0, 1.0);
    }
    std::vector<int> indices(d);
    for (size_t i = 0; i < d; ++i) indices[i] = static_cast<int>(i);
    Vec interior(d, 2.0);

    // Last point on the line through the first two (a repeat at d = 2).
    std::vector<Vec> dependent = points;
    dependent[d - 1] = d == 2 ? points[0]
                              : AddScaled(points[0],
                                          Sub(points[1], points[0]), 0.37);
    Result<Hyperplane> rank_deficient =
        FitHyperplane(dependent, indices, interior);
    ASSERT_FALSE(rank_deficient.ok()) << "d=" << d;
    EXPECT_EQ(rank_deficient.status().code(), StatusCode::kFailedPrecondition)
        << "d=" << d;

    // The interior point is one of the defining points.
    Result<Hyperplane> on_plane = FitHyperplane(points, indices, points[0]);
    ASSERT_FALSE(on_plane.ok()) << "d=" << d;
    EXPECT_EQ(on_plane.status().code(), StatusCode::kFailedPrecondition)
        << "d=" << d;
  }
}

TEST(HyperplaneTest, FlatFitMatchesWrapperBitwiseWithReusedScratch) {
  // One scratch reused across shrinking and growing dimensions must not
  // leak state between fits.
  Rng rng(2026);
  HyperplaneFitScratch scratch;
  for (size_t d : {8u, 2u, 5u, 3u, 8u, 4u}) {
    std::vector<Vec> points(d, Vec(d));
    for (Vec& p : points) {
      for (double& x : p) x = rng.Uniform(0.0, 1.0);
    }
    Vec interior(d, -1.0);
    std::vector<int> indices(d);
    std::vector<const double*> vertices(d);
    for (size_t i = 0; i < d; ++i) {
      indices[i] = static_cast<int>(i);
      vertices[i] = points[i].data();
    }
    Result<Hyperplane> wrapped = FitHyperplane(points, indices, interior);
    ASSERT_TRUE(wrapped.ok());
    Vec normal(d);
    double offset = 0.0;
    ASSERT_TRUE(FitHyperplaneInto(vertices.data(), interior, &scratch,
                                  normal.data(), &offset)
                    .ok());
    EXPECT_EQ(normal, wrapped->normal) << "d=" << d;
    EXPECT_EQ(offset, wrapped->offset) << "d=" << d;
  }
}

TEST(HyperplaneTest, HalfspaceContains) {
  Halfspace h{{1.0, 1.0}, 1.0};
  EXPECT_TRUE(h.Contains(Vec{1.0, 1.0}));
  EXPECT_FALSE(h.Contains(Vec{0.0, 0.0}));
  EXPECT_TRUE(h.Contains(Vec{0.5, 0.5}));
}

TEST(Hull2DTest, Square) {
  std::vector<Vec> pts = {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}};
  std::vector<int> hull = ConvexHull2D(pts);
  EXPECT_EQ(hull.size(), 4u);
  // CCW from (0,0).
  EXPECT_EQ(hull[0], 0);
}

TEST(Hull2DTest, CollinearExcluded) {
  std::vector<Vec> pts = {{0, 0}, {0.5, 0.5}, {1, 1}, {1, 0}};
  std::vector<int> hull = ConvexHull2D(pts);
  EXPECT_EQ(hull.size(), 3u);
}

TEST(Hull2DTest, DuplicatesTolerated) {
  std::vector<Vec> pts = {{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}};
  std::vector<int> hull = ConvexHull2D(pts);
  EXPECT_EQ(hull.size(), 3u);
}

TEST(Hull2DTest, TwoPoints) {
  std::vector<Vec> pts = {{0, 0}, {1, 1}};
  EXPECT_EQ(ConvexHull2D(pts).size(), 2u);
}

TEST(Hull2DTest, Cross2DSign) {
  EXPECT_GT(Cross2D(Vec{0, 0}, Vec{1, 0}, Vec{1, 1}), 0.0);
  EXPECT_LT(Cross2D(Vec{0, 0}, Vec{1, 0}, Vec{1, -1}), 0.0);
  EXPECT_DOUBLE_EQ(Cross2D(Vec{0, 0}, Vec{1, 1}, Vec{2, 2}), 0.0);
}

}  // namespace
}  // namespace gir
