#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "geom/halfspace_intersection.h"
#include "geom/volume.h"

// ----- global allocation counter -----

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gir {
namespace {

TEST(IntersectionTest, UnitCubeAlone) {
  std::vector<Halfspace> ge;  // cube only
  Vec hint = {0.5, 0.5};
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->polytope.empty());
  EXPECT_EQ(r->polytope.vertices().size(), 4u);
  EXPECT_NEAR(r->polytope.Volume(), 1.0, 1e-9);
  EXPECT_TRUE(r->nonredundant.empty());
}

TEST(IntersectionTest, DiagonalCutSquare) {
  // x + y >= 1 inside the unit square: a triangle of area 1/2.
  std::vector<Halfspace> ge = {Halfspace{{1.0, 1.0}, 1.0}};
  Vec hint = {0.9, 0.9};
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->polytope.vertices().size(), 3u);
  EXPECT_NEAR(r->polytope.Volume(), 0.5, 1e-9);
  ASSERT_EQ(r->nonredundant.size(), 1u);
  EXPECT_EQ(r->nonredundant[0], 0);
}

TEST(IntersectionTest, RedundantConstraintDetected) {
  std::vector<Halfspace> ge = {
      Halfspace{{1.0, 1.0}, 1.0},   // binding
      Halfspace{{1.0, 1.0}, 0.5},   // strictly dominated
  };
  Vec hint = {0.9, 0.9};
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->nonredundant.size(), 1u);
  EXPECT_EQ(r->nonredundant[0], 0);
}

TEST(IntersectionTest, EmptyIntersection) {
  std::vector<Halfspace> ge = {Halfspace{{1.0, 0.0}, 2.0}};  // x >= 2
  Vec hint;
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->polytope.empty());
  EXPECT_EQ(r->polytope.Volume(), 0.0);
}

TEST(IntersectionTest, BadHintFallsBackToChebyshev) {
  std::vector<Halfspace> ge = {Halfspace{{1.0, 1.0}, 1.0}};
  Vec hint = {0.1, 0.1};  // violates the constraint
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->polytope.Volume(), 0.5, 1e-9);
}

TEST(IntersectionTest, ConeThroughOrigin3D) {
  // Wedge: x >= y and x >= z in the unit cube. Volume = 1/3 by symmetry
  // (x is the max coordinate in exactly 1/3 of the cube... actually
  // P(x = max) = 1/3).
  std::vector<Halfspace> ge = {Halfspace{{1.0, -1.0, 0.0}, 0.0},
                               Halfspace{{1.0, 0.0, -1.0}, 0.0}};
  Vec hint = {0.9, 0.1, 0.1};
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->polytope.Volume(), 1.0 / 3.0, 1e-9);
  EXPECT_EQ(r->nonredundant.size(), 2u);
}

TEST(IntersectionTest, DuplicateInputsCollapse) {
  std::vector<Halfspace> ge = {Halfspace{{1.0, 1.0}, 1.0},
                               Halfspace{{2.0, 2.0}, 2.0},  // same plane
                               Halfspace{{1.0, 1.0}, 1.0}};
  Vec hint = {0.9, 0.9};
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->polytope.Volume(), 0.5, 1e-9);
  EXPECT_EQ(r->nonredundant.size(), 1u);
}

TEST(IntersectionTest, VolumeMatchesMonteCarlo) {
  Rng rng(11);
  for (int d = 2; d <= 5; ++d) {
    // Random cone through a random interior direction.
    std::vector<Halfspace> ge;
    Vec q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.Uniform(0.3, 0.7);
    for (int i = 0; i < 5; ++i) {
      Vec n(d);
      for (int j = 0; j < d; ++j) n[j] = rng.Uniform(-1.0, 1.0);
      // Orient so q satisfies the constraint strictly.
      double v = Dot(n, q);
      if (v < 0) {
        for (double& x : n) x = -x;
      }
      ge.push_back(Halfspace{std::move(n), 0.0});
    }
    Result<IntersectionResult> r = IntersectHalfspaces(ge, q);
    ASSERT_TRUE(r.ok()) << "d=" << d;
    double exact = r->polytope.Volume();
    Rng mc_rng(d * 31);
    double mc = MonteCarloCubeFraction(ge, d, 200000, mc_rng);
    EXPECT_NEAR(exact, mc, 0.012) << "d=" << d;
  }
}

TEST(IntersectionTest, VerticesSatisfyAllConstraints) {
  Rng rng(13);
  const int d = 4;
  std::vector<Halfspace> ge;
  Vec q(d, 0.5);
  for (int i = 0; i < 8; ++i) {
    Vec n(d);
    for (int j = 0; j < d; ++j) n[j] = rng.Uniform(-1.0, 1.0);
    if (Dot(n, q) < 0) {
      for (double& x : n) x = -x;
    }
    ge.push_back(Halfspace{std::move(n), 0.0});
  }
  Result<IntersectionResult> r = IntersectHalfspaces(ge, q);
  ASSERT_TRUE(r.ok());
  for (const Vec& v : r->polytope.vertices()) {
    for (const Halfspace& h : ge) {
      EXPECT_GE(Dot(h.normal, v) - h.offset, -1e-6);
    }
    for (int j = 0; j < d; ++j) {
      EXPECT_GE(v[j], -1e-7);
      EXPECT_LE(v[j], 1.0 + 1e-7);
    }
  }
}

// A GIR-like cone: m half-spaces through the origin, each satisfied by
// the query q, plus an exact duplicate, a scaled duplicate and a
// redundant row (a positive combination of two others).
std::vector<Halfspace> RandomCone(Rng& rng, const Vec& q, int m) {
  const size_t d = q.size();
  std::vector<Halfspace> ge;
  for (int i = 0; i < m; ++i) {
    Vec n(d);
    for (double& x : n) x = rng.Uniform(-1.0, 1.0);
    if (Dot(n, q) < 0) {
      for (double& x : n) x = -x;
    }
    ge.push_back(Halfspace{std::move(n), 0.0});
  }
  ge.push_back(ge[0]);
  ge.push_back(Halfspace{Scale(ge[1].normal, 3.0), 0.0});
  ge.push_back(Halfspace{Add(Scale(ge[0].normal, 0.7), ge[2].normal), 0.0});
  return ge;
}

// Every vertex of the system (constraints plus the unit cube) by brute
// force: solve each d-subset of rows as equalities, keep the solutions
// that satisfy every row within 1e-9, collapse points within 1e-9.
std::vector<Vec> BruteForceVertices(const std::vector<Halfspace>& ge,
                                    size_t d) {
  std::vector<Halfspace> rows = ge;
  for (size_t j = 0; j < d; ++j) {
    Vec up(d, 0.0);
    up[j] = 1.0;
    rows.push_back(Halfspace{up, 0.0});
    rows.push_back(Halfspace{Scale(up, -1.0), -1.0});
  }
  std::vector<Vec> out;
  std::vector<size_t> pick(d);
  for (size_t i = 0; i < d; ++i) pick[i] = i;
  while (true) {
    std::vector<Vec> a;
    Vec b;
    for (size_t i : pick) {
      a.push_back(rows[i].normal);
      b.push_back(rows[i].offset);
    }
    Result<Vec> x = SolveLinearSystem(a, b);
    if (x.ok()) {
      bool feasible = true;
      for (const Halfspace& h : rows) {
        if (Dot(h.normal, *x) - h.offset < -1e-9 * Norm(h.normal)) {
          feasible = false;
          break;
        }
      }
      bool seen = false;
      for (const Vec& v : out) seen = seen || LInfDistance(v, *x) < 1e-9;
      if (feasible && !seen) out.push_back(*x);
    }
    // Next d-subset in lexicographic order.
    size_t i = d;
    while (i > 0 && pick[i - 1] == rows.size() - d + i - 1) --i;
    if (i == 0) break;
    ++pick[i - 1];
    for (size_t j = i; j < d; ++j) pick[j] = pick[j - 1] + 1;
  }
  return out;
}

// Dimension of the affine hull of `points` (-1 when empty), by
// Gram-Schmidt on the differences with a 1e-9 tolerance.
int AffineRank(const std::vector<Vec>& points) {
  if (points.empty()) return -1;
  std::vector<Vec> basis;
  for (const Vec& p : points) {
    Vec r = Sub(p, points[0]);
    for (const Vec& b : basis) r = AddScaled(r, b, -Dot(r, b));
    if (NormalizeInPlace(r, 1e-9)) basis.push_back(r);
  }
  return static_cast<int>(basis.size());
}

TEST(IntersectionTest, VerticesMatchBruteForceEnumeration) {
  Rng rng(17);
  for (size_t d = 2; d <= 5; ++d) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::string where =
          "d=" + std::to_string(d) + " trial " + std::to_string(trial);
      Vec q(d);
      for (double& x : q) x = rng.Uniform(0.2, 0.8);
      std::vector<Halfspace> ge =
          RandomCone(rng, q, 3 + static_cast<int>(rng.UniformInt(5)));
      Result<IntersectionResult> r = IntersectHalfspaces(ge, q);
      ASSERT_TRUE(r.ok()) << where;
      const std::vector<Vec>& got = r->polytope.vertices();
      const std::vector<Vec> want = BruteForceVertices(ge, d);
      ASSERT_EQ(got.size(), want.size()) << where;
      for (const Vec& v : got) {
        double nearest = 1e300;
        for (const Vec& w : want) {
          nearest = std::min(nearest, LInfDistance(v, w));
        }
        EXPECT_LE(nearest, 1e-9) << where << " vertex " << ToString(v);
      }
      // Facets: a constraint supports a facet of the result when its
      // tight vertices span a (d-1)-flat. Every such constraint is
      // reported, itself or through an earlier exact duplicate. Every
      // reported constraint at least touches the result. (The dual hull
      // also reports some constraints that touch it only at the cone's
      // apex, the origin, where every row of a GIR cone is tight: their
      // dual points lie on the dual facet of that vertex, and rounding
      // can lift them above it.)
      auto tight_vertices = [&](const Halfspace& h) {
        std::vector<Vec> tight;
        for (const Vec& v : got) {
          if (std::fabs(Dot(h.normal, v) - h.offset) <=
              1e-9 * Norm(h.normal)) {
            tight.push_back(v);
          }
        }
        return tight;
      };
      auto same_row = [&](size_t a, size_t b) {
        const double na = Norm(ge[a].normal);
        const double nb = Norm(ge[b].normal);
        return LInfDistance(Scale(ge[a].normal, 1.0 / na),
                            Scale(ge[b].normal, 1.0 / nb)) < 1e-12 &&
               std::fabs(ge[a].offset / na - ge[b].offset / nb) < 1e-12;
      };
      for (size_t i = 0; i < ge.size(); ++i) {
        if (AffineRank(tight_vertices(ge[i])) + 1 < static_cast<int>(d)) {
          continue;
        }
        bool reported = false;
        for (int idx : r->nonredundant) {
          reported = reported || same_row(i, static_cast<size_t>(idx));
        }
        EXPECT_TRUE(reported) << where << " facet constraint " << i;
      }
      for (int idx : r->nonredundant) {
        EXPECT_FALSE(tight_vertices(ge[idx]).empty())
            << where << " constraint " << idx;
      }
    }
  }
}

// Once its per-thread scratch is warm, an intersection allocates only
// what it returns: the vertex and facet lists with each vertex and
// normal, the non-redundant list and the interior point.
TEST(IntersectionTest, WarmCallAllocatesOnlyItsOutputs) {
  Rng rng(19);
  for (size_t d = 2; d <= 5; ++d) {
    Vec q(d);
    for (double& x : q) x = rng.Uniform(0.2, 0.8);
    const std::vector<Halfspace> ge = RandomCone(rng, q, 8);
    ASSERT_TRUE(IntersectHalfspaces(ge, q).ok());  // warm-up
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    Result<IntersectionResult> r = IntersectHalfspaces(ge, q);
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->nonredundant.empty());
    const uint64_t outputs = (1 + r->polytope.vertices().size()) +
                             (1 + r->polytope.facets().size()) + 1 + 1;
    EXPECT_EQ(after - before, outputs) << "d=" << d;
  }
}

TEST(BoundingBoxTest, ComputesExtents) {
  std::vector<Halfspace> ge = {Halfspace{{1.0, 1.0}, 1.0}};
  Vec hint = {0.9, 0.9};
  Result<IntersectionResult> r = IntersectHalfspaces(ge, hint);
  ASSERT_TRUE(r.ok());
  Vec lo, hi;
  ASSERT_TRUE(BoundingBox(r->polytope, &lo, &hi));
  EXPECT_NEAR(lo[0], 0.0, 1e-9);
  EXPECT_NEAR(hi[0], 1.0, 1e-9);
}

TEST(MonteCarloTest, HalfCubeFraction) {
  std::vector<Halfspace> ge = {Halfspace{{1.0, 0.0, 0.0}, 0.5}};
  Rng rng(3);
  double f = MonteCarloCubeFraction(ge, 3, 100000, rng);
  EXPECT_NEAR(f, 0.5, 0.01);
}

TEST(MonteCarloTest, BoxVolume) {
  std::vector<Halfspace> ge;  // no constraints: whole box
  Rng rng(4);
  Vec lo = {0.0, 0.0};
  Vec hi = {0.5, 0.25};
  EXPECT_NEAR(MonteCarloVolumeInBox(ge, lo, hi, 1000, rng), 0.125, 1e-12);
}

}  // namespace
}  // namespace gir
