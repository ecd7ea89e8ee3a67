#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

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

// ----- growing a kept dual hull (DualHullIntersection::Extend) -----

// True when a and b list the same vertices within 1e-9, both ways.
::testing::AssertionResult SameVertexSet(const Polytope& a,
                                         const Polytope& b) {
  for (const auto& pair : {std::make_pair(&a, &b), std::make_pair(&b, &a)}) {
    for (const Vec& v : pair.first->vertices()) {
      double nearest = 1e300;
      for (const Vec& w : pair.second->vertices()) {
        nearest = std::min(nearest, LInfDistance(v, w));
      }
      if (nearest > 1e-9) {
        return ::testing::AssertionFailure()
               << "vertex " << ToString(v) << " unmatched ("
               << a.vertices().size() << " vs " << b.vertices().size()
               << " vertices)";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// m random half-spaces with the query strictly inside. Through the
// origin (offset 0) like a GIR's rows when `cone`; otherwise with
// random offsets, so the system is in general position.
std::vector<Halfspace> RandomRows(Rng& rng, const Vec& q, int m, bool cone) {
  std::vector<Halfspace> rows;
  for (int i = 0; i < m; ++i) {
    Vec n(q.size());
    for (double& x : n) x = rng.Uniform(-1.0, 1.0);
    if (Dot(n, q) < 0) n = Scale(n, -1.0);
    const double offset = cone ? 0.0 : Dot(n, q) * rng.Uniform(0.2, 0.9);
    rows.push_back(Halfspace{std::move(n), offset});
  }
  return rows;
}

// An extended hull gives the fresh intersection's region: the same
// vertices, and the same non-redundant rows. GIR-like cones have every
// row tight at the apex, where rounding decides which of the rows that
// touch the region only there the dual hull reports (it depends on
// the insertion order); for them the rows that support a real facet
// must agree, and every reported row must touch the region.
TEST(DualHullIntersectionTest, ExtendMatchesAFreshIntersection) {
  Rng rng(23);
  for (size_t d = 2; d <= 6; ++d) {
    for (int trial = 0; trial < 16; ++trial) {
      const bool cone = trial % 2 == 0;
      const std::string where = "d=" + std::to_string(d) + " trial " +
                                std::to_string(trial);
      Vec q(d);
      for (double& x : q) x = rng.Uniform(0.2, 0.8);
      std::vector<Halfspace> ge =
          RandomRows(rng, q, 3 + static_cast<int>(rng.UniformInt(6)), cone);
      const size_t base = ge.size();
      for (const Halfspace& h :
           RandomRows(rng, q, 1 + static_cast<int>(rng.UniformInt(8)), cone)) {
        ge.push_back(h);
      }
      // Appended copies of kept rows: exact and scaled.
      ge.push_back(ge[0]);
      ge.push_back(Halfspace{Scale(ge[1].normal, 2.5), 2.5 * ge[1].offset});
      const std::vector<Halfspace> first(ge.begin(), ge.begin() + base);

      DualHullIntersection kept;
      ASSERT_TRUE(kept.Intersect(first, q).ok()) << where;
      Result<IntersectionResult> grown = kept.Extend(ge, q);
      ASSERT_TRUE(grown.ok()) << where;
      EXPECT_TRUE(kept.last_extended()) << where;
      Result<IntersectionResult> fresh = IntersectHalfspaces(ge, q);
      ASSERT_TRUE(fresh.ok()) << where;
      EXPECT_TRUE(SameVertexSet(grown->polytope, fresh->polytope)) << where;
      EXPECT_EQ(grown->interior, fresh->interior) << where;
      if (!cone) {
        EXPECT_EQ(grown->nonredundant, fresh->nonredundant) << where;
        continue;
      }
      const std::vector<Vec>& vertices = fresh->polytope.vertices();
      auto tight_rank = [&](int idx) {
        std::vector<Vec> tight;
        for (const Vec& v : vertices) {
          if (std::fabs(Dot(ge[idx].normal, v) - ge[idx].offset) <=
              1e-9 * Norm(ge[idx].normal)) {
            tight.push_back(v);
          }
        }
        return AffineRank(tight);
      };
      auto facet_rows = [&](const std::vector<int>& reported) {
        std::vector<int> out;
        for (int idx : reported) {
          EXPECT_GE(tight_rank(idx), 0) << where << " row " << idx;
          if (tight_rank(idx) + 1 >= static_cast<int>(d)) out.push_back(idx);
        }
        return out;
      };
      EXPECT_EQ(facet_rows(grown->nonredundant),
                facet_rows(fresh->nonredundant))
          << where;
    }
  }
}

// An appended row equal to a cube row takes over that row's dual point
// and is reported, as in a fresh intersection, where the input row
// comes first.
TEST(DualHullIntersectionTest, AppendedCopyOfACubeRowIsReported) {
  const Vec q = {0.6, 0.3, 0.5};
  std::vector<Halfspace> ge = {Halfspace{{1.0, -1.0, 0.0}, 0.0}};
  DualHullIntersection kept;
  ASSERT_TRUE(kept.Intersect(ge, q).ok());
  ge.push_back(Halfspace{{0.0, 2.0, 0.0}, 0.0});  // 2 y >= 0: the cube's
  Result<IntersectionResult> grown = kept.Extend(ge, q);
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(kept.last_extended());
  Result<IntersectionResult> fresh = IntersectHalfspaces(ge, q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->nonredundant, (std::vector<int>{0, 1}));
  EXPECT_EQ(grown->nonredundant, fresh->nonredundant);
  EXPECT_TRUE(SameVertexSet(grown->polytope, fresh->polytope));
}

// Where Extend's contract does not hold it returns exactly what
// IntersectHalfspaces returns.
void ExpectSameBits(const IntersectionResult& a, const IntersectionResult& b) {
  EXPECT_EQ(a.polytope.vertices(), b.polytope.vertices());
  ASSERT_EQ(a.polytope.facets().size(), b.polytope.facets().size());
  for (size_t f = 0; f < a.polytope.facets().size(); ++f) {
    EXPECT_EQ(a.polytope.facets()[f].normal, b.polytope.facets()[f].normal);
    EXPECT_EQ(a.polytope.facets()[f].offset, b.polytope.facets()[f].offset);
  }
  EXPECT_EQ(a.nonredundant, b.nonredundant);
  EXPECT_EQ(a.interior, b.interior);
  EXPECT_EQ(a.joggled, b.joggled);
}

// Extend checks that the system begins with the kept rows: an edited,
// reordered or dropped row gives a fresh intersection.
TEST(DualHullIntersectionTest, SystemThatDoesNotBeginWithTheKeptRowsFallsBack) {
  Rng rng(37);
  for (size_t d = 2; d <= 6; ++d) {
    Vec q(d);
    for (double& x : q) x = rng.Uniform(0.3, 0.7);
    const std::vector<Halfspace> first = RandomRows(rng, q, 6, /*cone=*/true);
    std::vector<Halfspace> grown_rows = first;
    for (const Halfspace& h : RandomRows(rng, q, 3, /*cone=*/true)) {
      grown_rows.push_back(h);
    }
    std::vector<std::vector<Halfspace>> edits(3, grown_rows);
    edits[0][2].normal[0] = std::nextafter(edits[0][2].normal[0], 2.0);
    std::swap(edits[1][0], edits[1][1]);
    edits[2].erase(edits[2].begin() + 3);
    for (size_t e = 0; e < edits.size(); ++e) {
      DualHullIntersection kept;
      ASSERT_TRUE(kept.Intersect(first, q).ok());
      const uint64_t serial = kept.serial();
      Result<IntersectionResult> grown = kept.Extend(edits[e], q);
      Result<IntersectionResult> fresh = IntersectHalfspaces(edits[e], q);
      ASSERT_TRUE(grown.ok());
      ASSERT_TRUE(fresh.ok());
      EXPECT_FALSE(kept.last_extended()) << "d=" << d << " edit " << e;
      EXPECT_NE(kept.serial(), serial);
      ExpectSameBits(*grown, *fresh);
    }
  }
}

TEST(DualHullIntersectionTest, RowCuttingOffTheQueryFallsBack) {
  Rng rng(29);
  for (size_t d = 2; d <= 6; ++d) {
    Vec q(d);
    for (double& x : q) x = rng.Uniform(0.3, 0.7);
    std::vector<Halfspace> ge = RandomRows(rng, q, 5, /*cone=*/true);
    DualHullIntersection kept;
    ASSERT_TRUE(kept.Intersect(ge, q).ok());
    // Cuts the query off but keeps part of the cone: the fresh build
    // needs another centre.
    Vec n(d, 0.0);
    n[0] = 1.0;
    ge.push_back(Halfspace{n, q[0] + 0.05});
    Result<IntersectionResult> grown = kept.Extend(ge, q);
    Result<IntersectionResult> fresh = IntersectHalfspaces(ge, q);
    ASSERT_TRUE(grown.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_FALSE(kept.last_extended()) << "d=" << d;
    ExpectSameBits(*grown, *fresh);
  }
}

TEST(DualHullIntersectionTest, JoggledHullFallsBack) {
  // Without the cube, these rows' dual points (centre 0) are collinear:
  // the dual hull only builds joggled, so it is not kept.
  IntersectionOptions unclipped;
  unclipped.clip_to_unit_cube = false;
  const Vec q = {0.0, 0.0};
  std::vector<Halfspace> ge = {Halfspace{{1.0, 0.0}, -1.0},
                               Halfspace{{-1.0, 0.0}, -1.0},
                               Halfspace{{1.0, 0.0}, -2.0}};
  DualHullIntersection kept;
  Result<IntersectionResult> first = kept.Intersect(ge, q, unclipped);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->joggled);
  ge.push_back(Halfspace{{0.0, 1.0}, -1.0});
  Result<IntersectionResult> grown = kept.Extend(ge, q, unclipped);
  Result<IntersectionResult> fresh = IntersectHalfspaces(ge, q, unclipped);
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(kept.last_extended());
  ExpectSameBits(*grown, *fresh);

  // The builder itself refuses to grow a joggled hull.
  const std::vector<double> collinear = {-1.0, 0.0, 1.0, 0.0, -0.5, 0.0,
                                         0.0,  1.0};
  HullBuilder hull;
  ASSERT_TRUE(hull.Build(collinear.data(), 3, 2).ok());
  EXPECT_TRUE(hull.joggled());
  EXPECT_EQ(hull.Extend(collinear.data(), 4).code(),
            StatusCode::kFailedPrecondition);
}

// Once warm, growing the cone's hull allocates only what it returns,
// as a fresh intersection does.
TEST(DualHullIntersectionTest, WarmExtendAllocatesOnlyItsOutputs) {
  Rng rng(31);
  for (size_t d = 2; d <= 6; ++d) {
    Vec q(d);
    for (double& x : q) x = rng.Uniform(0.2, 0.8);
    const std::vector<Halfspace> ge = RandomCone(rng, q, 10);
    const std::vector<Halfspace> first(ge.begin(), ge.begin() + 5);
    DualHullIntersection kept;
    ASSERT_TRUE(kept.Intersect(first, q).ok());  // warm-up
    ASSERT_TRUE(kept.Extend(ge, q).ok());
    ASSERT_TRUE(kept.Intersect(first, q).ok());
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    Result<IntersectionResult> r = kept.Extend(ge, q);
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(kept.last_extended());
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
