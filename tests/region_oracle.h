// SameRegion: the test oracle for "two regions are the same set, and
// that set is the GIR". Shared by the tests that change how a region is
// computed without changing what it is (footnote-7 tightening, the
// grown dual hull).
//
//   - SameVertexSet: two polytopes have the same vertices within a
//     tolerance, each vertex of one near a vertex of the other.
//   - SatisfiesDefinition1: brute-force top-k (paper Definition 1) keeps
//     the region's ranked result at sampled interior points of its
//     polytope and just inside each vertex, and changes it just past
//     each reported facet. Scores are
//     compared, not ids, so ties (duplicate records) pass with either
//     order of the tied records.
//   - SameRegion: same result, same vertex set, and Definition 1 on both.
#ifndef GIR_TESTS_REGION_ORACLE_H_
#define GIR_TESTS_REGION_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataset/dataset.h"
#include "geom/polytope.h"
#include "gir/gir_region.h"
#include "topk/scoring.h"

namespace gir {
namespace oracle {

inline ::testing::AssertionResult SameVertexSet(const Polytope& a,
                                                const Polytope& b,
                                                double tol = 1e-9) {
  auto covered = [tol](const Polytope& from, const Polytope& to,
                       std::string* why) {
    for (const Vec& v : from.vertices()) {
      double nearest = 1e300;
      for (const Vec& w : to.vertices()) {
        nearest = std::min(nearest, LInfDistance(v, w));
      }
      if (nearest > tol) {
        *why = "vertex " + ToString(v) + " is " + std::to_string(nearest) +
               " from the other set";
        return false;
      }
    }
    return true;
  };
  std::string why;
  if (a.empty() != b.empty()) {
    return ::testing::AssertionFailure() << "one polytope is empty";
  }
  if (!covered(a, b, &why) || !covered(b, a, &why)) {
    return ::testing::AssertionFailure()
           << why << " (" << a.vertices().size() << " vs "
           << b.vertices().size() << " vertices)";
  }
  return ::testing::AssertionSuccess();
}

// How the region's ranked result fares at weight vector x against brute
// force: 0 when it is the ranked top-k (scores equal position by
// position within `tol`), otherwise the largest score shortfall.
inline double RankedShortfall(const Dataset& data,
                              const ScoringFunction& scoring,
                              const std::vector<RecordId>& result, VecView x,
                              double tol = 1e-12) {
  const size_t k = result.size();
  std::vector<double> best;
  best.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    if (!data.IsLive(static_cast<RecordId>(i))) continue;
    best.push_back(scoring.Score(data.Get(static_cast<RecordId>(i)), x));
  }
  std::partial_sort(best.begin(), best.begin() + k, best.end(),
                    std::greater<double>());
  double shortfall = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double s = scoring.Score(data.Get(result[i]), x);
    shortfall = std::max(shortfall, best[i] - s);
  }
  return shortfall > tol ? shortfall : 0.0;
}

inline ::testing::AssertionResult SatisfiesDefinition1(
    const GirRegion& region, const Dataset& data,
    const ScoringFunction& scoring, Rng& rng, int samples = 24) {
  const Polytope& p = region.polytope();
  const std::vector<Vec>& vertices = p.vertices();
  if (vertices.empty()) {
    return ::testing::AssertionFailure() << "empty polytope";
  }
  const size_t d = region.dim();
  const Vec& q = region.query();
  // Interior: random convex combinations of the vertices, pulled toward
  // the query (inside by construction), so strictly inside.
  for (int s = 0; s < samples; ++s) {
    Vec x(d, 0.0);
    double total = 0.0;
    for (const Vec& v : vertices) {
      const double w = -std::log(1.0 - rng.Uniform());
      x = AddScaled(x, v, w);
      total += w;
    }
    x = Scale(x, 1.0 / total);
    x = AddScaled(Scale(q, 0.01), x, 0.99);
    const double shortfall =
        RankedShortfall(data, scoring, region.result(), x);
    if (shortfall > 0.0) {
      return ::testing::AssertionFailure()
             << "result not the top-k at interior point " << ToString(x)
             << " (shortfall " << shortfall << ")";
    }
  }
  // Just inside each vertex: a region too large has a vertex outside
  // the GIR, where another record outscores the result.
  for (const Vec& v : vertices) {
    const Vec x = AddScaled(Scale(v, 1.0 - 1e-7), q, 1e-7);
    const double shortfall =
        RankedShortfall(data, scoring, region.result(), x);
    if (shortfall > 0.0) {
      return ::testing::AssertionFailure()
             << "result not the top-k next to vertex " << ToString(v)
             << " (shortfall " << shortfall << ")";
    }
  }
  // Just past each reported facet: from the centroid of the vertices
  // the facet's constraint is tight at, one step out.
  for (int idx : region.nonredundant_indices()) {
    const Vec& normal = region.constraints()[idx].normal;
    const double norm = Norm(normal);
    Vec centre(d, 0.0);
    int tight = 0;
    for (const Vec& v : vertices) {
      if (std::fabs(Dot(normal, v)) <= 1e-9 * norm) {
        centre = Add(centre, v);
        ++tight;
      }
    }
    if (tight == 0) {
      return ::testing::AssertionFailure()
             << "reported constraint " << idx << " touches no vertex";
    }
    Vec x = AddScaled(Scale(centre, 1.0 / tight), normal, -1e-6 / norm);
    bool in_cube = true;
    for (double c : x) in_cube = in_cube && c >= 0.0 && c <= 1.0;
    if (!in_cube) continue;
    if (RankedShortfall(data, scoring, region.result(), x) == 0.0) {
      return ::testing::AssertionFailure()
             << "result still the top-k just past constraint " << idx
             << " at " << ToString(x);
    }
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult SameRegion(const GirRegion& a,
                                             const GirRegion& b,
                                             const Dataset& data,
                                             const ScoringFunction& scoring,
                                             Rng& rng) {
  if (a.result() != b.result()) {
    return ::testing::AssertionFailure() << "different top-k results";
  }
  ::testing::AssertionResult same = SameVertexSet(a.polytope(), b.polytope());
  if (!same) return same;
  ::testing::AssertionResult da = SatisfiesDefinition1(a, data, scoring, rng);
  if (!da) {
    return ::testing::AssertionFailure() << "first region: " << da.message();
  }
  ::testing::AssertionResult db = SatisfiesDefinition1(b, data, scoring, rng);
  if (!db) {
    return ::testing::AssertionFailure() << "second region: " << db.message();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace oracle
}  // namespace gir

#endif  // GIR_TESTS_REGION_ORACLE_H_
