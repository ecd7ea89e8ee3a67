#include "geom/halfspace_intersection.h"

#include <algorithm>
#include <cmath>

#include "geom/convex_hull.h"
#include "geom/lp.h"

namespace gir {

namespace {

// Per-thread buffers of IntersectHalfspaces, grown to the largest
// system seen and reused (as FitHyperplane's are), so a warmed call
// allocates only its outputs.
struct IntersectScratch {
  std::vector<double> rows;  // normalized half-spaces: d normal + offset
  std::vector<int> source;   // input index per row, -1 for the cube
  std::vector<double> unit;  // a cube row's normal
  std::vector<int64_t> keys;  // rounded rows, for duplicate detection
  std::vector<int> order;
  std::vector<uint8_t> keep;
  std::vector<double> duals;     // row-major dual points
  std::vector<double> vertices;  // row-major primal vertices
  HullBuilder hull;
};

}  // namespace

Result<IntersectionResult> IntersectHalfspaces(
    const std::vector<Halfspace>& ge, VecView interior_hint,
    const IntersectionOptions& options) {
  if (ge.empty() && !options.clip_to_unit_cube) {
    return Status::InvalidArgument("no half-spaces and no cube");
  }
  const size_t d = ge.empty() ? interior_hint.size() : ge[0].normal.size();
  if (d < 2) return Status::InvalidArgument("dimension must be >= 2");
  static thread_local IntersectScratch scratch;
  IntersectScratch& s = scratch;
  const size_t stride = d + 1;

  // 1. Assemble the working set: normalized constraints, with their
  // input indices (cube constraints map to -1).
  s.rows.clear();
  s.source.clear();
  auto add = [&](const double* normal, double offset, int source_index) {
    double n = Norm(VecView(normal, d));
    if (n < 1e-300) return;  // vacuous or infeasible-constant: skip
    const size_t at = s.rows.size();
    s.rows.resize(at + stride);
    double* row = s.rows.data() + at;
    for (size_t j = 0; j < d; ++j) row[j] = normal[j] / n;
    row[d] = offset / n;
    s.source.push_back(source_index);
  };
  for (size_t i = 0; i < ge.size(); ++i) {
    add(ge[i].normal.data(), ge[i].offset, static_cast<int>(i));
  }
  if (options.clip_to_unit_cube) {
    s.unit.assign(d, 0.0);
    for (size_t j = 0; j < d; ++j) {
      s.unit[j] = 1.0;
      add(s.unit.data(), 0.0, -1);  // x_j >= 0
      s.unit[j] = -1.0;
      add(s.unit.data(), -1.0, -1);  // -x_j >= -1  <=>  x_j <= 1
      s.unit[j] = 0.0;
    }
  }
  // Drop exact duplicates: two rows that agree to ~1e-12 after
  // normalization describe the same half-space. Sorting the rounded
  // keys groups them; the first occurrence keeps its provenance and
  // the input order is kept. (GIR*'s systems are far larger than FP's,
  // so a pairwise scan of the kept rows would be quadratic where it
  // costs most.)
  const size_t candidates = s.source.size();
  s.keys.resize(candidates * stride);
  for (size_t t = 0; t < candidates * stride; ++t) {
    s.keys[t] = static_cast<int64_t>(std::llround(s.rows[t] * 1e12));
  }
  auto key_of = [&](int c) {
    return s.keys.data() + static_cast<size_t>(c) * stride;
  };
  s.order.resize(candidates);
  for (size_t c = 0; c < candidates; ++c) s.order[c] = static_cast<int>(c);
  std::sort(s.order.begin(), s.order.end(), [&](int a, int b) {
    const int64_t* ka = key_of(a);
    const int64_t* kb = key_of(b);
    const auto diff = std::mismatch(ka, ka + stride, kb);
    if (diff.first == ka + stride) return a < b;
    return *diff.first < *diff.second;
  });
  s.keep.assign(candidates, 0);
  for (size_t t = 0; t < candidates; ++t) {
    const int c = s.order[t];
    s.keep[c] = t == 0 || !std::equal(key_of(c), key_of(c) + stride,
                                      key_of(s.order[t - 1]));
  }
  size_t m = 0;
  for (size_t c = 0; c < candidates; ++c) {
    if (!s.keep[c]) continue;
    if (m != c) {
      std::copy_n(s.rows.data() + c * stride, stride,
                  s.rows.data() + m * stride);
      s.source[m] = s.source[c];
    }
    ++m;
  }
  auto row = [&](size_t c) { return s.rows.data() + c * stride; };

  IntersectionResult out;
  out.polytope = Polytope::Empty(d);

  // 2. Interior point: the caller's hint if strictly feasible, else the
  // warm-start point from a previous intersection of a related system
  // (held to the same clearance bar as a hint — a nearly-degenerate
  // centre would blow up the dual points — and replaced by one
  // Chebyshev LP when the new constraints cut it off).
  auto strictly_inside = [&](VecView p) {
    if (p.size() != d) return false;
    for (size_t c = 0; c < m; ++c) {
      if (Dot(VecView(row(c), d), p) - row(c)[d] <= options.hint_margin) {
        return false;
      }
    }
    return true;
  };
  Vec center;
  if (strictly_inside(interior_hint)) {
    center.assign(interior_hint.begin(), interior_hint.end());
  } else {
    if (strictly_inside(options.warm_start)) center = options.warm_start;
    std::vector<Halfspace> work(m);
    for (size_t c = 0; c < m; ++c) {
      work[c].normal.assign(row(c), row(c) + d);
      work[c].offset = row(c)[d];
    }
    Result<bool> feasible = RefreshFeasiblePoint(
        work, options.clip_to_unit_cube ? 0.0 : -1e9,
        options.clip_to_unit_cube ? 1.0 : 1e9, /*margin=*/1e-12, &center);
    if (!feasible.ok()) return feasible.status();
    if (!*feasible) {
      return out;  // empty (or measure-zero) intersection
    }
  }

  // 3. Dual points: constraint n·x >= c  ==  a·x <= b with a=-n, b=-c;
  // after translating by the centre, b' = b - a·center > 0 and the dual
  // point is a / b'.
  s.duals.resize(m * d);
  for (size_t c = 0; c < m; ++c) {
    const double* h = row(c);
    double margin = Dot(VecView(h, d), center) - h[d];  // == b'
    if (margin <= 1e-13) {
      // The centre is (numerically) on this constraint: treat the
      // region as lower-dimensional.
      return out;
    }
    double* dual = s.duals.data() + c * d;
    for (size_t j = 0; j < d; ++j) dual[j] = -h[j] / margin;
  }

  // 4. Convex hull of the dual points.
  const ConvexHullOptions hull_options;
  Status built = s.hull.Build(s.duals.data(), m, d, hull_options);
  if (!built.ok()) {
    // Lower-dimensional dual point set means the primal region is
    // unbounded or degenerate; with the cube clip this is numerical
    // degeneracy — report an empty polytope rather than failing.
    if (built.code() == StatusCode::kFailedPrecondition) return out;
    return built;
  }

  // 5. Primal vertices from dual facets: facet {y : m·y = o} with o > 0
  // maps to vertex m/o + center.
  s.vertices.clear();
  size_t vertex_count = 0;
  for (size_t f = 0; f < s.hull.facet_count(); ++f) {
    double o = s.hull.facet_offset(f);
    if (o <= 1e-13) {
      // Origin on a dual facet: unbounded primal direction. Cannot
      // happen with the cube clip except through numerics.
      continue;
    }
    const double* normal = s.hull.facet_normal(f);
    s.vertices.resize((vertex_count + 1) * d);
    double* v = s.vertices.data() + vertex_count * d;
    for (size_t j = 0; j < d; ++j) v[j] = normal[j] / o + center[j];
    bool duplicate = false;
    for (size_t u = 0; u < vertex_count; ++u) {
      if (LInfDistance(VecView(s.vertices.data() + u * d, d), VecView(v, d)) <
          1e-9) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) ++vertex_count;
  }
  std::vector<Vec> vertices;
  vertices.reserve(vertex_count);
  for (size_t u = 0; u < vertex_count; ++u) {
    const double* v = s.vertices.data() + u * d;
    vertices.emplace_back(v, v + d);
  }

  // 6. Facets of the primal polytope = non-redundant constraints =
  // constraints whose dual point is a hull vertex.
  const std::vector<int>& hull_vertices = s.hull.vertex_indices();
  std::vector<Hyperplane> facets;
  facets.reserve(hull_vertices.size());
  size_t reported = 0;
  for (int dual_id : hull_vertices) reported += s.source[dual_id] >= 0;
  out.nonredundant.reserve(reported);
  for (int dual_id : hull_vertices) {
    const double* h = row(static_cast<size_t>(dual_id));
    Hyperplane plane;
    plane.normal = Scale(VecView(h, d), -1.0);
    plane.offset = -h[d];
    facets.push_back(std::move(plane));
    if (s.source[dual_id] >= 0) out.nonredundant.push_back(s.source[dual_id]);
  }
  std::sort(out.nonredundant.begin(), out.nonredundant.end());
  out.polytope = Polytope::FromData(d, std::move(vertices), std::move(facets));
  out.interior = std::move(center);
  return out;
}

}  // namespace gir
