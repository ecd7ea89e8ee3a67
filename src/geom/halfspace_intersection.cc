#include "geom/halfspace_intersection.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "geom/lp.h"

namespace gir {

namespace {

IntersectionResult EmptyResult(size_t d) {
  IntersectionResult out;
  out.polytope = Polytope::Empty(d);
  return out;
}

uint64_t NextSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void DualHullIntersection::AddRow(const double* normal, double offset,
                                  int source_index) {
  const size_t d = dim_;
  double n = Norm(VecView(normal, d));
  if (n < 1e-300) return;  // vacuous or infeasible-constant: skip
  const size_t at = rows_.size();
  rows_.resize(at + d + 1);
  double* row = rows_.data() + at;
  for (size_t j = 0; j < d; ++j) row[j] = normal[j] / n;
  row[d] = offset / n;
  source_.push_back(source_index);
}

void DualHullIntersection::AddInputRows(const std::vector<Halfspace>& ge,
                                        size_t first) {
  for (size_t i = first; i < ge.size(); ++i) {
    AddRow(ge[i].normal.data(), ge[i].offset, static_cast<int>(i));
  }
}

void DualHullIntersection::DropDuplicateRows(size_t first) {
  // Rows that agree to ~1e-12 after normalization describe the same
  // half-space. Sorting the rounded keys groups them, ties by position,
  // and the lowest row of each group stays. (GIR*'s systems are far
  // larger than FP's, so a pairwise scan of the kept rows would be
  // quadratic where it costs most.) A kept cube row yields its
  // provenance to the first appended input row of its group: a fresh
  // intersection lists that input before the cube.
  const size_t stride = dim_ + 1;
  const size_t candidates = source_.size();
  keys_.resize(candidates * stride);
  for (size_t t = first * stride; t < candidates * stride; ++t) {
    keys_[t] = static_cast<int64_t>(std::llround(rows_[t] * 1e12));
  }
  auto key_of = [&](int c) {
    return keys_.data() + static_cast<size_t>(c) * stride;
  };
  auto same_key = [&](int a, int b) {
    return std::equal(key_of(a), key_of(a) + stride, key_of(b));
  };
  order_.resize(candidates);
  for (size_t c = 0; c < candidates; ++c) order_[c] = static_cast<int>(c);
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const int64_t* ka = key_of(a);
    const int64_t* kb = key_of(b);
    const auto diff = std::mismatch(ka, ka + stride, kb);
    if (diff.first == ka + stride) return a < b;
    return *diff.first < *diff.second;
  });
  keep_.assign(candidates, 0);
  for (size_t t = 0; t < candidates;) {
    size_t u = t + 1;
    while (u < candidates && same_key(order_[t], order_[u])) ++u;
    const int lowest = order_[t];
    keep_[lowest] = 1;
    if (static_cast<size_t>(lowest) < first && source_[lowest] < 0 &&
        u > t + 1) {
      source_[lowest] = source_[order_[t + 1]];
    }
    t = u;
  }
  size_t m = first;
  for (size_t c = first; c < candidates; ++c) {
    if (!keep_[c]) continue;
    if (m != c) {
      std::copy_n(rows_.data() + c * stride, stride, rows_.data() + m * stride);
      std::copy_n(keys_.data() + c * stride, stride, keys_.data() + m * stride);
      source_[m] = source_[c];
    }
    ++m;
  }
  rows_.resize(m * stride);
  keys_.resize(m * stride);
  source_.resize(m);
}

void DualHullIntersection::KeepInputs(const std::vector<Halfspace>& ge,
                                      size_t first) {
  const size_t stride = dim_ + 1;
  inputs_.resize(first * stride);
  for (size_t i = first; i < ge.size(); ++i) {
    inputs_.insert(inputs_.end(), ge[i].normal.begin(), ge[i].normal.end());
    inputs_.push_back(ge[i].offset);
  }
}

bool DualHullIntersection::BeginsWithInputs(
    const std::vector<Halfspace>& ge) const {
  const size_t d = dim_;
  const size_t count = inputs_.size() / (d + 1);
  if (ge.size() < count) return false;
  for (size_t i = 0; i < count; ++i) {
    const double* in = inputs_.data() + i * (d + 1);
    if (ge[i].normal.size() != d ||
        std::memcmp(ge[i].normal.data(), in, d * sizeof(double)) != 0 ||
        std::memcmp(&ge[i].offset, in + d, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool DualHullIntersection::StrictlyInside(VecView p, double margin) const {
  const size_t d = dim_;
  if (p.size() != d) return false;
  const size_t m = source_.size();
  for (size_t c = 0; c < m; ++c) {
    const double* row = rows_.data() + c * (d + 1);
    if (Dot(VecView(row, d), p) - row[d] <= margin) return false;
  }
  return true;
}

bool DualHullIntersection::DualizeRows(size_t first) {
  // Constraint n·x >= c  ==  a·x <= b with a=-n, b=-c; after translating
  // by the centre, b' = b - a·centre > 0 and the dual point is a / b'.
  const size_t d = dim_;
  const size_t m = source_.size();
  duals_.resize(m * d);
  for (size_t c = first; c < m; ++c) {
    const double* h = rows_.data() + c * (d + 1);
    double margin = Dot(VecView(h, d), centre_) - h[d];  // == b'
    if (margin <= 1e-13) {
      // The centre is (numerically) on this constraint: treat the
      // region as lower-dimensional.
      return false;
    }
    double* dual = duals_.data() + c * d;
    for (size_t j = 0; j < d; ++j) dual[j] = -h[j] / margin;
  }
  return true;
}

Result<IntersectionResult> DualHullIntersection::Intersect(
    const std::vector<Halfspace>& ge, VecView interior_hint,
    const IntersectionOptions& options) {
  serial_ = NextSerial();
  kept_ = false;
  last_extended_ = false;
  if (ge.empty() && !options.clip_to_unit_cube) {
    return Status::InvalidArgument("no half-spaces and no cube");
  }
  const size_t d = ge.empty() ? interior_hint.size() : ge[0].normal.size();
  if (d < 2) return Status::InvalidArgument("dimension must be >= 2");
  dim_ = d;
  clip_ = options.clip_to_unit_cube;
  const size_t stride = d + 1;

  // 1. Assemble the working set: normalized constraints, with their
  // input indices (cube constraints map to -1).
  rows_.clear();
  source_.clear();
  AddInputRows(ge, 0);
  if (options.clip_to_unit_cube) {
    unit_.assign(d, 0.0);
    for (size_t j = 0; j < d; ++j) {
      unit_[j] = 1.0;
      AddRow(unit_.data(), 0.0, -1);  // x_j >= 0
      unit_[j] = -1.0;
      AddRow(unit_.data(), -1.0, -1);  // -x_j >= -1  <=>  x_j <= 1
      unit_[j] = 0.0;
    }
  }
  DropDuplicateRows(0);
  const size_t m = source_.size();

  // 2. Interior point: the caller's hint if strictly feasible, else the
  // warm-start point from a previous intersection of a related system
  // (held to the same clearance bar as a hint — a nearly-degenerate
  // centre would blow up the dual points — and replaced by one
  // Chebyshev LP when the new constraints cut it off).
  const bool hint_is_centre =
      StrictlyInside(interior_hint, options.hint_margin);
  if (hint_is_centre) {
    centre_.assign(interior_hint.begin(), interior_hint.end());
  } else {
    centre_.clear();
    if (StrictlyInside(options.warm_start, options.hint_margin)) {
      centre_ = options.warm_start;
    }
    std::vector<Halfspace> work(m);
    for (size_t c = 0; c < m; ++c) {
      const double* row = rows_.data() + c * stride;
      work[c].normal.assign(row, row + d);
      work[c].offset = row[d];
    }
    Result<bool> feasible = RefreshFeasiblePoint(
        work, options.clip_to_unit_cube ? 0.0 : -1e9,
        options.clip_to_unit_cube ? 1.0 : 1e9, /*margin=*/1e-12, &centre_);
    if (!feasible.ok()) return feasible.status();
    if (!*feasible) return EmptyResult(d);  // empty or measure zero
  }

  // 3. Dual points.
  if (!DualizeRows(0)) return EmptyResult(d);

  // 4. Convex hull of the dual points.
  Status built = hull_.Build(duals_.data(), m, d, ConvexHullOptions());
  if (!built.ok()) {
    // Lower-dimensional dual point set means the primal region is
    // unbounded or degenerate; with the cube clip this is numerical
    // degeneracy — report an empty polytope rather than failing.
    if (built.code() == StatusCode::kFailedPrecondition) {
      return EmptyResult(d);
    }
    return built;
  }
  IntersectionResult out = ReadOff();
  kept_ = hint_is_centre && !hull_.joggled() && !out.polytope.empty();
  if (kept_) KeepInputs(ge, 0);
  return out;
}

Result<IntersectionResult> DualHullIntersection::Extend(
    const std::vector<Halfspace>& ge, VecView interior_hint,
    const IntersectionOptions& options) {
  if (!kept_ || clip_ != options.clip_to_unit_cube ||
      interior_hint.size() != dim_ ||
      !std::equal(centre_.begin(), centre_.end(), interior_hint.begin()) ||
      !BeginsWithInputs(ge)) {
    return Intersect(ge, interior_hint, options);
  }
  serial_ = NextSerial();
  kept_ = false;
  last_extended_ = false;
  const size_t old_inputs = inputs_.size() / (dim_ + 1);
  const size_t old_m = source_.size();
  AddInputRows(ge, old_inputs);
  DropDuplicateRows(old_m);
  const size_t m = source_.size();

  if (!StrictlyInside(interior_hint, options.hint_margin) ||
      !DualizeRows(old_m) || !hull_.Extend(duals_.data(), m).ok()) {
    return Intersect(ge, interior_hint, options);
  }
  IntersectionResult out = ReadOff();
  last_extended_ = true;
  kept_ = !out.polytope.empty();
  if (kept_) KeepInputs(ge, old_inputs);
  return out;
}

IntersectionResult DualHullIntersection::ReadOff() {
  const size_t d = dim_;
  IntersectionResult out;

  // 5. Primal vertices from dual facets: facet {y : m·y = o} with o > 0
  // maps to vertex m/o + centre.
  vertices_.clear();
  size_t vertex_count = 0;
  for (size_t f = 0; f < hull_.facet_count(); ++f) {
    double o = hull_.facet_offset(f);
    if (o <= 1e-13) {
      // Origin on a dual facet: unbounded primal direction. Cannot
      // happen with the cube clip except through numerics.
      continue;
    }
    const double* normal = hull_.facet_normal(f);
    vertices_.resize((vertex_count + 1) * d);
    double* v = vertices_.data() + vertex_count * d;
    for (size_t j = 0; j < d; ++j) v[j] = normal[j] / o + centre_[j];
    bool duplicate = false;
    for (size_t u = 0; u < vertex_count; ++u) {
      if (LInfDistance(VecView(vertices_.data() + u * d, d), VecView(v, d)) <
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
    const double* v = vertices_.data() + u * d;
    vertices.emplace_back(v, v + d);
  }

  // 6. Facets of the primal polytope = non-redundant constraints =
  // constraints whose dual point is a hull vertex.
  const std::vector<int>& hull_vertices = hull_.vertex_indices();
  std::vector<Hyperplane> facets;
  facets.reserve(hull_vertices.size());
  size_t reported = 0;
  for (int dual_id : hull_vertices) reported += source_[dual_id] >= 0;
  out.nonredundant.reserve(reported);
  for (int dual_id : hull_vertices) {
    const double* h = rows_.data() + static_cast<size_t>(dual_id) * (d + 1);
    Hyperplane plane;
    plane.normal = Scale(VecView(h, d), -1.0);
    plane.offset = -h[d];
    facets.push_back(std::move(plane));
    if (source_[dual_id] >= 0) out.nonredundant.push_back(source_[dual_id]);
  }
  std::sort(out.nonredundant.begin(), out.nonredundant.end());
  out.polytope = Polytope::FromData(d, std::move(vertices), std::move(facets));
  out.interior = centre_;
  out.joggled = hull_.joggled();
  return out;
}

DualHullIntersection& ThreadDualHullIntersection() {
  static thread_local DualHullIntersection state;
  return state;
}

Result<IntersectionResult> IntersectHalfspaces(
    const std::vector<Halfspace>& ge, VecView interior_hint,
    const IntersectionOptions& options) {
  return ThreadDualHullIntersection().Intersect(ge, interior_hint, options);
}

}  // namespace gir
