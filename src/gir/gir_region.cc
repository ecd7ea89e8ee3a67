#include "gir/gir_region.h"

#include <algorithm>
#include <limits>

#include "geom/lp.h"

namespace gir {

std::string ConstraintProvenance::Describe(
    const std::vector<RecordId>& result) const {
  char buf[128];
  if (kind == Kind::kOrdering) {
    std::snprintf(buf, sizeof(buf),
                  "records #%d and #%d (result ranks %d and %d) swap order",
                  position >= 0 ? result[position] : -1,
                  position + 1 < static_cast<int>(result.size())
                      ? result[position + 1]
                      : -1,
                  position + 1, position + 2);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "record #%d overtakes result record #%d (rank %d)",
                  challenger, position >= 0 ? result[position] : -1,
                  position + 1);
  }
  return buf;
}

bool GirRegion::Contains(VecView q, double eps) const {
  for (size_t j = 0; j < dim_; ++j) {
    if (q[j] < -eps || q[j] > 1.0 + eps) return false;
  }
  for (const GirConstraint& c : constraints_) {
    if (Dot(c.normal, q) < -eps) return false;
  }
  return true;
}

GirRegion::RaySpan GirRegion::ClipRay(VecView x, VecView dir) const {
  double t_min = -std::numeric_limits<double>::infinity();
  double t_max = std::numeric_limits<double>::infinity();
  auto clip = [&](double value, double slope) {
    // Constraint: value + t * slope >= 0.
    if (slope > 0) {
      t_min = std::max(t_min, -value / slope);
    } else if (slope < 0) {
      t_max = std::min(t_max, -value / slope);
    } else if (value < 0) {
      t_min = 0.0;
      t_max = 0.0;
    }
  };
  for (const GirConstraint& c : constraints_) {
    clip(Dot(c.normal, x), Dot(c.normal, dir));
  }
  for (size_t j = 0; j < dim_; ++j) {
    clip(x[j], dir[j]);              // x_j >= 0
    clip(1.0 - x[j], -dir[j]);       // x_j <= 1
  }
  if (t_min > t_max) {
    return RaySpan{0.0, 0.0};
  }
  return RaySpan{t_min, t_max};
}

namespace {

// Dense rows of the AdmitsGain LP: the region's constraints as
// `-normal·x <= 0`, then the cube rows `x_j <= 1`, `-x_j <= 0` — the
// exact row order the historical per-call solver used, so pivoting (and
// the verdicts) are unchanged. Assembled into reusable buffers; the
// normal of constraint i is normal_at(i).
template <typename NormalAt>
void AssembleGainLp(size_t rows, NormalAt normal_at, size_t dim,
                    std::vector<double>* a, std::vector<double>* b) {
  const size_t m = rows + 2 * dim;
  a->resize(m * dim);
  b->resize(m);
  std::fill(a->begin(), a->end(), 0.0);
  double* ap = a->data();
  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    const double* normal = normal_at(r);
    for (size_t j = 0; j < dim; ++j) ap[i * dim + j] = -1.0 * normal[j];
    (*b)[i] = 0.0;
    ++i;
  }
  for (size_t j = 0; j < dim; ++j) {
    ap[i * dim + j] = 1.0;  // x_j <= 1
    (*b)[i] = 1.0;
    ++i;
    ap[i * dim + j] = -1.0;  // -x_j <= 0
    (*b)[i] = 0.0;
    ++i;
  }
}

// Fast paths that skip the simplex solve. The region's own query
// vector is feasible by construction, so a positive advantage there
// settles the test immediately; a gain with no positive component can
// never attain a positive dot product over the non-negative cube.
// 1 = admitted, 0 = rejected, -1 = needs the LP.
int GainFastPath(VecView gain, VecView query, double eps) {
  if (Dot(gain, query) > eps) return 1;
  for (double g : gain) {
    if (g > 0.0) return -1;
  }
  return 0;
}

}  // namespace

bool GirRegion::AdmitsGain(VecView gain, double eps) const {
  int fast = GainFastPath(gain, query_, eps);
  if (fast >= 0) return fast != 0;

  static thread_local std::vector<double> a;
  static thread_local std::vector<double> b;
  static thread_local LpWorkspace ws;
  AssembleGainLp(
      constraints_.size(),
      [this](size_t r) { return constraints_[r].normal.data(); }, dim_, &a,
      &b);
  LpBatchItem item;
  SolveLpBatch(a.data(), b.data(), b.size(), dim_, gain.data(), 1, &ws,
               &item);
  // Solver failures return true (conservative: callers treat "pierced"
  // as "recompute").
  if (item.status != LpStatus::kOptimal) return true;
  return item.objective > eps;
}

namespace {

template <typename NormalAt>
size_t FirstAdmittedGainImpl(size_t rows, NormalAt normal_at, VecView query,
                             const double* gains, size_t count,
                             LpWorkspace* ws, double eps) {
  static thread_local std::vector<double> a;
  static thread_local std::vector<double> b;
  const size_t dim = query.size();
  bool prepared = false;
  bool prepare_failed = false;
  for (size_t t = 0; t < count; ++t) {
    VecView gain(gains + t * dim, dim);
    int fast = GainFastPath(gain, query, eps);
    if (fast == 1) return t;
    if (fast == 0) continue;
    if (!prepared) {
      AssembleGainLp(rows, normal_at, dim, &a, &b);
      prepare_failed =
          ws->Prepare(a.data(), b.data(), b.size(), dim) !=
          LpStatus::kOptimal;
      prepared = true;
    }
    // The origin is always feasible, so Prepare can only fail by
    // iteration limit — conservatively admitted, like AdmitsGain.
    if (prepare_failed) return t;
    LpStatus s = ws->Maximize(gain.data());
    if (s != LpStatus::kOptimal) return t;  // conservative
    if (ws->objective() > eps) return t;
  }
  return count;
}

}  // namespace

size_t GirRegion::FirstAdmittedGain(const double* gains, size_t count,
                                    LpWorkspace* ws, double eps) const {
  return FirstAdmittedGainImpl(
      constraints_.size(),
      [this](size_t r) { return constraints_[r].normal.data(); }, query_,
      gains, count, ws, eps);
}

size_t FirstAdmittedGain(const double* normals, size_t rows, VecView query,
                         const double* gains, size_t count, LpWorkspace* ws,
                         double eps) {
  const size_t dim = query.size();
  return FirstAdmittedGainImpl(
      rows, [normals, dim](size_t r) { return normals + r * dim; }, query,
      gains, count, ws, eps);
}

std::vector<Halfspace> GirRegion::AsHalfspaces() const {
  std::vector<Halfspace> out;
  out.reserve(constraints_.size());
  for (const GirConstraint& c : constraints_) {
    out.push_back(Halfspace{c.normal, 0.0});
  }
  return out;
}

const std::vector<Halfspace>& GirRegion::HalfspacesScratch() const {
  // Per-thread rows whose normals keep their capacity, so a warmed
  // materialization copies the constraints without allocating.
  static thread_local std::vector<Halfspace> rows;
  rows.resize(constraints_.size());
  for (size_t i = 0; i < constraints_.size(); ++i) {
    rows[i].normal.assign(constraints_[i].normal.begin(),
                          constraints_[i].normal.end());
    rows[i].offset = 0.0;
  }
  return rows;
}

void GirRegion::Materialize() const {
  if (polytope_.has_value()) return;
  IntersectionOptions options;
  options.warm_start = interior_witness_;
  DualHullIntersection& hull = ThreadDualHullIntersection();
  const std::vector<Halfspace>& rows = HalfspacesScratch();
  Result<IntersectionResult> r = hull.serial() == hull_serial_
                                     ? hull.Extend(rows, query_, options)
                                     : hull.Intersect(rows, query_, options);
  hull_serial_ = hull.serial();
  if (r.ok()) {
    polytope_ = std::move(r).value();
    if (!polytope_->interior.empty()) {
      interior_witness_ = polytope_->interior;
    }
  } else {
    IntersectionResult empty;
    empty.polytope = Polytope::Empty(dim_);
    polytope_ = std::move(empty);
  }
}

const Polytope& GirRegion::polytope() const {
  Materialize();
  return polytope_->polytope;
}

const std::vector<int>& GirRegion::nonredundant_indices() const {
  Materialize();
  return polytope_->nonredundant;
}

bool GirRegion::polytope_joggled() const {
  Materialize();
  return polytope_->joggled;
}

std::vector<BoundaryEvent> GirRegion::BoundaryEvents() const {
  std::vector<BoundaryEvent> out;
  for (int idx : nonredundant_indices()) {
    BoundaryEvent e;
    e.constraint = constraints_[idx];
    e.description = constraints_[idx].provenance.Describe(result_);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace gir
