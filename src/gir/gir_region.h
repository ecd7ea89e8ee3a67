#ifndef GIR_GIR_GIR_REGION_H_
#define GIR_GIR_GIR_REGION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "geom/halfspace_intersection.h"
#include "geom/hyperplane.h"
#include "geom/lp.h"
#include "geom/polytope.h"

namespace gir {

// Where a GIR half-space came from; this is what lets the library
// report the exact result perturbation when the query vector crosses a
// bounding facet (paper §3.2).
struct ConstraintProvenance {
  enum class Kind {
    // Ordering constraint S(p_i,q') >= S(p_{i+1},q'): crossing swaps the
    // records at result positions `position` and `position+1` (0-based).
    kOrdering,
    // Overtake constraint S(p_i,q') >= S(p,q'): crossing makes
    // non-result record `challenger` overtake the result record at
    // `position` (== k-1 for the order-sensitive GIR).
    kOvertake,
  };
  Kind kind = Kind::kOvertake;
  int position = -1;
  RecordId challenger = -1;

  std::string Describe(const std::vector<RecordId>& result) const;
};

struct GirConstraint {
  // Half-space normal·q' >= 0; the bounding hyperplane passes through
  // the origin of query space.
  Vec normal;
  ConstraintProvenance provenance;
};

// A boundary event: a non-redundant constraint, i.e. an actual facet of
// the GIR, plus the result change that crossing it causes.
struct BoundaryEvent {
  GirConstraint constraint;
  std::string description;
};

// The global immutable region of a top-k query: the intersection of the
// accumulated constraint half-spaces with the unit cube of query space.
// Constraints may be redundant (SP deliberately over-collects);
// ToPolytope() identifies the non-redundant subset.
class GirRegion {
 public:
  GirRegion(size_t dim, Vec query, std::vector<RecordId> result)
      : dim_(dim), query_(std::move(query)), result_(std::move(result)) {}

  size_t dim() const { return dim_; }
  const Vec& query() const { return query_; }
  const std::vector<RecordId>& result() const { return result_; }
  const std::vector<GirConstraint>& constraints() const {
    return constraints_;
  }

  void AddConstraint(Vec normal, ConstraintProvenance provenance) {
    constraints_.push_back(GirConstraint{std::move(normal), provenance});
    // Invalidates the geometry but keeps the interior witness: one new
    // half-space rarely cuts it off, so the next Materialize usually
    // skips the Chebyshev LP (warm start).
    polytope_.reset();
  }

  // True when q' (inside the unit cube) satisfies every constraint: the
  // original top-k result is guaranteed to be preserved at q'.
  bool Contains(VecView q, double eps = 0.0) const;

  // Parametric clipping of the line {x + t*dir} against the region
  // (constraints + cube): the [t_min, t_max] parameter interval that
  // stays inside. When x is inside the region the interval brackets
  // t = 0; when it is outside, the interval is where the line crosses
  // the region (possibly empty, returned as [0, 0]).
  struct RaySpan {
    double t_min = 0.0;
    double t_max = 0.0;
  };
  RaySpan ClipRay(VecView x, VecView dir) const;

  // Explicit geometry: vertices + non-redundant facets via half-space
  // intersection (the query vector is the interior hint). The result is
  // cached; the bool return of Materialize tells whether geometry is
  // available (a degenerate/empty region yields an empty polytope).
  const Polytope& polytope() const;
  const std::vector<int>& nonredundant_indices() const;

  // True when the materialized polytope came from a joggled dual hull
  // (degenerate constraints), so its vertices are only approximate.
  bool polytope_joggled() const;

  // The facets of the region that stem from data constraints (not the
  // cube), with their human-readable result perturbations.
  std::vector<BoundaryEvent> BoundaryEvents() const;

  // Max of gain·q' over the region (constraints ∩ unit cube), solved as
  // a small LP. Returns true when the maximum exceeds `eps` — i.e. some
  // weight vector inside the region gives `gain` a strictly positive
  // score advantage. With gain = g(p) − g(p_k) this is the update
  // subsystem's point-vs-region piercing test: an inserted record p can
  // enter the cached top-k somewhere in the region iff it can outscore
  // the k-th result record there. Because every constraint passes
  // through the origin, the origin (score tie) is always feasible, so
  // the test is for a *strictly* positive advantage. Solver failures
  // return true (conservative: callers treat "pierced" as "recompute").
  bool AdmitsGain(VecView gain, double eps = 1e-9) const;

  // Batched piercing test over `count` gain vectors (row-major, dim()
  // doubles per row): the index of the first gain the region admits, or
  // `count` when none does. Decision-equivalent to calling AdmitsGain
  // on each row in order and stopping at the first true — same fast
  // paths, same LP per remaining row — but the tableau for
  // region ∩ cube is assembled and made feasible once, and every LP
  // after the first warm-starts from the previous optimal basis held in
  // `ws` (caller-owned, reused across regions; see SolveLpBatch). This
  // is the shared-setup path InvalidateForUpdates amortizes its
  // per-(entry, insert) LPs through.
  size_t FirstAdmittedGain(const double* gains, size_t count, LpWorkspace* ws,
                           double eps = 1e-9) const;

  // Constraint views for the geometry helpers.
  std::vector<Halfspace> AsHalfspaces() const;

  // Copy carrying only the constraint system, never the (potentially
  // large) materialized polytope — what containment caches store.
  GirRegion ConstraintsOnly() const {
    GirRegion out(dim_, query_, result_);
    out.constraints_ = constraints_;
    return out;
  }

 private:
  void Materialize() const;
  // The constraints as half-spaces, in reused per-thread storage.
  const std::vector<Halfspace>& HalfspacesScratch() const;

  size_t dim_;
  Vec query_;
  std::vector<RecordId> result_;
  std::vector<GirConstraint> constraints_;

  mutable std::optional<IntersectionResult> polytope_;
  // Last interior point a materialization used; reused across
  // consecutive constraint additions.
  mutable Vec interior_witness_;
  // Serial of the thread's DualHullIntersection state this region's
  // last materialization left (DualHullIntersection::serial). While the
  // state still holds it, the next materialization grows that hull by
  // the constraints added since instead of building a second one: FP's
  // footnote-7 cone grows into the final region.
  mutable uint64_t hull_serial_ = 0;
};

// GirRegion::FirstAdmittedGain for a constraint system stored flat:
// `normals` holds `rows` constraint normals, query.size() doubles each,
// and `query` is the region's query vector. Same fast paths, same LPs,
// same verdicts.
size_t FirstAdmittedGain(const double* normals, size_t rows, VecView query,
                         const double* gains, size_t count, LpWorkspace* ws,
                         double eps = 1e-9);

}  // namespace gir

#endif  // GIR_GIR_GIR_REGION_H_
