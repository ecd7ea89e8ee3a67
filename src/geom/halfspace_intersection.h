#ifndef GIR_GEOM_HALFSPACE_INTERSECTION_H_
#define GIR_GEOM_HALFSPACE_INTERSECTION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geom/convex_hull.h"
#include "geom/hyperplane.h"
#include "geom/polytope.h"
#include "geom/vec.h"

namespace gir {

struct IntersectionOptions {
  // When true (the default for GIR work) the unit cube [0,1]^d is added
  // to the constraint set, which also guarantees boundedness.
  bool clip_to_unit_cube = true;
  // Margin (relative to the normal's length) required for the interior
  // hint before the Chebyshev-LP fallback kicks in.
  double hint_margin = 1e-9;
  // Warm start: an interior point from a previous intersection of a
  // related system (e.g. the same region before its latest
  // constraints). Tried after `interior_hint`, before the Chebyshev
  // LP. Empty vectors are ignored.
  Vec warm_start;
};

struct IntersectionResult {
  Polytope polytope;
  // Indices of input half-spaces that support a facet of the result
  // (i.e. are non-redundant). Cube constraints are not reported.
  std::vector<int> nonredundant;
  // The strictly interior point the duality transform used — feed it
  // back as `warm_start` when intersecting a grown version of the same
  // system to skip the LP. Empty when the intersection was empty.
  Vec interior;
  // True when the dual hull only built from joggled points (degenerate
  // input): the vertices are then off by up to the joggle's size.
  bool joggled = false;
};

// Intersects half-spaces given in `normal·x >= offset` form via point
// duality: translate an interior point to the origin, dualize each
// half-space a·x <= b (b > 0) to the point a/b, build the convex hull of
// the dual points, and read primal vertices off dual facets. This is the
// library's replacement for Qhull's halfspace-intersection mode
// (qhalf). An empty intersection yields an empty polytope, not an error.
//
// `interior_hint` may be empty; if given and strictly feasible it avoids
// the Chebyshev LP entirely (the GIR engine passes the query vector,
// which is interior by construction).
Result<IntersectionResult> IntersectHalfspaces(
    const std::vector<Halfspace>& ge, VecView interior_hint,
    const IntersectionOptions& options = {});

// IntersectHalfspaces with its working state kept: the input rows, their
// normalized and de-duplicated form, their dual points and the dual
// hull. A system that only grows (rows appended, never edited) can then
// be intersected again by extending the kept hull with the dual points
// of the appended rows instead of building it anew. IntersectHalfspaces
// runs the calling thread's instance (ThreadDualHullIntersection);
// GirRegion's materialization grows it from FP's footnote-7 cone (the
// Phase-1 region) to the final region, so a query builds one dual hull,
// not two.
//
// Contract of Extend(ge, hint, options). It grows the kept hull only
// when all of these hold:
//   - `ge` begins with the half-spaces of the last Intersect or Extend,
//     in order and bit for bit (checked against a copy of them);
//   - that call returned a non-empty polytope from an unjoggled hull,
//     with the same clip_to_unit_cube;
//   - that call's centre was `hint` itself, so the hint was strictly
//     inside the old rows, and the hint is strictly inside the new ones
//     (the centre IntersectHalfspaces(ge, hint, options) would choose);
//   - HullBuilder::Extend succeeds.
// Otherwise it returns Intersect(ge, hint, options), which is exactly
// IntersectHalfspaces(ge, hint, options). Appended rows are
// de-duplicated against the kept ones as IntersectHalfspaces does: an
// input row equal to a kept cube row takes over that row's dual point
// and is reported. A grown result has the same centre, the same dual
// points and, on data in general position, the same vertices (up to
// rounding) and non-redundant set as a fresh intersection; its vertices
// and facets come in hull order, which may differ. Once warmed, an
// extend allocates only its outputs.
class DualHullIntersection {
 public:
  Result<IntersectionResult> Intersect(const std::vector<Halfspace>& ge,
                                       VecView interior_hint,
                                       const IntersectionOptions& options = {});
  Result<IntersectionResult> Extend(const std::vector<Halfspace>& ge,
                                    VecView interior_hint,
                                    const IntersectionOptions& options = {});

  // True when the last Extend grew the kept hull rather than rebuilding.
  bool last_extended() const { return last_extended_; }
  // Names the state the last Intersect or Extend left: a process-wide
  // unique number, 0 before the first call. A caller that records it
  // can tell later whether the state still holds its system.
  uint64_t serial() const { return serial_; }

 private:
  // Appends ge[first..] normalized, with their input indices.
  void AddInputRows(const std::vector<Halfspace>& ge, size_t first);
  void AddRow(const double* normal, double offset, int source_index);
  // De-duplicates rows [first, rows) against all earlier rows and each
  // other, rows before `first` being already unique.
  void DropDuplicateRows(size_t first);
  bool StrictlyInside(VecView p, double margin) const;
  // Dual points of rows [first, rows) about centre_; false when the
  // centre lies (numerically) on one of them.
  bool DualizeRows(size_t first);
  // Steps 5-6: the primal polytope read off the current hull.
  IntersectionResult ReadOff();
  // Records ge[first..] as inputs of the kept system and takes a new
  // serial.
  void KeepInputs(const std::vector<Halfspace>& ge, size_t first);
  // True when ge begins with the kept system's inputs, bit for bit.
  bool BeginsWithInputs(const std::vector<Halfspace>& ge) const;

  size_t dim_ = 0;
  bool clip_ = true;
  bool kept_ = false;  // the state holds a hull Extend may grow
  bool last_extended_ = false;
  uint64_t serial_ = 0;
  std::vector<double> inputs_;  // the kept system's input rows: d + 1 each
  std::vector<double> rows_;  // kept normalized rows: d normal + offset
  std::vector<int> source_;   // input index per row, -1 for the cube
  std::vector<int64_t> keys_;  // rounded rows, for duplicate detection
  std::vector<double> unit_;   // a cube row's normal
  std::vector<int> order_;
  std::vector<uint8_t> keep_;
  std::vector<double> duals_;     // row-major dual points
  std::vector<double> vertices_;  // row-major primal vertices
  Vec centre_;
  HullBuilder hull_;
};

// The calling thread's DualHullIntersection, the one IntersectHalfspaces
// runs; grown to the largest system seen and reused, so a warmed call
// allocates only its outputs.
DualHullIntersection& ThreadDualHullIntersection();

}  // namespace gir

#endif  // GIR_GEOM_HALFSPACE_INTERSECTION_H_
