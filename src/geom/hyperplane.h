#ifndef GIR_GEOM_HYPERPLANE_H_
#define GIR_GEOM_HYPERPLANE_H_

#include <vector>

#include "common/result.h"
#include "geom/vec.h"

namespace gir {

// Oriented hyperplane {x : normal·x = offset}. Points with
// normal·x > offset are "above" the plane. Facet hyperplanes in this
// library are oriented with the normal pointing away from the hull
// interior, so "above" means "outside".
struct Hyperplane {
  Vec normal;
  double offset = 0.0;

  // Signed distance surrogate: normal·x - offset (not normalized unless
  // the normal is).
  double Evaluate(VecView x) const { return Dot(normal, x) - offset; }
};

// Closed half-space {x : normal·x >= offset}. GIR constraints are
// half-spaces through the origin of query space (offset == 0).
struct Halfspace {
  Vec normal;
  double offset = 0.0;

  bool Contains(VecView x, double eps = 0.0) const {
    return Dot(normal, x) >= offset - eps;
  }
};

// Fits the hyperplane through the d affinely-independent points
// `points[indices[0..d-1]]`, oriented so that `interior` lies strictly
// below it (Evaluate(interior) < 0). Fails with FailedPrecondition when
// the points are (numerically) affinely dependent or the interior point
// is on the plane.
Result<Hyperplane> FitHyperplane(const std::vector<Vec>& points,
                                 const std::vector<int>& indices,
                                 VecView interior);

// Elimination buffers of FitHyperplaneInto. Once grown to the
// dimension they are reused, so steady-state fits allocate nothing.
struct HyperplaneFitScratch {
  std::vector<double> rows;  // (d-1) x d, row-major
  std::vector<int> pivot_col_of_row;
  std::vector<char> col_used;
};

// FitHyperplane over flat storage: `vertices[i]` (i < d) points at the
// d coordinates of the i-th defining point. Writes the unit outward
// normal to normal[0..d-1] and the offset to *offset; both are
// unspecified on failure. Same full-pivoting arithmetic as
// FitHyperplane (which wraps it), so the planes are bit-identical.
Status FitHyperplaneInto(const double* const* vertices, VecView interior,
                         HyperplaneFitScratch* scratch, double* normal,
                         double* offset);

// Solves the d x d linear system A x = b by Gaussian elimination with
// partial pivoting. Fails when the matrix is numerically singular
// (|pivot| < pivot_floor after scaling).
Result<Vec> SolveLinearSystem(std::vector<Vec> a, Vec b,
                              double pivot_floor = 1e-12);

}  // namespace gir

#endif  // GIR_GEOM_HYPERPLANE_H_
