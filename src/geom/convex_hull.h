#ifndef GIR_GEOM_CONVEX_HULL_H_
#define GIR_GEOM_CONVEX_HULL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geom/hyperplane.h"
#include "geom/vec.h"

namespace gir {

// A simplicial facet of a d-dimensional convex hull.
struct HullFacet {
  // Exactly d point indices (into the input point array).
  std::vector<int> vertices;
  // Supporting hyperplane, oriented with the normal pointing outward
  // (Evaluate(x) <= 0 for points inside the hull, up to epsilon).
  Hyperplane plane;
  // neighbors[i] is the id of the facet sharing the ridge opposite
  // vertices[i] (i.e. vertices \ {vertices[i]}).
  std::vector<int> neighbors;
};

struct ConvexHullOptions {
  // Distance threshold for the "point above facet" test.
  double eps = 1e-10;
  // When the input is degenerate (affinely dependent), the build is
  // retried with joggled coordinates; each retry multiplies the joggle
  // magnitude by 10. Mirrors Qhull's QJ option.
  bool enable_joggle = true;
  double joggle_magnitude = 1e-9;
  int max_joggle_attempts = 6;
  uint64_t joggle_seed = 2014;
};

// The hull builder over flat storage: the quickhull / Clarkson
// incremental strategy (outside sets, furthest-point insertion, horizon
// ridge patching) with every facet, conflict list and scratch buffer
// packed into reused arrays. A builder kept alive across calls only
// grows capacity, so once warmed on a workload shape a build allocates
// nothing. ConvexHull::Build wraps it; the half-space intersection runs
// it directly on its dual points.
class HullBuilder {
 public:
  // Builds the hull of the n points stored row-major at `coords`
  // (n * dim doubles, which must outlive the builder's use of them).
  // InvalidArgument for n == 0 or dim < 2; FailedPrecondition when the
  // points do not span full dimension even after joggling.
  Status Build(const double* coords, size_t n, size_t dim,
               const ConvexHullOptions& options = {});

  // Grows the last successful, unjoggled Build to the hull of the first
  // n points at `coords`, whose leading points must be the ones it was
  // built on, bit for bit (the caller appended; the array
  // may have moved). The new points are assigned to the facets they lie
  // above and inserted furthest first, as in Build; the old facets,
  // interior point and options stay. On data in general position the
  // result is the hull Build(coords, n) would return, with facets and
  // vertices in another order. FailedPrecondition when the last Build
  // joggled or failed; any failure leaves the builder needing a fresh
  // Build. Allocates nothing once its buffers have grown.
  Status Extend(const double* coords, size_t n);

  // ----- the last successful Build -----
  // Live facets, in creation order. Facet f's d vertices and d
  // neighbours (neighbour i shares the ridge opposite vertex i) are ints;
  // its outward unit normal is row-major.
  size_t facet_count() const { return offsets_.size(); }
  const int* facet_vertices(size_t f) const {
    return verts_.data() + f * dim_;
  }
  const int* facet_neighbors(size_t f) const {
    return nbrs_.data() + f * dim_;
  }
  const double* facet_normal(size_t f) const {
    return normals_.data() + f * dim_;
  }
  double facet_offset(size_t f) const { return offsets_[f]; }
  // Sorted unique indices of input points that are hull vertices.
  const std::vector<int>& vertex_indices() const { return vertex_ids_; }
  // Centroid of the initial simplex, strictly inside the hull.
  const Vec& interior() const { return interior_; }
  // True if the build had to joggle the input (degenerate data).
  bool joggled() const { return joggled_; }
  // The coordinates the hull was built on, row-major: the input, or its
  // joggled copy.
  const double* points() const { return pts_; }

 private:
  // A horizon ridge: slot `slot` of visible facet `facet`, whose
  // neighbour `outer` stays; `outer_slot` is outer's slot back.
  struct HorizonRidge {
    int facet;
    int slot;
    int outer;
    int outer_slot;
  };

  Status Run();
  Status BuildInitialSimplex();
  int NewFacet();
  Status FitPlane(int f);
  double Height(size_t f, int p) const;
  void Append(int f, int p);
  void AssignPoint(int p, size_t first, size_t last);
  Status ProcessOutsidePoints();
  Status InsertPoint(int apex, int seed_facet);
  void Compact();

  ConvexHullOptions options_;
  bool built_ = false;  // the last Build or Extend succeeded
  const double* pts_ = nullptr;
  size_t n_ = 0;
  size_t dim_ = 0;
  std::vector<double> joggled_coords_;
  bool joggled_ = false;
  Vec interior_;

  // Facets, dead ones included until Compact. A conflict list is linked
  // through the points: head_/tail_ per facet, next_ per point, in
  // append order.
  std::vector<int> verts_;
  std::vector<int> nbrs_;
  std::vector<double> normals_;
  std::vector<double> offsets_;
  std::vector<uint8_t> alive_;
  std::vector<uint8_t> visible_;
  std::vector<int> head_;
  std::vector<int> tail_;
  std::vector<int> next_;

  // Scratch.
  std::vector<int> simplex_;
  std::vector<double> simplex_scratch_;
  std::vector<int> queue_;
  std::vector<int> stack_;
  std::vector<int> visible_list_;
  std::vector<HorizonRidge> horizon_;
  std::vector<int> ridge_keys_;
  std::vector<int> ridge_order_;
  std::vector<int> orphans_;
  std::vector<const double*> fit_vertices_;
  HyperplaneFitScratch fit_scratch_;
  std::vector<int> remap_;
  std::vector<uint8_t> is_vertex_;
  std::vector<int> vertex_ids_;
};

// Full-dimensional convex hull in d >= 2 dimensions, built by
// HullBuilder. This is the library's substitute for Qhull, used by the
// CP pruning method and by polytope volumes.
class ConvexHull {
 public:
  // Requires points.size() >= d + 1 spanning full dimension (possibly
  // after joggling). Fails with FailedPrecondition otherwise.
  static Result<ConvexHull> Build(const std::vector<Vec>& points,
                                  const ConvexHullOptions& options = {});

  size_t dim() const { return dim_; }

  // Simplicial facets of the hull.
  const std::vector<HullFacet>& facets() const { return facets_; }

  // Sorted unique indices of input points that are hull vertices.
  const std::vector<int>& vertex_indices() const { return vertex_indices_; }

  // A point strictly inside the hull (centroid of the initial simplex).
  const Vec& interior_point() const { return interior_; }

  // True when x is inside or on the hull (within eps of every facet).
  bool Contains(VecView x, double eps = 1e-9) const;

  // Exact volume of the (joggled, if applicable) hull: fan decomposition
  // of the simplicial facets around interior_point().
  double Volume() const;

  // True if the build had to joggle the input (degenerate data).
  bool joggled() const { return joggled_; }

 private:
  ConvexHull() = default;

  size_t dim_ = 0;
  // The coordinates the hull was built on, row-major (joggled copies of
  // the input when joggling kicked in); facet vertex ids index them.
  std::vector<double> coords_;
  std::vector<HullFacet> facets_;
  std::vector<int> vertex_indices_;
  Vec interior_;
  bool joggled_ = false;
};

// Greedily selects d+1 affinely independent points (indices) via
// Gram-Schmidt distance-to-subspace maximization. Fails when the point
// set is (numerically) lower-dimensional. Exposed for tests.
Result<std::vector<int>> FindInitialSimplex(const std::vector<Vec>& points,
                                            size_t dim, double tol = 1e-9);

}  // namespace gir

#endif  // GIR_GEOM_CONVEX_HULL_H_
