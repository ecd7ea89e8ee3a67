#ifndef GIR_GIR_FPND_H_
#define GIR_GIR_FPND_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geom/hyperplane.h"
#include "gir/sp.h"

namespace gir {

// The data structure at the heart of Facet Pruning (paper §6.3): the
// facets of CH' = conv({apex} ∪ P) incident to the apex (its "star"),
// maintained incrementally as points of P arrive, without ever
// materialising the rest of the hull. Key invariant: a ridge containing
// the apex is always shared by exactly two *incident* facets, so
// horizon ridges of an insertion can be found purely inside the star.
//
// The star is seeded with d dummy points apex - c_i * e_i (with
// c_i = max(apex_i, 1/2)), which guarantees a full-dimensional initial
// simplex. Dummies are dominated by the apex component-wise, so any
// constraint they would induce is implied by q' >= 0 and they are
// excluded from CriticalRecordIds().
//
// Layout. Most facets die young: at IND d=4 (n=200k, k=20) a query
// creates ~125 facets and ends with ~30 live (d=6: ~4600 and ~1170).
// So only live facets are stored, packed in ascending creation order:
// normals (row-major, d per facet), offsets, vertex ids (apex first)
// and, per facet, d-1 neighbour slots — slot s names the live facet
// sharing the apex ridge opposite vertex s+1. Insertions find the
// horizon through those slots and compact the dead facets away. Every
// buffer is a reused member, so a pruned point allocates nothing and a
// star-changing one only grows capacity.
class IncidentStar {
 public:
  // `apex` in (transformed) data-space coordinates.
  explicit IncidentStar(VecView apex, double eps = 1e-10);

  // Processes one point. Returns true when the star changed (the point
  // was above at least one facet), false when it was pruned (the
  // common case: no copy of `p` is made then). Fails with
  // FailedPrecondition on a degenerate facet fit (caller may joggle
  // the point and retry, or add its constraint directly — both
  // preserve correctness); fails with Internal on a numerically broken
  // horizon. Either way the star is left exactly as it was.
  Result<bool> Insert(VecView p, int external_id);

  // One live facet, copied out of the packed arrays by facets().
  struct StarFacet {
    std::vector<int> vertices;  // internal point ids; [0] is the apex
    Hyperplane plane;           // outward-oriented
    // neighbors[s]: index into facets() of the facet sharing the apex
    // ridge opposite vertices[s + 1].
    std::vector<int> neighbors;
  };

  // The live facets in ascending creation order (tests, diagnostics).
  std::vector<StarFacet> facets() const;
  // Facets currently in the star: paper Fig. 8(b), reported as
  // GirStats::star_facets.
  size_t live_facet_count() const { return offsets_.size(); }
  // Facets created over the lifetime, the d initial ones included: the
  // work performed. Dead facets are not kept, so this is a counter.
  size_t facets_created() const { return facets_created_; }

  // External ids of the current star vertices other than apex/dummies:
  // the paper's critical records, ascending.
  std::vector<int> CriticalRecordIds() const;

  // ----- the one visibility predicate -----
  //
  // Facet f sees point x when  dot(n_f, x) - offset_f > eps , the dot
  // summed as dot = 0; dot += n_f[j] * x[j] for j = 0..d-1. A box lies
  // above f when the same expression holds with the dot replaced by
  // the box bound  sum_j max(n_f[j] * lo[j], n_f[j] * hi[j])  summed in
  // the same order. IEEE * and + round monotonically, so the bound is
  // never below the dot of a point inside the box, and a facet the box
  // does not lie above cannot see any point in it. This one predicate
  // decides node pruning, pools and visibility. (Pruning on
  // `bound > offset + eps` instead rounds differently: a point whose dot
  // equals a rounded-up offset + eps is visible, yet a box whose top
  // corner is that point would be pruned.)

  // True when no point of `g_box`, a node's box mapped through the
  // scoring transform (ScoringFunction::TransformInto), can lie above
  // any live facet — the FP node-pruning test.
  bool BoxBelowAllFacets(const Mbb& g_box) const;

  // ----- per-leaf group testing -----
  //
  // A pool is the ascending list of live facets (positions in the
  // packed arrays, as facets() numbers them) that a g-mapped box lies
  // above. Pool invariant: every facet that can see a point of the box
  // is in the box's pool. Testing a leaf's records against its pool
  // only, and inserting only those that see a pool facet, therefore
  // makes exactly the inserts of the unpooled loop (a record that sees
  // no facet is a no-op: Insert returns false).

  // The pool of `g_box`, from scratch. Empty iff BoxBelowAllFacets.
  void CollectPool(const Mbb& g_box, std::vector<int>* pool) const;

  // Insert(p, external_id) with the visibility scan restricted to
  // `pool`, which must satisfy the pool invariant for a box holding p.
  // Same result, same star.
  Result<bool> InsertPooled(VecView p, int external_id,
                            const std::vector<int>& pool);

  // Brings a pool up to date directly after an Insert or InsertPooled
  // that returned true: renumbers it through that insert's compaction,
  // drops the facets it killed, and appends the new facets `g_box` lies
  // above. Returns how many were appended (they end the pool).
  size_t UpdatePool(const Mbb& g_box, std::vector<int>* pool) const;

  // mask[i] |= 1 when point i sees a facet of pool[0 .. pool_n), for
  // points given as SoA planes (coordinate j of point i at
  // planes[j * stride + i], i < n): simd::MarkAboveFacets over the
  // packed facets, bit-identical to Insert's test on every tier.
  void MarkVisible(const int* pool, size_t pool_n, const double* planes,
                   size_t stride, size_t n, uint8_t* mask) const;

  // mask[i] |= 1 when box i lies above a live facet (BoxAbove), for
  // g-mapped boxes given as SoA planes (coordinate j of box i spans
  // lo[j * stride + i] .. hi[j * stride + i], i < n): one
  // simd::MarkBoxesAboveFacets call, so an unmarked box is exactly one
  // BoxBelowAllFacets accepts.
  void MarkBoxesAbove(const double* lo, const double* hi, size_t stride,
                      size_t n, uint8_t* mask) const;

  // Valid until the next star-changing Insert.
  VecView apex() const { return VecView(coords_.data(), dim_); }

 private:
  // A horizon ridge: slot `slot` of visible facet `facet`, whose
  // neighbour `outer` stays; `outer_slot` is outer's slot back.
  struct HorizonRidge {
    int facet;
    int slot;
    int outer;
    int outer_slot;
  };

  Result<bool> InsertImpl(VecView p, int external_id,
                          const std::vector<int>* pool);
  // The predicate above, for live facet f and box [lo, hi].
  bool BoxAbove(size_t f, const double* lo, const double* hi) const;

  double eps_;
  size_t dim_;
  size_t facets_created_ = 0;
  std::vector<double> coords_;     // row-major: [0]=apex, [1..d]=dummies,
                                   // then every point that changed the star
  std::vector<int> external_ids_;  // -1 for apex and dummies
  Vec interior_;                   // strictly inside the growing hull

  // Live facets (see the class comment).
  std::vector<double> normals_;
  std::vector<double> offsets_;
  std::vector<int> vertices_;
  std::vector<int> neighbors_;

  // Per-insert scratch.
  std::vector<int> visible_;
  std::vector<char> is_visible_;
  std::vector<HorizonRidge> horizon_;
  std::vector<double> fresh_normals_;
  std::vector<double> fresh_offsets_;
  std::vector<int> fresh_vertices_;
  std::vector<int> fresh_neighbors_;
  std::vector<int> ridge_keys_;
  std::vector<int> ridge_order_;
  std::vector<int> remap_;
  std::vector<const double*> fit_vertices_;
  HyperplaneFitScratch fit_scratch_;
};

struct FpOptions {
  // Paper §6.3.1 heuristic: feed the per-dimension maxima of T first so
  // early facets prune aggressively. Exposed for the ablation bench.
  bool max_coordinate_seeding = true;
  // Paper footnote 7: skip every record and node whose overtaking
  // constraint already holds on the whole Phase-1 cone (ConeFilter).
  // The region is the same set either way, with fewer constraints and
  // fewer Phase-2 reads. The region's final materialization grows the
  // cone's dual hull (DualHullIntersection::Extend) instead of building
  // a second one, so the filter costs no second intersection. A cone
  // whose hull only built joggled filters nothing. On by default. The
  // paper evaluated
  // FP without it, so the paper-figure benches pin it off.
  bool phase1_tightening = true;
  double eps = 1e-10;
};

// Footnote 7's filter. The Phase-1 cone is the Phase-1 region clipped
// to the unit cube; the final region lies inside it. A record p whose
// constraint (g_k - g(p))·v >= 0 holds at every cone vertex v holds on
// the whole cone, so it is redundant in the final intersection and FP
// skips p; a node whose g-box bound holds at every vertex is skipped
// with all its records.
//
// The vertices are packed once as planes: normal v, offset
// Dot(g_k, v). A point or box is kept when it lies above some plane by
// the facet kernels' test at eps = 0 (simd::MarkAboveFacets,
// simd::MarkBoxesAboveFacets, every tier bit-identical): dot - offset
// > 0, with the dot summed as Dot sums it and a box's bound as
// Mbb::MaxDot does. For finite doubles that is exactly offset < dot, so
// a kept point is one the scalar per-vertex test Dot(g_k, v) < Dot(g, v)
// keeps, and a kept box one with Mbb::MaxDot(v) > Dot(g_k, v) at some v.
// The vertices must be exact: FP builds no filter from a cone whose
// dual hull joggled. An empty filter (no cone) keeps everything.
class ConeFilter {
 public:
  ConeFilter() = default;
  ConeFilter(const std::vector<Vec>& vertices, VecView gk);

  bool empty() const { return offsets_.empty(); }

  // mask[i] &= point i lies above some plane; points are SoA planes
  // (coordinate j of point i at planes[j * stride + i], i < n).
  void KeepPoints(const double* planes, size_t stride, size_t n,
                  uint8_t* mask);
  // mask[i] &= box i lies above some plane; boxes are SoA planes
  // (coordinate j of box i spans lo[j * stride + i] .. hi[j * stride +
  // i]). Boxes already at 0 are not tested.
  void KeepBoxes(const double* lo, const double* hi, size_t stride, size_t n,
                 uint8_t* mask);

 private:
  size_t dim_ = 0;
  std::vector<double> normals_;  // the vertices, row-major
  std::vector<double> offsets_;  // Dot(g_k, v) per vertex
  std::vector<int> all_;         // 0 .. planes-1: the kernels' pool
  std::vector<uint8_t> above_;   // scratch
};

// Paper §6.3.1's seeding: for each dimension j in turn, the position of
// the record with the largest coordinate j (raw data space) not picked
// for an earlier dimension, the lowest position on ties. Offer the rows
// in position order, then read Seeds(); at most d positions.
class MaxCoordinateSeeder {
 public:
  explicit MaxCoordinateSeeder(size_t dim);
  void Offer(VecView row, size_t pos);
  std::vector<size_t> Seeds() const;

 private:
  struct Best {
    double value;
    size_t pos;
  };
  size_t dim_;
  // Each dimension keeps its d best positions: value descending, then
  // position ascending, values above -1e300.
  std::vector<Best> best_;
  std::vector<size_t> held_;
};

// Facet Pruning for d > 2 (also correct for d == 2; the engine uses the
// specialised angular variant there). Consumes the encountered set T
// and the retained BRS heap; emits one half-space per critical record.
Result<Phase2Output> RunFpNdPhase2(const FlatRTree& tree,
                                   const ScoringFunction& scoring,
                                   VecView weights, const TopKResult& topk,
                                   GirRegion* region,
                                   const FpOptions& options = {});

}  // namespace gir

#endif  // GIR_GIR_FPND_H_
