#ifndef GIR_COMMON_SIMD_H_
#define GIR_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace gir {
namespace simd {

// Runtime-dispatched SIMD kernels for the SoA hot loops (entry scoring,
// dimension transforms, dominance scans, plane sweeps). Two tiers: an
// AVX2 body and the scalar reference. Whether the CPU has AVX2 is
// detected once at startup, so the vector paths run in *default*
// Release builds — no -march=native required — while the same binary
// runs the scalar reference on every CPU without AVX2.
//
// Bit-identity contract: every kernel is element-wise (each output lane
// depends on exactly one input lane) and uses only operations that are
// identical across tiers — IEEE +, *, max, correctly-rounded sqrt, and
// exact comparisons. Vectorizing across lanes therefore reproduces the
// scalar loop bit for bit, which is what lets the PR 2 flat-vs-mutable
// equivalence property tests extend unchanged across dispatch tiers
// (tests force each tier via ForceTier and assert bitwise equality).
//
// Dispatch override: the GIR_SIMD environment variable ("scalar",
// "avx2", "auto"; read once at startup) or ForceTier() pin the tier,
// clamped to what the CPU supports. Any other GIR_SIMD value prints
// the accepted ones and exits the process with status 2 at startup.

enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
};

// kAvx2 when the running CPU supports AVX2, else kScalar (constant per
// process).
Tier DetectedTier();

// Tier the kernels currently dispatch to: DetectedTier() clamped by the
// GIR_SIMD environment variable and any ForceTier() override.
Tier ActiveTier();

// Pins dispatch to `t` (clamped to DetectedTier(); requesting AVX2 on
// a machine without it yields scalar). Returns the tier actually in
// effect. Intended for the bit-identity tests and tier-vs-tier
// microbenchmarks; thread-safe but not meant to race hot loops.
Tier ForceTier(Tier t);

// "scalar" / "avx2".
const char* TierName(Tier t);

// ----- element-wise kernels (bit-identical across tiers) -----

// acc[i] += w * x[i]. The fused accumulation step of every batched
// score kernel: one call per dimension plane preserves the scalar
// reference's per-dimension accumulation order.
void Axpy(double w, const double* x, double* acc, size_t n);

// out[i] = x[i] * x[i].
void Square(const double* x, double* out, size_t n);

// out[i] = sqrt(x[i]) (IEEE correctly rounded — identical to
// std::sqrt on every tier).
void Sqrt(const double* x, double* out, size_t n);

// out[i] = x[i]^e by left-to-right repeated multiplication
// (r = x; r *= x, e-1 times). The scalar reference for the Polynomial
// scoring transform uses the same iteration, so all tiers agree
// bitwise. Requires e >= 1.
void PowIter(const double* x, int e, double* out, size_t n);

// Multi-weight maxscore plane: for every row r < m,
//     acc[r * stride + i] += w[r] * hi[i],   i < n.
// One dimension plane of the shared-traversal batch scorer: under the
// monotone-transform, non-negative-weight scoring contract the hi plane
// alone carries a box's maximum (Mbb::MaxDot's max(w*lo, w*hi)
// collapses to w*hi), so the multi-weight kernel streams just that plane against a
// whole query group's weights. The plane is loaded once per row pair
// instead of once per query, which is where the cross-query win comes
// from. Each output row is bit-identical to Axpy(w[r], hi, row, n).
void MaxDotPlaneMulti(const double* w, size_t m, const double* hi,
                      double* acc, size_t stride, size_t n);

// mask[i] &= (hi[i] >= qlo) & (lo[i] <= qhi): one dimension plane of
// the SoA interval-overlap sweep (NodePages::RangeQuery). mask bytes
// are 0 or 1.
void IntervalOverlapMask(const double* lo, const double* hi, double qlo,
                         double qhi, uint8_t* mask, size_t n);

// ----- facet visibility (FP's per-leaf group test) -----

// Marks the points that lie above any facet of a pool. Points are SoA:
// coordinate j of point i is planes[j * stride + i], i < n. Facet f has
// normal normals[f * dim .. f * dim + dim) and offset offsets[f]; the
// pool lists the facets to test, pool[0 .. pool_n). For each pool facet
// and each point, every lane evaluates
//     dot = 0;  dot += normal[j] * x_j,  j = 0 .. dim-1
//     above = (dot - offset) > eps
// with a separate multiply and add (no FMA), which is exactly
// IncidentStar::Insert's per-point visibility test, so every tier
// returns the same verdicts. mask[i] |= above: a byte already 1 stays 1.
void MarkAboveFacets(const double* normals, const double* offsets,
                     const int* pool, size_t pool_n, size_t dim, double eps,
                     const double* planes, size_t stride, uint8_t* mask,
                     size_t n);

// Marks the boxes that lie above any of `facet_n` facets (FP's node
// test). Boxes are SoA: coordinate j of box i spans lo[j * stride + i]
// .. hi[j * stride + i], i < n; facets are laid out as for
// MarkAboveFacets. For each box and facet, every lane evaluates
//     bound = 0;  bound += max(normal[j] * lo_j, normal[j] * hi_j)
//     above = (bound - offset) > eps
// over j = 0 .. dim-1, with a separate multiply and add, which is
// exactly IncidentStar's box predicate (BoxAbove), so every tier
// returns the same verdicts. mask[i] |= above; a box already marked is
// not tested again, and testing a box stops at its first facet above.
void MarkBoxesAboveFacets(const double* normals, const double* offsets,
                          size_t facet_n, size_t dim, double eps,
                          const double* lo, const double* hi, size_t stride,
                          uint8_t* mask, size_t n);

// ----- dominance kernels (exact comparisons; identical verdicts) -----

// True when p dominates q ("larger is better": p >= q in every
// dimension, p > q in at least one). Same predicate as
// skyline/dominance.h's Dominates(), vectorized across dimensions.
bool DominatesRow(const double* p, const double* q, size_t dim);

// Index of the first row of `rows` (row-major, `dim` doubles per row)
// that dominates `p`, or `count` when none does. First-match semantics
// preserved on every tier.
size_t FindDominatorInRows(const double* rows, size_t count, const double* p,
                           size_t dim);

}  // namespace simd
}  // namespace gir

#endif  // GIR_COMMON_SIMD_H_
