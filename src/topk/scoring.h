#ifndef GIR_TOPK_SCORING_H_
#define GIR_TOPK_SCORING_H_

#include <memory>
#include <string>
#include <vector>

#include "geom/vec.h"
#include "index/mbb.h"

namespace gir {

// Scoring functions of the paper's Section 7.2 family:
//     S(p, q) = sum_i w_i * g_i(p_i)
// with every g_i monotone increasing on [0,1]. Linear scoring is the
// identity transform. The per-dimension transform is what makes GIR
// computation reduce to half-space intersection even for non-linear
// members of the family: the constraint S(p,q') >= S(p',q') becomes
// (g(p) - g(p'))·q' >= 0, linear in q'.
class ScoringFunction {
 public:
  virtual ~ScoringFunction() = default;

  virtual std::string name() const = 0;
  virtual size_t dim() const = 0;

  // g_i(x): monotone increasing per-dimension transform.
  virtual double TransformDim(size_t i, double x) const = 0;

  // g_i over a contiguous batch (an SoA plane): out[e] = g_i(x[e]).
  // Overridden by the concrete scorings with branch-light loops; the
  // default falls back to per-element TransformDim calls.
  virtual void TransformDimBatch(size_t i, const double* x, size_t n,
                                 double* out) const;

  // True when every g_i is the identity, letting batched kernels skip
  // the transform pass entirely (LinearScoring).
  virtual bool IsIdentityTransform() const { return false; }

  // g(p) as a vector: the coordinates used for all GIR half-spaces.
  Vec Transform(VecView p) const;

  // Allocation-free variant: resizes `out` to p.size() (no-op at steady
  // state) and fills it with g(p). The invalidation loop transforms one
  // k-th record per cached entry; reusing the destination keeps that
  // loop heap-quiet.
  void TransformInto(VecView p, Vec* out) const;

  // g(box) = [g(lo), g(hi)], which bounds the image of the box since
  // every g_i is monotone increasing; reuses `out`'s buffers.
  void TransformInto(const Mbb& box, Mbb* out) const;

  // S(p, q) for non-negative weights q.
  double Score(VecView p, VecView weights) const;

  // Upper bound of S(·, q) over a bounding box: since every g_i is
  // monotone increasing and weights are non-negative, the top corner
  // maximizes the score (the BRS maxscore).
  double MaxScore(const Mbb& box, VecView weights) const;
};

// S(p,q) = sum w_i p_i (the paper's default).
class LinearScoring : public ScoringFunction {
 public:
  explicit LinearScoring(size_t dim) : dim_(dim) {}
  std::string name() const override { return "Linear"; }
  size_t dim() const override { return dim_; }
  double TransformDim(size_t, double x) const override { return x; }
  void TransformDimBatch(size_t, const double* x, size_t n,
                         double* out) const override {
    for (size_t e = 0; e < n; ++e) out[e] = x[e];
  }
  bool IsIdentityTransform() const override { return true; }

 private:
  size_t dim_;
};

// "Polynomial" of Figure 19: S = w1 x1^4 + w2 x2^3 + w3 x3^2 + w4 x4.
// Generalized to any d: exponent d-i for dimension i (min 1). The
// power is evaluated by left-to-right repeated multiplication (not
// std::pow) so the scalar and SIMD batch paths agree bit for bit.
class PolynomialScoring : public ScoringFunction {
 public:
  explicit PolynomialScoring(size_t dim);
  std::string name() const override { return "Polynomial"; }
  size_t dim() const override { return dim_; }
  double TransformDim(size_t i, double x) const override;
  void TransformDimBatch(size_t i, const double* x, size_t n,
                         double* out) const override;

 private:
  size_t dim_;
  std::vector<int> exponents_;
};

// "Mixed" of Figure 19: S = w1 x1^2 + w2 e^x2 + w3 log(x3) + w4 sqrt(x4).
// log is offset as log(x + eps) to stay finite at 0; all terms are
// monotone increasing on [0,1]. Dimensions beyond the fourth cycle
// through the same four shapes.
class MixedScoring : public ScoringFunction {
 public:
  explicit MixedScoring(size_t dim) : dim_(dim) {}
  std::string name() const override { return "Mixed"; }
  size_t dim() const override { return dim_; }
  double TransformDim(size_t i, double x) const override;
  void TransformDimBatch(size_t i, const double* x, size_t n,
                         double* out) const override;

 private:
  size_t dim_;
};

// Factory: "Linear", "Polynomial", "Mixed".
std::unique_ptr<ScoringFunction> MakeScoring(const std::string& name,
                                             size_t dim);

}  // namespace gir

#endif  // GIR_TOPK_SCORING_H_
