#include "topk/scoring.h"

#include <cassert>
#include <cmath>

#include "common/simd.h"

namespace gir {

Vec ScoringFunction::Transform(VecView p) const {
  Vec g(p.size());
  for (size_t i = 0; i < p.size(); ++i) g[i] = TransformDim(i, p[i]);
  return g;
}

void ScoringFunction::TransformInto(VecView p, Vec* out) const {
  out->resize(p.size());
  for (size_t i = 0; i < p.size(); ++i) (*out)[i] = TransformDim(i, p[i]);
}

void ScoringFunction::TransformInto(const Mbb& box, Mbb* out) const {
  TransformInto(box.lo, &out->lo);
  TransformInto(box.hi, &out->hi);
}

double ScoringFunction::Score(VecView p, VecView weights) const {
  assert(p.size() == weights.size());
  double s = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    s += weights[i] * TransformDim(i, p[i]);
  }
  return s;
}

void ScoringFunction::TransformDimBatch(size_t i, const double* x, size_t n,
                                        double* out) const {
  for (size_t e = 0; e < n; ++e) out[e] = TransformDim(i, x[e]);
}

double ScoringFunction::MaxScore(const Mbb& box, VecView weights) const {
  double s = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    // Monotone g_i and w_i >= 0: the top corner dominates.
    s += weights[i] * TransformDim(i, box.hi[i]);
  }
  return s;
}

PolynomialScoring::PolynomialScoring(size_t dim) : dim_(dim) {
  exponents_.resize(dim);
  for (size_t i = 0; i < dim; ++i) {
    exponents_[i] =
        static_cast<int>(dim - i >= 1 ? dim - i : 1);  // d, d-1, ..., 1
  }
}

double PolynomialScoring::TransformDim(size_t i, double x) const {
  // Same multiplication chain as simd::PowIter, so per-element and
  // batched evaluation are bitwise equal.
  double r = x;
  for (int t = 1; t < exponents_[i]; ++t) r *= x;
  return r;
}

void PolynomialScoring::TransformDimBatch(size_t i, const double* x, size_t n,
                                          double* out) const {
  simd::PowIter(x, exponents_[i], out, n);
}

double MixedScoring::TransformDim(size_t i, double x) const {
  switch (i % 4) {
    case 0:
      return x * x;
    case 1:
      return std::exp(x);
    case 2:
      return std::log(x + 1e-3);
    default:
      return std::sqrt(x);
  }
}

void MixedScoring::TransformDimBatch(size_t i, const double* x, size_t n,
                                     double* out) const {
  switch (i % 4) {
    case 0:
      simd::Square(x, out, n);
      break;
    case 1:
      // exp/log are not correctly rounded by libm, so there is no
      // vector evaluation that matches the scalar reference bit for
      // bit; these planes stay scalar on every tier.
      for (size_t e = 0; e < n; ++e) out[e] = std::exp(x[e]);
      break;
    case 2:
      for (size_t e = 0; e < n; ++e) out[e] = std::log(x[e] + 1e-3);
      break;
    default:
      simd::Sqrt(x, out, n);
      break;
  }
}

std::unique_ptr<ScoringFunction> MakeScoring(const std::string& name,
                                             size_t dim) {
  if (name == "Polynomial") return std::make_unique<PolynomialScoring>(dim);
  if (name == "Mixed") return std::make_unique<MixedScoring>(dim);
  return std::make_unique<LinearScoring>(dim);
}

}  // namespace gir
