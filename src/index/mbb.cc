#include "index/mbb.h"

#include <algorithm>
#include <cassert>

namespace gir {

Mbb Mbb::EmptyBox(size_t dim) {
  Mbb box;
  box.lo.assign(dim, 1e300);
  box.hi.assign(dim, -1e300);
  return box;
}

Mbb Mbb::OfPoint(VecView p) {
  Mbb box;
  box.lo.assign(p.begin(), p.end());
  box.hi.assign(p.begin(), p.end());
  return box;
}

void Mbb::ExpandTo(VecView p) {
  assert(p.size() == dim());
  for (size_t j = 0; j < dim(); ++j) {
    lo[j] = std::min(lo[j], p[j]);
    hi[j] = std::max(hi[j], p[j]);
  }
}

void Mbb::ExpandTo(const Mbb& other) {
  for (size_t j = 0; j < dim(); ++j) {
    lo[j] = std::min(lo[j], other.lo[j]);
    hi[j] = std::max(hi[j], other.hi[j]);
  }
}

bool Mbb::ContainsPoint(VecView p) const {
  for (size_t j = 0; j < dim(); ++j) {
    if (p[j] < lo[j] || p[j] > hi[j]) return false;
  }
  return true;
}

double Mbb::MaxDot(VecView w) const {
  double s = 0.0;
  for (size_t j = 0; j < dim(); ++j) {
    s += std::max(w[j] * lo[j], w[j] * hi[j]);
  }
  return s;
}

}  // namespace gir
