#ifndef GIR_INDEX_MBB_H_
#define GIR_INDEX_MBB_H_

#include <vector>

#include "geom/vec.h"

namespace gir {

// Minimum bounding box in [0,1]^d: a query-side box (a pending node, a
// range query, a scoring transform). The trees themselves keep boxes
// in their page planes (NodePages).
struct Mbb {
  Vec lo;
  Vec hi;

  static Mbb EmptyBox(size_t dim);
  static Mbb OfPoint(VecView p);

  size_t dim() const { return lo.size(); }

  void ExpandTo(VecView p);
  void ExpandTo(const Mbb& other);

  bool ContainsPoint(VecView p) const;

  // The corner with all-max coordinates; BBS prunes nodes whose top
  // corner is dominated.
  const Vec& TopCorner() const { return hi; }

  // max over x in box of sum_j w_j * x_j. For non-negative weights this
  // is w·hi; general weights pick per-dimension. This is the BRS
  // `maxscore` for linear scoring.
  double MaxDot(VecView w) const;
};

}  // namespace gir

#endif  // GIR_INDEX_MBB_H_
