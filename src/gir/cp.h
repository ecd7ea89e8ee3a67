#ifndef GIR_GIR_CP_H_
#define GIR_GIR_CP_H_

#include "gir/sp.h"

namespace gir {

// Convex-hull Pruning (paper §5.2): compute SL like SP, then keep only
// the records on the convex hull of SL (in the transformed data space);
// interior records can never overtake p_k first. The hull computation
// uses the library's d-dimensional quickhull (Clarkson-style), which is
// exactly the cost the paper charges CP for.
Phase2Output RunCpPhase2(const FlatRTree& tree, const ScoringFunction& scoring,
                         VecView weights, const TopKResult& topk,
                         GirRegion* region);

}  // namespace gir

#endif  // GIR_GIR_CP_H_
