#ifndef GIR_SKYLINE_BBS_H_
#define GIR_SKYLINE_BBS_H_

#include <vector>

#include "common/result.h"
#include "index/flat_rtree.h"
#include "skyline/skyline.h"
#include "topk/brs.h"

namespace gir {

// Output of the BBS continuation: SL = skyline of D \ R.
struct SkylineResult {
  std::vector<RecordId> skyline;
  IoStats io;
};

// BBS (Papadias et al., TODS 2005) adapted per paper §5.1: instead of
// starting fresh with nearest-neighbour order to the top corner, it
// (1) seeds SL with the in-memory skyline of the BRS-encountered set T,
// then (2) resumes from the retained BRS search heap, retrieving
// entries in decreasing maxscore order (any monotone preference works
// for BBS correctness). Nodes whose MBB top corner is dominated by an
// SL member are pruned without a page read; retrieved records are
// inserted with full dominance maintenance.
//
// `brs` is the completed top-k run whose heap and encountered set are
// consumed (taken by value semantics: pass a copy if it is reused).
SkylineResult ContinueSkylineFromBrs(const FlatRTree& tree,
                                     const ScoringFunction& scoring,
                                     VecView weights,
                                     const TopKResult& brs);

}  // namespace gir

#endif  // GIR_SKYLINE_BBS_H_
