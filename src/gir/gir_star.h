#ifndef GIR_GIR_GIR_STAR_H_
#define GIR_GIR_GIR_STAR_H_

#include <vector>

#include "common/result.h"
#include "gir/fpnd.h"
#include "gir/sp.h"

namespace gir {

// Result-record pruning for the order-insensitive GIR (paper §7.1):
// keeps only the records R- of R that (i) lie on the convex hull of the
// transformed result and (ii) do not dominate another result record.
// Only these can contribute facets to GIR*.
std::vector<RecordId> PruneResultForGirStar(const Dataset& data,
                                            const ScoringFunction& scoring,
                                            const std::vector<RecordId>& r);

// Phase-2 for GIR* = the maximal locus preserving the *composition* of
// R (order ignored): the conjunction over p_i in R- of the conditions
// S(p_i, q') >= S(p, q') for all non-result p. No Phase-1 constraints.
//
// `method` selects the machinery: "SP"/"CP" derive SL once and emit
// |R-| * |candidates| half-spaces; "FP" maintains one incident star per
// record of R- concurrently, pruning a node only when it is below every
// facet of every star.
Result<Phase2Output> RunGirStarPhase2(const FlatRTree& tree,
                                      const ScoringFunction& scoring,
                                      VecView weights, const TopKResult& topk,
                                      const std::string& method,
                                      GirRegion* region,
                                      const FpOptions& fp_options = {});

}  // namespace gir

#endif  // GIR_GIR_GIR_STAR_H_
