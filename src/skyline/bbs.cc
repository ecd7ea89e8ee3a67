#include "skyline/bbs.h"

#include <algorithm>

#include "skyline/dominance.h"

namespace gir {

SkylineResult ContinueSkylineFromBrs(const FlatRTree& tree,
                                     const ScoringFunction& scoring,
                                     VecView weights, const TopKResult& brs) {
  const Dataset& data = tree.dataset();
  IoStats before = DiskManager::ThreadStats();
  SkylineSet sl(&data);
  // Seed with the skyline of the encountered set T (all in memory).
  // T arrives in decreasing score order, which inserts likely-dominating
  // records first and keeps eviction work low.
  for (RecordId id : brs.encountered) sl.Insert(id);

  // Resume from the retained BRS heap.
  std::vector<PendingNode> heap = brs.pending;
  PendingNodeLess less;
  std::make_heap(heap.begin(), heap.end(), less);
  Mbb box;
  Vec corner;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), less);
    const PendingNode top = heap.back();
    heap.pop_back();
    // BBS pruning: a node whose top corner is dominated can contain no
    // skyline record.
    PendingNodeBox(tree, top, &box);
    if (sl.DominatedByMember(box.TopCorner())) continue;
    FlatRTree::NodeView node = tree.ReadNode(top.page);
    const size_t count = node.count();
    if (node.is_leaf()) {
      for (size_t i = 0; i < count; ++i) {
        sl.Insert(node.child(i));
      }
    } else {
      // Dominance-prune before scoring: late in the run most entries
      // are dominated, so batching scores for all of them first would
      // be wasted work (the dominance scan itself dwarfs one d-term
      // score for the few survivors).
      for (size_t i = 0; i < count; ++i) {
        node.EntryTopCorner(i, &corner);
        if (sl.DominatedByMember(corner)) continue;
        // MaxScore reads only the top corner: the same sum, bitwise.
        const double maxscore = scoring.Score(corner, weights);
        const PageId child = static_cast<PageId>(node.child(i));
        const uint32_t slot = static_cast<uint32_t>(i);
        heap.push_back(PendingNode{maxscore, child, top.page, slot});
        std::push_heap(heap.begin(), heap.end(), less);
      }
    }
  }
  SkylineResult out;
  out.skyline = sl.members();
  std::sort(out.skyline.begin(), out.skyline.end());
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

}  // namespace gir
