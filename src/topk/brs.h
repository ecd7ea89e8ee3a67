#ifndef GIR_TOPK_BRS_H_
#define GIR_TOPK_BRS_H_

#include <vector>

#include "common/result.h"
#include "index/flat_rtree.h"
#include "storage/io_stats.h"
#include "topk/scoring.h"
#include "topk/tree_kernels.h"

namespace gir {

// An R-tree node left unexplored by BRS, keyed by its maxscore. The
// GIR Phase-2 algorithms resume the search from these. Plain data: the
// node's box is not stored but read from its entry in the parent's SoA
// planes (PendingNodeBox).
struct PendingNode {
  double maxscore = 0.0;
  PageId page = kInvalidPage;
  PageId parent = kInvalidPage;  // page holding the entry; invalid: root
  uint32_t slot = 0;             // entry index within `parent`
};

struct PendingNodeLess {
  bool operator()(const PendingNode& a, const PendingNode& b) const {
    return a.maxscore < b.maxscore;  // max-heap
  }
};

// The box of a pending node, resolved from its parent's planes (the
// root's own box when it has no parent): bitwise the entry's Mbb.
inline void PendingNodeBox(const FlatRTree& tree, const PendingNode& pn,
                           Mbb* out) {
  if (pn.parent == kInvalidPage) {
    tree.PeekNode(pn.page).MbbInto(out);
  } else {
    tree.PeekNode(pn.parent).EntryMbbInto(pn.slot, out);
  }
}

// Output of BRS: the ordered top-k plus everything Phase 2 needs — the
// set T of non-result records already fetched from disk, and the search
// heap of unexplored nodes (paper Section 3.3).
struct TopKResult {
  std::vector<RecordId> result;  // decreasing score order
  std::vector<double> scores;    // aligned with `result`
  // T: the fetched non-result records in heap-pop order (descending
  // score, lower id first on ties), strongest challengers first. On
  // data in general position FP's region does not depend on this
  // order; with tied or coplanar records it is the same set, but its
  // constraint list and provenance can follow the order.
  std::vector<RecordId> encountered;
  // The unexplored nodes: sorted in descending (maxscore, lower page
  // first) order, then heapified by PendingNodeLess (which leaves
  // distinct keys sorted).
  std::vector<PendingNode> pending;
  IoStats io;  // page reads charged by this run
};

// Branch-and-bound Ranked Search (Tao et al., Inf. Syst. 2007): an
// I/O-optimal top-k over an R-tree for monotone scoring functions,
// popping node entries (keyed by maxscore) and records (keyed by score)
// in one strict total order: higher key first, a record before a node
// on equal keys, then lower id first. Popped records are final results.
//
// Only candidates are kept in the frontier. A record or node that
// already has k - |result| candidate records above it in that order can
// never be popped (they all pop first, and then the search stops), so
// it goes straight to T or `pending`. Records and nodes leave a
// frontier in exactly the order popping the full heap would, so the
// result, scores, T, `pending` and the reads match the textbook
// full-heap search bit for bit.
//
// A width-1 RunBrsMulti over a thread-local arena. Returns
// InvalidArgument for k == 0 or weight dimensionality mismatch. When
// the dataset has fewer than k records, returns them all.
Result<TopKResult> RunBrs(const FlatRTree& tree,
                          const ScoringFunction& scoring, VecView weights,
                          size_t k);

// ----- shared-traversal multi-query executor -----

// One query of a shared-traversal group. The weight storage must stay
// alive across the RunBrsMulti call.
struct BrsMultiQuery {
  VecView weights;
  size_t k = 0;
};

// Group-level accounting of one RunBrsMulti call. Per-query TopKResult
// io carries the *charged* reads (what a solo run would have paid);
// these fields carry what the group actually did.
struct BrsMultiStats {
  uint64_t unique_reads = 0;   // physical page reads performed (and
                               // charged to the DiskManager) — first
                               // touch of each page per group
  uint64_t charged_reads = 0;  // sum of the per-query logical charges
  uint64_t rounds = 0;         // lockstep expansion rounds
  uint64_t node_expansions = 0;  // (query, node) pairs expanded
  uint64_t read_faults = 0;    // page fetches failed by the fault plan
};

// Pooled scratch of the shared-traversal executor, recycled across
// groups with the same discipline as LpWorkspace: buffers only ever
// grow, so once warmed on a workload shape the executor performs zero
// steady-state heap allocations (asserted by batch_shared_test with a
// global operator-new counter). All members are internal to
// RunBrsMulti; callers just keep the object alive between calls.
struct BrsFrontierArena {
  // One query's frontier, plain data only, so the pooled buffers never
  // allocate per push. Records that can still be popped sit in
  // `candidates`; nodes that can still be expanded in `nodes`. Entries
  // that can no longer be popped go straight to `dead_records` (T) and
  // `dead_nodes` (pending), sorted once when the query finishes.
  struct Record {
    double score;
    RecordId id;
  };
  struct QuerySlot {
    std::vector<Record> candidates;  // ascending pop order; top at back
    std::vector<PendingNode> nodes;  // binary max-heap in pop order
    std::vector<Record> dead_records;
    std::vector<PendingNode> dead_nodes;
  };
  struct Demand {
    PageId page = kInvalidPage;
    uint32_t query = 0;
  };
  std::vector<QuerySlot> queries;   // grown to the widest group seen
  std::vector<uint32_t> visit_stamp;  // per page: serial of last visit
  uint32_t serial = 0;
  std::vector<Demand> demands;      // one round's (page, query) pairs
  std::vector<VecView> weight_rows;  // gathered weights of one page run
  std::vector<uint32_t> run_queries;  // query index per weight row
  std::vector<uint32_t> charged;    // per query: node expansions so far
  std::vector<uint8_t> active;
  Mbb root_box;  // the tree root's own box, refilled per group
  MultiScoreBuffer scores;
  // Batch-engine group scratch, pooled with the rest of the arena: the
  // per-group query list and the RunBrsMulti output slots (their inner
  // buffers are moved into the per-query results downstream, so the
  // recycled part is the outer vectors plus whatever capacity the
  // moves leave behind).
  std::vector<BrsMultiQuery> group;
  std::vector<TopKResult> results;
  std::vector<Status> statuses;  // per-query fault sink of one group
  // Buffer growths since construction; 0 across a steady-state stretch.
  size_t grow_events = 0;
};

// Shared-traversal BRS over one frozen tree: runs every query's
// branch-and-bound search in lockstep rounds — each round expands
// exactly one node per still-active query, after popping the candidate
// records above it — so each query's pop sequence, termination point
// and pending/encountered sets are exactly those of a query run alone
// (RunBrs is the width-1 case). The sharing is across queries: all
// queries demanding the same page in a round score its SoA planes in
// one ComputeEntryScoresMulti call, and a page already fetched for any
// group member earlier is re-served from memory without touching the
// DiskManager. Each query's io is *charged* as if it ran alone
// (io.reads == its node expansions), while `stats` reports the
// amortized physical reads actually performed.
//
// (*out)[i] receives query i's TopKResult; `out` is resized up (never
// shrunk), and a retained `out` re-fills its vectors in place, so a
// caller that keeps arena + out across calls reaches the zero-alloc
// steady state. Returns InvalidArgument (before any work) when any
// query has k == 0 or mismatched weight dimensionality.
//
// Fault containment: page fetches go through DiskManager::ReadPage, so
// an attached fault plan can fail them. With `statuses` supplied
// (resized to one Status per query, Ok by default), a failed fetch
// degrades exactly the queries demanding that page — their statuses
// carry the fault, their results are emptied — while every other group
// member completes untouched, bit-identical to a run without the
// faulted queries. With statuses == nullptr a fault fails the whole
// call (the pre-fault all-or-nothing contract).
Status RunBrsMulti(const FlatRTree& tree, const ScoringFunction& scoring,
                   const std::vector<BrsMultiQuery>& queries,
                   BrsFrontierArena* arena, std::vector<TopKResult>* out,
                   BrsMultiStats* stats = nullptr,
                   std::vector<Status>* statuses = nullptr);

}  // namespace gir

#endif  // GIR_TOPK_BRS_H_
