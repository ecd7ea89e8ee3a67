#include "topk/brs.h"

#include <algorithm>

#include "topk/tree_kernels.h"

namespace gir {

namespace {

using Record = BrsFrontierArena::Record;
using QuerySlot = BrsFrontierArena::QuerySlot;

// BRS's pop order within each kind, as "a pops after b": higher key
// first, then lower id. Across kinds, see RecordPopsBeforeNode.
struct RecordLess {
  bool operator()(const Record& a, const Record& b) const {
    if (a.score != b.score) return a.score < b.score;
    return a.id > b.id;
  }
};

struct NodeLess {
  bool operator()(const PendingNode& a, const PendingNode& b) const {
    if (a.maxscore != b.maxscore) return a.maxscore < b.maxscore;
    return a.page > b.page;
  }
};

bool RecordPopsBeforeNode(const Record& r, const PendingNode& n) {
  return r.score >= n.maxscore;  // records win ties
}

// Grows v to at least n elements, counting the growth for the arena's
// steady-state accounting. Never shrinks: surplus capacity is the whole
// point of the pool.
template <typename V>
void EnsureSize(V* v, size_t n, size_t* grow_events) {
  if (v->size() < n) {
    *grow_events += 1;
    v->resize(n);
  }
}

// `room` is k minus the records already popped. With `room` candidates
// in the frontier, an entry behind all of them can never be popped.
bool Full(const QuerySlot& qs, size_t room) {
  return qs.candidates.size() == room;
}

void AddRecord(QuerySlot* qs, size_t room, const Record& r) {
  std::vector<Record>& c = qs->candidates;
  if (!Full(*qs, room)) {
    c.insert(std::upper_bound(c.begin(), c.end(), r, RecordLess()), r);
    return;
  }
  if (RecordLess()(r, c.front())) {
    qs->dead_records.push_back(r);
    return;
  }
  // r displaces the last candidate: shift the ones below r's place down.
  qs->dead_records.push_back(c.front());
  auto pos = std::upper_bound(c.begin() + 1, c.end(), r, RecordLess());
  std::move(c.begin() + 1, pos, c.begin());
  *(pos - 1) = r;
}

void AddNode(QuerySlot* qs, size_t room, const PendingNode& n) {
  if (Full(*qs, room) && RecordPopsBeforeNode(qs->candidates.front(), n)) {
    qs->dead_nodes.push_back(n);
    return;
  }
  qs->nodes.push_back(n);
  std::push_heap(qs->nodes.begin(), qs->nodes.end(), NodeLess());
}

// Pops the candidates that sit above the next node (all of them when no
// node is left) into the result, up to k.
void PopRecords(QuerySlot* qs, size_t k, TopKResult* o) {
  std::vector<Record>& c = qs->candidates;
  while (o->result.size() < k && !c.empty() &&
         (qs->nodes.empty() ||
          RecordPopsBeforeNode(c.back(), qs->nodes.front()))) {
    o->result.push_back(c.back().id);
    o->scores.push_back(c.back().score);
    c.pop_back();
  }
}

// Emits query slot `qs` after its search finished: the nodes left in
// the frontier and the dead ones become `pending`, the dead records T,
// each sorted in the order popping a full heap would emit it. No
// candidate is left: the search stops at k results, or with no node
// left after popping every candidate. Refills a retained TopKResult in
// place.
void FinalizeQuery(QuerySlot* qs, uint32_t charged, TopKResult* out) {
  auto descending = [](const auto& less) {
    return [less](const auto& a, const auto& b) { return less(b, a); };
  };
  out->pending.assign(qs->nodes.begin(), qs->nodes.end());
  out->pending.insert(out->pending.end(), qs->dead_nodes.begin(),
                      qs->dead_nodes.end());
  std::sort(out->pending.begin(), out->pending.end(), descending(NodeLess()));
  // Sorted descending is already a valid heap order, but make_heap can
  // permute equal keys: heapify anyway, so every consumer that
  // re-heapifies `pending` sees the same layout.
  std::make_heap(out->pending.begin(), out->pending.end(),
                 PendingNodeLess());
  std::sort(qs->dead_records.begin(), qs->dead_records.end(),
            descending(RecordLess()));
  out->encountered.clear();
  for (const Record& r : qs->dead_records) out->encountered.push_back(r.id);
  qs->nodes.clear();
  qs->dead_nodes.clear();
  qs->dead_records.clear();
  out->io = IoStats{};
  out->io.reads = charged;
}

}  // namespace

Result<TopKResult> RunBrs(const FlatRTree& tree,
                          const ScoringFunction& scoring, VecView weights,
                          size_t k) {
  thread_local BrsFrontierArena arena;
  arena.group.assign(1, BrsMultiQuery{weights, k});
  IoStats before = DiskManager::ThreadStats();
  Status st = RunBrsMulti(tree, scoring, arena.group, &arena, &arena.results);
  if (!st.ok()) return st;
  TopKResult out = std::move(arena.results[0]);
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

Status RunBrsMulti(const FlatRTree& tree, const ScoringFunction& scoring,
                   const std::vector<BrsMultiQuery>& queries,
                   BrsFrontierArena* arena, std::vector<TopKResult>* out,
                   BrsMultiStats* stats, std::vector<Status>* statuses) {
  const size_t m = queries.size();
  const size_t dim = tree.dataset().dim();
  for (const BrsMultiQuery& q : queries) {
    if (q.k == 0) return Status::InvalidArgument("k must be positive");
    if (q.weights.size() != dim) {
      return Status::InvalidArgument("weight dimensionality mismatch");
    }
  }
  BrsMultiStats local;
  if (stats == nullptr) stats = &local;
  *stats = BrsMultiStats{};
  if (statuses != nullptr) statuses->assign(m, Status::Ok());
  if (out->size() < m) out->resize(m);
  if (m == 0) return Status::Ok();

  // Arena prep: per-query slots, the page visit stamps for this group
  // (serial bump instead of a clear), round scratch.
  EnsureSize(&arena->queries, m, &arena->grow_events);
  EnsureSize(&arena->charged, m, &arena->grow_events);
  EnsureSize(&arena->active, m, &arena->grow_events);
  if (arena->visit_stamp.size() != tree.node_count()) {
    arena->visit_stamp.assign(tree.node_count(), 0);
    arena->serial = 0;
    ++arena->grow_events;
  }
  if (++arena->serial == 0) {  // wrapped: all stamps are stale anyway
    std::fill(arena->visit_stamp.begin(), arena->visit_stamp.end(), 0u);
    arena->serial = 1;
  }

  if (tree.root() != kInvalidPage) {
    tree.PeekNode(tree.root()).MbbInto(&arena->root_box);
  }
  size_t remaining = 0;
  for (size_t q = 0; q < m; ++q) {
    QuerySlot& qs = arena->queries[q];
    qs.candidates.clear();
    qs.nodes.clear();
    qs.dead_records.clear();
    qs.dead_nodes.clear();
    arena->charged[q] = 0;
    TopKResult& o = (*out)[q];
    o.result.clear();
    o.scores.clear();
    o.encountered.clear();
    o.io = IoStats{};
    if (tree.root() != kInvalidPage) {
      PendingNode root;
      root.maxscore = scoring.MaxScore(arena->root_box, queries[q].weights);
      root.page = tree.root();
      qs.nodes.push_back(root);  // heap of one
      arena->active[q] = 1;
      ++remaining;
    } else {
      arena->active[q] = 0;
      FinalizeQuery(&qs, 0, &o);
    }
  }

  while (remaining > 0) {
    // Phase A: per query, pop the candidate records above the next node
    // (exactly the pops a full-heap search would do), then either
    // finish or demand that node.
    arena->demands.clear();
    for (size_t q = 0; q < m; ++q) {
      if (!arena->active[q]) continue;
      QuerySlot& qs = arena->queries[q];
      TopKResult& o = (*out)[q];
      const size_t k = queries[q].k;
      PopRecords(&qs, k, &o);
      if (o.result.size() >= k || qs.nodes.empty()) {
        arena->active[q] = 0;
        --remaining;
        FinalizeQuery(&qs, arena->charged[q], &o);
        continue;
      }
      arena->demands.push_back(BrsFrontierArena::Demand{
          qs.nodes.front().page, static_cast<uint32_t>(q)});
    }
    if (arena->demands.empty()) break;
    ++stats->rounds;

    // Phase B: group this round's demands by page; fetch + score each
    // page once for all its demanders.
    std::sort(arena->demands.begin(), arena->demands.end(),
              [](const BrsFrontierArena::Demand& a,
                 const BrsFrontierArena::Demand& b) {
                return a.page != b.page ? a.page < b.page
                                        : a.query < b.query;
              });
    size_t i = 0;
    while (i < arena->demands.size()) {
      const PageId page = arena->demands[i].page;
      size_t j = i;
      arena->run_queries.clear();
      arena->weight_rows.clear();
      while (j < arena->demands.size() && arena->demands[j].page == page) {
        const uint32_t q = arena->demands[j].query;
        arena->run_queries.push_back(q);
        arena->weight_rows.push_back(queries[q].weights);
        ++j;
      }
      const bool first_touch = arena->visit_stamp[page] != arena->serial;
      if (first_touch) {
        Status read = tree.FetchPage(page);
        if (!read.ok()) {
          // Degrade exactly the queries demanding this page; the rest
          // of the group keeps running (their pages fetch
          // independently, and this page stays unstamped so a later
          // demand retries the device). Without a per-query status
          // sink the whole call fails — the all-or-nothing contract
          // callers relied on before faults existed.
          ++stats->read_faults;
          if (statuses == nullptr) return read;
          for (size_t r = i; r < j; ++r) {
            const uint32_t q = arena->demands[r].query;
            arena->active[q] = 0;
            --remaining;
            (*statuses)[q] = read;
            TopKResult& o = (*out)[q];
            o.result.clear();
            o.scores.clear();
            o.encountered.clear();
            o.pending.clear();
            o.io = IoStats{};
          }
          i = j;
          continue;
        }
        arena->visit_stamp[page] = arena->serial;
        ++stats->unique_reads;
      }
      FlatRTree::NodeView node = tree.PeekNode(page);
      const size_t run = arena->run_queries.size();
      ComputeEntryScoresMulti(scoring, node, arena->weight_rows.data(), run,
                              &arena->scores);
      const size_t count = node.count();
      const bool leaf = node.is_leaf();
      for (size_t r = 0; r < run; ++r) {
        const uint32_t q = arena->run_queries[r];
        QuerySlot& qs = arena->queries[q];
        // Pop the demanded node (it is still this query's frontier top).
        std::pop_heap(qs.nodes.begin(), qs.nodes.end(), NodeLess());
        qs.nodes.pop_back();
        ++arena->charged[q];
        const size_t room = queries[q].k - (*out)[q].result.size();
        const double* row = arena->scores.scores.data() + r * count;
        for (size_t e = 0; e < count; ++e) {
          if (leaf) {
            AddRecord(&qs, room, Record{row[e], node.child(e)});
          } else {
            const PageId child = static_cast<PageId>(node.child(e));
            const uint32_t slot = static_cast<uint32_t>(e);
            AddNode(&qs, room, PendingNode{row[e], child, page, slot});
          }
        }
      }
      stats->node_expansions += run;
      stats->charged_reads += run;
      i = j;
    }
  }
  return Status::Ok();
}

}  // namespace gir
