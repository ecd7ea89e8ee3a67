#include "topk/brs.h"

#include <algorithm>

#include "topk/tree_kernels.h"

namespace gir {

namespace {

struct HeapEntry {
  double key;
  bool is_node;
  int32_t id;  // PageId for nodes, RecordId for records
  Mbb mbb;     // valid for nodes only
};

struct HeapEntryLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    // Deterministic tie-break: prefer records over nodes, then lower id,
    // so runs are reproducible across platforms.
    if (a.is_node != b.is_node) return a.is_node;
    return a.id > b.id;
  }
};

}  // namespace

Result<TopKResult> RunBrs(const FlatRTree& tree,
                          const ScoringFunction& scoring, VecView weights,
                          size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (weights.size() != tree.dataset().dim()) {
    return Status::InvalidArgument("weight dimensionality mismatch");
  }
  TopKResult out;
  IoStats before = DiskManager::ThreadStats();
  // A binary max-heap driven by the std heap algorithms (what
  // std::priority_queue does), kept as a plain vector so the drain can
  // partition it.
  std::vector<HeapEntry> heap;
  HeapEntryLess less;
  auto push = [&](HeapEntry&& e) {
    heap.push_back(std::move(e));
    std::push_heap(heap.begin(), heap.end(), less);
  };
  if (tree.root() != kInvalidPage) {
    HeapEntry e;
    e.mbb = tree.PeekNode(tree.root()).mbb();
    e.key = scoring.MaxScore(e.mbb, weights);
    e.is_node = true;
    e.id = static_cast<int32_t>(tree.root());
    push(std::move(e));
  }
  ScoreBuffer buf;
  while (!heap.empty() && out.result.size() < k) {
    std::pop_heap(heap.begin(), heap.end(), less);
    HeapEntry top = std::move(heap.back());
    heap.pop_back();
    if (!top.is_node) {
      out.result.push_back(top.id);
      out.scores.push_back(top.key);
      continue;
    }
    Status read = tree.FetchPage(static_cast<PageId>(top.id));
    if (!read.ok()) return read;
    FlatRTree::NodeView node = tree.PeekNode(static_cast<PageId>(top.id));
    const size_t count = node.count();
    ComputeEntryScores(scoring, node, weights, &buf);
    if (node.is_leaf()) {
      for (size_t i = 0; i < count; ++i) {
        HeapEntry he;
        he.key = buf.scores[i];
        he.is_node = false;
        he.id = node.child(i);
        push(std::move(he));
      }
    } else {
      for (size_t i = 0; i < count; ++i) {
        HeapEntry he;
        he.key = buf.scores[i];
        he.is_node = true;
        he.id = node.child(i);
        he.mbb = node.EntryMbb(i);
        push(std::move(he));
      }
    }
  }
  // Drain the heap: remaining nodes feed Phase 2; remaining records are
  // the encountered set T (fetched minus result, already in memory, no
  // further I/O). The comparator is a strict total order, so popping
  // everything would emit each kind in exactly descending comparator
  // order: sort both into it instead of popping.
  auto nodes_end = std::partition(heap.begin(), heap.end(),
                                  [](const HeapEntry& e) { return e.is_node; });
  auto descending = [&](const HeapEntry& a, const HeapEntry& b) {
    return less(b, a);
  };
  std::sort(heap.begin(), nodes_end, descending);
  std::sort(nodes_end, heap.end(), descending);
  out.pending.reserve(static_cast<size_t>(nodes_end - heap.begin()));
  for (auto it = heap.begin(); it != nodes_end; ++it) {
    PendingNode pn;
    pn.maxscore = it->key;
    pn.page = static_cast<PageId>(it->id);
    pn.mbb = std::move(it->mbb);
    out.pending.push_back(std::move(pn));
  }
  // Sorted descending is already a valid heap order; normalize
  // explicitly for clarity.
  std::make_heap(out.pending.begin(), out.pending.end(), PendingNodeLess());
  out.encountered.reserve(static_cast<size_t>(heap.end() - nodes_end));
  for (auto it = nodes_end; it != heap.end(); ++it) {
    out.encountered.push_back(it->id);
  }
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

namespace {

// ----- shared-traversal multi-query executor -----

// Same strict total order as HeapEntryLess, over the plain-data entry.
struct MultiHeapEntryLess {
  bool operator()(const MultiHeapEntry& a, const MultiHeapEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    if (a.is_node != b.is_node) return a.is_node;
    return a.id > b.id;
  }
};

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

// Drains query slot `qs` after its search finished: remaining heap
// nodes become `pending` and remaining records `encountered`, each in
// the order popping the heap would emit them, exactly as the solo
// drain does. Refills a retained TopKResult in place.
void FinalizeMultiQuery(const FlatRTree& tree,
                        BrsFrontierArena::QuerySlot* qs, uint32_t charged,
                        TopKResult* out) {
  // The solo drain's sorts: each kind in descending comparator order.
  MultiHeapEntryLess less;
  auto nodes_end =
      std::partition(qs->heap.begin(), qs->heap.end(),
                     [](const MultiHeapEntry& e) { return e.is_node; });
  auto descending = [&](const MultiHeapEntry& a, const MultiHeapEntry& b) {
    return less(b, a);
  };
  std::sort(qs->heap.begin(), nodes_end, descending);
  std::sort(nodes_end, qs->heap.end(), descending);
  const size_t n_pending = static_cast<size_t>(nodes_end - qs->heap.begin());
  if (out->pending.size() < n_pending) out->pending.resize(n_pending);
  for (size_t idx = 0; idx < n_pending; ++idx) {
    const MultiHeapEntry& top = qs->heap[idx];
    PendingNode& pn = out->pending[idx];
    pn.maxscore = top.key;
    pn.page = static_cast<PageId>(top.id);
    if (top.parent == kInvalidPage) {
      // Root entry (only reachable when the root was never expanded;
      // the solo run reads the same box).
      pn.mbb = tree.PeekNode(pn.page).mbb();
    } else {
      tree.PeekNode(top.parent).EntryMbbInto(top.slot, &pn.mbb);
    }
  }
  out->pending.resize(n_pending);
  // Identical normalization to the solo drain: entries were emitted in
  // descending comparator order, then heapified.
  std::make_heap(out->pending.begin(), out->pending.end(),
                 PendingNodeLess());
  out->encountered.clear();
  for (auto it = nodes_end; it != qs->heap.end(); ++it) {
    out->encountered.push_back(it->id);
  }
  qs->heap.clear();
  out->io = IoStats{};
  out->io.reads = charged;
}

}  // namespace

Status RunBrsMulti(const FlatRTree& tree, const ScoringFunction& scoring,
                   const std::vector<BrsMultiQuery>& queries,
                   BrsFrontierArena* arena, std::vector<TopKResult>* out,
                   BrsMultiStats* stats, std::vector<Status>* statuses,
                   const BrsMultiOptions& options) {
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

  MultiHeapEntryLess less;
  size_t remaining = 0;
  for (size_t q = 0; q < m; ++q) {
    BrsFrontierArena::QuerySlot& qs = arena->queries[q];
    qs.heap.clear();
    arena->charged[q] = 0;
    TopKResult& o = (*out)[q];
    o.result.clear();
    o.scores.clear();
    o.encountered.clear();
    o.io = IoStats{};
    if (tree.root() != kInvalidPage) {
      MultiHeapEntry e;
      e.key = scoring.MaxScore(tree.PeekNode(tree.root()).mbb(),
                               queries[q].weights);
      e.is_node = true;
      e.id = static_cast<int32_t>(tree.root());
      qs.heap.push_back(e);  // heap of one
      arena->active[q] = 1;
      ++remaining;
    } else {
      arena->active[q] = 0;
      FinalizeMultiQuery(tree, &qs, 0, &o);
    }
  }

  while (remaining > 0) {
    // Phase A: per query, drain the records sitting above the next
    // node (exactly the pops a solo run would do), then either finish
    // or demand that node.
    arena->demands.clear();
    for (size_t q = 0; q < m; ++q) {
      if (!arena->active[q]) continue;
      BrsFrontierArena::QuerySlot& qs = arena->queries[q];
      TopKResult& o = (*out)[q];
      const size_t k = queries[q].k;
      while (!qs.heap.empty() && o.result.size() < k &&
             !qs.heap.front().is_node) {
        std::pop_heap(qs.heap.begin(), qs.heap.end(), less);
        const MultiHeapEntry top = qs.heap.back();
        qs.heap.pop_back();
        o.result.push_back(top.id);
        o.scores.push_back(top.key);
      }
      if (o.result.size() >= k || qs.heap.empty()) {
        arena->active[q] = 0;
        --remaining;
        FinalizeMultiQuery(tree, &qs, arena->charged[q], &o);
        continue;
      }
      arena->demands.push_back(BrsFrontierArena::Demand{
          static_cast<PageId>(qs.heap.front().id),
          static_cast<uint32_t>(q)});
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
    // Async frontier prefetch (arena-backed images): the sorted demands
    // are exactly this round's union page set, so hand the not-yet
    // fetched ones to the kernel's readahead in one pass before any
    // page is touched — the early pages' SIMD scoring then overlaps the
    // later pages' I/O.
    if (options.prefetch && tree.arena_backed()) {
      arena->prefetch_pages.clear();
      for (size_t d = 0; d < arena->demands.size(); ++d) {
        const PageId page = arena->demands[d].page;
        if (d > 0 && arena->demands[d - 1].page == page) continue;
        if (arena->visit_stamp[page] == arena->serial) continue;
        arena->prefetch_pages.push_back(page);
      }
      tree.PrefetchPages(arena->prefetch_pages.data(),
                         arena->prefetch_pages.size());
      stats->prefetch_issued += arena->prefetch_pages.size();
    }
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
        bool resident = true;
        Status read = tree.FetchPage(page, &resident);
        if (read.ok() && tree.arena_backed()) {
          ++(resident ? stats->prefetch_hits : stats->prefetch_misses);
        }
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
        BrsFrontierArena::QuerySlot& qs = arena->queries[q];
        // Pop the demanded node (it is still this query's heap top).
        std::pop_heap(qs.heap.begin(), qs.heap.end(), less);
        qs.heap.pop_back();
        ++arena->charged[q];
        const double* row = arena->scores.scores.data() + r * count;
        for (size_t e = 0; e < count; ++e) {
          MultiHeapEntry he;
          he.key = row[e];
          he.is_node = !leaf;
          he.id = node.child(e);
          he.parent = page;
          he.slot = static_cast<uint32_t>(e);
          qs.heap.push_back(he);
          std::push_heap(qs.heap.begin(), qs.heap.end(), less);
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
