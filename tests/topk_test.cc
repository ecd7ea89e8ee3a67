#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <queue>
#include <string>

#include "common/rng.h"
#include "dataset/generators.h"
#include "topk/brs.h"
#include "topk/scoring.h"

namespace gir {
namespace {

// Reference top-k: sort all records by score.
std::vector<RecordId> LinearScanTopK(const Dataset& data,
                                     const ScoringFunction& scoring,
                                     VecView w, size_t k) {
  std::vector<RecordId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](RecordId a, RecordId b) {
    return scoring.Score(data.Get(a), w) > scoring.Score(data.Get(b), w);
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

TEST(ScoringTest, LinearScore) {
  LinearScoring s(3);
  Vec p = {0.5, 0.2, 0.1};
  Vec w = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(s.Score(p, w), 0.5 + 0.4 + 0.3);
  EXPECT_EQ(s.Transform(p), p);
}

TEST(ScoringTest, MaxScoreAtTopCorner) {
  LinearScoring s(2);
  Mbb box{{0.1, 0.2}, {0.5, 0.9}};
  Vec w = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(s.MaxScore(box, w), 1.4);
}

TEST(ScoringTest, TransformsAreMonotone) {
  for (const char* name : {"Linear", "Polynomial", "Mixed"}) {
    auto s = MakeScoring(name, 6);
    for (size_t i = 0; i < 6; ++i) {
      double prev = s->TransformDim(i, 0.0);
      for (double x = 0.05; x <= 1.0; x += 0.05) {
        double cur = s->TransformDim(i, x);
        EXPECT_GT(cur, prev) << name << " dim " << i << " x " << x;
        prev = cur;
      }
    }
  }
}

TEST(ScoringTest, MaxScoreBoundsAllBoxPoints) {
  Rng rng(3);
  for (const char* name : {"Linear", "Polynomial", "Mixed"}) {
    auto s = MakeScoring(name, 4);
    Mbb box{{0.2, 0.1, 0.3, 0.0}, {0.6, 0.8, 0.5, 0.7}};
    Vec w = {0.3, 0.9, 0.1, 0.5};
    double bound = s->MaxScore(box, w);
    for (int trial = 0; trial < 200; ++trial) {
      Vec p(4);
      for (int j = 0; j < 4; ++j) p[j] = rng.Uniform(box.lo[j], box.hi[j]);
      EXPECT_LE(s->Score(p, w), bound + 1e-12) << name;
    }
  }
}

TEST(ScoringTest, FactoryNames) {
  EXPECT_EQ(MakeScoring("Linear", 2)->name(), "Linear");
  EXPECT_EQ(MakeScoring("Polynomial", 2)->name(), "Polynomial");
  EXPECT_EQ(MakeScoring("Mixed", 2)->name(), "Mixed");
}

struct BrsCase {
  const char* dataset;
  int dim;
  int k;
};

class BrsTest : public ::testing::TestWithParam<BrsCase> {};

TEST_P(BrsTest, MatchesLinearScan) {
  const BrsCase& c = GetParam();
  Rng rng(42);
  Result<Dataset> data = GenerateByName(c.dataset, 3000, c.dim, rng);
  ASSERT_TRUE(data.ok());
  DiskManager disk;
  RTree source = RTree::BulkLoad(&*data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  LinearScoring scoring(c.dim);
  for (int trial = 0; trial < 5; ++trial) {
    Vec w(c.dim);
    for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.05, 1.0);
    Result<TopKResult> got = RunBrs(tree, scoring, w, c.k);
    ASSERT_TRUE(got.ok());
    std::vector<RecordId> want = LinearScanTopK(*data, scoring, w, c.k);
    ASSERT_EQ(got->result.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      // Scores must agree even if ties permute ids.
      EXPECT_NEAR(scoring.Score(data->Get(got->result[i]), w),
                  scoring.Score(data->Get(want[i]), w), 1e-12);
    }
    // Scores must be in decreasing order.
    for (size_t i = 1; i < got->scores.size(); ++i) {
      EXPECT_GE(got->scores[i - 1], got->scores[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BrsTest,
    ::testing::Values(BrsCase{"IND", 2, 10}, BrsCase{"IND", 4, 20},
                      BrsCase{"COR", 3, 5}, BrsCase{"ANTI", 4, 20},
                      BrsCase{"ANTI", 6, 50}));

TEST(BrsTest, NonLinearScoringMatchesScan) {
  Rng rng(17);
  Dataset data = GenerateIndependent(2000, 4, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  for (const char* name : {"Polynomial", "Mixed"}) {
    auto scoring = MakeScoring(name, 4);
    Vec w = {0.4, 0.6, 0.5, 0.7};
    Result<TopKResult> got = RunBrs(tree, *scoring, w, 15);
    ASSERT_TRUE(got.ok());
    std::vector<RecordId> want = LinearScanTopK(data, *scoring, w, 15);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(scoring->Score(data.Get(got->result[i]), w),
                  scoring->Score(data.Get(want[i]), w), 1e-12)
          << name;
    }
  }
}

TEST(BrsTest, EncounteredDisjointFromResult) {
  Rng rng(5);
  Dataset data = GenerateIndependent(1000, 3, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  LinearScoring scoring(3);
  Vec w = {0.5, 0.5, 0.5};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 20);
  ASSERT_TRUE(r.ok());
  for (RecordId t : r->encountered) {
    EXPECT_EQ(std::count(r->result.begin(), r->result.end(), t), 0);
  }
}

TEST(BrsTest, PendingNodesWereNeverRead) {
  // Every pending node's maxscore must be <= the k-th result score
  // (BRS terminates exactly then) — the I/O-optimality witness.
  Rng rng(6);
  Dataset data = GenerateAnticorrelated(3000, 3, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  LinearScoring scoring(3);
  Vec w = {0.9, 0.4, 0.7};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 10);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.size(), 10u);
  double kth = r->scores.back();
  for (const PendingNode& pn : r->pending) {
    EXPECT_LE(pn.maxscore, kth + 1e-12);
  }
}

TEST(BrsTest, SmallDatasetReturnsAll) {
  Dataset data = Dataset::FromRows({{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.1}});
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  LinearScoring scoring(2);
  Vec w = {1.0, 1.0};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.size(), 3u);
  EXPECT_TRUE(r->pending.empty());
  EXPECT_TRUE(r->encountered.empty());
}

TEST(BrsTest, RejectsBadArguments) {
  Dataset data = Dataset::FromRows({{0.1, 0.2}});
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  LinearScoring scoring(2);
  EXPECT_FALSE(RunBrs(tree, scoring, Vec{0.5, 0.5}, 0).ok());
  EXPECT_FALSE(RunBrs(tree, scoring, Vec{0.5}, 1).ok());
}

TEST(BrsTest, RetainedStateIsSufficientToContinue) {
  // The GIR Phase-2 algorithms rely on BRS's leftovers (encountered
  // records + pending nodes) covering *all* of D \ R. Verify by
  // continuing the search from the retained state: the next m best
  // records must match a fresh top-(k+m) linear scan.
  Rng rng(77);
  Dataset data = GenerateIndependent(4000, 3, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  LinearScoring scoring(3);
  Vec w = {0.8, 0.3, 0.6};
  const size_t k = 10;
  const size_t m = 25;
  Result<TopKResult> first = RunBrs(tree, scoring, w, k);
  ASSERT_TRUE(first.ok());

  // Resume: a max-heap over retained records and nodes.
  struct E {
    double key;
    bool is_node;
    int32_t id;
  };
  auto less = [](const E& a, const E& b) { return a.key < b.key; };
  std::vector<E> heap;
  for (RecordId r : first->encountered) {
    heap.push_back(E{scoring.Score(data.Get(r), w), false, r});
  }
  for (const PendingNode& pn : first->pending) {
    heap.push_back(E{pn.maxscore, true, static_cast<int32_t>(pn.page)});
  }
  std::make_heap(heap.begin(), heap.end(), less);
  std::vector<RecordId> continued;
  while (!heap.empty() && continued.size() < m) {
    std::pop_heap(heap.begin(), heap.end(), less);
    E top = heap.back();
    heap.pop_back();
    if (!top.is_node) {
      continued.push_back(top.id);
      continue;
    }
    FlatRTree::NodeView node = tree.ReadNode(static_cast<PageId>(top.id));
    for (size_t e = 0; e < node.count(); ++e) {
      if (node.is_leaf()) {
        heap.push_back(E{scoring.Score(data.Get(node.child(e)), w), false,
                         node.child(e)});
      } else {
        heap.push_back(
            E{scoring.MaxScore(node.EntryMbb(e), w), true, node.child(e)});
      }
      std::push_heap(heap.begin(), heap.end(), less);
    }
  }
  std::vector<RecordId> want = LinearScanTopK(data, scoring, w, k + m);
  ASSERT_EQ(continued.size(), m);
  for (size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(scoring.Score(data.Get(continued[i]), w),
                scoring.Score(data.Get(want[k + i]), w), 1e-12)
        << "rank " << k + i;
  }
}

TEST(BrsTest, IoCountedOnlyForReadNodes) {
  Rng rng(21);
  Dataset data = GenerateIndependent(5000, 2, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  disk.ResetStats();
  LinearScoring scoring(2);
  Vec w = {0.5, 0.5};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->io.reads, disk.stats().reads);
  EXPECT_GT(r->io.reads, 0u);
  // BRS is I/O-light: it should touch far fewer pages than exist.
  EXPECT_LT(r->io.reads, tree.node_count() / 4);
}

// ----- the candidates-only search against the full-pop search -----

// The textbook BRS: every entry goes into one heap (a
// std::priority_queue under the same strict total order), and after
// the k-th result the whole heap is popped: the nodes in pop order,
// then heapified, become `pending`, and the records in pop order T.
// Entries are scored one at a time through ScoringFunction::Score/
// MaxScore, so this is also the scalar reference for the batched
// kernels. `io.reads` counts the expanded nodes, and `boxes[i]` is the
// box of pending[i], copied when its entry was pushed. `fetched`, when
// given, receives every record of every expanded leaf.
struct FullPop {
  TopKResult topk;
  std::vector<Mbb> boxes;
};

FullPop FullPopBrs(const FlatRTree& tree, const ScoringFunction& scoring,
                   VecView weights, size_t k,
                   std::vector<RecordId>* fetched = nullptr) {
  struct Entry {
    double key;
    bool is_node;
    int32_t id;
    PageId parent;
    uint32_t slot;
    Mbb mbb;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.key != b.key) return a.key < b.key;
      if (a.is_node != b.is_node) return a.is_node;
      return a.id > b.id;
    }
  };
  TopKResult out;
  std::priority_queue<Entry, std::vector<Entry>, Less> heap;
  {
    Entry e;
    e.mbb = tree.PeekNode(tree.root()).mbb();
    e.key = scoring.MaxScore(e.mbb, weights);
    e.is_node = true;
    e.id = static_cast<int32_t>(tree.root());
    e.parent = kInvalidPage;
    e.slot = 0;
    heap.push(std::move(e));
  }
  while (!heap.empty() && out.result.size() < k) {
    Entry top = heap.top();
    heap.pop();
    if (!top.is_node) {
      out.result.push_back(top.id);
      out.scores.push_back(top.key);
      continue;
    }
    ++out.io.reads;
    FlatRTree::NodeView node = tree.PeekNode(static_cast<PageId>(top.id));
    for (size_t i = 0; i < node.count(); ++i) {
      Entry e;
      e.is_node = !node.is_leaf();
      e.id = node.child(i);
      e.parent = static_cast<PageId>(top.id);
      e.slot = static_cast<uint32_t>(i);
      if (e.is_node) {
        e.mbb = node.EntryMbb(i);
        e.key = scoring.MaxScore(e.mbb, weights);
      } else {
        e.key = scoring.Score(tree.dataset().Get(e.id), weights);
        if (fetched != nullptr) fetched->push_back(e.id);
      }
      heap.push(std::move(e));
    }
  }
  std::vector<std::pair<PendingNode, Mbb>> pending;
  while (!heap.empty()) {
    const Entry& top = heap.top();
    if (top.is_node) {
      const PageId page = static_cast<PageId>(top.id);
      pending.emplace_back(PendingNode{top.key, page, top.parent, top.slot},
                           top.mbb);
    } else {
      out.encountered.push_back(top.id);
    }
    heap.pop();
  }
  // The same comparisons as heapifying the PendingNodes alone, so the
  // same permutation.
  std::make_heap(pending.begin(), pending.end(),
                 [](const std::pair<PendingNode, Mbb>& a,
                    const std::pair<PendingNode, Mbb>& b) {
                   return PendingNodeLess()(a.first, b.first);
                 });
  FullPop result;
  for (auto& [pn, box] : pending) {
    out.pending.push_back(pn);
    result.boxes.push_back(std::move(box));
  }
  result.topk = std::move(out);
  return result;
}

void ExpectSameDrain(const FlatRTree& tree, const FullPop& want,
                     const TopKResult& got, const std::string& where) {
  ASSERT_EQ(got.result, want.topk.result) << where;
  ASSERT_EQ(got.scores, want.topk.scores) << where;
  ASSERT_EQ(got.encountered, want.topk.encountered) << where;
  ASSERT_EQ(got.io.reads, want.topk.io.reads) << where;
  ASSERT_EQ(got.pending.size(), want.topk.pending.size()) << where;
  Mbb box;
  for (size_t i = 0; i < want.topk.pending.size(); ++i) {
    const PendingNode& w = want.topk.pending[i];
    const PendingNode& g = got.pending[i];
    ASSERT_EQ(g.maxscore, w.maxscore) << where;
    ASSERT_EQ(g.page, w.page) << where << " pending slot " << i;
    ASSERT_EQ(g.parent, w.parent) << where;
    ASSERT_EQ(g.slot, w.slot) << where;
    PendingNodeBox(tree, g, &box);
    ASSERT_EQ(box.lo, want.boxes[i].lo) << where;
    ASSERT_EQ(box.hi, want.boxes[i].hi) << where;
  }
}

// Coordinates on a coarse grid plus duplicated rows: many records and
// nodes tie on score and maxscore, so the (key, is_node, id) order's
// tie-breaks decide which entries a search keeps, pops and drains.
TEST(BrsTest, SortDrainEqualsFullPopDrain) {
  for (size_t d : {2u, 3u, 4u}) {
    Rng rng(4100 + d);
    std::vector<std::vector<double>> rows;
    while (rows.size() < 2400) {
      std::vector<double> row(d);
      for (double& x : row) x = 0.125 * static_cast<double>(rng.UniformInt(9));
      rows.push_back(row);
      if (rng.UniformInt(4) == 0) rows.push_back(row);  // duplicate row
    }
    Dataset data = Dataset::FromRows(rows);
    DiskManager disk;
    RTree tree = RTree::BulkLoad(&data, &disk);
    FlatRTree flat = FlatRTree::Freeze(tree);
    std::vector<Vec> weights = {Vec(d, 0.5), Vec(d, 1.0)};
    while (weights.size() < 8) {
      Vec w(d);
      for (double& x : w) x = 0.25 * static_cast<double>(1 + rng.UniformInt(4));
      weights.push_back(w);
    }
    for (const char* sname : {"Linear", "Polynomial", "Mixed"}) {
      std::unique_ptr<ScoringFunction> scoring = MakeScoring(sname, d);
      for (size_t k : {size_t{1}, size_t{20}, size_t{100}, rows.size()}) {
        std::vector<FullPop> want;
        for (size_t q = 0; q < weights.size(); ++q) {
          const std::string where = std::string(sname) + " d=" +
                                    std::to_string(d) + " k=" +
                                    std::to_string(k) + " query " +
                                    std::to_string(q);
          want.push_back(FullPopBrs(flat, *scoring, weights[q], k));
          if (k < rows.size()) {
            ASSERT_FALSE(want.back().topk.pending.empty()) << where;
          }
          Result<TopKResult> solo = RunBrs(flat, *scoring, weights[q], k);
          ASSERT_TRUE(solo.ok());
          ExpectSameDrain(flat, want.back(), *solo, where + " solo");
          // Width 1: one query per RunBrsMulti call.
          BrsFrontierArena arena;
          std::vector<TopKResult> one;
          ASSERT_TRUE(RunBrsMulti(flat, *scoring,
                                  {BrsMultiQuery{VecView(weights[q]), k}},
                                  &arena, &one)
                          .ok());
          ExpectSameDrain(flat, want.back(), one[0], where + " width 1");
        }
        // Width 8: the whole group in one lockstep walk.
        std::vector<BrsMultiQuery> group;
        for (const Vec& w : weights) group.push_back({VecView(w), k});
        BrsFrontierArena arena;
        std::vector<TopKResult> multi;
        ASSERT_TRUE(RunBrsMulti(flat, *scoring, group, &arena, &multi).ok());
        for (size_t q = 0; q < weights.size(); ++q) {
          ExpectSameDrain(flat, want[q], multi[q],
                          std::string(sname) + " d=" + std::to_string(d) +
                              " k=" + std::to_string(k) + " width 8 query " +
                              std::to_string(q));
        }
      }
    }
  }
}

// T's contract: in heap-pop order (non-increasing score, lower id
// first on ties) and, as a set, every record of every expanded leaf
// minus the result.
void ExpectEncounteredContract(const Dataset& data,
                               const ScoringFunction& scoring, VecView w,
                               const std::vector<RecordId>& fetched,
                               const TopKResult& got,
                               const std::string& where) {
  for (size_t i = 1; i < got.encountered.size(); ++i) {
    const RecordId a = got.encountered[i - 1];
    const RecordId b = got.encountered[i];
    const double sa = scoring.Score(data.Get(a), w);
    const double sb = scoring.Score(data.Get(b), w);
    ASSERT_GE(sa, sb) << where << " position " << i;
    if (sa == sb) {
      ASSERT_LT(a, b) << where << " tie at position " << i;
    }
  }
  std::vector<RecordId> want = fetched;
  std::sort(want.begin(), want.end());
  std::vector<RecordId> result_sorted = got.result;
  std::sort(result_sorted.begin(), result_sorted.end());
  std::vector<RecordId> difference;
  std::set_difference(want.begin(), want.end(), result_sorted.begin(),
                      result_sorted.end(), std::back_inserter(difference));
  std::vector<RecordId> as_set = got.encountered;
  std::sort(as_set.begin(), as_set.end());
  ASSERT_EQ(as_set, difference) << where;
}

TEST(BrsTest, EncounteredIsFetchedMinusResultInPopOrder) {
  for (size_t d : {2u, 4u}) {
    Rng rng(4200 + d);
    Dataset data = GenerateIndependent(6000, d, rng);
    DiskManager disk;
    RTree source = RTree::BulkLoad(&data, &disk);
    FlatRTree tree = FlatRTree::Freeze(source);
    LinearScoring scoring(d);
    std::vector<Vec> weights;
    for (int q = 0; q < 6; ++q) {
      Vec w(d);
      for (double& x : w) x = rng.Uniform(0.05, 1.0);
      weights.push_back(w);
    }
    std::vector<BrsMultiQuery> group;
    for (const Vec& w : weights) group.push_back({VecView(w), 20});
    BrsFrontierArena arena;
    std::vector<TopKResult> multi;
    ASSERT_TRUE(RunBrsMulti(tree, scoring, group, &arena, &multi).ok());
    for (size_t q = 0; q < weights.size(); ++q) {
      const std::string where =
          "d=" + std::to_string(d) + " query " + std::to_string(q);
      std::vector<RecordId> fetched;
      FullPopBrs(tree, scoring, weights[q], 20, &fetched);
      Result<TopKResult> solo = RunBrs(tree, scoring, weights[q], 20);
      ASSERT_TRUE(solo.ok());
      ASSERT_FALSE(solo->encountered.empty()) << where;
      ExpectEncounteredContract(data, scoring, weights[q], fetched, *solo,
                                where + " solo");
      ExpectEncounteredContract(data, scoring, weights[q], fetched,
                                multi[q], where + " multi");
    }
  }
}

}  // namespace
}  // namespace gir
