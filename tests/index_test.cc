#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "index/flat_rtree.h"
#include "index/mbb.h"
#include "index/rtree.h"
#include "storage/arena_file.h"
#include "storage/snapshot_store.h"
#include "topk/scoring.h"

namespace gir {
namespace {

TEST(MbbTest, Expand) {
  Mbb box = Mbb::EmptyBox(2);
  box.ExpandTo(Vec{0.2, 0.4});
  box.ExpandTo(Vec{0.6, 0.1});
  EXPECT_EQ(box.lo, (Vec{0.2, 0.1}));
  EXPECT_EQ(box.hi, (Vec{0.6, 0.4}));
}

TEST(MbbTest, Containment) {
  Mbb a{{0.0, 0.0}, {0.5, 0.5}};
  EXPECT_TRUE(a.ContainsPoint(Vec{0.1, 0.1}));
  EXPECT_FALSE(a.ContainsPoint(Vec{0.6, 0.1}));
}

TEST(MbbTest, MaxDot) {
  Mbb a{{0.0, 0.0}, {0.5, 0.5}};
  Vec w = {2.0, 1.0};
  EXPECT_DOUBLE_EQ(a.MaxDot(w), 2.0 * 0.5 + 1.0 * 0.5);
  // Negative weights pick the lower corner.
  Vec wn = {-1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.MaxDot(wn), 0.0 + 0.5);
}

TEST(MbbTest, PointBox) {
  Mbb p = Mbb::OfPoint(Vec{0.3, 0.7});
  EXPECT_TRUE(p.ContainsPoint(Vec{0.3, 0.7}));
  EXPECT_EQ(p.TopCorner(), (Vec{0.3, 0.7}));
}

class RTreeBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeBuildTest, BulkLoadValidates) {
  const int d = GetParam();
  Rng rng(d);
  Dataset data = GenerateIndependent(5000, d, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  EXPECT_EQ(tree.size(), 5000u);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_GE(tree.height(), 2u);
}

TEST_P(RTreeBuildTest, InsertValidates) {
  const int d = GetParam();
  Rng rng(100 + d);
  Dataset data = GenerateIndependent(2000, d, rng);
  DiskManager disk;
  RTree tree(&data, &disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  EXPECT_EQ(tree.size(), 2000u);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
}

// The STR bulk load as first written, kept as the reference the packed,
// parallel loader must reproduce node for node: ids sorted in place by
// keys read through Dataset::Get, leaves and upper levels built entry
// by entry. Pages are numbered in creation order, as NewNode numbers
// them.
// Its nodes keep the per-entry layout that loader was written for (a
// test-local type, independent of the production page layout).
struct ReferenceEntry {
  Mbb mbb;
  int32_t child = -1;
};

struct ReferenceNode {
  bool is_leaf = true;
  int level = 0;
  std::vector<ReferenceEntry> entries;

  Mbb ComputeMbb(size_t dim) const {
    Mbb box = Mbb::EmptyBox(dim);
    for (const ReferenceEntry& e : entries) box.ExpandTo(e.mbb);
    return box;
  }

  Vec Center(size_t dim) const {
    const Mbb box = ComputeMbb(dim);
    Vec c(dim);
    for (size_t j = 0; j < dim; ++j) c[j] = 0.5 * (box.lo[j] + box.hi[j]);
    return c;
  }
};

struct ReferenceTree {
  std::vector<ReferenceNode> nodes;
  PageId root = kInvalidPage;
};

template <typename Key>
void ReferenceStrTile(std::vector<int32_t>& ids, size_t lo, size_t hi,
                      size_t axis, size_t dims, size_t capacity,
                      const Key& key,
                      std::vector<std::pair<size_t, size_t>>* runs) {
  const size_t n = hi - lo;
  if (n <= capacity) {
    runs->emplace_back(lo, hi);
    return;
  }
  std::sort(ids.begin() + lo, ids.begin() + hi, [&](int32_t a, int32_t b) {
    return key(a, axis) < key(b, axis);
  });
  auto balanced = [](size_t total, size_t parts, size_t part) {
    return total * part / parts;
  };
  if (axis + 1 == dims) {
    const size_t chunks = (n + capacity - 1) / capacity;
    for (size_t c = 0; c < chunks; ++c) {
      runs->emplace_back(lo + balanced(n, chunks, c),
                         lo + balanced(n, chunks, c + 1));
    }
    return;
  }
  const double pages = std::ceil(static_cast<double>(n) / capacity);
  const size_t slabs = static_cast<size_t>(std::ceil(
      std::pow(pages, 1.0 / static_cast<double>(dims - axis))));
  for (size_t s = 0; s < slabs; ++s) {
    const size_t start = lo + balanced(n, slabs, s);
    const size_t stop = lo + balanced(n, slabs, s + 1);
    if (start < stop) {
      ReferenceStrTile(ids, start, stop, axis + 1, dims, capacity, key, runs);
    }
  }
}

ReferenceTree ReferenceBulkLoad(const Dataset& data, size_t capacity) {
  ReferenceTree tree;
  const size_t dim = data.dim();
  std::vector<int32_t> ids;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data.IsLive(static_cast<RecordId>(i))) {
      ids.push_back(static_cast<int32_t>(i));
    }
  }
  if (ids.empty()) return tree;
  auto new_node = [&](bool is_leaf, int level) {
    tree.nodes.emplace_back();
    tree.nodes.back().is_leaf = is_leaf;
    tree.nodes.back().level = level;
    return static_cast<PageId>(tree.nodes.size() - 1);
  };
  std::vector<std::pair<size_t, size_t>> runs;
  ReferenceStrTile(
      ids, 0, ids.size(), 0, dim, capacity,
      [&](int32_t id, size_t axis) { return data.Get(id)[axis]; }, &runs);
  std::vector<PageId> level_pages;
  std::vector<Vec> level_centers;
  for (auto [lo, hi] : runs) {
    const PageId page = new_node(/*is_leaf=*/true, /*level=*/0);
    for (size_t i = lo; i < hi; ++i) {
      ReferenceEntry e;
      e.mbb = Mbb::OfPoint(data.Get(ids[i]));
      e.child = ids[i];
      tree.nodes[page].entries.push_back(std::move(e));
    }
    level_pages.push_back(page);
    level_centers.push_back(tree.nodes[page].Center(dim));
  }
  int level = 1;
  while (level_pages.size() > 1) {
    std::vector<int32_t> node_ids(level_pages.size());
    for (size_t i = 0; i < node_ids.size(); ++i) {
      node_ids[i] = static_cast<int32_t>(i);
    }
    runs.clear();
    ReferenceStrTile(
        node_ids, 0, node_ids.size(), 0, dim, capacity,
        [&](int32_t id, size_t axis) { return level_centers[id][axis]; },
        &runs);
    std::vector<PageId> next_pages;
    std::vector<Vec> next_centers;
    for (auto [lo, hi] : runs) {
      const PageId page = new_node(/*is_leaf=*/false, level);
      for (size_t i = lo; i < hi; ++i) {
        const PageId child = level_pages[node_ids[i]];
        ReferenceEntry e;
        e.mbb = tree.nodes[child].ComputeMbb(dim);
        e.child = static_cast<int32_t>(child);
        tree.nodes[page].entries.push_back(std::move(e));
      }
      next_pages.push_back(page);
      next_centers.push_back(tree.nodes[page].Center(dim));
    }
    level_pages = std::move(next_pages);
    level_centers = std::move(next_centers);
    ++level;
  }
  tree.root = level_pages[0];
  return tree;
}

bool SameBits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Node-by-node identity with the reference: page ids, levels, entry
// order, children and MBB bits.
void ExpectSameNodes(const RTree& tree, const ReferenceTree& ref,
                     const std::string& what) {
  ASSERT_EQ(tree.node_count(), ref.nodes.size()) << what;
  ASSERT_EQ(tree.root(), ref.root) << what;
  for (size_t p = 0; p < ref.nodes.size(); ++p) {
    const FlatRTree::NodeView got = tree.PeekNode(static_cast<PageId>(p));
    const ReferenceNode& want = ref.nodes[p];
    ASSERT_EQ(got.is_leaf(), want.is_leaf) << what << " page " << p;
    ASSERT_EQ(got.level(), want.level) << what << " page " << p;
    ASSERT_EQ(got.count(), want.entries.size()) << what << " page " << p;
    for (size_t e = 0; e < want.entries.size(); ++e) {
      ASSERT_EQ(got.child(e), want.entries[e].child)
          << what << " page " << p << " entry " << e;
      const Mbb box = got.EntryMbb(e);
      ASSERT_TRUE(SameBits(box.lo, want.entries[e].mbb.lo) &&
                  SameBits(box.hi, want.entries[e].mbb.hi))
          << what << " page " << p << " entry " << e;
    }
  }
}

// ExpectSameNodes plus the DiskManager counters a load leaves behind
// (one allocation and one write a node).
void ExpectMatchesReference(const RTree& tree, const DiskManager& disk,
                            const ReferenceTree& ref, const std::string& what) {
  ExpectSameNodes(tree, ref, what);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(disk.allocated_pages(), ref.nodes.size()) << what;
  const IoStats io = disk.stats();
  EXPECT_EQ(io.writes, ref.nodes.size()) << what;
  EXPECT_EQ(io.reads, 0u) << what;
}

// The data shapes the loader must tile exactly as the reference does:
// general position, ties (quantized and exact duplicates), a constant
// column, and tombstones.
Dataset MakeStrCase(const std::string& kind, size_t n, size_t d, Rng& rng) {
  const std::string dist =
      kind == "ANTI" ? "ANTI" : (kind == "COR" ? "COR" : "IND");
  Dataset base = *GenerateByName(dist, n, d, rng);
  if (kind == "IND" || kind == "ANTI" || kind == "COR") return base;
  Dataset out(d);
  for (size_t i = 0; i < n; ++i) {
    Vec row = base.GetVec(static_cast<RecordId>(i));
    if (kind == "quantized") {
      for (double& x : row) x = std::round(x * 8.0) / 8.0;
    } else if (kind == "duplicates") {
      row = base.GetVec(static_cast<RecordId>(i / 3));
    } else if (kind == "constant_column") {
      row[d / 2] = 0.5;
    }
    out.Append(row);
  }
  if (kind == "tombstones") {
    for (size_t i = 0; i < n; i += 7) out.MarkDeleted(static_cast<RecordId>(i));
  }
  return out;
}

TEST_P(RTreeBuildTest, BulkLoadMatchesReferenceStr) {
  const size_t d = static_cast<size_t>(GetParam());
  ThreadPool one(1);
  ThreadPool wide(std::max(1u, std::thread::hardware_concurrency()));
  size_t capacity = 0;
  {
    Dataset probe(d);
    DiskManager disk;
    capacity = RTree(&probe, &disk).Capacity();
  }
  const size_t sizes[] = {0, 1, capacity, capacity + 1, 50000};
  const char* kinds[] = {"IND",        "ANTI",       "COR",
                         "quantized",  "duplicates", "constant_column",
                         "tombstones"};
  for (size_t n : sizes) {
    for (const char* kind : kinds) {
      Rng rng(1000 * d + n);
      const Dataset data = MakeStrCase(kind, n, d, rng);
      const ReferenceTree ref = ReferenceBulkLoad(data, capacity);
      for (ThreadPool* pool : {&one, &wide}) {
        const std::string what = std::string(kind) + " d=" +
                                 std::to_string(d) + " n=" +
                                 std::to_string(n) + " threads=" +
                                 std::to_string(pool->size());
        DiskManager disk;
        const RTree tree = RTree::BulkLoad(&data, &disk, pool);
        ExpectMatchesReference(tree, disk, ref, what);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// A bulk-loaded engine's master is the reference tree node for node,
// and its first checkpoint thaws back into that same tree.
TEST(RTreeTest, BulkLoadedEngineCheckpointThawsToReferenceTree) {
  Rng rng(77);
  Dataset data = MakeStrCase("tombstones", 50000, 4, rng);
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "str_reference_arena";
  std::filesystem::remove_all(root);

  DiskManager engine_disk;
  std::unique_ptr<GirEngine> engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &engine_disk, MakeScoring("Linear", 4)));
  SnapshotStore engine_store(root.string());
  Result<GirEngine::CheckpointStats> cp = engine->Checkpoint(&engine_store);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();

  DiskManager ref_disk;
  const size_t capacity = RTree(&data, &ref_disk).Capacity();
  const ReferenceTree ref = ReferenceBulkLoad(data, capacity);
  ExpectSameNodes(engine->tree(), ref, "engine master");

  Result<std::shared_ptr<const ArenaFile>> arena =
      ArenaFile::Open(cp->arena_path);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  Result<std::unique_ptr<Dataset>> rows = (*arena)->BuildDataset();
  ASSERT_TRUE(rows.ok());
  DiskManager thaw_disk;
  Result<FlatRTree> flat =
      FlatRTree::FromArena(*arena, rows->get(), &thaw_disk);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  Result<RTree> thawed = RTree::Thaw(*flat, rows->get(), &thaw_disk);
  ASSERT_TRUE(thawed.ok()) << thawed.status().ToString();
  ExpectSameNodes(*thawed, ref, "thawed checkpoint");
  std::filesystem::remove_all(root);
}

// ----- Thaw: the inverse of Freeze -----

// A master tree over its own dataset, mutated the way ApplyUpdates
// mutates it: deletes (tree, then tombstone) before inserts.
struct ChurnedTree {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<DiskManager> disk;
  std::optional<RTree> tree;

  void Apply(size_t deletes, size_t inserts, Rng& rng) {
    std::vector<RecordId> live;
    for (size_t i = 0; i < data->size(); ++i) {
      if (data->IsLive(static_cast<RecordId>(i))) {
        live.push_back(static_cast<RecordId>(i));
      }
    }
    for (size_t c = 0; c < deletes && !live.empty(); ++c) {
      const size_t at = static_cast<size_t>(rng.UniformInt(live.size()));
      ASSERT_TRUE(tree->Delete(live[at]));
      data->MarkDeleted(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    for (size_t c = 0; c < inserts; ++c) {
      Vec p(data->dim());
      for (double& x : p) x = rng.Uniform();
      tree->Insert(data->AppendRecord(p));
    }
  }
};

// The arena bytes `tree` freezes to (over its own dataset).
std::vector<uint8_t> ArenaBytes(const RTree& tree) {
  return BuildArenaImage(FlatRTree::Freeze(tree), /*version=*/0);
}

// Pages reachable from the root; the rest are on the free list.
size_t ReachablePages(const RTree& tree) {
  if (tree.root() == kInvalidPage) return 0;
  size_t reached = 0;
  std::vector<PageId> stack = {tree.root()};
  while (!stack.empty()) {
    const FlatRTree::NodeView node = tree.PeekNode(stack.back());
    stack.pop_back();
    ++reached;
    if (node.is_leaf()) continue;
    for (size_t e = 0; e < node.count(); ++e) {
      stack.push_back(static_cast<PageId>(node.child(e)));
    }
  }
  return reached;
}

// Persists `src` as an arena file, maps it, and thaws the master back
// over the arena's own dataset image, as GirEngine::Open does.
ChurnedTree PersistAndThaw(const ChurnedTree& src, const std::string& dir) {
  ChurnedTree out;
  SnapshotStore store(dir);
  Result<SnapshotStore::WriteStats> wrote =
      store.WriteArena(FlatRTree::Freeze(*src.tree), /*version=*/0);
  EXPECT_TRUE(wrote.ok());
  if (!wrote.ok()) return out;
  Result<std::shared_ptr<const ArenaFile>> arena = ArenaFile::Open(wrote->path);
  EXPECT_TRUE(arena.ok());
  if (!arena.ok()) return out;
  Result<std::unique_ptr<Dataset>> rows = (*arena)->BuildDataset();
  EXPECT_TRUE(rows.ok());
  if (!rows.ok()) return out;
  out.data = std::move(*rows);
  out.disk = std::make_unique<DiskManager>();
  Result<FlatRTree> flat =
      FlatRTree::FromArena(*arena, out.data.get(), out.disk.get());
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  if (!flat.ok()) return out;
  Result<RTree> thawed = RTree::Thaw(*flat, out.data.get(), out.disk.get());
  EXPECT_TRUE(thawed.ok()) << thawed.status().ToString();
  if (thawed.ok()) out.tree.emplace(std::move(*thawed));
  return out;
}

// Freeze(Thaw(FromArena(a))) is `a` byte for byte after churn that
// dissolved nodes (so the free list holds several pages), and the
// thawed tree stays bitwise the never-persisted one under the same
// further batches; likewise for a drained, rootless tree.
TEST(RTreeThawTest, ThawedTreeFreezesAndChurnsBitwiseLikeTheOriginal) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "rtree_thaw").string();
  for (size_t d : {2, 4, 6}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    Rng rng(3100 + d);
    ChurnedTree original;
    original.data =
        std::make_unique<Dataset>(GenerateIndependent(1500, d, rng));
    original.disk = std::make_unique<DiskManager>();
    original.tree.emplace(
        RTree::BulkLoad(original.data.get(), original.disk.get()));
    for (int batch = 0; batch < 6; ++batch) {
      original.Apply(/*deletes=*/150, /*inserts=*/40, rng);
    }
    ASSERT_TRUE(original.tree->Validate().ok());
    ASSERT_GE(original.tree->node_count() - ReachablePages(*original.tree),
              2u)
        << "the churn freed fewer than two pages";

    std::filesystem::remove_all(dir);
    ChurnedTree thawed = PersistAndThaw(original, dir);
    ASSERT_TRUE(thawed.tree.has_value());
    ASSERT_TRUE(thawed.tree->Validate().ok());
    EXPECT_EQ(thawed.disk->allocated_pages(), original.tree->node_count());
    EXPECT_EQ(ArenaBytes(*thawed.tree), ArenaBytes(*original.tree));

    // The same further batches on both: equal bytes after each.
    Rng rng_a(4200 + d);
    Rng rng_b(4200 + d);
    for (int batch = 0; batch < 4; ++batch) {
      original.Apply(/*deletes=*/150, /*inserts=*/100, rng_a);
      thawed.Apply(/*deletes=*/150, /*inserts=*/100, rng_b);
      ASSERT_EQ(ArenaBytes(*thawed.tree), ArenaBytes(*original.tree))
          << "after batch " << batch;
    }

    // Drain both: the rootless image thaws, and both trees regrow
    // identically from it.
    original.Apply(original.data->live_size(), 0, rng_a);
    ASSERT_EQ(original.tree->size(), 0u);
    ASSERT_EQ(original.tree->root(), kInvalidPage);
    std::filesystem::remove_all(dir);
    ChurnedTree drained = PersistAndThaw(original, dir);
    ASSERT_TRUE(drained.tree.has_value());
    EXPECT_EQ(drained.tree->size(), 0u);
    EXPECT_EQ(ArenaBytes(*drained.tree), ArenaBytes(*original.tree));
    Rng regrow_a(4300 + d);
    Rng regrow_b(4300 + d);
    original.Apply(0, /*inserts=*/300, regrow_a);
    drained.Apply(0, /*inserts=*/300, regrow_b);
    ASSERT_TRUE(drained.tree->Validate().ok());
    EXPECT_EQ(ArenaBytes(*drained.tree), ArenaBytes(*original.tree));
  }
  std::filesystem::remove_all(dir);
}

// R* trees pinned by the CRC-32 and length of their arena image, for
// d = 2..6 on 1 KB pages (9 to 27 entries a node, so 3 to 5 levels).
// Each tree is grown by Insert from empty (root splits, and forced
// reinserts at every level below the root), churned by delete/insert
// batches that dissolve nodes (CondenseTree, orphan reinsertion and
// free-list reuse), drained to a rootless tree and regrown. A change to
// a split or reinsert tie, an entry order, a page id or a box bit
// fails here.
TEST(RTreePinTest, GrownChurnedDrainedRegrownBytesArePinned) {
  struct Stage {
    uint32_t crc;
    size_t bytes;
  };
  struct Pin {
    size_t d;
    Stage grown, churned, drained, regrown;
  };
  const Pin pins[] = {
      {2,
       {0x01CB8EFFu, 233472},
       {0x847DADBAu, 258048},
       {0xB3513339u, 262144},
       {0x6A5BC09Eu, 282624}},
      {3,
       {0x43C9917Du, 331776},
       {0xC4CA6938u, 360448},
       {0x85B1724Au, 364544},
       {0x8B3E07CBu, 397312}},
      {4,
       {0xA5A80B12u, 450560},
       {0x4B880F80u, 487424},
       {0x168492B3u, 491520},
       {0x66AFB2CCu, 528384}},
      {5,
       {0xB2B67C43u, 565248},
       {0xC27E3B75u, 606208},
       {0x79A89888u, 610304},
       {0x8A58DD50u, 659456}},
      {6,
       {0xC914F1D6u, 667648},
       {0xFE1CEC51u, 712704},
       {0x3EDC5C60u, 716800},
       {0xD70F2D83u, 778240}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("d=" + std::to_string(pin.d));
    Rng rng(5100 + pin.d);
    ChurnedTree t;
    t.data = std::make_unique<Dataset>(pin.d);
    t.disk = std::make_unique<DiskManager>(/*page_size_bytes=*/1024);
    t.tree.emplace(t.data.get(), t.disk.get());
    auto expect_pinned = [&](const Stage& want, const char* stage) {
      ASSERT_TRUE(t.tree->Validate().ok()) << stage;
      const std::vector<uint8_t> bytes = ArenaBytes(*t.tree);
      EXPECT_EQ(Crc32(bytes.data(), bytes.size()), want.crc) << stage;
      EXPECT_EQ(bytes.size(), want.bytes) << stage;
    };
    t.Apply(/*deletes=*/0, /*inserts=*/3000, rng);
    ASSERT_GE(t.tree->height(), 3u);
    expect_pinned(pin.grown, "grown");
    for (int batch = 0; batch < 5; ++batch) {
      t.Apply(/*deletes=*/500, /*inserts=*/150, rng);
    }
    ASSERT_GE(t.tree->node_count() - ReachablePages(*t.tree), 2u)
        << "the churn freed fewer than two pages";
    expect_pinned(pin.churned, "churned");
    t.Apply(t.data->live_size(), 0, rng);
    ASSERT_EQ(t.tree->root(), kInvalidPage);
    expect_pinned(pin.drained, "drained");
    t.Apply(0, /*inserts=*/1200, rng);
    expect_pinned(pin.regrown, "regrown");
  }
}

// The page-budget invariant the capacity formula promises: a node's 16
// header bytes plus Capacity() entries of 2d doubles and one child id
// fit one page, and bulk-loaded trees respect the capacity.
TEST(RTreeTest, EveryNodeOfLargeTreeFitsItsPage) {
  Rng rng(9);
  for (size_t d = 2; d <= 8; ++d) {
    Dataset data = GenerateIndependent(3000, d, rng);
    DiskManager disk;
    RTree tree = RTree::BulkLoad(&data, &disk);
    EXPECT_LE(16 + tree.Capacity() * (16 * d + 4), disk.page_size_bytes())
        << "d=" << d;
    EXPECT_TRUE(tree.Validate().ok()) << "d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, RTreeBuildTest,
                         ::testing::Values(2, 3, 4, 5, 6));

TEST(RTreeTest, RangeQueryMatchesLinearScan) {
  Rng rng(9);
  Dataset data = GenerateIndependent(3000, 3, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  for (int trial = 0; trial < 20; ++trial) {
    Mbb box = Mbb::EmptyBox(3);
    Vec a = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    Vec b = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    box.ExpandTo(a);
    box.ExpandTo(b);
    std::vector<RecordId> got = tree.RangeQuery(box);
    std::sort(got.begin(), got.end());
    std::vector<RecordId> want;
    for (size_t i = 0; i < data.size(); ++i) {
      if (box.ContainsPoint(data.Get(static_cast<RecordId>(i)))) {
        want.push_back(static_cast<RecordId>(i));
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST(RTreeTest, RangeQueryAfterInserts) {
  Rng rng(10);
  Dataset data = GenerateAnticorrelated(1500, 2, rng);
  DiskManager disk;
  RTree tree(&data, &disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  Mbb box{{0.25, 0.25}, {0.75, 0.75}};
  std::vector<RecordId> got = tree.RangeQuery(box);
  std::sort(got.begin(), got.end());
  std::vector<RecordId> want;
  for (size_t i = 0; i < data.size(); ++i) {
    if (box.ContainsPoint(data.Get(static_cast<RecordId>(i)))) {
      want.push_back(static_cast<RecordId>(i));
    }
  }
  EXPECT_EQ(got, want);
}

TEST(RTreeTest, CapacityMatchesPageBudget) {
  Rng rng(11);
  Dataset data = GenerateIndependent(100, 4, rng);
  DiskManager disk(4096);
  RTree tree(&data, &disk);
  // entry = 2*4*8 + 4 = 68 bytes; (4096-16)/68 = 60.
  EXPECT_EQ(tree.Capacity(), 60u);
}

TEST(RTreeTest, EmptyTreeValidates) {
  Dataset data(2);
  DiskManager disk;
  RTree tree(&data, &disk);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.height(), 0u);
}

TEST(RTreeTest, BulkLoadUsesAllRecordsOnce) {
  Rng rng(13);
  Dataset data = GenerateCorrelated(4000, 5, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  Mbb everything{Vec(5, 0.0), Vec(5, 1.0)};
  std::vector<RecordId> all = tree.RangeQuery(everything);
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 4000u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<RecordId>(i));
  }
}

}  // namespace
}  // namespace gir
