// Freeze fidelity: the frozen FlatRTree must hold exactly the mutable
// R*-tree it was frozen from — same structure, same boxes, same
// RangeQuery answers — on random IND/COR/ANTI datasets, both
// bulk-loaded and incrementally inserted. Queries run only on the
// frozen image; their answers are checked against the paper's
// definitions in gir_methods_test and gir_star_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "dataset/generators.h"
#include "index/flat_rtree.h"
#include "index/rtree.h"

namespace gir {
namespace {

Dataset MakeData(const std::string& dist, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Result<Dataset> data = GenerateByName(dist, n, d, rng);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

RTree BuildTree(const Dataset& data, DiskManager* disk, bool bulk) {
  if (bulk) return RTree::BulkLoad(&data, disk);
  RTree tree(&data, disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  return tree;
}

TEST(FlatRTreeTest, StructureMatchesSource) {
  for (bool bulk : {true, false}) {
    Dataset data = MakeData("IND", 1500, 3, 42);
    DiskManager disk;
    RTree tree = BuildTree(data, &disk, bulk);
    FlatRTree flat = FlatRTree::Freeze(tree);
    ASSERT_EQ(flat.node_count(), tree.node_count());
    EXPECT_EQ(flat.root(), tree.root());
    EXPECT_EQ(flat.height(), tree.height());
    EXPECT_EQ(flat.size(), tree.size());
    EXPECT_EQ(flat.Capacity(), tree.Capacity());
    for (size_t p = 0; p < tree.node_count(); ++p) {
      const FlatRTree::NodeView node = tree.PeekNode(static_cast<PageId>(p));
      FlatRTree::NodeView view = flat.PeekNode(static_cast<PageId>(p));
      ASSERT_EQ(view.count(), node.count());
      EXPECT_EQ(view.is_leaf(), node.is_leaf());
      EXPECT_EQ(view.level(), node.level());
      Mbb self = Mbb::EmptyBox(data.dim());
      for (size_t e = 0; e < node.count(); ++e) self.ExpandTo(node.EntryMbb(e));
      EXPECT_EQ(view.mbb().lo, self.lo);
      EXPECT_EQ(view.mbb().hi, self.hi);
      for (size_t e = 0; e < node.count(); ++e) {
        EXPECT_EQ(view.child(e), node.child(e));
        for (size_t j = 0; j < data.dim(); ++j) {
          EXPECT_EQ(view.lo(j)[e], node.lo(j)[e]);
          EXPECT_EQ(view.hi(j)[e], node.hi(j)[e]);
        }
      }
    }
  }
}

TEST(FlatRTreeTest, RangeQueryMatchesSource) {
  Rng boxes(7);
  for (const char* dist : {"IND", "COR", "ANTI"}) {
    for (bool bulk : {true, false}) {
      Dataset data = MakeData(dist, 1200, 3, 99);
      DiskManager disk;
      RTree tree = BuildTree(data, &disk, bulk);
      FlatRTree flat = FlatRTree::Freeze(tree);
      for (int q = 0; q < 8; ++q) {
        Mbb box = Mbb::EmptyBox(3);
        for (size_t j = 0; j < 3; ++j) {
          double a = boxes.Uniform();
          double b = boxes.Uniform();
          box.lo[j] = std::min(a, b);
          box.hi[j] = std::max(a, b);
        }
        std::vector<RecordId> expect = tree.RangeQuery(box);
        std::vector<RecordId> got = flat.RangeQuery(box);
        std::sort(expect.begin(), expect.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expect) << dist << " bulk=" << bulk << " q=" << q;
      }
    }
  }
}

TEST(FlatRTreeTest, ReadNodeChargesIo) {
  Dataset data = MakeData("IND", 500, 2, 12);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  disk.ResetStats();
  flat.ReadNode(flat.root());
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_DOUBLE_EQ(disk.ReadMillis(), 10.0);
  flat.PeekNode(flat.root());
  EXPECT_EQ(disk.stats().reads, 1u);
}

}  // namespace
}  // namespace gir
