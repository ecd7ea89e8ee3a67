#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "dataset/generators.h"
#include "index/rtree_codec.h"
#include "topk/brs.h"

namespace gir {
namespace {

TEST(NodeCodecTest, RoundTripLeaf) {
  RTreeNode node;
  node.is_leaf = true;
  node.level = 0;
  for (int i = 0; i < 5; ++i) {
    RTreeEntry e;
    e.child = 100 + i;
    e.mbb = Mbb::OfPoint(Vec{0.1 * i, 1.0 - 0.1 * i});
    node.entries.push_back(std::move(e));
  }
  Result<std::vector<uint8_t>> page = EncodeNode(node, 2, 4096);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 4096u);
  Result<RTreeNode> back = DecodeNode(*page, 2);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_leaf);
  EXPECT_EQ(back->level, 0);
  ASSERT_EQ(back->entries.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back->entries[i].child, 100 + i);
    EXPECT_EQ(back->entries[i].mbb.lo, node.entries[i].mbb.lo);
    EXPECT_EQ(back->entries[i].mbb.hi, node.entries[i].mbb.hi);
  }
}

TEST(NodeCodecTest, RoundTripInternal) {
  RTreeNode node;
  node.is_leaf = false;
  node.level = 3;
  RTreeEntry e;
  e.child = 7;
  e.mbb = Mbb{{0.25, 0.5, 0.125}, {0.75, 1.0, 0.625}};
  node.entries.push_back(e);
  Result<std::vector<uint8_t>> page = EncodeNode(node, 3, 4096);
  ASSERT_TRUE(page.ok());
  Result<RTreeNode> back = DecodeNode(*page, 3);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->is_leaf);
  EXPECT_EQ(back->level, 3);
  EXPECT_EQ(back->entries[0].mbb.lo, e.mbb.lo);
}

TEST(NodeCodecTest, RejectsOversizedNode) {
  RTreeNode node;
  node.is_leaf = true;
  for (int i = 0; i < 100; ++i) {
    RTreeEntry e;
    e.child = i;
    e.mbb = Mbb::OfPoint(Vec{0.0, 0.0, 0.0, 0.0});
    node.entries.push_back(std::move(e));
  }
  // 100 entries * 68B > 512B page.
  EXPECT_FALSE(EncodeNode(node, 4, 512).ok());
}

TEST(NodeCodecTest, RejectsCorruptEntryCount) {
  RTreeNode node;
  node.is_leaf = true;
  Result<std::vector<uint8_t>> page = EncodeNode(node, 2, 256);
  ASSERT_TRUE(page.ok());
  // Forge a huge entry count.
  (*page)[4] = 0xFF;
  (*page)[5] = 0xFF;
  EXPECT_FALSE(DecodeNode(*page, 2).ok());
}

TEST(ImageCodecTest, FullTreeRoundTrip) {
  Rng rng(5);
  Dataset data = GenerateIndependent(5000, 3, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  Result<std::vector<uint8_t>> image = SaveRTreeImage(tree);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->size(), 32 + tree.node_count() * 4096);

  DiskManager disk2;
  Result<RTree> loaded = LoadRTreeImage(&data, &disk2, *image);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(loaded->node_count(), tree.node_count());
  EXPECT_EQ(loaded->root(), tree.root());
  ASSERT_TRUE(loaded->Validate().ok()) << loaded->Validate().ToString();

  // Queries on the restored tree's frozen image match the original's.
  FlatRTree flat = FlatRTree::Freeze(tree);
  FlatRTree flat_loaded = FlatRTree::Freeze(*loaded);
  LinearScoring scoring(3);
  for (int trial = 0; trial < 5; ++trial) {
    Vec w = {rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0),
             rng.Uniform(0.1, 1.0)};
    Result<TopKResult> a = RunBrs(flat, scoring, w, 10);
    Result<TopKResult> b = RunBrs(flat_loaded, scoring, w, 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->result, b->result);
    EXPECT_EQ(a->io.reads, b->io.reads);  // identical page access paths
  }
}

TEST(ImageCodecTest, RejectsBadMagic) {
  Rng rng(6);
  Dataset data = GenerateIndependent(100, 2, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  Result<std::vector<uint8_t>> image = SaveRTreeImage(tree);
  ASSERT_TRUE(image.ok());
  (*image)[0] ^= 0xFF;
  DiskManager disk2;
  EXPECT_FALSE(LoadRTreeImage(&data, &disk2, *image).ok());
}

TEST(ImageCodecTest, RejectsDimMismatch) {
  Rng rng(7);
  Dataset data = GenerateIndependent(100, 2, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  Result<std::vector<uint8_t>> image = SaveRTreeImage(tree);
  ASSERT_TRUE(image.ok());
  Dataset other(3);
  DiskManager disk2;
  EXPECT_FALSE(LoadRTreeImage(&other, &disk2, *image).ok());
}

TEST(ImageCodecTest, RejectsTruncatedImage) {
  Rng rng(8);
  Dataset data = GenerateIndependent(500, 2, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  Result<std::vector<uint8_t>> image = SaveRTreeImage(tree);
  ASSERT_TRUE(image.ok());
  image->resize(image->size() - 4096);
  DiskManager disk2;
  EXPECT_FALSE(LoadRTreeImage(&data, &disk2, *image).ok());
}

TEST(ImageCodecTest, EveryNodeOfLargeTreeFitsItsPage) {
  // The page-budget invariant that the capacity formula promises.
  Rng rng(9);
  for (int d : {2, 4, 6, 8}) {
    Dataset data = GenerateIndependent(3000, d, rng);
    DiskManager disk;
    RTree tree = RTree::BulkLoad(&data, &disk);
    for (size_t n = 0; n < tree.node_count(); ++n) {
      EXPECT_TRUE(
          EncodeNode(tree.PeekNode(static_cast<PageId>(n)), d, 4096).ok())
          << "d=" << d << " node " << n;
    }
  }
}

}  // namespace
}  // namespace gir
