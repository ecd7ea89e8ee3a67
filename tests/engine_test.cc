// Engine-level invariants: cost accounting, candidate-count orderings,
// option plumbing, edge cases (tiny datasets, duplicates, k = n, tiny
// pages that force deep trees and R* reinserts).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/engine.h"

namespace gir {
namespace {

TEST(EngineStatsTest, AccountingFieldsArePopulated) {
  Rng rng(1);
  Dataset data = GenerateIndependent(5000, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Vec w = {0.5, 0.6, 0.7};
  Result<GirComputation> gir = engine->ComputeGir(w, 10, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  const GirStats& s = gir->stats;
  EXPECT_GE(s.topk_cpu_ms, 0.0);
  EXPECT_GT(s.topk_reads, 0u);
  EXPECT_GE(s.phase2_cpu_ms, 0.0);
  EXPECT_GE(s.intersect_cpu_ms, 0.0);
  EXPECT_GT(s.constraints, 0u);
  EXPECT_EQ(s.constraints, 10 - 1 + s.candidates);  // phase1 + phase2
  EXPECT_DOUBLE_EQ(s.GirCpuMillis(),
                   s.phase1_cpu_ms + s.phase2_cpu_ms + s.intersect_cpu_ms);
  EXPECT_DOUBLE_EQ(s.GirIoMillis(10.0), 10.0 * s.phase2_reads);
}

TEST(EngineStatsTest, CandidateOrderingAcrossMethods) {
  Rng rng(2);
  Dataset data = GenerateAnticorrelated(8000, 4, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 4)));
  Vec w = {0.6, 0.5, 0.7, 0.4};
  auto sp = engine->ComputeGir(w, 20, Phase2Method::kSP);
  auto cp = engine->ComputeGir(w, 20, Phase2Method::kCP);
  auto fp = engine->ComputeGir(w, 20, Phase2Method::kFP);
  auto bf = engine->ComputeGir(w, 20, Phase2Method::kBruteForce);
  ASSERT_TRUE(sp.ok() && cp.ok() && fp.ok() && bf.ok());
  // BF considers everything; SP ⊇ CP; FP's critical set is smallest.
  EXPECT_EQ(bf->stats.candidates, data.size() - 20);
  EXPECT_LE(cp->stats.candidates, sp->stats.candidates);
  EXPECT_LE(fp->stats.candidates, cp->stats.candidates);
  // SP/CP share the BBS pass, so identical Phase-2 reads; FP reads less.
  EXPECT_EQ(sp->stats.phase2_reads, cp->stats.phase2_reads);
  EXPECT_LE(fp->stats.phase2_reads, sp->stats.phase2_reads);
  // The brute-force scan touches every leaf page.
  size_t leaves = 0;
  for (size_t n = 0; n < engine->tree().node_count(); ++n) {
    if (engine->tree().PeekNode(static_cast<PageId>(n)).is_leaf()) ++leaves;
  }
  EXPECT_EQ(bf->stats.phase2_reads, leaves);
}

TEST(EngineStatsTest, SkippingPolytopeSkipsIntersectTime) {
  Rng rng(3);
  Dataset data = GenerateIndependent(2000, 3, rng);
  DiskManager disk;
  GirEngineOptions opt;
  opt.materialize_polytope = false;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3), opt));
  Result<GirComputation> gir =
      engine->ComputeGir(Vec{0.5, 0.5, 0.5}, 5, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  EXPECT_DOUBLE_EQ(gir->stats.intersect_cpu_ms, 0.0);
}

TEST(EngineEdgeTest, KEqualsN) {
  Rng rng(4);
  Dataset data = GenerateIndependent(50, 2, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  Result<GirComputation> gir =
      engine->ComputeGir(Vec{0.5, 0.5}, 50, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  EXPECT_EQ(gir->topk.result.size(), 50u);
  // No non-result records: the GIR is the Phase-1 cone only.
  EXPECT_EQ(gir->stats.candidates, 0u);
  EXPECT_EQ(gir->region.constraints().size(), 49u);
  EXPECT_TRUE(gir->region.Contains(Vec{0.5, 0.5}));
}

TEST(EngineEdgeTest, KEqualsOne) {
  Rng rng(5);
  Dataset data = GenerateIndependent(500, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Result<GirComputation> gir =
      engine->ComputeGir(Vec{0.7, 0.4, 0.6}, 1, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  // No ordering constraints for k=1.
  for (const GirConstraint& c : gir->region.constraints()) {
    EXPECT_EQ(c.provenance.kind, ConstraintProvenance::Kind::kOvertake);
  }
}

TEST(EngineEdgeTest, DuplicateRecordsAreHandled) {
  // Exact duplicates produce score ties and zero-vector constraints;
  // the pipeline must not crash and the region must stay sane.
  Rng rng(6);
  std::vector<Vec> rows;
  for (int i = 0; i < 200; ++i) {
    Vec p = {rng.Uniform(), rng.Uniform()};
    rows.push_back(p);
    rows.push_back(p);  // duplicate every record
  }
  Dataset data = Dataset::FromRows(rows);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  Result<GirComputation> gir =
      engine->ComputeGir(Vec{0.5, 0.5}, 10, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  // The duplicated k-th record means the "region" collapses to (at
  // most) the tie hyperplane — Contains(query) may legitimately sit on
  // the boundary. Just require no crash and a well-formed polytope
  // call.
  (void)gir->region.polytope();
}

TEST(EngineEdgeTest, TinyPagesForceDeepTreesAndReinserts) {
  // 256-byte pages => capacity ~6 at d=2: insertion exercises R* splits
  // and forced reinsertion heavily; the tree must stay valid and agree
  // with a bulk-loaded twin on queries.
  Rng rng(7);
  Dataset data = GenerateIndependent(2000, 2, rng);
  DiskManager disk_small(256);
  RTree tree(&data, &disk_small);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_GE(tree.height(), 4u);

  DiskManager disk_big;
  RTree bulk = RTree::BulkLoad(&data, &disk_big);
  FlatRTree flat = FlatRTree::Freeze(tree);
  FlatRTree flat_bulk = FlatRTree::Freeze(bulk);
  LinearScoring scoring(2);
  for (int trial = 0; trial < 5; ++trial) {
    Vec w = {rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0)};
    Result<TopKResult> a = RunBrs(flat, scoring, w, 10);
    Result<TopKResult> b = RunBrs(flat_bulk, scoring, w, 10);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->result, b->result);
  }
}

TEST(EngineEdgeTest, HigherDimensionSmoke) {
  // d = 7 end-to-end: the star machinery and intersection must cope.
  Rng rng(8);
  Dataset data = GenerateIndependent(1500, 7, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 7)));
  Vec w(7);
  for (int j = 0; j < 7; ++j) w[j] = rng.Uniform(0.3, 0.9);
  Result<GirComputation> gir = engine->ComputeGir(w, 5, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  EXPECT_TRUE(gir->region.Contains(w, 1e-10));
  Result<GirComputation> sp = engine->ComputeGir(w, 5, Phase2Method::kSP);
  ASSERT_TRUE(sp.ok());
  for (int probe = 0; probe < 100; ++probe) {
    Vec q(7);
    for (int j = 0; j < 7; ++j) q[j] = rng.Uniform();
    EXPECT_EQ(gir->region.Contains(q), sp->region.Contains(q));
  }
}

TEST(EngineEdgeTest, SameEngineServesManyQueries) {
  Rng rng(9);
  Dataset data = GenerateCorrelated(3000, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  for (int i = 0; i < 20; ++i) {
    Vec w = {rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0),
             rng.Uniform(0.1, 1.0)};
    Result<GirComputation> gir =
        engine->ComputeGir(w, 5, Phase2Method::kFP);
    ASSERT_TRUE(gir.ok()) << "query " << i;
    EXPECT_TRUE(gir->region.Contains(w, 1e-10));
  }
}

}  // namespace
}  // namespace gir
