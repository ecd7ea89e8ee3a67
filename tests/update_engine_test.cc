// Dynamic-update subsystem tests: R*-tree deletion invariants, dataset
// tombstones, and the headline property — after any random IND/COR/ANTI
// stream of ApplyUpdates batches (inserts, deletes, mixed), every query
// against the updated engine is bit-identical to the same query against
// an engine rebuilt from scratch over the mutated dataset, and cached
// GIRs survive exactly when the incremental LP invalidation proves they
// must.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "gir/sharded_cache.h"
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

Vec Query(Rng& rng, size_t d) {
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

Vec Point(Rng& rng, size_t d) {
  Vec p(d);
  for (size_t j = 0; j < d; ++j) p[j] = rng.Uniform();
  return p;
}

// Picks `count` distinct live ids.
std::vector<RecordId> PickLive(const Dataset& data, size_t count, Rng& rng) {
  std::vector<RecordId> live;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data.IsLive(static_cast<RecordId>(i))) {
      live.push_back(static_cast<RecordId>(i));
    }
  }
  std::vector<RecordId> out;
  for (size_t c = 0; c < count && !live.empty(); ++c) {
    size_t at = static_cast<size_t>(rng.UniformInt(live.size()));
    out.push_back(live[at]);
    live.erase(live.begin() + at);
  }
  return out;
}

// ----- RTree::Delete invariants -----

TEST(RTreeDeleteTest, DeleteMaintainsInvariantsAndRangeQueries) {
  Dataset data = MakeData("IND", 600, 3, 91);
  DiskManager disk;
  RTree tree(&data, &disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(tree.Validate().ok());

  Rng rng(17);
  std::set<RecordId> live;
  for (size_t i = 0; i < data.size(); ++i) {
    live.insert(static_cast<RecordId>(i));
  }
  // Delete two thirds in random order, validating as we go.
  for (int round = 0; round < 400; ++round) {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
    RecordId victim = *it;
    live.erase(it);
    ASSERT_TRUE(tree.Delete(victim));
    EXPECT_FALSE(tree.Delete(victim));  // second delete: not found
    ASSERT_EQ(tree.size(), live.size());
    Status st = tree.Validate();
    ASSERT_TRUE(st.ok()) << st.message() << " after deleting " << victim;
    if (round % 50 == 0) {
      Mbb box{{0.2, 0.2, 0.2}, {0.8, 0.8, 0.8}};
      std::vector<RecordId> got = tree.RangeQuery(box);
      std::sort(got.begin(), got.end());
      std::vector<RecordId> want;
      for (RecordId id : live) {
        if (box.ContainsPoint(data.Get(id))) want.push_back(id);
      }
      EXPECT_EQ(got, want);
    }
  }
  // Drain to empty, then rebuild by insertion: freed pages are reused,
  // so the arena must not have grown.
  const size_t nodes_before = tree.node_count();
  for (RecordId id : std::vector<RecordId>(live.begin(), live.end())) {
    ASSERT_TRUE(tree.Delete(id));
  }
  EXPECT_EQ(tree.size(), 0u);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_LE(tree.node_count(), nodes_before + 1);
}

// Freeze then Thaw must round-trip post-Delete state: freed pages are
// recovered onto the free list of the thawed tree (no arena growth on
// further churn), and a fully-drained tree thaws back as empty.
TEST(RTreeDeleteTest, ThawRoundTripsChurnedAndDrainedTrees) {
  Dataset data = MakeData("IND", 300, 3, 12);
  DiskManager disk;
  RTree tree(&data, &disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  Rng rng(13);
  std::vector<RecordId> deleted = PickLive(data, 200, rng);
  for (RecordId id : deleted) ASSERT_TRUE(tree.Delete(id));
  ASSERT_TRUE(tree.Validate().ok());

  DiskManager disk2;
  Result<RTree> loaded = RTree::Thaw(FlatRTree::Freeze(tree), &data, &disk2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded->Validate().ok());
  EXPECT_EQ(loaded->size(), tree.size());
  Mbb all{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
  std::vector<RecordId> got = loaded->RangeQuery(all);
  std::vector<RecordId> want = tree.RangeQuery(all);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  // Churn on the restored tree reuses the recovered free pages instead
  // of growing the arena.
  const size_t nodes_before = loaded->node_count();
  for (RecordId id : deleted) loaded->Insert(id);
  ASSERT_TRUE(loaded->Validate().ok());
  EXPECT_LE(loaded->node_count(), nodes_before + 1);

  // Drain completely: the rootless image must thaw back.
  std::vector<RecordId> rest = tree.RangeQuery(all);
  for (RecordId id : rest) ASSERT_TRUE(tree.Delete(id));
  EXPECT_EQ(tree.size(), 0u);
  DiskManager disk3;
  Result<RTree> drained =
      RTree::Thaw(FlatRTree::Freeze(tree), &data, &disk3);
  ASSERT_TRUE(drained.ok()) << drained.status().message();
  EXPECT_EQ(drained->size(), 0u);
  // And it is usable again.
  drained->Insert(7);
  EXPECT_EQ(drained->size(), 1u);
  ASSERT_TRUE(drained->Validate().ok());
}

TEST(RTreeDeleteTest, BulkLoadSkipsTombstones) {
  Dataset data = MakeData("COR", 200, 2, 5);
  Rng rng(6);
  std::vector<RecordId> dead = PickLive(data, 40, rng);
  for (RecordId id : dead) data.MarkDeleted(id);
  EXPECT_EQ(data.live_size(), 160u);

  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  EXPECT_EQ(tree.size(), 160u);
  ASSERT_TRUE(tree.Validate().ok());
  Mbb all{{0.0, 0.0}, {1.0, 1.0}};
  std::vector<RecordId> got = tree.RangeQuery(all);
  for (RecordId id : got) EXPECT_TRUE(data.IsLive(id));
  EXPECT_EQ(got.size(), 160u);
}

TEST(DatasetTest, TombstonesKeepIdsStable) {
  Dataset data(2);
  data.Append(Vec{0.1, 0.2});
  data.Append(Vec{0.3, 0.4});
  data.MarkDeleted(0);
  EXPECT_FALSE(data.IsLive(0));
  EXPECT_TRUE(data.IsLive(1));
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.live_size(), 1u);
  // Tombstoned coordinates stay readable (provenance, invalidation).
  EXPECT_DOUBLE_EQ(data.Get(0)[1], 0.2);
  RecordId id = data.AppendRecord(Vec{0.5, 0.6});
  EXPECT_EQ(id, 2);
  EXPECT_TRUE(data.IsLive(2));
  EXPECT_EQ(data.live_size(), 2u);
  data.MarkDeleted(0);  // idempotent
  EXPECT_EQ(data.live_size(), 2u);
}

// ----- update-vs-rebuild property -----

struct StreamCase {
  const char* dist;
  int inserts;
  int deletes;
};

// After each ApplyUpdates batch the updated engine must agree with a
// from-scratch rebuild over the same (tombstoned) dataset: identical
// top-k ids, bitwise-identical scores, semantically identical regions,
// and sane IoStats. Tombstones keep record ids aligned between the two.
TEST(UpdateEngineTest, UpdatedEngineMatchesScratchRebuild) {
  const StreamCase cases[] = {
      {"IND", 12, 0},   // pure insert stream
      {"COR", 0, 12},   // pure delete stream
      {"ANTI", 8, 8},   // mixed
      {"IND", 6, 10},   // shrinking mixed
  };
  const size_t n = 220;
  const size_t d = 3;
  const size_t k = 8;
  uint64_t seed = 400;
  for (const StreamCase& c : cases) {
    SCOPED_TRACE(c.dist + std::string(" +") + std::to_string(c.inserts) +
                 " -" + std::to_string(c.deletes));
    Dataset data = MakeData(c.dist, n, d, ++seed);
    DiskManager disk;
    auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
    Rng rng(seed * 3);

    for (int batch_no = 0; batch_no < 3; ++batch_no) {
      UpdateBatch batch;
      for (int i = 0; i < c.inserts; ++i) {
        batch.inserts.push_back(Point(rng, d));
      }
      batch.deletes = PickLive(data, static_cast<size_t>(c.deletes), rng);
      Result<UpdateStats> applied = engine->ApplyUpdates(batch);
      ASSERT_TRUE(applied.ok()) << applied.status().message();
      EXPECT_EQ(applied->version, static_cast<uint64_t>(batch_no + 1));
      EXPECT_EQ(applied->applied_inserts, batch.inserts.size());
      EXPECT_EQ(applied->applied_deletes, batch.deletes.size());

      // From-scratch reference over the mutated dataset (same ids via
      // the shared tombstone layout).
      Dataset rebuilt = data;
      DiskManager rdisk;
      auto reference = OpenEngineOrDie(
      EngineConfig::FromDataset(&rebuilt, &rdisk, MakeScoring("Linear", d)));

      for (int q = 0; q < 4; ++q) {
        Vec w = Query(rng, d);
        for (Phase2Method m : {Phase2Method::kSP, Phase2Method::kFP,
                               Phase2Method::kBruteForce}) {
          Result<GirComputation> got = engine->ComputeGir(w, k, m);
          Result<GirComputation> want = reference->ComputeGir(w, k, m);
          ASSERT_TRUE(got.ok()) << got.status().message();
          ASSERT_TRUE(want.ok()) << want.status().message();
          // Bit-identical result: ids and raw score doubles.
          EXPECT_EQ(got->topk.result, want->topk.result);
          EXPECT_EQ(got->topk.scores, want->topk.scores);
          EXPECT_EQ(got->snapshot_version,
                    static_cast<uint64_t>(batch_no + 1));
          // The regions are built from different tree shapes, so the
          // constraint lists may differ — but they must describe the
          // same set: agree on random probes and on the query itself.
          EXPECT_TRUE(got->region.Contains(w));
          Rng probe_rng(seed + static_cast<uint64_t>(q) * 131);
          for (int s = 0; s < 40; ++s) {
            Vec probe = Point(probe_rng, d);
            EXPECT_EQ(got->region.Contains(probe),
                      want->region.Contains(probe));
          }
          // IoStats sanity: the traversal charged reads and recorded
          // them consistently.
          EXPECT_GT(got->stats.topk_reads, 0u);
          EXPECT_EQ(got->stats.topk_reads, got->topk.io.reads);
        }
      }
    }
  }
}

TEST(UpdateEngineTest, RejectsMalformedBatches) {
  Dataset data = MakeData("IND", 60, 2, 9);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));

  UpdateBatch bad_dim;
  bad_dim.inserts.push_back(Vec{0.5, 0.5, 0.5});
  EXPECT_EQ(engine->ApplyUpdates(bad_dim).status().code(),
            StatusCode::kInvalidArgument);

  UpdateBatch out_of_cube;
  out_of_cube.inserts.push_back(Vec{0.5, 1.5});
  EXPECT_EQ(engine->ApplyUpdates(out_of_cube).status().code(),
            StatusCode::kInvalidArgument);

  UpdateBatch dup;
  dup.deletes = {3, 3};
  EXPECT_EQ(engine->ApplyUpdates(dup).status().code(),
            StatusCode::kInvalidArgument);

  UpdateBatch out_of_range;
  out_of_range.deletes = {999};
  EXPECT_EQ(engine->ApplyUpdates(out_of_range).status().code(),
            StatusCode::kInvalidArgument);

  // Nothing was mutated by the rejected batches.
  EXPECT_EQ(engine->dataset_version(), 0u);
  EXPECT_EQ(data.live_size(), 60u);

  UpdateBatch dead;
  dead.deletes = {3};
  ASSERT_TRUE(engine->ApplyUpdates(dead).ok());
  EXPECT_EQ(engine->ApplyUpdates(dead).status().code(),
            StatusCode::kInvalidArgument);  // already tombstoned

  const Dataset& cdata = data;
  DiskManager disk2;
  auto frozen = OpenEngineOrDie(
      EngineConfig::FromDataset(&cdata, &disk2, MakeScoring("Linear", 2)));
  EXPECT_EQ(frozen->ApplyUpdates(UpdateBatch{}).status().code(),
            StatusCode::kFailedPrecondition);
}

// ----- incremental cache invalidation -----

TEST(UpdateEngineTest, IncrementalInvalidationServesOnlyFreshResults) {
  const size_t d = 3;
  const size_t k = 6;
  Dataset data = MakeData("IND", 300, d, 77);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
  BatchOptions opts;
  opts.threads = 2;
  BatchEngine batch(engine.get(), opts);

  // Warm the cache with a pool of repeated queries.
  Rng rng(78);
  std::vector<Vec> pool;
  for (int i = 0; i < 12; ++i) pool.push_back(Query(rng, d));
  std::vector<Vec> warm;
  for (int rep = 0; rep < 3; ++rep) {
    warm.insert(warm.end(), pool.begin(), pool.end());
  }
  Result<BatchResult> warm_res =
      batch.ComputeBatch(warm, k, Phase2Method::kFP);
  ASSERT_TRUE(warm_res.ok());
  ASSERT_GT(batch.cache().size(), 0u);

  // Apply a mixed batch through the BatchEngine so its cache is
  // incrementally invalidated.
  UpdateBatch updates;
  for (int i = 0; i < 5; ++i) updates.inserts.push_back(Point(rng, d));
  updates.deletes = PickLive(data, 5, rng);
  Result<UpdateStats> applied = batch.ApplyUpdates(updates);
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_GT(applied->cache_entries_before, 0u);
  EXPECT_GT(applied->cache_lp_tests, 0u);
  EXPECT_EQ(applied->cache_entries_before,
            applied->cache_stale_evicted + applied->cache_delete_evicted +
                applied->cache_insert_evicted + applied->cache_survived);
  EXPECT_EQ(applied->cache_stale_evicted, 0u);  // no racing readers here
  // Strictly fewer evictions than invalidate-all, which would drop every
  // entry: the LP test keeps the regions the update cannot touch.
  EXPECT_GT(applied->cache_survived, 0u);

  // Every query served after the update — cached or computed — must
  // match a from-scratch rebuild of the mutated dataset.
  Dataset rebuilt = data;
  DiskManager rdisk;
  auto reference = OpenEngineOrDie(
      EngineConfig::FromDataset(&rebuilt, &rdisk, MakeScoring("Linear", d)));
  Result<BatchResult> after = batch.ComputeBatch(pool, k, Phase2Method::kFP);
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < pool.size(); ++i) {
    ASSERT_TRUE(after->items[i].status.ok());
    Result<GirComputation> want = reference->ComputeGir(pool[i], k,
                                                       Phase2Method::kFP);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(after->items[i].topk, want->topk.result) << "query " << i;
  }
  // Surviving entries actually served: at least one of the repeated
  // queries must have hit the cache.
  EXPECT_GT(after->stats.exact_hits, 0u);
}

TEST(UpdateEngineTest, VersionStampBlocksStaleHitsWithoutInvalidation) {
  const size_t d = 2;
  const size_t k = 4;
  Dataset data = MakeData("IND", 150, d, 31);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
  BatchEngine batch(engine.get());

  Rng rng(32);
  std::vector<Vec> pool = {Query(rng, d), Query(rng, d)};
  ASSERT_TRUE(batch.ComputeBatch(pool, k, Phase2Method::kFP).ok());
  ASSERT_GT(batch.cache().size(), 0u);

  // Mutate the engine *without* handing it the batch cache: the stamp
  // mismatch alone must prevent every stale hit.
  UpdateBatch updates;
  updates.deletes = PickLive(data, 3, rng);
  ASSERT_TRUE(engine->ApplyUpdates(updates).ok());

  Result<BatchResult> after = batch.ComputeBatch(pool, k, Phase2Method::kFP);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.exact_hits, 0u);

  Dataset rebuilt = data;
  DiskManager rdisk;
  auto reference = OpenEngineOrDie(
      EngineConfig::FromDataset(&rebuilt, &rdisk, MakeScoring("Linear", d)));
  for (size_t i = 0; i < pool.size(); ++i) {
    Result<GirComputation> want =
        reference->ComputeGir(pool[i], k, Phase2Method::kFP);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(after->items[i].topk, want->topk.result);
  }
}

// Regression: an entry stamped with an *older* epoch than the one the
// invalidation pass closes out was never tested against the
// intermediate batches (its query computed on a retired snapshot) — it
// must be evicted, never re-stamped into the new epoch.
TEST(UpdateEngineTest, InvalidationNeverResurrectsOldEpochEntries) {
  const size_t d = 2;
  const size_t k = 4;
  Dataset data = MakeData("IND", 120, d, 41);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
  Vec w{0.5, 0.8};
  Result<GirComputation> gir = engine->ComputeGir(w, k, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());

  ShardedGirCache cache(16, 2);
  // Entry from the current epoch (version 1 when closing out to 2) and
  // a laggard from epoch 0 (inserted by a reader that raced an update).
  cache.Insert(k, gir->topk.result, gir->region, /*version=*/1);
  Vec w2{0.9, 0.2};
  Result<GirComputation> gir2 = engine->ComputeGir(w2, k, Phase2Method::kFP);
  ASSERT_TRUE(gir2.ok());
  cache.Insert(k, gir2->topk.result, gir2->region, /*version=*/0);

  UpdateInvalidation inv = cache.InvalidateForUpdates(
      /*deleted=*/{}, /*inserted_g=*/{}, data, engine->scoring(),
      /*new_version=*/2);
  EXPECT_EQ(inv.entries_before, 2u);
  EXPECT_EQ(inv.stale_evicted, 1u);
  EXPECT_EQ(inv.survived, 1u);
  // The laggard is gone; the current-epoch entry serves at version 2.
  EXPECT_EQ(cache.Probe(w, k, /*version=*/2).kind,
            ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(cache.Probe(w2, k, /*version=*/2).kind,
            ShardedGirCache::HitKind::kMiss);
  EXPECT_EQ(cache.size(), 1u);
}

// Regression: a probe carrying an older version (a reader that loaded
// dataset_version() just before an update published) must not erase
// entries already re-stamped to the newer epoch — those are exactly the
// survivors the incremental invalidation preserved.
TEST(UpdateEngineTest, StaleProbeDoesNotEraseNewerEpochEntries) {
  Dataset data = MakeData("IND", 120, 2, 43);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  Vec w{0.4, 0.9};
  Result<GirComputation> gir = engine->ComputeGir(w, 4, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());

  ShardedGirCache cache(16, 2);
  cache.Insert(4, gir->topk.result, gir->region, /*version=*/5);
  // Old-epoch probe: miss, but the newer entry survives...
  EXPECT_EQ(cache.Probe(w, 4, /*version=*/4).kind,
            ShardedGirCache::HitKind::kMiss);
  EXPECT_EQ(cache.size(), 1u);
  // ...and serves once the probe catches up.
  EXPECT_EQ(cache.Probe(w, 4, /*version=*/5).kind,
            ShardedGirCache::HitKind::kExact);
  // A probe from a *newer* epoch than the entry does evict it.
  EXPECT_EQ(cache.Probe(w, 4, /*version=*/6).kind,
            ShardedGirCache::HitKind::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(GirCacheTest, VersionedProbeEvictsStaleEpochs) {
  Dataset data = MakeData("IND", 80, 2, 55);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  Vec w{0.6, 0.7};
  Result<GirComputation> gir = engine->ComputeGir(w, 4, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());

  ShardedGirCache cache(8, 1);
  cache.Insert(4, gir->topk.result, gir->region, /*version=*/1);
  EXPECT_EQ(cache.Probe(w, 4, /*version=*/1).kind,
            ShardedGirCache::HitKind::kExact);
  // Same query at a newer epoch: miss, and the stale entry is dropped.
  EXPECT_EQ(cache.Probe(w, 4, /*version=*/2).kind,
            ShardedGirCache::HitKind::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

// AdmitsGain is the piercing primitive: a point that beats the k-th
// record at the cached query must pierce; a point dominated by the
// k-th record everywhere must not.
TEST(GirRegionTest, AdmitsGainMatchesBruteForceSampling) {
  Dataset data = MakeData("ANTI", 200, 3, 63);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Rng rng(64);
  Vec w = Query(rng, 3);
  Result<GirComputation> gir = engine->ComputeGir(w, 5, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  const GirRegion& region = gir->region;
  Vec gk = Vec(data.Get(gir->topk.result.back()).begin(),
               data.Get(gir->topk.result.back()).end());

  // A clear winner: strictly dominates the k-th record.
  Vec winner = gk;
  for (double& x : winner) x = std::min(1.0, x + 0.05);
  EXPECT_TRUE(region.AdmitsGain(Sub(winner, gk)));

  // A clear loser: strictly dominated by the k-th record.
  Vec loser = gk;
  for (double& x : loser) x = std::max(0.0, x - 0.05);
  EXPECT_FALSE(region.AdmitsGain(Sub(loser, gk)));

  // Random gains: the LP answer must dominate dense sampling of the
  // region (LP true whenever a sample finds a positive advantage).
  for (int t = 0; t < 30; ++t) {
    Vec p = Point(rng, 3);
    Vec gain = Sub(p, gk);
    bool sampled = false;
    Rng srng(65 + static_cast<uint64_t>(t));
    for (int s = 0; s < 300 && !sampled; ++s) {
      Vec probe = Point(srng, 3);
      if (region.Contains(probe) && Dot(gain, probe) > 1e-9) sampled = true;
    }
    if (sampled) {
      EXPECT_TRUE(region.AdmitsGain(gain));
    }
  }
}

}  // namespace
}  // namespace gir
