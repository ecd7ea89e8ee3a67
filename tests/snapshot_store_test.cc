// Crash-safety contract of the snapshot store: a recovered epoch is
// bit-identical to the saved one (coordinates, tombstones, tree page
// image — hence simulated I/O and query output), recovery always picks
// the newest *valid* snapshot, and torn or corrupted files are rejected
// by checksum instead of trusted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataset/generators.h"
#include "gir/engine.h"
#include "index/rtree_codec.h"
#include "storage/disk_manager.h"
#include "storage/snapshot_store.h"
#include "topk/scoring.h"

namespace gir {
namespace {

constexpr uint64_t kDataSeed = 404;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

Dataset FreshData(size_t n = 400, size_t dim = 3) {
  Rng rng(kDataSeed);
  auto data = GenerateByName("IND", n, dim, rng);
  EXPECT_TRUE(data.ok());
  return std::move(*data);
}

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.live_size(), b.live_size());
  for (size_t i = 0; i < a.size(); ++i) {
    const RecordId id = static_cast<RecordId>(i);
    ASSERT_EQ(a.IsLive(id), b.IsLive(id)) << "record " << i;
    VecView ra = a.Get(id);
    VecView rb = b.Get(id);
    for (size_t j = 0; j < a.dim(); ++j) {
      ASSERT_EQ(ra[j], rb[j]) << "record " << i << " dim " << j;
    }
  }
}

TEST(SnapshotStoreTest, RoundTripIsBitIdentical) {
  Dataset data = FreshData();
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));

  // Mutate once so tombstones and a non-zero epoch are part of the
  // image being persisted.
  UpdateBatch batch;
  batch.deletes = {3, 17, 42};
  batch.inserts = {{0.21, 0.84, 0.33}, {0.55, 0.12, 0.97}};
  ASSERT_TRUE(engine->ApplyUpdates(batch).ok());
  ASSERT_EQ(engine->dataset_version(), 1u);

  SnapshotStore store(FreshDir("snap_roundtrip"));
  auto wrote = store.WriteSnapshot(engine->dataset(), engine->tree(),
                                   engine->dataset_version());
  ASSERT_TRUE(wrote.ok()) << wrote.status().message();
  EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kNone);
  EXPECT_GT(wrote->bytes, 0u);
  EXPECT_TRUE(std::filesystem::exists(wrote->path));

  DiskManager disk2;
  auto rec = store.RecoverLatest(&disk2);
  ASSERT_TRUE(rec.ok()) << rec.status().message();
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(rec->scanned, 1u);
  EXPECT_EQ(rec->rejected, 0u);
  ExpectSameDataset(engine->dataset(), *rec->dataset);

  // The recovered master tree has the saved page image 1:1.
  auto img_before = SaveRTreeImage(engine->tree());
  auto img_after = SaveRTreeImage(*rec->tree);
  ASSERT_TRUE(img_before.ok());
  ASSERT_TRUE(img_after.ok());
  EXPECT_EQ(*img_before, *img_after);

  // And so a restored engine answers queries bit-identically, down to
  // the simulated I/O charged. Open runs its own recovery scan on a
  // fresh disk so the page image loads exactly once per DiskManager.
  DiskManager disk3;
  auto restored = OpenEngineOrDie(EngineConfig::FromSnapshotDir(
      store.dir(), &disk3, MakeScoring("Linear", engine->dataset().dim())));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->dataset_version(), 1u);
  const Vec w = {0.5, 0.3, 0.2};
  auto before = engine->ComputeGir(w, 10, Phase2Method::kFP);
  auto after = restored->ComputeGir(w, 10, Phase2Method::kFP);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->topk.result, after->topk.result);
  EXPECT_EQ(before->topk.scores, after->topk.scores);
  EXPECT_EQ(before->topk.io.reads, after->topk.io.reads);
  EXPECT_EQ(before->stats.phase2_reads, after->stats.phase2_reads);
  EXPECT_EQ(before->region.constraints().size(),
            after->region.constraints().size());
  EXPECT_EQ(after->snapshot_version, 1u);
}

TEST(SnapshotStoreTest, NewestValidVersionWins) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  SnapshotStore store(FreshDir("snap_newest"));
  for (uint64_t v : {4u, 9u, 2u}) {
    ASSERT_TRUE(store.WriteSnapshot(engine->dataset(), engine->tree(), v).ok());
  }
  DiskManager disk2;
  auto rec = store.RecoverLatest(&disk2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, 9u);
  EXPECT_EQ(rec->scanned, 3u);
  EXPECT_EQ(rec->rejected, 0u);
  EXPECT_NE(rec->path.find(SnapshotStore::FileName(9)), std::string::npos);
}

TEST(SnapshotStoreTest, TornWriteIsRejectedAndOlderEpochSurvives) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  const std::string dir = FreshDir("snap_torn");

  SnapshotStore clean(dir);
  ASSERT_TRUE(clean.WriteSnapshot(engine->dataset(), engine->tree(), 1).ok());

  FaultPlan plan;
  plan.seed = 31;
  plan.torn_write_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto wrote = faulty.WriteSnapshot(engine->dataset(), engine->tree(), 2);
  // The write itself reports success — a crashed publish does not
  // announce itself; detection is recovery's job.
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kTorn);
  EXPECT_LT(std::filesystem::file_size(wrote->path), wrote->bytes);
  EXPECT_EQ(fi.torn_writes(), 1u);

  DiskManager disk2;
  auto rec = clean.RecoverLatest(&disk2);
  ASSERT_TRUE(rec.ok()) << rec.status().message();
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(rec->scanned, 2u);
  EXPECT_EQ(rec->rejected, 1u);
  ExpectSameDataset(engine->dataset(), *rec->dataset);
}

TEST(SnapshotStoreTest, CorruptedPayloadIsRejectedByChecksum) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  const std::string dir = FreshDir("snap_corrupt");

  SnapshotStore clean(dir);
  ASSERT_TRUE(clean.WriteSnapshot(engine->dataset(), engine->tree(), 5).ok());

  FaultPlan plan;
  plan.seed = 32;
  plan.corrupt_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto wrote = faulty.WriteSnapshot(engine->dataset(), engine->tree(), 6);
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kCorrupt);
  // Same size as the intact file — only a checksum can tell.
  EXPECT_EQ(std::filesystem::file_size(wrote->path), wrote->bytes);
  EXPECT_EQ(fi.corrupt_writes(), 1u);

  DiskManager disk2;
  auto rec = clean.RecoverLatest(&disk2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, 5u);
  EXPECT_EQ(rec->rejected, 1u);
}

TEST(SnapshotStoreTest, EmptyOrAllInvalidDirectoryIsNotFound) {
  const std::string dir = FreshDir("snap_empty");
  std::filesystem::create_directories(dir);
  SnapshotStore store(dir);
  DiskManager disk;
  auto rec = store.RecoverLatest(&disk);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kNotFound);

  // A directory holding only garbage under the snapshot naming scheme
  // is equally unrecoverable — but the rejection is counted.
  std::ofstream junk(std::filesystem::path(dir) /
                     SnapshotStore::FileName(7));
  junk << "this is not a snapshot";
  junk.close();
  rec = store.RecoverLatest(&disk);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, RestoredEngineContinuesTheEpochSequence) {
  Dataset data = FreshData(300);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  UpdateBatch batch;
  batch.deletes = {1, 2};
  ASSERT_TRUE(engine->ApplyUpdates(batch).ok());
  ASSERT_TRUE(engine->ApplyUpdates(UpdateBatch{{{0.4, 0.4, 0.4}}, {}}).ok());
  ASSERT_EQ(engine->dataset_version(), 2u);

  SnapshotStore store(FreshDir("snap_continue"));
  ASSERT_TRUE(
      store.WriteSnapshot(engine->dataset(), engine->tree(), 2).ok());

  DiskManager disk2;
  auto restored = OpenEngineOrDie(EngineConfig::FromSnapshotDir(
      store.dir(), &disk2, MakeScoring("Linear", engine->dataset().dim())));
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->dataset_version(), 2u);

  // The next update publishes epoch 3, exactly as the pre-crash engine
  // would have.
  UpdateBatch next;
  next.inserts = {{0.6, 0.1, 0.8}};
  next.deletes = {5};
  auto up_restored = restored->ApplyUpdates(next);
  ASSERT_TRUE(up_restored.ok()) << up_restored.status().message();
  EXPECT_EQ(up_restored->version, 3u);
  auto up_original = engine->ApplyUpdates(next);
  ASSERT_TRUE(up_original.ok());

  // And both timelines remain bit-identical.
  ExpectSameDataset(engine->dataset(), restored->dataset());
  const Vec w = {0.2, 0.5, 0.3};
  auto a = engine->ComputeGir(w, 8, Phase2Method::kFP);
  auto b = restored->ComputeGir(w, 8, Phase2Method::kFP);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->topk.result, b->topk.result);
  EXPECT_EQ(a->topk.scores, b->topk.scores);
  EXPECT_EQ(a->topk.io.reads, b->topk.io.reads);
}

// Keep-last-N retention reclaims old epochs per format, never the
// newest valid one — even at keep_last_n == 1 — and keep_last_n == 0
// is refused outright.
TEST(SnapshotStoreTest, GarbageCollectKeepsLastNPerFormat) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  SnapshotStore store(FreshDir("snap_gc"));
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(store.WriteSnapshot(engine->dataset(), engine->tree(), v).ok());
    ASSERT_TRUE(store.WriteArena(engine->flat_tree(), v).ok());
  }

  auto refused = store.GarbageCollect(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  auto gc = store.GarbageCollect(2);
  ASSERT_TRUE(gc.ok()) << gc.status().message();
  EXPECT_EQ(gc->removed_snapshots, 3u);
  EXPECT_EQ(gc->removed_arenas, 3u);
  EXPECT_EQ(gc->kept, 4u);
  for (uint64_t v = 1; v <= 3; ++v) {
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(store.dir()) / SnapshotStore::FileName(v)));
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(store.dir()) / SnapshotStore::ArenaFileName(v)));
  }

  // Both formats still recover their newest epoch after the sweep.
  DiskManager disk2;
  auto rec = store.RecoverLatest(&disk2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, 5u);
  auto pick = store.RecoverLatestArena();
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->version, 5u);

  // keep_last_n == 1 trims to exactly the newest valid epoch of each
  // format, and an idempotent re-run removes nothing further.
  auto gc1 = store.GarbageCollect(1);
  ASSERT_TRUE(gc1.ok());
  EXPECT_EQ(gc1->removed_snapshots, 1u);
  EXPECT_EQ(gc1->removed_arenas, 1u);
  auto gc_again = store.GarbageCollect(1);
  ASSERT_TRUE(gc_again.ok());
  EXPECT_EQ(gc_again->removed_snapshots, 0u);
  EXPECT_EQ(gc_again->removed_arenas, 0u);
  EXPECT_EQ(gc_again->kept, 2u);
  DiskManager disk3;
  ASSERT_TRUE(store.RecoverLatest(&disk3).ok());
}

// A damaged file newer than the newest valid epoch does not count as
// "newest" for retention: GC keeps every valid epoch it would
// otherwise trim against it, and never reclaims the file recovery
// still depends on.
TEST(SnapshotStoreTest, GarbageCollectNeverWidensTheDataLossWindow) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  const std::string dir = FreshDir("snap_gc_torn");
  SnapshotStore clean(dir);
  ASSERT_TRUE(clean.WriteSnapshot(engine->dataset(), engine->tree(), 1).ok());
  ASSERT_TRUE(clean.WriteSnapshot(engine->dataset(), engine->tree(), 2).ok());

  FaultPlan plan;
  plan.seed = 53;
  plan.torn_write_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto torn = faulty.WriteSnapshot(engine->dataset(), engine->tree(), 3);
  ASSERT_TRUE(torn.ok());
  ASSERT_EQ(torn->injected, FaultInjector::WriteFault::kTorn);

  auto gc = clean.GarbageCollect(1);
  ASSERT_TRUE(gc.ok());
  // v1 (valid, older than newest valid v2, beyond keep=1) goes; v2 is
  // the newest valid and stays; torn v3 is newer than v2 and stays.
  EXPECT_EQ(gc->removed_snapshots, 1u);
  EXPECT_EQ(gc->kept, 2u);
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) /
                                      SnapshotStore::FileName(2)));
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) /
                                      SnapshotStore::FileName(3)));

  DiskManager disk2;
  auto rec = clean.RecoverLatest(&disk2);
  ASSERT_TRUE(rec.ok()) << rec.status().message();
  EXPECT_EQ(rec->version, 2u);
  EXPECT_EQ(rec->rejected, 1u);
}

// GC racing recovery: a writer keeps publishing epochs and trimming to
// keep-last-N while a reader loops full recovery scans. Every recovery
// lands on a valid epoch (a file deleted underfoot has vanished, not
// failed: the reader rescans and a newer one wins) and the recovered
// version never moves backward.
TEST(SnapshotStoreTest, GarbageCollectRacingRecoveryAlwaysServesAnEpoch) {
  Dataset data = FreshData(120);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  const std::string dir = FreshDir("snap_gc_race");
  constexpr uint64_t kEpochs = 24;

  std::atomic<uint64_t> published{0};
  std::thread writer([&] {
    SnapshotStore store(dir);
    for (uint64_t v = 1; v <= kEpochs; ++v) {
      auto wrote = store.WriteSnapshot(engine->dataset(), engine->tree(), v);
      EXPECT_TRUE(wrote.ok()) << wrote.status().message();
      published.store(v, std::memory_order_release);
      auto gc = store.GarbageCollect(3);
      EXPECT_TRUE(gc.ok()) << gc.status().message();
    }
  });

  SnapshotStore reader(dir);
  while (published.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  uint64_t last_seen = 0;
  size_t recoveries = 0;
  while (published.load(std::memory_order_acquire) < kEpochs) {
    DiskManager scratch;
    auto rec = reader.RecoverLatest(&scratch);
    ASSERT_TRUE(rec.ok()) << rec.status().message();
    EXPECT_GE(rec->version, last_seen);
    last_seen = rec->version;
    ++recoveries;
  }
  writer.join();

  EXPECT_GT(recoveries, 0u);
  DiskManager disk2;
  auto final_rec = reader.RecoverLatest(&disk2);
  ASSERT_TRUE(final_rec.ok());
  EXPECT_EQ(final_rec->version, kEpochs);
  ExpectSameDataset(engine->dataset(), *final_rec->dataset);
}

// The same race on the arena format: RecoverLatestArena must also treat
// an arena GC deleted under its scan as vanished and rescan, never
// report NotFound or an epoch older than one it already served.
TEST(SnapshotStoreTest, GarbageCollectRacingArenaRecoveryAlwaysServesAnEpoch) {
  Dataset data = FreshData(120);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  const std::string dir = FreshDir("arena_gc_race");
  constexpr uint64_t kEpochs = 24;

  std::atomic<uint64_t> published{0};
  std::thread writer([&] {
    SnapshotStore store(dir);
    for (uint64_t v = 1; v <= kEpochs; ++v) {
      auto wrote = store.WriteArena(engine->flat_tree(), v);
      EXPECT_TRUE(wrote.ok()) << wrote.status().message();
      published.store(v, std::memory_order_release);
      auto gc = store.GarbageCollect(3);
      EXPECT_TRUE(gc.ok()) << gc.status().message();
    }
  });

  SnapshotStore reader(dir);
  while (published.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  uint64_t last_seen = 0;
  size_t recoveries = 0;
  while (published.load(std::memory_order_acquire) < kEpochs) {
    auto pick = reader.RecoverLatestArena();
    ASSERT_TRUE(pick.ok()) << pick.status().message();
    EXPECT_GE(pick->version, last_seen);
    last_seen = pick->version;
    ++recoveries;
  }
  writer.join();

  EXPECT_GT(recoveries, 0u);
  auto final_pick = reader.RecoverLatestArena();
  ASSERT_TRUE(final_pick.ok());
  EXPECT_EQ(final_pick->version, kEpochs);
}

// A directory holding both formats: each recovery path scans only its
// own format, so the newest valid epoch wins independently per format
// — arenas do not shadow snapshots or vice versa.
TEST(SnapshotStoreTest, MixedFormatDirectoryRecoversNewestValidPerFormat) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  const std::string dir = FreshDir("snap_mixed");
  SnapshotStore store(dir);
  for (uint64_t v : {1u, 2u, 3u}) {
    ASSERT_TRUE(store.WriteSnapshot(engine->dataset(), engine->tree(), v).ok());
  }
  for (uint64_t v : {2u, 4u}) {
    ASSERT_TRUE(store.WriteArena(engine->flat_tree(), v).ok());
  }

  DiskManager disk2;
  auto rec = store.RecoverLatest(&disk2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, 3u);
  EXPECT_EQ(rec->scanned, 3u);  // arena files are not snapshot candidates

  auto pick = store.RecoverLatestArena();
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->version, 4u);
  EXPECT_EQ(pick->scanned, 2u);  // snapshot files are not arena candidates

  // Tearing the newest arena only moves the arena pick back to its
  // older valid epoch; snapshot recovery is untouched.
  FaultPlan plan;
  plan.seed = 59;
  plan.torn_write_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto torn = faulty.WriteArena(engine->flat_tree(), 5);
  ASSERT_TRUE(torn.ok());
  ASSERT_EQ(torn->injected, FaultInjector::WriteFault::kTorn);

  auto pick2 = store.RecoverLatestArena();
  ASSERT_TRUE(pick2.ok());
  EXPECT_EQ(pick2->version, 4u);
  EXPECT_EQ(pick2->rejected, 1u);
  DiskManager disk3;
  auto rec2 = store.RecoverLatest(&disk3);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec2->version, 3u);
  EXPECT_EQ(rec2->rejected, 0u);

  // The engine-level open paths agree with the store-level picks.
  DiskManager disk4;
  auto from_snap = OpenEngineOrDie(EngineConfig::FromSnapshotDir(
      dir, &disk4, MakeScoring("Linear", data.dim())));
  EXPECT_EQ(from_snap->dataset_version(), 3u);
  DiskManager disk5;
  auto from_arena = OpenEngineOrDie(EngineConfig::FromArena(
      dir, &disk5, MakeScoring("Linear", data.dim())));
  EXPECT_EQ(from_arena->dataset_version(), 4u);
}

}  // namespace
}  // namespace gir
