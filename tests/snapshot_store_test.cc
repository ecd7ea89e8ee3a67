// Crash-safety contract of the arena store: recovery always picks the
// newest *valid* arena epoch, an engine restored from it continues the
// epoch sequence bit-identically, and retention (GarbageCollect) never
// deletes the epoch recovery depends on — not even when racing it —
// and the checkpoint's bytes are pinned. Torn and corrupt arenas are
// covered by arena_mmap_test.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
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

bool Exists(const SnapshotStore& store, uint64_t version) {
  return std::filesystem::exists(std::filesystem::path(store.dir()) /
                                 SnapshotStore::ArenaFileName(version));
}

TEST(SnapshotStoreTest, NewestValidVersionWins) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  SnapshotStore store(FreshDir("snap_newest"));
  for (uint64_t v : {4u, 9u, 2u}) {
    ASSERT_TRUE(store.WriteArena(engine->flat_tree(), v).ok());
  }
  auto pick = store.RecoverLatestArena();
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->version, 9u);
  EXPECT_EQ(pick->scanned, 3u);
  EXPECT_EQ(pick->rejected, 0u);
  EXPECT_NE(pick->path.find(SnapshotStore::ArenaFileName(9)),
            std::string::npos);
}

// The engine both pinned-bytes tests checkpoint: seeded data, then
// insert/delete batches, so tombstones exist.
std::unique_ptr<GirEngine> PinnedEngine(Dataset* data, DiskManager* disk) {
  const size_t d = data->dim();
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(data, disk, MakeScoring("Linear", d)));
  Rng rng(kDataSeed + 1);
  for (int b = 0; b < 4; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 6; ++i) {
      Vec p(d);
      for (double& x : p) x = rng.Uniform();
      batch.inserts.push_back(p);
    }
    for (int i = 0; i < 5; ++i) {
      batch.deletes.push_back(static_cast<RecordId>(37 * b + 7 * i + 1));
    }
    EXPECT_TRUE(engine->ApplyUpdates(batch).ok());
  }
  return engine;
}

uint32_t FileCrc(const std::string& path, size_t* size) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  *size = bytes.size();
  return Crc32(bytes.data(), bytes.size());
}

// The arena format is pinned byte for byte: the checkpoint of a fixed
// engine (seeded data, then insert/delete batches, so tombstones exist)
// has the CRC-32 and size the whole-image serializer produced before
// the writer streamed spans from the live arrays, and so are the torn
// and corrupted files one fault plan makes of it. A writer change that
// moves one byte — a section, its padding, a CRC, a tear point or a
// flipped byte — fails here.
TEST(SnapshotStoreTest, CheckpointBytesArePinned) {
  Dataset data = FreshData(1500, 4);
  DiskManager disk;
  auto engine = PinnedEngine(&data, &disk);
  SnapshotStore store(FreshDir("snap_pinned"));
  auto cp = engine->Checkpoint(&store);
  ASSERT_TRUE(cp.ok()) << cp.status().message();
  EXPECT_EQ(cp->version, 4u);
  EXPECT_EQ(cp->arena_bytes, 221184u);
  size_t size = 0;
  EXPECT_EQ(FileCrc(cp->arena_path, &size), 0xF78D29B8u);
  EXPECT_EQ(size, 221184u);

  // The injected faults are pinned too: the same tear point and the
  // same flipped byte for the same plan.
  struct Pin {
    bool torn;
    size_t size;
    uint32_t crc;
  };
  for (const Pin& pin : {Pin{true, 93541, 0x622BE926u},
                         Pin{false, 221184, 0x8AEFC303u}}) {
    FaultPlan plan;
    plan.seed = 7;
    (pin.torn ? plan.torn_write_rate : plan.corrupt_rate) = 1.0;
    FaultInjector fi(plan);
    SnapshotStore faulty(FreshDir("snap_pinned_fault"), &fi);
    auto wrote = faulty.WriteArena(engine->flat_tree(), cp->version);
    ASSERT_TRUE(wrote.ok());
    EXPECT_EQ(FileCrc(wrote->path, &size), pin.crc) << pin.torn;
    EXPECT_EQ(size, pin.size) << pin.torn;
  }
}

// A ship publishes the source file's bytes: a clean source as it is, a
// torn source as it is (the receiving open rejects it), and a clean
// source under a tearing or a corrupting plan with the tear point and
// the flipped byte pinned like the checkpoint's.
TEST(SnapshotStoreTest, ShippedArenaBytesArePinned) {
  Dataset data = FreshData(1500, 4);
  DiskManager disk;
  auto engine = PinnedEngine(&data, &disk);
  const uint64_t version = 4;
  SnapshotStore clean(FreshDir("ship_pinned_clean"));
  ASSERT_TRUE(clean.WriteArena(engine->flat_tree(), version).ok());
  FaultPlan tear;
  tear.seed = 7;
  tear.torn_write_rate = 1.0;
  FaultInjector tear_source(tear);
  SnapshotStore torn(FreshDir("ship_pinned_torn"), &tear_source);
  ASSERT_TRUE(torn.WriteArena(engine->flat_tree(), version).ok());

  struct Pin {
    const SnapshotStore* source;
    double torn_rate;
    double corrupt_rate;
    size_t size;
    uint32_t crc;
  };
  const Pin pins[] = {
      {&clean, 0.0, 0.0, 221184, 0xF78D29B8u},
      {&torn, 0.0, 0.0, 93541, 0x622BE926u},
      {&clean, 1.0, 0.0, 93541, 0x622BE926u},
      {&clean, 0.0, 1.0, 221184, 0x8AEFC303u},
  };
  for (size_t i = 0; i < std::size(pins); ++i) {
    const Pin& pin = pins[i];
    FaultPlan plan;
    plan.seed = 7;
    plan.torn_write_rate = pin.torn_rate;
    plan.corrupt_rate = pin.corrupt_rate;
    FaultInjector fi(plan);
    SnapshotStore replica(FreshDir("ship_pinned_replica"), &fi);
    auto shipped = replica.ShipArenaFrom(*pin.source, version);
    ASSERT_TRUE(shipped.ok()) << shipped.status().message();
    size_t size = 0;
    EXPECT_EQ(FileCrc(shipped->path, &size), pin.crc) << "case " << i;
    EXPECT_EQ(size, pin.size) << "case " << i;
    EXPECT_EQ(shipped->bytes, pin.source == &clean ? 221184u : 93541u);
  }
}

TEST(SnapshotStoreTest, EmptyOrAllInvalidDirectoryIsNotFound) {
  const std::string dir = FreshDir("snap_empty");
  std::filesystem::create_directories(dir);
  SnapshotStore store(dir);
  auto pick = store.RecoverLatestArena();
  ASSERT_FALSE(pick.ok());
  EXPECT_EQ(pick.status().code(), StatusCode::kNotFound);

  // A directory holding only garbage under the arena naming scheme is
  // equally unrecoverable, and the engine open says so too.
  std::ofstream junk(std::filesystem::path(dir) /
                     SnapshotStore::ArenaFileName(7));
  junk << "this is not an arena";
  junk.close();
  pick = store.RecoverLatestArena();
  ASSERT_FALSE(pick.ok());
  EXPECT_EQ(pick.status().code(), StatusCode::kNotFound);
  DiskManager disk;
  auto engine = GirEngine::Open(
      EngineConfig::FromArena(dir, &disk, MakeScoring("Linear", 3)));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
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
  ASSERT_TRUE(engine->Checkpoint(&store).ok());

  // A WAL makes the restored engine updatable.
  DiskManager disk2;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(store.dir(), &disk2,
                              MakeScoring("Linear", engine->dataset().dim()))
          .WithWal(FreshDir("snap_continue_wal")));
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
  EXPECT_EQ(a->stats.phase2_reads, b->stats.phase2_reads);
  EXPECT_EQ(b->snapshot_version, 3u);
}

// Keep-last-N retention reclaims old epochs, never the newest valid one
// — even at keep_last_n == 1 — and keep_last_n == 0 is refused outright.
TEST(SnapshotStoreTest, GarbageCollectKeepsLastN) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", data.dim())));
  SnapshotStore store(FreshDir("snap_gc"));
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(store.WriteArena(engine->flat_tree(), v).ok());
  }

  auto refused = store.GarbageCollect(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  auto gc = store.GarbageCollect(2);
  ASSERT_TRUE(gc.ok()) << gc.status().message();
  EXPECT_EQ(gc->removed_arenas, 3u);
  EXPECT_EQ(gc->kept, 2u);
  for (uint64_t v = 1; v <= 3; ++v) EXPECT_FALSE(Exists(store, v));

  // The newest epoch still recovers after the sweep.
  auto pick = store.RecoverLatestArena();
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->version, 5u);

  // keep_last_n == 1 trims to exactly the newest valid epoch, and an
  // idempotent re-run removes nothing further.
  auto gc1 = store.GarbageCollect(1);
  ASSERT_TRUE(gc1.ok());
  EXPECT_EQ(gc1->removed_arenas, 1u);
  auto gc_again = store.GarbageCollect(1);
  ASSERT_TRUE(gc_again.ok());
  EXPECT_EQ(gc_again->removed_arenas, 0u);
  EXPECT_EQ(gc_again->kept, 1u);
  ASSERT_TRUE(store.RecoverLatestArena().ok());
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
  ASSERT_TRUE(clean.WriteArena(engine->flat_tree(), 1).ok());
  ASSERT_TRUE(clean.WriteArena(engine->flat_tree(), 2).ok());

  FaultPlan plan;
  plan.seed = 53;
  plan.torn_write_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto torn = faulty.WriteArena(engine->flat_tree(), 3);
  ASSERT_TRUE(torn.ok());
  ASSERT_EQ(torn->injected, FaultInjector::WriteFault::kTorn);

  auto gc = clean.GarbageCollect(1);
  ASSERT_TRUE(gc.ok());
  // v1 (valid, older than newest valid v2, beyond keep=1) goes; v2 is
  // the newest valid and stays; torn v3 is newer than v2 and stays.
  EXPECT_EQ(gc->removed_arenas, 1u);
  EXPECT_EQ(gc->kept, 2u);
  EXPECT_TRUE(Exists(clean, 2));
  EXPECT_TRUE(Exists(clean, 3));

  auto pick = clean.RecoverLatestArena();
  ASSERT_TRUE(pick.ok()) << pick.status().message();
  EXPECT_EQ(pick->version, 2u);
  EXPECT_EQ(pick->rejected, 1u);
}

// GC racing recovery: a writer keeps publishing epochs and trimming to
// keep-last-N while a reader loops full recovery scans. Every recovery
// lands on a valid epoch (an arena GC deleted under the scan has
// vanished, not failed: the reader rescans and a newer one wins) and
// the recovered version never moves backward.
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

}  // namespace
}  // namespace gir
