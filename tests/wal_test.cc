// Durability contract of the write-ahead log: every batch ApplyUpdates
// acknowledges survives any crash bit-identically (two-phase recovery:
// newest valid arena epoch, thawed, + committed WAL replay), no batch
// whose ack failed is ever replayed, a torn tail truncates at the first
// bad record, replay is idempotent across repeated crashes, and
// checkpoints reclaim exactly the segments they made obsolete.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "index/flat_rtree.h"
#include "storage/arena_file.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"
#include "topk/scoring.h"

namespace gir {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kDataSeed = 1010;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::path(testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

Dataset FreshData(size_t n = 200, size_t dim = 3) {
  Rng rng(kDataSeed);
  auto data = GenerateByName("IND", n, dim, rng);
  EXPECT_TRUE(data.ok());
  return std::move(*data);
}

Vec Point(Rng& rng, size_t d) {
  Vec p(d);
  for (double& x : p) x = rng.Uniform();
  return p;
}

// Deterministic mixed batch for epoch `e` over a dataset of >= 50 rows:
// two inserts, one delete of a low id unique per epoch.
UpdateBatch MixedBatch(uint64_t e, size_t d) {
  Rng rng(7000 + e);
  UpdateBatch batch;
  batch.inserts.push_back(Point(rng, d));
  batch.inserts.push_back(Point(rng, d));
  batch.deletes = {static_cast<RecordId>(3 * e)};
  return batch;
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

// The arena bytes an engine's master tree freezes to: page ids, free
// pages, entry order and bits, and the dataset image.
std::vector<uint8_t> MasterImage(const GirEngine& engine) {
  return BuildArenaImage(FlatRTree::Freeze(engine.tree()), /*version=*/0);
}

// Bitwise query probes: ids, raw score doubles and the simulated I/O
// charged must all agree.
void ExpectBitIdenticalQueries(GirEngine* a, GirEngine* b, size_t d) {
  Rng rng(41);
  for (int probe = 0; probe < 8; ++probe) {
    Vec w(d);
    for (double& x : w) x = 0.05 + rng.Uniform(0.0, 0.95);
    auto ra = a->ComputeGir(w, 8, Phase2Method::kFP);
    auto rb = b->ComputeGir(w, 8, Phase2Method::kFP);
    ASSERT_TRUE(ra.ok()) << ra.status().message();
    ASSERT_TRUE(rb.ok()) << rb.status().message();
    EXPECT_EQ(ra->topk.result, rb->topk.result) << "probe " << probe;
    EXPECT_EQ(ra->topk.scores, rb->topk.scores) << "probe " << probe;
    EXPECT_EQ(ra->topk.io.reads, rb->topk.io.reads) << "probe " << probe;
  }
}

// ----- segment format: round trip, torn tails, corruption -----

TEST(WalStoreTest, RoundTripReplaysCommittedRecordsPastAnEpoch) {
  WalStore store(FreshDir("wal_roundtrip"));
  auto writer = WalWriter::Open(&store, /*base_epoch=*/0, /*dim=*/2);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  UpdateBatch b1;
  b1.inserts = {{0.25, 0.75}};
  UpdateBatch b2;
  b2.deletes = {11, 7};
  UpdateBatch b3;
  b3.inserts = {{0.5, 0.5}, {0.125, 0.875}};
  b3.deletes = {2};
  ASSERT_TRUE((*writer)->AppendDurable(b1, 1).ok());
  ASSERT_TRUE((*writer)->AppendDurable(b2, 2).ok());
  ASSERT_TRUE((*writer)->AppendDurable(b3, 3).ok());
  const WalWriter::Stats stats = (*writer)->stats();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.fsyncs, 3u);  // one fsync per ack
  writer->reset();

  auto log = store.ReadCommitted(0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->wal_dim, 2u);
  EXPECT_EQ(log->committed_seen, 3u);
  EXPECT_EQ(log->torn_truncated, 0u);
  EXPECT_EQ(log->gap_dropped, 0u);
  EXPECT_EQ(log->tail_epoch, 3u);
  ASSERT_EQ(log->records.size(), 3u);
  EXPECT_EQ(log->records[0].epoch, 1u);
  EXPECT_EQ(log->records[0].batch.inserts, b1.inserts);
  EXPECT_EQ(log->records[1].batch.deletes, b2.deletes);
  EXPECT_EQ(log->records[2].batch.inserts, b3.inserts);
  EXPECT_EQ(log->records[2].batch.deletes, b3.deletes);

  // Replay past epoch 2 skips the covered prefix (idempotence).
  auto tail = store.ReadCommitted(2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->overlap_skipped, 2u);
  ASSERT_EQ(tail->records.size(), 1u);
  EXPECT_EQ(tail->records[0].epoch, 3u);

  // Nothing past the tail: every committed record is overlap.
  auto none = store.ReadCommitted(3);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->records.empty());
  EXPECT_EQ(none->overlap_skipped, 3u);
}

// Crash-point sweep over the on-disk bytes: truncating the segment at
// EVERY byte offset must yield exactly the longest committed prefix —
// never an error, never a half-applied record, never a record from
// beyond the cut.
TEST(WalStoreTest, TornTailSweepReplaysExactlyTheCommittedPrefix) {
  const std::string dir = FreshDir("wal_torn_sweep");
  WalStore store(dir);
  {
    auto writer = WalWriter::Open(&store, 0, /*dim=*/2);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 3; ++e) {
      UpdateBatch b;
      b.inserts = {{0.1 * static_cast<double>(e), 0.2}};
      b.deletes = {static_cast<RecordId>(e)};
      ASSERT_TRUE((*writer)->AppendDurable(b, e).ok());
    }
  }
  const fs::path seg = fs::path(dir) / WalStore::SegmentFileName(0);
  std::vector<char> bytes;
  {
    std::ifstream in(seg, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Header is 28 bytes; each record frame here is crc(4) + len(8) +
  // payload(8 epoch + 8 n_ins + 16 insert + 8 n_del + 8 delete) +
  // commit marker(4) = 64 bytes.
  const size_t header = 28;
  const size_t frame = 64;
  ASSERT_EQ(bytes.size(), header + 3 * frame);

  const std::string cut_dir = FreshDir("wal_torn_sweep_cut");
  WalStore cut_store(cut_dir);
  fs::create_directories(cut_dir);
  const fs::path cut_seg =
      fs::path(cut_dir) / WalStore::SegmentFileName(0);
  for (size_t len = 0; len <= bytes.size(); ++len) {
    std::ofstream out(cut_seg, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    auto log = cut_store.ReadCommitted(0);
    ASSERT_TRUE(log.ok()) << "cut at " << len;
    const size_t expect =
        len < header ? 0 : std::min<size_t>(3, (len - header) / frame);
    ASSERT_EQ(log->records.size(), expect) << "cut at " << len;
    for (size_t r = 0; r < expect; ++r) {
      EXPECT_EQ(log->records[r].epoch, r + 1) << "cut at " << len;
    }
    if (len < bytes.size()) {
      // Short of a full segment, the cut is visible as a truncation
      // except exactly at a record boundary, where the prefix simply
      // ends clean.
      const bool at_boundary =
          len >= header && (len - header) % frame == 0;
      EXPECT_EQ(log->torn_truncated, at_boundary ? 0u : 1u)
          << "cut at " << len;
    } else {
      EXPECT_EQ(log->torn_truncated, 0u);
    }
  }
}

// A flipped byte in the middle of the log stops replay at the damaged
// record even though later records are intact on disk: those records
// were acknowledged after the corruption hit the platter, but applying
// them without the damaged one would tear the epoch sequence.
TEST(WalStoreTest, CorruptRecordTruncatesReplayAtTheDamage) {
  const std::string dir = FreshDir("wal_corrupt_mid");
  WalStore store(dir);
  {
    auto writer = WalWriter::Open(&store, 0, /*dim=*/2);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 3; ++e) {
      UpdateBatch b;
      b.inserts = {{0.3, 0.4}};
      ASSERT_TRUE((*writer)->AppendDurable(b, e).ok());
    }
  }
  const fs::path seg = fs::path(dir) / WalStore::SegmentFileName(0);
  {
    // Flip one payload byte of the second record (header 28, 56-byte
    // frames here: crc+len+payload(8+8+16+8)+marker).
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const std::streamoff at = 28 + 56 + 12 + 20;  // inside record 2's row
    f.seekg(at);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x10;
    f.seekp(at);
    f.write(&c, 1);
  }
  auto log = store.ReadCommitted(0);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->records.size(), 1u);
  EXPECT_EQ(log->records[0].epoch, 1u);
  EXPECT_EQ(log->torn_truncated, 1u);
  EXPECT_EQ(log->tail_epoch, 1u);
}

// A torn tail in an OLDER segment must not hide committed records in a
// newer one: that is exactly the disk state after a recovery truncates
// a tail and a fresh writer acknowledges batches into the next segment.
// The scan truncates only the damaged segment and keeps going; Sanitize
// then makes the disk match the plan so the next scan is clean.
TEST(WalStoreTest, TornTailInAnOlderSegmentDoesNotHideNewerSegments) {
  const std::string dir = FreshDir("wal_cross_segment");
  WalStore store(dir);
  {
    auto writer = WalWriter::Open(&store, 0, /*dim=*/2);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 2; ++e) {
      UpdateBatch b;
      b.inserts = {{0.1, 0.2}};
      ASSERT_TRUE((*writer)->AppendDurable(b, e).ok());
    }
    ASSERT_TRUE((*writer)->Rotate(2).ok());
    for (uint64_t e = 3; e <= 4; ++e) {
      UpdateBatch b;
      b.inserts = {{0.3, 0.4}};
      ASSERT_TRUE((*writer)->AppendDurable(b, e).ok());
    }
  }
  {
    // Torn tail on the old segment (a half-written frame), plus a junk
    // file that parses as a segment name but has no valid header.
    std::ofstream torn(fs::path(dir) / WalStore::SegmentFileName(0),
                       std::ios::binary | std::ios::app);
    const char junk[11] = "truncated!";
    torn.write(junk, 10);
    torn.close();
    std::ofstream rogue(fs::path(dir) / WalStore::SegmentFileName(1),
                        std::ios::binary);
    for (int i = 0; i < 8; ++i) rogue.write(junk, 10);
    rogue.close();
  }

  auto log = store.ReadCommitted(0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->torn_truncated, 2u);  // wal-0's tail + the junk header
  EXPECT_EQ(log->tail_epoch, 4u);
  ASSERT_EQ(log->records.size(), 4u);
  for (size_t r = 0; r < 4; ++r) EXPECT_EQ(log->records[r].epoch, r + 1);
  ASSERT_EQ(log->segments.size(), 3u);
  EXPECT_EQ(log->segments[0].action,
            WalStore::SegmentState::Action::kTruncate);
  EXPECT_EQ(log->segments[1].action, WalStore::SegmentState::Action::kRemove);
  EXPECT_EQ(log->segments[2].action, WalStore::SegmentState::Action::kKeep);

  auto cleaned = store.Sanitize(*log);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().message();
  EXPECT_EQ(cleaned->truncated_segments, 1u);
  EXPECT_EQ(cleaned->removed_segments, 1u);
  ASSERT_EQ(store.ListSegmentBases(), (std::vector<uint64_t>{0, 2}));

  // The sanitized log replays identically and reports zero damage.
  auto again = store.ReadCommitted(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->torn_truncated, 0u);
  EXPECT_EQ(again->tail_epoch, 4u);
  ASSERT_EQ(again->records.size(), 4u);

  // Sanitizing a clean log is a no-op (recovery may re-run it).
  auto noop = store.Sanitize(*again);
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->truncated_segments, 0u);
  EXPECT_EQ(noop->removed_segments, 0u);
}

// ----- concurrent appenders -----

// AppendDurable serializes its callers: eight threads appending in
// epoch order (the test's lock stands in for the engine's update lock)
// each get their own fsync, and every acked record replays.
TEST(WalWriterTest, ConcurrentAppendDurableFsyncsEveryAck) {
  WalStore store(FreshDir("wal_concurrent"));
  auto writer = WalWriter::Open(&store, 0, /*dim=*/2);
  ASSERT_TRUE(writer.ok());

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 8;
  std::mutex epoch_mu;  // appends must stay in epoch order
  uint64_t next_epoch = 0;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        UpdateBatch b;
        b.inserts = {{0.5, 0.5}};
        std::lock_guard<std::mutex> lock(epoch_mu);
        if (!(*writer)->AppendDurable(b, ++next_epoch).ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  const WalWriter::Stats stats = (*writer)->stats();
  EXPECT_EQ(stats.appends, kThreads * kPerThread);
  EXPECT_EQ(stats.fsyncs, stats.appends);
  writer->reset();

  auto log = store.ReadCommitted(0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->records.size(), kThreads * kPerThread);
  EXPECT_EQ(log->tail_epoch, kThreads * kPerThread);
  EXPECT_EQ(log->torn_truncated, 0u);
}

// ----- engine integration: ack durability, crash recovery -----

TEST(WalEngineTest, AcknowledgedBatchesSurviveCrashBitIdentically) {
  const size_t d = 3;
  Dataset data = FreshData(240, d);
  DiskManager disk;
  const std::string snap_dir = FreshDir("wal_crash_snap");
  const std::string wal_dir = FreshDir("wal_crash_wal");
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  ASSERT_TRUE(engine->has_wal());

  // Epoch 1, then an arena, then two more acked epochs that exist ONLY
  // in the WAL when the "crash" hits. The arena is published without
  // cutting the log (a checkpoint that crashed between its publish and
  // its WAL truncation), so replay must skip the covered epoch 1.
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  SnapshotStore store(snap_dir);
  ASSERT_TRUE(store.WriteArena(engine->flat_tree(), 1).ok());
  auto up2 = engine->ApplyUpdates(MixedBatch(2, d));
  ASSERT_TRUE(up2.ok());
  EXPECT_TRUE(up2->wal_logged);
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(3, d)).ok());
  EXPECT_EQ(engine->wal_writer_stats().appends, 3u);

  // Crash: the process dies; only snap_dir (epoch 1) and the WAL
  // survive. Two-phase recovery must reach epoch 3.
  DiskManager disk2;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(restored->dataset_version(), 3u);
  EXPECT_EQ(restored->wal_recovery().recovered_epoch, 1u);
  EXPECT_EQ(restored->wal_recovery().replayed_to, 3u);
  EXPECT_EQ(restored->wal_recovery().replayed_batches, 2u);
  EXPECT_EQ(restored->wal_recovery().overlap_skipped, 1u);  // epoch 1

  // Bit-identical to the pre-crash engine: dataset bytes, the master
  // tree's page image, query ids/scores and the simulated I/O charged.
  ExpectSameDataset(engine->dataset(), restored->dataset());
  EXPECT_EQ(MasterImage(*engine), MasterImage(*restored));
  ExpectBitIdenticalQueries(engine.get(), restored.get(), d);

  // The epoch sequence continues where the acks left off.
  auto up4 = restored->ApplyUpdates(MixedBatch(4, d));
  ASSERT_TRUE(up4.ok());
  EXPECT_EQ(up4->version, 4u);
}

TEST(WalEngineTest, ReplayIsIdempotentAcrossRepeatedCrashes) {
  const size_t d = 3;
  Dataset data = FreshData(240, d);
  DiskManager disk;
  const std::string snap_dir = FreshDir("wal_double_snap");
  const std::string wal_dir = FreshDir("wal_double_wal");
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  SnapshotStore store(snap_dir);
  ASSERT_TRUE(engine->Checkpoint(&store).ok());
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(2, d)).ok());
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(3, d)).ok());
  const size_t rows = engine->dataset().size();
  const size_t live = engine->dataset().live_size();

  // Crash #1 mid-operation, recover (replays 2..3), then crash again
  // BEFORE any checkpoint — the second recovery replays the very same
  // records over the same arena. Nothing may duplicate.
  DiskManager disk2;
  auto first = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(first->dataset_version(), 3u);
  EXPECT_EQ(first->dataset().size(), rows);
  EXPECT_EQ(first->dataset().live_size(), live);

  DiskManager disk3;
  auto second = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk3, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(second->dataset_version(), 3u);
  EXPECT_EQ(second->wal_recovery().replayed_batches, 2u);
  // No duplicate ids, no double-applied inserts: the datasets (and so
  // every query) are bit-identical across the two recoveries and the
  // original timeline.
  EXPECT_EQ(second->dataset().size(), rows);
  EXPECT_EQ(second->dataset().live_size(), live);
  ExpectSameDataset(first->dataset(), second->dataset());
  ExpectSameDataset(engine->dataset(), second->dataset());
  ExpectBitIdenticalQueries(first.get(), second.get(), d);
}

TEST(WalEngineTest, FailedBatchLeavesDatasetTreeAndWalUntouched) {
  const size_t d = 3;
  Dataset data = FreshData(120, d);
  DiskManager disk;
  const std::string wal_dir = FreshDir("wal_all_or_nothing");
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());

  // Break the index invariant from outside: append a record straight to
  // the caller-owned master dataset, so it is live in the dataset but
  // absent from the R*-tree. Deleting it must fail with kInternal
  // during validation — before the WAL, the tree or the dataset is
  // touched.
  const RecordId rogue = data.AppendRecord(Vec{0.5, 0.5, 0.5});
  const size_t live_before = data.live_size();
  const size_t tree_before = engine->tree().size();

  UpdateBatch poison;
  poison.inserts = {{0.25, 0.25, 0.25}};
  poison.deletes = {rogue};
  auto failed = engine->ApplyUpdates(poison);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);

  // All-or-nothing: no version bump, no tombstone, no insert, no tree
  // mutation — and above all no WAL record (a logged-but-unapplied
  // batch would resurrect the failure at every recovery).
  EXPECT_EQ(engine->dataset_version(), 1u);
  EXPECT_EQ(data.live_size(), live_before);
  EXPECT_TRUE(data.IsLive(rogue));
  EXPECT_EQ(engine->tree().size(), tree_before);
  EXPECT_EQ(engine->wal_writer_stats().appends, 1u);  // only epoch 1
  auto log = WalStore(wal_dir).ReadCommitted(0);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->records.size(), 1u);
  EXPECT_EQ(log->records[0].epoch, 1u);

  // The engine keeps working for well-formed batches.
  auto next = engine->ApplyUpdates(MixedBatch(2, d));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->version, 2u);
}

// ----- injected faults on the commit path -----

TEST(WalEngineTest, FsyncErrorFailsTheAckAndTheBatchIsNeverReplayed) {
  const size_t d = 3;
  Dataset data = FreshData(120, d);
  DiskManager disk;
  const std::string wal_dir = FreshDir("wal_fsync_eio");
  FaultPlan plan;
  plan.seed = 77;
  plan.wal_fsync_error_rate = 1.0;
  plan.skip_ops = 1;  // first commit clean, second fails
  FaultInjector fi(plan);
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir, &fi));

  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  const size_t live_before = data.live_size();
  auto failed = engine->ApplyUpdates(MixedBatch(2, d));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(fi.wal_fsync_errors(), 1u);
  // EIO on commit: the ack failed, so nothing was mutated...
  EXPECT_EQ(engine->dataset_version(), 1u);
  EXPECT_EQ(data.live_size(), live_before);
  // ...and the writer is poisoned — a half-durable log cannot take
  // more acks until recovery truncates it.
  EXPECT_FALSE(engine->ApplyUpdates(MixedBatch(2, d)).ok());

  // The un-acked batch was rolled back off the segment: replay sees
  // exactly the acknowledged epoch and nothing more.
  WalStore probe(wal_dir);
  auto log = probe.ReadCommitted(0);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->records.size(), 1u);
  EXPECT_EQ(log->records[0].epoch, 1u);
  EXPECT_EQ(log->torn_truncated, 0u);
}

TEST(WalEngineTest, TornAppendFailsTheAckAndRecoveryTruncatesTheTail) {
  const size_t d = 3;
  Dataset data = FreshData(240, d);
  DiskManager disk;
  const std::string snap_dir = FreshDir("wal_torn_snap");
  const std::string wal_dir = FreshDir("wal_torn_wal");
  FaultPlan plan;
  plan.seed = 78;
  plan.wal_torn_rate = 1.0;
  plan.skip_ops = 2;  // two clean appends, then the torn one
  FaultInjector fi(plan);
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir, &fi));
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  SnapshotStore store(snap_dir);
  ASSERT_TRUE(engine->Checkpoint(&store).ok());
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(2, d)).ok());

  auto torn = engine->ApplyUpdates(MixedBatch(3, d));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(fi.wal_torn_appends(), 1u);
  EXPECT_EQ(engine->dataset_version(), 2u);  // epoch 3 never acked

  // Recovery (no injector: reading damage is not a fault) truncates the
  // torn tail and lands exactly on the acknowledged prefix.
  DiskManager disk2;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(restored->dataset_version(), 2u);
  EXPECT_EQ(restored->wal_recovery().replayed_batches, 1u);
  EXPECT_EQ(restored->wal_recovery().torn_truncated, 1u);
  // Recovery physically cut the torn tail off the segment, not just
  // the in-memory replay.
  EXPECT_EQ(restored->wal_recovery().segments_truncated, 1u);
  ExpectSameDataset(engine->dataset(), restored->dataset());
  // And the recovered engine accepts new acks again.
  auto up3 = restored->ApplyUpdates(MixedBatch(3, d));
  ASSERT_TRUE(up3.ok());
  EXPECT_EQ(up3->version, 3u);
}

// The double-crash sequence behind physical sanitization: a torn tail,
// a recovery, an acked batch on the recovered engine (which lands in a
// NEW segment), then a second crash. If recovery only truncated the
// tail logically, the second scan would stop at the old segment's
// damage, never reach the new segment, and the writer's O_TRUNC open
// would destroy the acked batch — the ack guarantee demands it survive.
TEST(WalEngineTest, AckedBatchAfterTornTailRecoverySurvivesASecondCrash) {
  const size_t d = 3;
  Dataset data = FreshData(240, d);
  DiskManager disk;
  const std::string snap_dir = FreshDir("wal_torn_twice_snap");
  const std::string wal_dir = FreshDir("wal_torn_twice_wal");
  FaultPlan plan;
  plan.seed = 81;
  plan.wal_torn_rate = 1.0;
  plan.skip_ops = 2;  // two clean appends, then the torn one
  FaultInjector fi(plan);
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir, &fi));
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  SnapshotStore store(snap_dir);
  ASSERT_TRUE(engine->Checkpoint(&store).ok());
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(2, d)).ok());
  ASSERT_FALSE(engine->ApplyUpdates(MixedBatch(3, d)).ok());  // torn

  // Crash #1, recover, acknowledge one more batch on the restored
  // engine — it goes to a fresh segment past the sanitized tail.
  DiskManager disk2;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(restored->dataset_version(), 2u);
  EXPECT_EQ(restored->wal_recovery().segments_truncated, 1u);
  auto up3 = restored->ApplyUpdates(MixedBatch(3, d));
  ASSERT_TRUE(up3.ok());
  EXPECT_EQ(up3->version, 3u);

  // Crash #2: the second recovery must replay across BOTH segments —
  // the truncated pre-crash one and the post-recovery one.
  DiskManager disk3;
  auto again = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk3, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(again->dataset_version(), 3u);
  EXPECT_EQ(again->wal_recovery().replayed_batches, 2u);  // epochs 2, 3
  EXPECT_EQ(again->wal_recovery().torn_truncated, 0u);  // disk was clean
  ExpectSameDataset(restored->dataset(), again->dataset());
  ExpectBitIdenticalQueries(restored.get(), again.get(), d);
}

// ----- checkpoints and arena-based recovery -----

TEST(WalEngineTest, CheckpointRotatesAndTruncatesObsoleteSegments) {
  const size_t d = 3;
  Dataset data = FreshData(200, d);
  DiskManager disk;
  const std::string snap_dir = FreshDir("wal_ckpt_snap");
  const std::string wal_dir = FreshDir("wal_ckpt_wal");
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(2, d)).ok());

  SnapshotStore store(snap_dir);
  auto ckpt = engine->Checkpoint(&store);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().message();
  EXPECT_EQ(ckpt->version, 2u);
  EXPECT_TRUE(ckpt->wal_truncated);
  EXPECT_EQ(ckpt->wal_segments_removed, 1u);  // wal-0 covered by arena-2
  EXPECT_EQ(engine->wal_writer_stats().rotations, 1u);
  const std::vector<uint64_t> bases = WalStore(wal_dir).ListSegmentBases();
  ASSERT_EQ(bases.size(), 1u);
  EXPECT_EQ(bases[0], 2u);

  // Post-checkpoint acks land in the fresh segment; arena + WAL-tail
  // recovery then reaches them without the removed segment.
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(3, d)).ok());
  DiskManager disk2;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(restored->dataset_version(), 3u);
  EXPECT_EQ(restored->wal_recovery().recovered_epoch, 2u);
  EXPECT_EQ(restored->wal_recovery().replayed_batches, 1u);
  EXPECT_TRUE(restored->has_master_tree());
  ExpectSameDataset(engine->dataset(), restored->dataset());
  // Thawed from the arena's node pages: page ids and free list are the
  // pre-crash master's, so the simulated I/O matches too.
  EXPECT_EQ(MasterImage(*engine), MasterImage(*restored));
  ExpectBitIdenticalQueries(engine.get(), restored.get(), d);
}

TEST(WalEngineTest, DamagedCheckpointKeepsEveryWalSegment) {
  const size_t d = 3;
  Dataset data = FreshData(160, d);
  DiskManager disk;
  const std::string snap_dir = FreshDir("wal_torn_ckpt_snap");
  const std::string wal_dir = FreshDir("wal_torn_ckpt_wal");
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(2, d)).ok());

  // A flipped byte inside a section payload: only the arena checksum
  // can tell (a torn write may shear nothing but alignment padding, so
  // corruption is the deterministic way to damage the checkpoint).
  FaultPlan plan;
  plan.seed = 79;
  plan.corrupt_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(snap_dir, &fi);
  auto ckpt = engine->Checkpoint(&faulty);
  ASSERT_TRUE(ckpt.ok());  // the damaged publish itself reports success
  // ...but the post-publish validation caught it: truncating the WAL
  // now would widen the data-loss window, so nothing was removed.
  EXPECT_FALSE(ckpt->wal_truncated);
  EXPECT_EQ(ckpt->wal_segments_removed, 0u);
  WalStore probe(wal_dir);
  auto log = probe.ReadCommitted(0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->tail_epoch, 2u);  // both epochs still replayable
}

// The torn twin: a checkpoint published torn (the injector tears every
// publish, at a seed-drawn point) truncates the WAL exactly when the
// read-back check accepts the file — a tear that drops only trailing
// padding may leave it valid — and either way a restart lands on the
// pre-crash engine: from the torn epoch if it validated, else from the
// older clean checkpoint plus every batch the WAL kept.
TEST(WalEngineTest, TornCheckpointTruncatesOnlyWhatReadBackAccepts) {
  const size_t d = 3;
  for (uint64_t seed : {90u, 91u, 92u, 93u, 94u, 95u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Dataset data = FreshData(160, d);
    DiskManager disk;
    const std::string tag = std::to_string(seed);
    const std::string snap_dir = FreshDir("wal_torn_twin_snap_" + tag);
    const std::string wal_dir = FreshDir("wal_torn_twin_wal_" + tag);
    auto engine = OpenEngineOrDie(
        EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
            .WithWal(wal_dir));
    ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
    SnapshotStore clean(snap_dir);
    auto first = engine->Checkpoint(&clean);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->wal_truncated);
    ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(2, d)).ok());
    ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(3, d)).ok());

    FaultPlan plan;
    plan.seed = seed;
    plan.torn_write_rate = 1.0;
    FaultInjector fi(plan);
    SnapshotStore faulty(snap_dir, &fi);
    auto ckpt = engine->Checkpoint(&faulty);
    ASSERT_TRUE(ckpt.ok());
    EXPECT_EQ(fi.torn_writes(), 1u);
    EXPECT_LT(fs::file_size(ckpt->arena_path), ckpt->arena_bytes);
    const bool valid = ArenaFile::Verify(ckpt->arena_path).ok();
    EXPECT_EQ(ckpt->wal_truncated, valid);
    EXPECT_EQ(ArenaFile::Open(ckpt->arena_path).ok(), valid);

    DiskManager disk2;
    auto restored = OpenEngineOrDie(
        EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
            .WithWal(wal_dir));
    EXPECT_EQ(restored->dataset_version(), 3u);
    EXPECT_EQ(restored->wal_recovery().recovered_epoch, valid ? 3u : 1u);
    EXPECT_EQ(restored->wal_recovery().replayed_batches, valid ? 0u : 2u);
    ExpectSameDataset(engine->dataset(), restored->dataset());
    EXPECT_EQ(MasterImage(*engine), MasterImage(*restored));
    ExpectBitIdenticalQueries(engine.get(), restored.get(), d);
  }
}

// WithWal means updatable: an arena + WAL restart right after a
// checkpoint (an empty tail) thaws the master, opens the writer, and
// its next batches match a never-restarted engine bitwise.
TEST(WalEngineTest, ArenaWithNoWalTailOpensUpdatable) {
  const size_t d = 3;
  Dataset data = FreshData(160, d);
  DiskManager disk;
  const std::string snap_dir = FreshDir("wal_arena_clean_snap");
  const std::string wal_dir = FreshDir("wal_arena_clean_wal");
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  ASSERT_TRUE(engine->ApplyUpdates(MixedBatch(1, d)).ok());
  SnapshotStore store(snap_dir);
  ASSERT_TRUE(engine->Checkpoint(&store).ok());
  engine.reset();  // the leader restarts

  DiskManager disk2;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
          .WithWal(wal_dir));
  EXPECT_EQ(restored->dataset_version(), 1u);
  EXPECT_TRUE(restored->has_master_tree());
  EXPECT_TRUE(restored->has_wal());
  EXPECT_EQ(restored->wal_recovery().replayed_batches, 0u);

  // The never-restarted timeline: the same batches on a fresh engine.
  Dataset ref_data = FreshData(160, d);
  DiskManager ref_disk;
  auto reference = OpenEngineOrDie(EngineConfig::FromDataset(
      &ref_data, &ref_disk, MakeScoring("Linear", d)));
  ASSERT_TRUE(reference->ApplyUpdates(MixedBatch(1, d)).ok());
  EXPECT_EQ(MasterImage(*reference), MasterImage(*restored));
  for (uint64_t e = 2; e <= 3; ++e) {
    auto up = restored->ApplyUpdates(MixedBatch(e, d));
    ASSERT_TRUE(up.ok()) << up.status().message();
    EXPECT_TRUE(up->wal_logged);
    EXPECT_EQ(up->version, e);
    ASSERT_TRUE(reference->ApplyUpdates(MixedBatch(e, d)).ok());
    ExpectSameDataset(reference->dataset(), restored->dataset());
    EXPECT_EQ(MasterImage(*reference), MasterImage(*restored));
    ExpectBitIdenticalQueries(reference.get(), restored.get(), d);
  }
}

TEST(WalEngineTest, ReadOnlyDatasetSourceRefusesAWal) {
  const size_t d = 2;
  Dataset data = FreshData(60, d);
  const Dataset& frozen = data;
  DiskManager disk;
  EngineConfig config =
      EngineConfig::FromDataset(&frozen, &disk, MakeScoring("Linear", d))
          .WithWal(FreshDir("wal_readonly"));
  auto refused = GirEngine::Open(std::move(config));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gir
