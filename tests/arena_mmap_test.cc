// Real-I/O storage contract of the mmap'd arena engine: an engine
// opened straight from an arena file answers bit-identically to the
// heap-frozen engine it was published from — ids, scores, constraint
// normals and charged IoStats — across every data distribution, scoring
// function and forced SIMD tier; damaged arena files (torn tail,
// flipped byte) are rejected at open by checksum and skipped by
// directory recovery; CRC-valid arenas whose node structure is broken
// are rejected by FromArena, read-only or updatable; epoch advance on a follower is one
// validated pointer swap; and shared traversal over the mapped image
// matches the heap image in top-k and charged reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "index/flat_rtree.h"
#include "index/rtree.h"
#include "storage/arena_file.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/snapshot_store.h"
#include "topk/scoring.h"

namespace gir {
namespace {

constexpr uint64_t kDataSeed = 808;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

Dataset MakeDist(const std::string& dist, size_t n, size_t d,
                 uint64_t seed) {
  Rng rng(seed);
  if (dist == "COR") return GenerateCorrelated(n, d, rng);
  if (dist == "ANTI") return GenerateAnticorrelated(n, d, rng);
  return GenerateIndependent(n, d, rng);
}

Vec MakeQuery(Rng& rng, size_t d) {
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

std::vector<simd::Tier> AvailableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  const int detected = static_cast<int>(simd::DetectedTier());
  if (detected >= static_cast<int>(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Restores the startup dispatch tier when a test scope ends, so a
// failing assertion can't leak a forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

// Bit-for-bit equality of two complete computations: result order,
// scores, every constraint normal, and the charged I/O.
void ExpectSameComputation(const GirComputation& a, const GirComputation& b,
                           const std::string& label) {
  ASSERT_EQ(a.topk.result, b.topk.result) << label;
  ASSERT_EQ(a.topk.scores, b.topk.scores) << label;
  EXPECT_EQ(a.topk.io.reads, b.topk.io.reads) << label;
  EXPECT_EQ(a.stats.topk_reads, b.stats.topk_reads) << label;
  EXPECT_EQ(a.stats.phase2_reads, b.stats.phase2_reads) << label;
  ASSERT_EQ(a.region.constraints().size(), b.region.constraints().size())
      << label;
  for (size_t c = 0; c < a.region.constraints().size(); ++c) {
    EXPECT_EQ(a.region.constraints()[c].normal,
              b.region.constraints()[c].normal)
        << label << " constraint " << c;
  }
}

// The tentpole property: Open(FromArena) serves the published epoch
// bit-identically to the heap engine, across IND/COR/ANTI ×
// Linear/Polynomial/Mixed × every SIMD tier this machine dispatches.
TEST(ArenaMmapTest, BitIdenticalToHeapEngineAcrossTiers) {
  TierGuard guard;
  const char* kDists[] = {"IND", "COR", "ANTI"};
  const char* kScorings[] = {"Linear", "Polynomial", "Mixed"};
  const size_t n = 260;
  const size_t d = 4;
  const size_t k = 10;

  for (const char* dist : kDists) {
    Dataset data = MakeDist(dist, n, d, kDataSeed);
    for (const char* scoring : kScorings) {
      DiskManager heap_disk;
      auto heap = OpenEngineOrDie(
          EngineConfig::FromDataset(&data, &heap_disk, MakeScoring(scoring, d)));

      const std::string dir =
          FreshDir(std::string("arena_bit_") + dist + "_" + scoring);
      SnapshotStore store(dir);
      auto wrote = store.WriteArena(heap->flat_tree(), 0);
      ASSERT_TRUE(wrote.ok()) << wrote.status().message();
      EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kNone);

      DiskManager mmap_disk;
      auto mapped = GirEngine::Open(
          EngineConfig::FromArena(dir, &mmap_disk, MakeScoring(scoring, d)));
      ASSERT_TRUE(mapped.ok()) << mapped.status().message();
      EXPECT_FALSE((*mapped)->has_master_tree());
      EXPECT_EQ((*mapped)->dataset_version(), 0u);
      EXPECT_EQ((*mapped)->dataset().size(), data.size());

      for (simd::Tier tier : AvailableTiers()) {
        simd::ForceTier(tier);
        Rng qrng(kDataSeed + 7);
        for (int q = 0; q < 4; ++q) {
          Vec w = MakeQuery(qrng, d);
          auto want = heap->ComputeGir(w, k, Phase2Method::kFP);
          auto got = (*mapped)->ComputeGir(w, k, Phase2Method::kFP);
          ASSERT_TRUE(want.ok()) << want.status().message();
          ASSERT_TRUE(got.ok()) << got.status().message();
          ExpectSameComputation(
              *want, *got,
              std::string(dist) + "/" + scoring + "/" +
                  simd::TierName(tier) + "/q" + std::to_string(q));
        }
      }
    }
  }
}

// A torn publish (truncated tail behind a durable rename) is rejected
// by ArenaFile::Open and skipped — with the damage counted — by
// RecoverLatestArena, which falls back to the newest intact epoch.
TEST(ArenaMmapTest, TornArenaIsRejectedAndRecoverySkipsIt) {
  Dataset data = MakeDist("IND", 200, 3, kDataSeed + 1);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_torn");

  SnapshotStore clean(dir);
  ASSERT_TRUE(clean.WriteArena(engine->flat_tree(), 1).ok());

  FaultPlan plan;
  plan.seed = 41;
  plan.torn_write_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto wrote = faulty.WriteArena(engine->flat_tree(), 2);
  // The publish itself reports success — a crashed write does not
  // announce itself; detection belongs to open/recovery.
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kTorn);
  EXPECT_LT(std::filesystem::file_size(wrote->path), wrote->bytes);

  auto open = ArenaFile::Open(wrote->path);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kDataLoss);

  auto pick = clean.RecoverLatestArena();
  ASSERT_TRUE(pick.ok()) << pick.status().message();
  EXPECT_EQ(pick->version, 1u);
  EXPECT_EQ(pick->scanned, 2u);
  EXPECT_EQ(pick->rejected, 1u);

  // Open-from-directory lands on the surviving epoch.
  DiskManager disk2;
  auto mapped = GirEngine::Open(
      EngineConfig::FromArena(dir, &disk2, MakeScoring("Linear", 3)));
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_EQ((*mapped)->dataset_version(), 1u);
}

// One flipped payload byte leaves the file size intact — only the
// section CRC can tell — and is still rejected before any byte is
// served.
TEST(ArenaMmapTest, CorruptArenaIsRejectedByChecksum) {
  Dataset data = MakeDist("IND", 200, 3, kDataSeed + 2);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_corrupt");

  FaultPlan plan;
  plan.seed = 42;
  plan.corrupt_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto wrote = faulty.WriteArena(engine->flat_tree(), 3);
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kCorrupt);
  EXPECT_EQ(std::filesystem::file_size(wrote->path), wrote->bytes);

  auto open = ArenaFile::Open(wrote->path);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kDataLoss);

  // With every candidate damaged, recovery refuses rather than serving
  // bad bytes, and says how much it scanned.
  auto pick = faulty.RecoverLatestArena();
  ASSERT_FALSE(pick.ok());
  EXPECT_EQ(pick.status().code(), StatusCode::kNotFound);

  DiskManager disk2;
  auto mapped = GirEngine::Open(
      EngineConfig::FromArena(dir, &disk2, MakeScoring("Linear", 3)));
  ASSERT_FALSE(mapped.ok());
}

// The follower epoch-advance path: a leader mutates and publishes arena
// N+1; the follower AdvanceToArena's onto it with one validated pointer
// swap and then answers bit-identically to the mutated leader. Engines
// with a master tree refuse the call.
TEST(ArenaMmapTest, AdvanceToArenaSwapsEpochsInPlace) {
  Dataset data = MakeDist("IND", 240, 3, kDataSeed + 3);
  DiskManager leader_disk;
  auto leader = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &leader_disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_advance");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.WriteArena(leader->flat_tree(), 0).ok());

  DiskManager follower_disk;
  auto follower = OpenEngineOrDie(EngineConfig::FromArena(
      dir, &follower_disk, MakeScoring("Linear", 3)));
  EXPECT_EQ(follower->dataset_version(), 0u);

  // Only arena engines advance; the leader keeps its own refreeze path.
  auto wrong = leader->AdvanceToArena(dir + "/" +
                                      SnapshotStore::ArenaFileName(0));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);

  UpdateBatch batch;
  batch.deletes = {5, 9};
  batch.inserts = {{0.31, 0.62, 0.18}};
  ASSERT_TRUE(leader->ApplyUpdates(batch).ok());
  ASSERT_EQ(leader->dataset_version(), 1u);
  ASSERT_TRUE(store.WriteArena(leader->flat_tree(), 1).ok());

  auto advanced = follower->AdvanceToArena(
      dir + "/" + SnapshotStore::ArenaFileName(1));
  ASSERT_TRUE(advanced.ok()) << advanced.status().message();
  EXPECT_EQ(*advanced, 1u);
  EXPECT_EQ(follower->dataset_version(), 1u);
  EXPECT_EQ(follower->dataset().live_size(), data.live_size());

  Rng qrng(kDataSeed + 11);
  for (int q = 0; q < 3; ++q) {
    Vec w = MakeQuery(qrng, 3);
    auto want = leader->ComputeGir(w, 8, Phase2Method::kFP);
    auto got = follower->ComputeGir(w, 8, Phase2Method::kFP);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameComputation(*want, *got, "post-advance q" + std::to_string(q));
    EXPECT_EQ(got->snapshot_version, 1u);
  }

  // A cold restart onto the mutated epoch (Open maps the newest arena)
  // answers bit-identically to the leader too, tombstones included.
  DiskManager restart_disk;
  auto restarted = OpenEngineOrDie(EngineConfig::FromArena(
      dir, &restart_disk, MakeScoring("Linear", 3)));
  EXPECT_EQ(restarted->dataset_version(), 1u);
  for (int q = 0; q < 3; ++q) {
    Vec w = MakeQuery(qrng, 3);
    auto want = leader->ComputeGir(w, 8, Phase2Method::kFP);
    auto got = restarted->ComputeGir(w, 8, Phase2Method::kFP);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameComputation(*want, *got, "cold restart q" + std::to_string(q));
  }

  // Advancing onto a missing or damaged file leaves the served epoch
  // untouched.
  auto missing = follower->AdvanceToArena(dir + "/" +
                                          SnapshotStore::ArenaFileName(9));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(follower->dataset_version(), 1u);
}

// Shared traversal (the batch engine's grouped RunBrsMulti path) over
// the mapped image returns the heap image's top-k and charges the same
// reads, per query and per batch.
TEST(ArenaMmapTest, SharedTraversalMatchesHeapOnMappedImage) {
  Dataset data = MakeDist("IND", 400, 3, kDataSeed + 4);
  DiskManager heap_disk;
  auto heap = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &heap_disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_shared");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.WriteArena(heap->flat_tree(), 0).ok());
  DiskManager mmap_disk;
  auto mapped = OpenEngineOrDie(EngineConfig::FromArena(
      dir, &mmap_disk, MakeScoring("Linear", 3)));

  std::vector<Vec> weights;
  Rng qrng(kDataSeed + 13);
  for (int q = 0; q < 12; ++q) weights.push_back(MakeQuery(qrng, 3));

  BatchOptions opts;
  opts.threads = 1;
  opts.populate_cache = false;
  opts.exec.shared_traversal = true;
  opts.exec.group_width = 8;

  BatchEngine heap_batch(heap.get(), opts);
  BatchEngine mmap_batch(mapped.get(), opts);

  auto want = heap_batch.ComputeBatch(weights, 10, Phase2Method::kFP);
  auto got = mmap_batch.ComputeBatch(weights, 10, Phase2Method::kFP);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(want->items.size(), got->items.size());
  for (size_t i = 0; i < want->items.size(); ++i) {
    ASSERT_TRUE(want->items[i].status.ok());
    ASSERT_TRUE(got->items[i].status.ok());
    EXPECT_EQ(want->items[i].topk, got->items[i].topk) << "query " << i;
    EXPECT_EQ(want->items[i].reads, got->items[i].reads) << "query " << i;
  }
  EXPECT_EQ(want->stats.charged_reads, got->stats.charged_reads);
  EXPECT_EQ(want->stats.amortized_reads, got->stats.amortized_reads);
}

// The arena file itself round-trips its geometry.
TEST(ArenaMmapTest, ArenaFileRoundTripsItsGeometry) {
  Dataset data = MakeDist("IND", 300, 3, kDataSeed + 5);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_geometry");
  SnapshotStore store(dir);
  auto wrote = store.WriteArena(engine->flat_tree(), 7);
  ASSERT_TRUE(wrote.ok());

  auto opened = ArenaFile::Open(wrote->path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const ArenaFile& arena = **opened;
  EXPECT_EQ(arena.version(), 7u);
  EXPECT_EQ(arena.dim(), 3u);
  EXPECT_EQ(arena.dataset_rows(), data.size());
  EXPECT_GT(arena.node_count(), 0u);
  EXPECT_GE(arena.root(), 0);
  EXPECT_EQ(arena.file_bytes() % kArenaAlign, 0u);
}

// ----- structure a checksum cannot vouch for -----

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Rewrites the payload of section `kind` of an arena image through
// `patch(payload)`, then re-stamps that section's CRC and the header
// CRC, so the damage passes every checksum ArenaFile::Open verifies.
// Offsets follow the header layout in storage/arena_file.h: 80 fixed
// bytes, then one 32-byte entry per section (u64 offset at +8, u32 CRC
// at +24), then the header CRC.
void PatchSection(std::vector<uint8_t>* image, ArenaSection kind,
                  const std::function<void(uint8_t*)>& patch) {
  constexpr size_t kHeaderFixed = 80;
  constexpr size_t kEntryBytes = 32;
  uint8_t* entry = image->data() + kHeaderFixed +
                   (static_cast<size_t>(kind) - 1) * kEntryBytes;
  uint64_t offset = 0;
  uint64_t length = 0;
  std::memcpy(&offset, entry + 8, sizeof(offset));
  std::memcpy(&length, entry + 16, sizeof(length));
  patch(image->data() + offset);
  const uint32_t crc = Crc32(image->data() + offset, length);
  std::memcpy(entry + 24, &crc, sizeof(crc));
  const size_t header_bytes = kHeaderFixed + kArenaSectionCount * kEntryBytes;
  const uint32_t header_crc = Crc32(image->data(), header_bytes);
  std::memcpy(image->data() + header_bytes, &header_crc, sizeof(header_crc));
}

// Every structural check behind FromArena rejects a CRC-valid arena
// with DataLoss: a leaf record id past the dataset (FP would read past
// it), a leaf flag that disagrees with the level, a child page out of
// range or not one level down (a walk could cycle), a page two parents
// share (traversals would see its records twice) and leaves that hold
// fewer records than the header. Both engine opens refuse such a file:
// the read-only mapping without a WAL and the updatable one that thaws.
TEST(ArenaMmapTest, StructurallyDamagedArenaIsRejected) {
  const size_t d = 3;
  Dataset data = MakeDist("IND", 400, d, kDataSeed + 9);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
  const FlatRTree& flat = engine->flat_tree();
  ASSERT_EQ(flat.height(), 2u);  // a root over leaves
  const PageId root = flat.root();
  const size_t cap = flat.Capacity();
  const PageId leaf = static_cast<PageId>(flat.PeekNode(root).child(0));
  auto meta_of = [](uint8_t* payload, PageId page) {
    return reinterpret_cast<ArenaNodeMeta*>(payload) + page;
  };
  auto child_slot = [cap](uint8_t* payload, PageId page, size_t e) {
    return reinterpret_cast<int32_t*>(payload) + page * cap + e;
  };

  struct Case {
    const char* name;
    ArenaSection section;
    std::function<void(uint8_t*)> patch;
  };
  const std::vector<Case> cases = {
      {"leaf record id out of range", ArenaSection::kChildren,
       [&](uint8_t* p) {
         *child_slot(p, leaf, 0) = static_cast<int32_t>(data.size());
       }},
      {"negative leaf record id", ArenaSection::kChildren,
       [&](uint8_t* p) { *child_slot(p, leaf, 0) = -1; }},
      {"leaf flag on an internal level", ArenaSection::kNodeMeta,
       [&](uint8_t* p) { meta_of(p, root)->is_leaf = 1; }},
      {"level-0 node not flagged leaf", ArenaSection::kNodeMeta,
       [&](uint8_t* p) { meta_of(p, leaf)->is_leaf = 0; }},
      {"child page out of range", ArenaSection::kChildren,
       [&](uint8_t* p) {
         *child_slot(p, root, 0) = static_cast<int32_t>(flat.node_count());
       }},
      {"child not one level down", ArenaSection::kNodeMeta,
       [&](uint8_t* p) { meta_of(p, root)->level = 2; }},
      {"page reached twice", ArenaSection::kChildren,
       [&](uint8_t* p) { *child_slot(p, root, 1) = *child_slot(p, root, 0); }},
      {"leaves hold fewer records than the header", ArenaSection::kNodeMeta,
       [&](uint8_t* p) { --meta_of(p, leaf)->count; }},
  };
  const std::string dir = FreshDir("arena_structure");
  std::filesystem::create_directories(dir);
  const std::vector<uint8_t> clean = BuildArenaImage(flat, 1);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> image = clean;
    PatchSection(&image, c.section, c.patch);
    const std::string path = dir + "/patched.garn";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
    }
    auto arena = ArenaFile::Open(path);
    ASSERT_TRUE(arena.ok()) << arena.status().message();  // CRCs hold
    auto rows = (*arena)->BuildDataset();
    ASSERT_TRUE(rows.ok());
    DiskManager open_disk;
    auto mapped = FlatRTree::FromArena(*arena, rows->get(), &open_disk);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kDataLoss);
    // Neither the read-only replica open nor the updatable one serves it.
    DiskManager replica_disk;
    auto replica = GirEngine::Open(
        EngineConfig::FromArena(path, &replica_disk, MakeScoring("Linear", d)));
    ASSERT_FALSE(replica.ok());
    EXPECT_EQ(replica.status().code(), StatusCode::kDataLoss);
    DiskManager engine_disk;
    auto reopened = GirEngine::Open(
        EngineConfig::FromArena(path, &engine_disk, MakeScoring("Linear", d))
            .WithWal(FreshDir("arena_structure_wal")));
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  }

  // The unpatched image maps and thaws.
  const std::string path = dir + "/clean.garn";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(clean.data()),
              static_cast<std::streamsize>(clean.size()));
  }
  auto arena = ArenaFile::Open(path);
  ASSERT_TRUE(arena.ok());
  auto rows = (*arena)->BuildDataset();
  ASSERT_TRUE(rows.ok());
  DiskManager clean_disk;
  auto mapped = FlatRTree::FromArena(*arena, rows->get(), &clean_disk);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_TRUE(RTree::Thaw(*mapped, rows->get(), &clean_disk).ok());
}

// A root that keeps one child passes the other structural checks when
// the header's record count is that child's. The thawed master would
// then empty the root when the child dissolves in CondenseTree and
// descend into the cleared slot to reinsert the orphans. FromArena
// refuses it.
TEST(ArenaMmapTest, InternalPageWithOneEntryIsRejected) {
  const size_t d = 3;
  Dataset data = MakeDist("IND", 400, d, kDataSeed + 9);
  DiskManager disk;
  const FlatRTree flat = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  ASSERT_EQ(flat.height(), 2u);  // a root over leaves
  const PageId root = flat.root();
  const size_t kept = flat.PeekNode(flat.PeekNode(root).child(0)).count();
  std::vector<uint8_t> image = BuildArenaImage(flat, 1);
  const uint64_t records = kept;
  std::memcpy(image.data() + 48, &records, sizeof(records));  // header
  PatchSection(&image, ArenaSection::kNodeMeta, [&](uint8_t* p) {
    reinterpret_cast<ArenaNodeMeta*>(p)[root].count = 1;
  });
  const std::string path = FreshDir("arena_one_child") + ".garn";
  WriteFile(path, image);
  auto arena = ArenaFile::Open(path);
  ASSERT_TRUE(arena.ok()) << arena.status().message();  // CRCs hold
  auto rows = (*arena)->BuildDataset();
  ASSERT_TRUE(rows.ok());
  DiskManager open_disk;
  auto mapped = FlatRTree::FromArena(*arena, rows->get(), &open_disk);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

// A deterministic mutation sweep over the node sections, which the
// mapped image serves without a copy. The seed is a small churned arena
// with free pages. Each input is one seeded bit flip in a node section,
// one field edit (count, level, leaf flag, child id; root and record
// count in the header) with every CRC re-stamped, so that only the
// structural checks stand between it and an engine, or a truncation at
// a section boundary ±1. Every input is refused with a Status by
// ArenaFile::Open or FlatRTree::FromArena, or maps to an image whose
// full-space RangeQuery returns exactly the header's record count of
// dataset rows and which RTree::Thaw accepts or refuses with a Status.
TEST(ArenaMmapTest, NodeSectionMutationSweep) {
  const size_t d = 3;
  Rng rng(kDataSeed + 31);
  Dataset data = GenerateIndependent(300, d, rng);
  DiskManager disk(/*page_size_bytes=*/512);
  RTree tree(&data, &disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  for (size_t i = 0; i < data.size(); i += 3) {
    ASSERT_TRUE(tree.Delete(static_cast<RecordId>(i)));
    data.MarkDeleted(static_cast<RecordId>(i));
  }
  const FlatRTree flat = FlatRTree::Freeze(tree);
  const size_t pages = flat.node_count();
  const size_t cap = flat.Capacity();
  size_t reached = 0;
  for (std::vector<PageId> stack = {flat.root()}; !stack.empty(); ++reached) {
    const FlatRTree::NodeView node = flat.PeekNode(stack.back());
    stack.pop_back();
    for (size_t e = 0; !node.is_leaf() && e < node.count(); ++e) {
      stack.push_back(static_cast<PageId>(node.child(e)));
    }
  }
  ASSERT_LT(reached, pages) << "the churn freed no page";
  const std::vector<uint8_t> clean = BuildArenaImage(flat, 1);
  ArenaExtent sections[kArenaSectionCount];
  ASSERT_TRUE(PeekArenaSections(clean.data(), clean.size(), sections));

  const std::string dir = FreshDir("arena_sweep");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/mutant.garn";
  const double inf = std::numeric_limits<double>::infinity();
  const Mbb everything{Vec(d, -inf), Vec(d, inf)};
  size_t refused = 0;
  size_t served = 0;
  auto check = [&](const std::vector<uint8_t>& bytes, const std::string& what) {
    SCOPED_TRACE(what);
    WriteFile(path, bytes);
    auto arena = ArenaFile::Open(path);
    if (!arena.ok()) return void(++refused);
    auto rows = (*arena)->BuildDataset();
    if (!rows.ok()) return void(++refused);
    DiskManager open_disk;
    auto mapped = FlatRTree::FromArena(*arena, rows->get(), &open_disk);
    if (!mapped.ok()) return void(++refused);
    ++served;
    const std::vector<RecordId> ids = mapped->RangeQuery(everything);
    EXPECT_EQ(ids.size(), mapped->size());
    for (RecordId id : ids) {
      ASSERT_TRUE(id >= 0 && static_cast<size_t>(id) < (*rows)->size());
    }
    DiskManager thaw_disk;
    (void)RTree::Thaw(*mapped, rows->get(), &thaw_disk);
  };
  auto edit = [&](ArenaSection kind, const std::function<void(uint8_t*)>& patch,
                  const std::string& what) {
    std::vector<uint8_t> image = clean;
    PatchSection(&image, kind, patch);
    check(image, what);
  };

  // Seeded bit flips, 48 per node section.
  const ArenaSection node_sections[] = {
      ArenaSection::kNodeMeta, ArenaSection::kNodeMbb, ArenaSection::kCoords,
      ArenaSection::kChildren};
  Rng flips(kDataSeed + 32);
  for (ArenaSection kind : node_sections) {
    const ArenaExtent& e = sections[static_cast<size_t>(kind) - 1];
    for (int f = 0; f < 48; ++f) {
      const size_t at = static_cast<size_t>(flips.UniformInt(e.length));
      const int bit = static_cast<int>(flips.UniformInt(8));
      edit(kind, [&](uint8_t* p) { p[at] ^= static_cast<uint8_t>(1u << bit); },
           "flip section " + std::to_string(static_cast<int>(kind)) +
               " byte " + std::to_string(at) + " bit " + std::to_string(bit));
    }
  }
  // Field edits on every page: its count, level and leaf flag, and its
  // first child id and first unused slot.
  const int32_t rows = static_cast<int32_t>(data.size());
  for (size_t page = 0; page < pages; ++page) {
    const std::string at = " of page " + std::to_string(page);
    auto meta = [page](uint8_t* p) {
      return reinterpret_cast<ArenaNodeMeta*>(p) + page;
    };
    auto slot = [page, cap](uint8_t* p, size_t e) {
      return reinterpret_cast<int32_t*>(p) + page * cap + e;
    };
    for (int64_t count : {-1, 1}) {
      edit(ArenaSection::kNodeMeta,
           [&](uint8_t* p) { meta(p)->count += static_cast<uint32_t>(count); },
           "count " + std::to_string(count) + at);
    }
    for (uint32_t count : {0u, static_cast<uint32_t>(cap),
                           static_cast<uint32_t>(cap + 1)}) {
      edit(ArenaSection::kNodeMeta, [&](uint8_t* p) { meta(p)->count = count; },
           "count = " + std::to_string(count) + at);
    }
    for (int32_t level : {-1, 1}) {
      edit(ArenaSection::kNodeMeta, [&](uint8_t* p) { meta(p)->level += level; },
           "level " + std::to_string(level) + at);
    }
    for (uint32_t leaf : {0u, 1u, 2u}) {
      edit(ArenaSection::kNodeMeta, [&](uint8_t* p) { meta(p)->is_leaf = leaf; },
           "leaf flag = " + std::to_string(leaf) + at);
    }
    const size_t count = flat.PeekNode(static_cast<PageId>(page)).count();
    for (int32_t child : {-1, 0, static_cast<int32_t>(page),
                          static_cast<int32_t>(pages), rows - 1, rows}) {
      edit(ArenaSection::kChildren, [&](uint8_t* p) { *slot(p, 0) = child; },
           "child 0 = " + std::to_string(child) + at);
      if (count < cap) {
        edit(ArenaSection::kChildren,
             [&](uint8_t* p) { *slot(p, count) = child; },
             "unused child = " + std::to_string(child) + at);
      }
    }
  }
  // Header edits: the root (every page, none, one past the end) and the
  // record count, with the header CRC re-stamped.
  auto header_edit = [&](size_t offset, int64_t value, const std::string& what) {
    std::vector<uint8_t> image = clean;
    std::memcpy(image.data() + offset, &value, sizeof(value));
    PatchSection(&image, ArenaSection::kNodeMeta, [](uint8_t*) {});
    check(image, what);
  };
  constexpr size_t kRootAt = 40;
  constexpr size_t kRecordsAt = 48;
  for (int64_t root = -1; root <= static_cast<int64_t>(pages); ++root) {
    header_edit(kRootAt, root, "root = " + std::to_string(root));
  }
  for (int64_t delta : {-1, 1}) {
    header_edit(kRecordsAt, static_cast<int64_t>(flat.size()) + delta,
                "record count " + std::to_string(delta));
  }
  // Truncations at every section boundary ±1.
  for (const ArenaExtent& e : sections) {
    for (uint64_t edge : {e.offset, e.offset + e.length}) {
      for (int64_t delta : {-1, 0, 1}) {
        const size_t len = static_cast<size_t>(edge + delta);
        if (len > clean.size()) continue;
        check(std::vector<uint8_t>(clean.begin(), clean.begin() + len),
              "truncated to " + std::to_string(len));
      }
    }
  }
  // The sweep reaches both outcomes.
  EXPECT_GT(refused, 100u);
  EXPECT_GT(served, 100u);
}

// ----- the checkpoint's read-back check -----

// ArenaFile::Verify (pread read-back, nothing mapped) and
// ArenaFile::Open (mmap) share one header parser and must return the
// same status on every file: truncations at each section boundary ±1,
// one flipped byte in the header and in each section, seeded flips
// anywhere, and a section length edited under a re-stamped header CRC.
// The coordinate section is larger than Verify's 256 KiB read-back chunk,
// so its CRC is chained across chunks.
TEST(ArenaMmapTest, VerifyAgreesWithOpenOnDamagedFiles) {
  const size_t d = 4;
  Dataset data = MakeDist("IND", 20000, d, kDataSeed + 10);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
  UpdateBatch batch;
  batch.deletes = {3, 30, 300};
  ASSERT_TRUE(engine->ApplyUpdates(batch).ok());  // a tombstone section
  const ArenaImage layout(engine->flat_tree(), 1);
  const std::vector<uint8_t> clean = BuildArenaImage(engine->flat_tree(), 1);
  ASSERT_EQ(clean.size(), layout.bytes());
  const ArenaExtent* sections = layout.sections();
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    ASSERT_GT(sections[s].length, 0u) << "section " << s + 1;
  }
  ASSERT_GT(sections[2].length, size_t{1} << 20);  // kCoords

  struct Variant {
    std::string name;
    std::vector<uint8_t> bytes;
  };
  std::vector<Variant> variants = {{"intact", clean}};
  auto truncated = [&](size_t len) {
    return std::vector<uint8_t>(clean.begin(),
                                clean.begin() + static_cast<long>(len));
  };
  auto flipped = [&](size_t at) {
    std::vector<uint8_t> v = clean;
    v[at] ^= 0x40;
    return v;
  };
  std::vector<size_t> cuts = {0, 1, kArenaAlign - 1, kArenaAlign,
                              kArenaAlign + 1};
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    const size_t begin = sections[s].offset;
    const size_t end = begin + sections[s].length;
    for (size_t edge : {begin, end}) {
      for (size_t cut : {edge - 1, edge, edge + 1}) cuts.push_back(cut);
    }
  }
  for (size_t cut : cuts) {
    if (cut < clean.size()) {
      variants.push_back({"cut at " + std::to_string(cut), truncated(cut)});
    }
  }
  Rng rng(kDataSeed + 11);
  for (size_t at : {size_t{0}, size_t{5}, size_t{40}, size_t{100},
                    size_t{275}, size_t{400}}) {
    variants.push_back({"header flip at " + std::to_string(at), flipped(at)});
  }
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    const size_t at = sections[s].offset +
                      static_cast<size_t>(rng.UniformInt(sections[s].length));
    variants.push_back({"section " + std::to_string(s + 1) + " flip at " +
                            std::to_string(at),
                        flipped(at)});
  }
  for (int i = 0; i < 16; ++i) {
    const size_t at = static_cast<size_t>(rng.UniformInt(clean.size()));
    variants.push_back({"flip at " + std::to_string(at), flipped(at)});
  }
  // Section s's length grown or shrunk by one element, header CRC
  // re-stamped: only the geometry (or bounds) check can refuse it.
  constexpr size_t kHeaderFixed = 80;
  constexpr size_t kEntryBytes = 32;
  const size_t header_bytes = kHeaderFixed + kArenaSectionCount * kEntryBytes;
  for (uint32_t s = 0; s < kArenaSectionCount; ++s) {
    for (int64_t delta : {-4, 4, 4096}) {
      std::vector<uint8_t> v = clean;
      uint8_t* entry = v.data() + kHeaderFixed + s * kEntryBytes;
      uint64_t length = 0;
      std::memcpy(&length, entry + 16, sizeof(length));
      length = static_cast<uint64_t>(static_cast<int64_t>(length) + delta);
      std::memcpy(entry + 16, &length, sizeof(length));
      const uint32_t crc = Crc32(v.data(), header_bytes);
      std::memcpy(v.data() + header_bytes, &crc, sizeof(crc));
      variants.push_back({"section " + std::to_string(s + 1) +
                              " length " + std::to_string(delta),
                          std::move(v)});
    }
  }

  const std::string dir = FreshDir("arena_verify");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/variant.garn";
  size_t accepted = 0;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    WriteFile(path, v.bytes);
    const Status read_back = ArenaFile::Verify(path);
    const Status mapped = ArenaFile::Open(path).status();
    EXPECT_EQ(read_back.code(), mapped.code());
    EXPECT_EQ(read_back.message(), mapped.message());
    if (v.name == "intact") {
      EXPECT_TRUE(read_back.ok());
    }
    if (read_back.ok()) ++accepted;
  }
  // Besides the intact file only damage to padding passes (a flip
  // there, or a cut that drops only the trailing padding).
  EXPECT_LT(accepted, variants.size() / 4);
  EXPECT_EQ(ArenaFile::Verify(dir + "/absent.garn").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace gir
