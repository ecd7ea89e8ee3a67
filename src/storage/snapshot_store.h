#ifndef GIR_STORAGE_SNAPSHOT_STORE_H_
#define GIR_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "index/rtree.h"
#include "storage/fault_injector.h"

namespace gir {

class ArenaFile;
class FlatRTree;

// Crash-safe persistence of engine epochs. One snapshot file holds a
// complete frozen epoch — the dataset image (coordinates + tombstones)
// and the master R*-tree's page image (rtree_codec layout, page ids
// preserved 1:1, so a recovered engine's simulated I/O is bit-identical
// to the pre-crash one) — with every section CRC-32-checksummed.
//
// File layout (little-endian):
//   header:  u32 magic 'GSNP' | u32 format | u64 epoch version
//            | u32 section count | u32 crc(header bytes above)
//   section: u32 kind | u32 crc(payload) | u64 payload length | payload
//   footer:  u32 magic 'PNSG'
//
// Publish protocol: write to a temp name in the same directory, fsync
// the file, atomically rename onto the version-stamped final name, then
// fsync the directory — a crash at any point leaves either the old
// state or the complete new file, never a half-visible one. The one
// torn state a real system can still exhibit (rename durable before all
// data blocks, then power loss) is what the fault injector simulates:
// a truncated file at the final name. Recovery rejects it by checksum.
//
// Recovery scans the directory, validates every candidate (magic,
// header CRC, section bounds + CRCs, footer), and restores the newest
// valid epoch; torn and corrupt files are skipped and counted, never
// trusted. GirEngine::Open(FromSnapshotDir) runs recovery and restore
// in one step.
constexpr uint32_t kSnapshotMagic = 0x504E5347;   // "GSNP"
constexpr uint32_t kSnapshotFooter = 0x47534E50;  // "PNSG"
constexpr uint32_t kSnapshotFormat = 1;

class SnapshotStore {
 public:
  // `dir` is created on the first write if absent. The optional
  // injector (non-owning; may be null) gets one OnSnapshotWrite
  // decision per published file: kTorn truncates the published bytes at
  // a plan-derived point, kCorrupt flips one plan-derived payload byte.
  explicit SnapshotStore(std::string dir, FaultInjector* injector = nullptr)
      : dir_(std::move(dir)), injector_(injector) {}

  const std::string& dir() const { return dir_; }

  struct WriteStats {
    std::string path;   // final published path
    uint64_t bytes = 0;  // bytes the intact file holds
    FaultInjector::WriteFault injected = FaultInjector::WriteFault::kNone;
  };

  // Serializes one epoch and publishes it as FileName(version) under
  // dir(). Same-version writes overwrite (idempotent republish).
  // Injected write faults still return Ok — the damage is what recovery
  // must detect, exactly as a real crash would not report itself.
  Result<WriteStats> WriteSnapshot(const Dataset& dataset, const RTree& tree,
                                   uint64_t version);

  struct Recovered {
    std::unique_ptr<Dataset> dataset;
    std::optional<RTree> tree;  // page ids identical to the saved tree
    uint64_t version = 0;
    std::string path;    // file the epoch was restored from
    size_t scanned = 0;  // candidate snapshot files considered
    size_t rejected = 0;  // torn/corrupt/malformed candidates skipped
  };

  // Restores the newest valid epoch in dir(). The DiskManager backs the
  // restored tree's page accounting (pass the one the new engine will
  // use). NotFound when the directory holds no valid snapshot; a
  // NotFound after rejected > 0 means every candidate was damaged.
  Result<Recovered> RecoverLatest(DiskManager* disk) const;

  static std::string FileName(uint64_t version);

  // ----- mmap'able arena epochs -----
  // Serializes one frozen epoch as a page-aligned arena file (see
  // storage/arena_file.h) and publishes it as ArenaFileName(version)
  // under dir(), with the same temp + fsync + rename + dir-fsync
  // discipline and the same injected-fault surface (one OnSnapshotWrite
  // decision: kTorn truncates the published bytes, kCorrupt flips one
  // body byte) as WriteSnapshot. The payoff over WriteSnapshot: a
  // restart mmaps this file and serves it directly, instead of
  // deserializing and refreezing.
  Result<WriteStats> WriteArena(const FlatRTree& flat, uint64_t version);

  struct ArenaPick {
    std::string path;     // newest arena file that validated
    uint64_t version = 0;
    size_t scanned = 0;   // candidate arena files considered
    size_t rejected = 0;  // torn/corrupt/malformed candidates skipped
    // The winner's validated mapping, kept open so the caller serves
    // it directly instead of re-opening (and re-checksumming) the file.
    std::shared_ptr<const ArenaFile> file;
  };

  // Finds the newest valid arena epoch in dir(), validating every
  // candidate via ArenaFile::Open (full CRC + geometry check; damaged
  // files are skipped and counted, never served). The chosen file
  // comes back already mapped — GirEngine::Open with an arena source
  // builds straight over it. NotFound when no candidate validates.
  Result<ArenaPick> RecoverLatestArena() const;

  static std::string ArenaFileName(uint64_t version);

  // ----- epoch shipping (replica propagation) -----
  // Sorted list of the arena epoch versions named under dir(), by
  // filename only — no validation, so it is cheap enough to poll. A
  // torn file still lists; shipping and open both re-validate.
  std::vector<uint64_t> ListArenaVersions() const;

  // Copies the arena file for `version` out of `src` into this store's
  // directory, with the same temp + fsync + atomic-rename discipline —
  // and the same injected-fault surface — as WriteArena. This is the
  // replication transport: a ship can land torn or corrupted on the
  // receiving replica, and only the open-time checksum can tell, so
  // the receiver must treat every shipped file as untrusted input.
  // NotFound when src has no file for `version`.
  Result<WriteStats> ShipArenaFrom(const SnapshotStore& src, uint64_t version);

  // ----- epoch retention / GC -----
  struct GcStats {
    size_t removed_snapshots = 0;
    size_t removed_arenas = 0;
    size_t kept = 0;  // files surviving, both formats
  };

  // Keep-last-N retention, applied independently to each format
  // (snapshot-*.gsnp and arena-*.garn): a file is deleted only when it
  // is strictly older than its format's newest *valid* epoch AND not
  // among that format's N newest valid files. The newest valid epoch
  // is therefore never deleted — even with keep_last_n == 1 — and a
  // directory whose newest files are all damaged keeps every valid
  // older epoch (GC never widens a data-loss window). Damaged files
  // older than the newest valid one are reclaimed too: they can never
  // win recovery. Safe to run concurrently with recovery: a reader that
  // loses a listed file before opening it counts it vanished (not
  // rejected) and, when nothing valid was left in its listing, rescans
  // and finds the newer epoch that licensed the delete.
  // keep_last_n == 0 is InvalidArgument.
  Result<GcStats> GarbageCollect(size_t keep_last_n);

 private:
  std::string dir_;
  FaultInjector* injector_;
};

}  // namespace gir

#endif  // GIR_STORAGE_SNAPSHOT_STORE_H_
