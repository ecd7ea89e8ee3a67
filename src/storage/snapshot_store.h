#ifndef GIR_STORAGE_SNAPSHOT_STORE_H_
#define GIR_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/fault_injector.h"

namespace gir {

class ArenaFile;
class FlatRTree;

// Crash-safe persistence of engine epochs as arena files (storage/
// arena_file.h): one file holds a complete frozen epoch, the index's
// node pages with their page ids plus the dataset image, with every
// section CRC-32-checksummed. A restart maps the newest valid file and
// either serves it as it lies (a read-only replica) or thaws the master
// R*-tree back out of its pages (RTree::Thaw) and replays the WAL tail
// past it, so a recovered engine charges the pre-crash simulated I/O.
//
// Publish protocol: write to a temp name in the same directory, fsync
// the file, atomically rename onto the version-stamped final name, then
// fsync the directory — a crash at any point leaves either the old
// state or the complete new file, never a half-visible one. The one
// torn state a real system can still exhibit (rename durable before all
// data blocks, then power loss) is what the fault injector simulates:
// a truncated file at the final name. Recovery rejects it by checksum.
//
// Recovery scans the directory, validates every candidate (ArenaFile::
// Open: magic, header CRC, section geometry and CRCs) and picks the
// newest valid epoch; torn and corrupt files are skipped and counted,
// never trusted. GirEngine::Open(FromArena(dir)) runs the scan and the
// restore in one step.
class SnapshotStore {
 public:
  // `dir` is created on the first write if absent. The optional
  // injector (non-owning; may be null) damages published files (see
  // WriteArena and ShipArenaFrom).
  explicit SnapshotStore(std::string dir, FaultInjector* injector = nullptr)
      : dir_(std::move(dir)), injector_(injector) {}

  const std::string& dir() const { return dir_; }

  struct WriteStats {
    std::string path;   // final published path
    uint64_t bytes = 0;  // bytes the intact file holds
    FaultInjector::WriteFault injected = FaultInjector::WriteFault::kNone;
  };

  // Writes one frozen epoch as a page-aligned arena file and publishes
  // it as ArenaFileName(version) under dir(), with the temp + fsync +
  // rename + dir-fsync discipline above. The file is written as the
  // spans of an ArenaImage: the coordinate planes, children and dataset
  // rows straight from `flat`'s and its dataset's arrays, so no copy of
  // the epoch is made. Same-version writes overwrite (idempotent
  // republish). The optional injector gets one OnSnapshotWrite decision
  // per published file: kTorn truncates the published bytes at a
  // plan-derived point, kCorrupt flips one plan-derived section payload
  // byte. Injected faults still return Ok — the damage is what recovery
  // must detect, exactly as a real crash would not report itself.
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
    size_t removed_arenas = 0;
    size_t kept = 0;  // arena files surviving
  };

  // Keep-last-N retention: every arena file is checked with
  // ArenaFile::Verify (read back, not mapped), and a file is deleted
  // only when it is strictly older than the newest *valid* epoch AND
  // not among the N newest valid files. The newest valid epoch is
  // therefore never deleted — even with keep_last_n == 1 — and a
  // directory whose newest files are all damaged keeps every valid
  // older epoch (GC never widens a data-loss window). Damaged files
  // older than the newest valid one are reclaimed too: they can never
  // win recovery. Safe to run concurrently with recovery: a reader that
  // loses a listed file before opening it counts it vanished (not
  // rejected) and, when nothing valid was left in its listing, rescans
  // and finds the newer epoch that licensed the delete. keep_last_n ==
  // 0 is InvalidArgument.
  Result<GcStats> GarbageCollect(size_t keep_last_n);

 private:
  std::string dir_;
  FaultInjector* injector_;
};

}  // namespace gir

#endif  // GIR_STORAGE_SNAPSHOT_STORE_H_
