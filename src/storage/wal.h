#ifndef GIR_STORAGE_WAL_H_
#define GIR_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "gir/update_batch.h"
#include "storage/fault_injector.h"

namespace gir {

// Epoch-segmented write-ahead log for GirEngine update batches.
//
// An acknowledged ApplyUpdates batch must survive a crash even when no
// arena epoch was published afterwards. The engine appends the
// serialized batch here and waits for it to be fsync-durable *before*
// mutating the master or publishing the refrozen epoch; recovery then
// becomes two-phase — restore the newest valid arena epoch,
// replay every committed WAL record past it.
//
// Segment layout (little-endian), one file per checkpoint interval,
// named wal-<base>.gwal where records inside cover epochs > base:
//   header:  u32 magic 'GWAL' | u32 format | u64 base epoch | u64 dim
//            | u32 crc(header bytes above)
//   record:  u32 crc(payload) | u64 payload length | payload
//            | u32 commit magic 'TMCW'
//   payload: u64 epoch | u64 #inserts | #inserts * dim f64
//            | u64 #deletes | #deletes * i64 record ids
//
// A record is committed iff it is fully framed, its CRC matches and the
// trailing commit marker is present; replay truncates the tail at the
// first record that is not (a torn append is exactly a crash mid-write,
// so nothing after it can have been acknowledged). Replay is idempotent
// via the epoch stamps: records at or below the recovered epoch are
// skipped, and overlap between segments is skipped the same way.
constexpr uint32_t kWalMagic = 0x4C415747;        // "GWAL"
constexpr uint32_t kWalCommitMagic = 0x57434D54;  // "TMCW"
constexpr uint32_t kWalFormat = 1;

// Directory-level view of a WAL: segment enumeration, committed-record
// replay with torn-tail truncation and checkpoint truncation. It ships
// nothing: replicas catch up from whole arena files
// (SnapshotStore::ShipArenaFrom). All methods are safe to call
// concurrently with an open WalWriter on the *active* (highest-base)
// segment except Truncate, which the engine serializes with its writer.
class WalStore {
 public:
  // `dir` is created on first use if absent. The optional injector
  // (non-owning; may be null) shapes only the appends of a WalWriter
  // opened on this store (torn or corrupt records, failed fsyncs).
  explicit WalStore(std::string dir, FaultInjector* injector = nullptr)
      : dir_(std::move(dir)), injector_(injector) {}

  const std::string& dir() const { return dir_; }
  FaultInjector* injector() const { return injector_; }

  static std::string SegmentFileName(uint64_t base_epoch);

  // Sorted base epochs of every wal-*.gwal under dir(), by filename
  // only — no validation (replay re-validates).
  std::vector<uint64_t> ListSegmentBases() const;

  struct ReplayRecord {
    uint64_t epoch = 0;
    UpdateBatch batch;
  };

  // What recovery must do to one on-disk segment to make the log
  // physically match the replayed history (see Sanitize):
  //   kKeep      — every byte scanned clean; leave it alone.
  //   kTruncate  — cut the file back to keep_bytes, the end of its last
  //                clean record (torn/corrupt tail, or committed
  //                records past an epoch gap that can never replay).
  //   kRemove    — the header is unreadable, mismatched or from another
  //                dataset shape; nothing inside can be trusted.
  struct SegmentState {
    enum class Action { kKeep, kTruncate, kRemove };
    uint64_t base = 0;
    Action action = Action::kKeep;
    uint64_t keep_bytes = 0;        // clean-prefix length for kTruncate
  };

  struct ReplayLog {
    // Committed records with epoch > after_epoch, contiguous from
    // after_epoch + 1 — exactly the batches recovery must re-apply.
    std::vector<ReplayRecord> records;
    uint64_t tail_epoch = 0;        // last replayable epoch
    size_t segments_scanned = 0;
    size_t committed_seen = 0;      // committed records across segments
    size_t overlap_skipped = 0;     // idempotence: epoch <= current tail
    size_t torn_truncated = 0;      // segments cut at a damaged record
    size_t gap_dropped = 0;         // committed records past an epoch gap
    uint64_t wal_dim = 0;           // dim stamped in the segment headers
    // One entry per segment on disk, in base order — the sanitize plan.
    std::vector<SegmentState> segments;
  };

  // Scans segments in base order and collects every committed batch
  // past `after_epoch`. Damage (bad header, bad CRC, missing commit
  // marker, short frame) truncates that *segment's* tail; the scan then
  // continues into later segments, whose records still apply only while
  // they stay epoch-contiguous with the tail — this is what lets a
  // segment opened by a post-recovery writer replay even though the
  // pre-crash segment before it still carries its torn tail. Records
  // past an epoch gap can never be applied consistently and are counted
  // gap_dropped. Never errors on damage: damage is data recovery must
  // survive, not an I/O failure. Ok with zero records when dir() is
  // empty or holds nothing past after_epoch. Read-only: the `segments`
  // plan describes the cleanup, Sanitize performs it.
  Result<ReplayLog> ReadCommitted(uint64_t after_epoch) const;

  struct SanitizeStats {
    size_t truncated_segments = 0;
    size_t removed_segments = 0;
  };

  // Physically applies a ReadCommitted sanitize plan: ftruncates each
  // damaged segment back to its clean prefix and deletes segments whose
  // content is unreadable or from a stale timeline. Recovery MUST run
  // this before opening a writer — a logically-truncated-but-still-on-
  // disk torn tail would otherwise end a later replay scan early,
  // hiding (and then letting the writer destroy) acked records in
  // newer segments. Idempotent; errors are real I/O failures and must
  // abort recovery rather than leave the log unsanitized.
  Result<SanitizeStats> Sanitize(const ReplayLog& log);

  struct TruncateStats {
    size_t removed_segments = 0;
    size_t kept_segments = 0;
  };

  // Checkpoint GC: removes every segment whose records are all covered
  // by a durable arena epoch at `durable_epoch` — i.e. whose
  // successor segment's base is <= durable_epoch. The highest-base
  // segment is never removed (it is the active tail), mirroring the
  // SnapshotStore::GarbageCollect discipline of never widening a
  // data-loss window.
  Result<TruncateStats> Truncate(uint64_t durable_epoch);

 private:
  std::string dir_;
  FaultInjector* injector_;
};

// Append side of the WAL: one writer per engine, one open segment.
// AppendDurable frames, writes and fsyncs one record under the writer's
// mutex, so every acknowledged batch costs exactly one fsync and the
// segment holds no unsynced bytes between calls. Thread-safe: concurrent
// callers serialize (the engine already appends under its update lock).
//
// Fault model: an injected torn/corrupt append leaves the damage on
// disk and poisons the writer — the process is considered crashed
// mid-write, every later call fails, and only recovery (which truncates
// the damaged tail) can continue. A failed write rolls the partial
// frame back and fails only that ack. An injected or real fsync failure
// rolls the record back (ftruncate to the last durable offset) and
// poisons the writer, so a batch whose ack failed is never replayed.
class WalWriter {
 public:
  // Opens (creating/truncating) the segment for `base_epoch` under
  // `store`. Truncating is safe: the engine rotates to a base only
  // after that epoch is durable elsewhere, so an existing same-base
  // segment can only hold a stale or torn tail. `dim` stamps the
  // header; appends validate against it.
  static Result<std::unique_ptr<WalWriter>> Open(WalStore* store,
                                                 uint64_t base_epoch,
                                                 uint64_t dim);

  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  uint64_t base_epoch() const { return base_epoch_; }
  uint64_t dim() const { return dim_; }

  // Frames, writes and fsyncs one record — the engine's ack path.
  // Fails (without acking) on dimension mismatch, an epoch at or below
  // the segment base, a write or fsync error, or an injected fault.
  Status AppendDurable(const UpdateBatch& batch, uint64_t epoch);

  // Checkpoint rotation: closes the active segment and opens a fresh
  // one based at `new_base_epoch`. The caller then truncates the
  // store. Fails if new_base_epoch < base_epoch().
  Status Rotate(uint64_t new_base_epoch);

  struct Stats {
    uint64_t appends = 0;
    uint64_t fsyncs = 0;          // record fsyncs (one per ack)
    uint64_t appended_bytes = 0;
    uint64_t rotations = 0;
  };
  Stats stats() const;

 private:
  WalWriter(WalStore* store, uint64_t dim) : store_(store), dim_(dim) {}

  // Opens segment `base` (O_TRUNC), writes + fsyncs the header and
  // fsyncs the directory. Requires mu_ (or pre-publication).
  Status OpenSegmentLocked(uint64_t base);
  // Cuts the segment back to file_offset_ (ftruncate + lseek), dropping
  // a partial or unsynced frame. Requires mu_.
  bool RollbackLocked();

  WalStore* store_;
  const uint64_t dim_;

  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t base_epoch_ = 0;
  std::string segment_path_;
  uint64_t file_offset_ = 0;  // durable bytes of the segment
  // First unrecoverable failure (torn/corrupt append = simulated crash,
  // failed fsync rollback); every later call returns it.
  Status poison_ = Status::Ok();

  uint64_t appends_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t appended_bytes_ = 0;
  uint64_t rotations_ = 0;
};

}  // namespace gir

#endif  // GIR_STORAGE_WAL_H_
