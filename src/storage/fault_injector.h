#ifndef GIR_STORAGE_FAULT_INJECTOR_H_
#define GIR_STORAGE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace gir {

// One seeded, scoped fault schedule. Every knob is part of the
// determinism contract: a fault decision is a pure function of
// (seed, site, op ordinal), so the same plan driven by the same
// single-threaded access sequence injects the bit-identical fault
// sequence — a chaos run is replayable from its config alone. Under
// concurrent readers the op ordinals are handed out atomically, so the
// *set* of faulted ordinals is still plan-determined; only which query
// observes which ordinal varies with scheduling.
struct FaultPlan {
  uint64_t seed = 0;

  // ----- checked page reads (DiskManager::ReadPage) -----
  // Probability a read fails with kUnavailable (transient device error;
  // the page is fine on the next attempt — what retry layers lean on).
  double read_error_rate = 0.0;
  // Probability a read stalls for latency_spike_ms of real time before
  // succeeding (slow device; eats the caller's deadline budget).
  double read_latency_rate = 0.0;
  double latency_spike_ms = 0.0;

  // ----- arena publishes (SnapshotStore::WriteArena, ShipArenaFrom) -----
  // The only writes a replica receives: it catches up by whole arena
  // files, so these two rates are its whole transport fault surface.
  // Probability the published file is truncated mid-section (a crash
  // between rename and data reaching the platter: the name exists, the
  // tail bytes do not).
  double torn_write_rate = 0.0;
  // Probability one payload byte is flipped (bit rot / torn sector
  // inside a section); only the CRC can tell.
  double corrupt_rate = 0.0;

  // ----- WAL appends / fsyncs (WalWriter) -----
  // Only the writer's own appends and commits draw these; nothing ships
  // WAL segments, so they never reach a replica.
  // Probability an append reaches the segment only as a torn prefix
  // (process died mid-write; the tail is garbage replay must truncate).
  double wal_torn_rate = 0.0;
  // Probability one byte of the appended record is flipped on the way
  // to the platter (bit rot the record CRC must catch at replay).
  double wal_corrupt_rate = 0.0;
  // Probability a record's fsync fails with EIO. The writer rolls the
  // record back and refuses the ack — EIO on commit must
  // never acknowledge.
  double wal_fsync_error_rate = 0.0;
  // Probability an append or fsync stalls for latency_spike_ms (slow
  // device under the commit path; inflates ack latency, nothing else).
  double wal_latency_rate = 0.0;

  // ----- scope -----
  // Never fault the first N ops of each site (lets a harness warm up /
  // bulk-load clean before the schedule starts).
  uint64_t skip_ops = 0;
  // Total injected-fault budget across all sites; once spent, every
  // later op passes clean.
  uint64_t max_faults = UINT64_MAX;
};

// Thread-safe decision point the storage layer consults on every
// checked operation. All counters are atomics; Reset() restarts the
// schedule from op 0 (e.g. between chaos repetitions).
class FaultInjector {
 public:
  enum class Site : int {
    kPageRead = 0,
    kSnapshotWrite = 1,
    kWalAppend = 2,
    kWalFsync = 3,
  };
  enum class WriteFault : int { kNone = 0, kTorn = 1, kCorrupt = 2 };

  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  // Consulted by DiskManager::ReadPage after the read is charged.
  // Returns Ok (possibly after a real latency stall) or kUnavailable.
  Status OnPageRead(uint32_t page);

  // Consulted by the arena writer once per published file. `op` is
  // the write ordinal the decision was drawn at — feed it to ShapeDraw
  // to derive the tear point / corrupted byte deterministically.
  struct WriteDecision {
    WriteFault fault = WriteFault::kNone;
    uint64_t op = 0;
  };
  WriteDecision OnSnapshotWrite();

  // Consulted by WalWriter once per record append. Same WriteDecision
  // contract as OnSnapshotWrite: feed `op` to ShapeDrawAt to derive the
  // tear point / flipped byte. A latency fault stalls inline and still
  // returns kNone.
  WriteDecision OnWalAppend();

  // Consulted by WalWriter once per record fsync. Returns Ok
  // (possibly after a latency stall) or kUnavailable (injected EIO).
  Status OnWalFsync();

  // Deterministic uniform draw in [0, 1) for shaping a committed fault
  // (where to tear, which byte to flip). Pure in (seed, op, salt).
  // Snapshot-write flavour, kept for the PR7 call sites.
  double ShapeDraw(uint64_t op, uint64_t salt) const;
  // Site-aware flavour for the WAL (and any future write site).
  double ShapeDrawAt(Site site, uint64_t op, uint64_t salt) const;

  // ----- accounting -----
  uint64_t read_ops() const { return ops_[0].load(); }
  uint64_t write_ops() const { return ops_[1].load(); }
  uint64_t read_faults() const { return read_faults_.load(); }
  uint64_t latency_faults() const { return latency_faults_.load(); }
  uint64_t torn_writes() const { return torn_writes_.load(); }
  uint64_t corrupt_writes() const { return corrupt_writes_.load(); }
  uint64_t wal_append_ops() const { return ops_[2].load(); }
  uint64_t wal_fsync_ops() const { return ops_[3].load(); }
  uint64_t wal_torn_appends() const { return wal_torn_appends_.load(); }
  uint64_t wal_corrupt_appends() const { return wal_corrupt_appends_.load(); }
  uint64_t wal_fsync_errors() const { return wal_fsync_errors_.load(); }
  uint64_t total_faults() const { return faults_.load(); }
  // Order-insensitive accumulation (XOR) of every committed fault's
  // (site, op, kind) hash: two runs injected the same fault schedule
  // iff their fingerprints match.
  uint64_t fingerprint() const { return fingerprint_.load(); }

  void Reset();

 private:
  // Pure decision draw in [0, 1) for op `op` at `site`.
  double Draw(Site site, uint64_t op, uint64_t salt) const;
  // Tries to commit one fault against the budget; false = budget spent.
  bool CommitFault(Site site, uint64_t op, int kind);

  FaultPlan plan_;
  std::atomic<uint64_t> ops_[4] = {{0}, {0}, {0}, {0}};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> read_faults_{0};
  std::atomic<uint64_t> latency_faults_{0};
  std::atomic<uint64_t> torn_writes_{0};
  std::atomic<uint64_t> corrupt_writes_{0};
  std::atomic<uint64_t> wal_torn_appends_{0};
  std::atomic<uint64_t> wal_corrupt_appends_{0};
  std::atomic<uint64_t> wal_fsync_errors_{0};
  std::atomic<uint64_t> fingerprint_{0};
};

}  // namespace gir

#endif  // GIR_STORAGE_FAULT_INJECTOR_H_
