#ifndef GIR_GIR_ENGINE_H_
#define GIR_GIR_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/result.h"
#include "gir/fpnd.h"
#include "gir/gir_region.h"
#include "gir/update_batch.h"
#include "index/flat_rtree.h"
#include "index/rtree.h"
#include "storage/arena_file.h"
#include "storage/wal.h"
#include "topk/brs.h"

namespace gir {

class ShardedGirCache;
class SnapshotStore;

// Phase-2 algorithm selector (paper §5-§6).
enum class Phase2Method {
  kSP,          // skyline pruning
  kCP,          // convex-hull pruning
  kFP,          // facet pruning (2-D angular variant / d-dim star)
  kBruteForce,  // all n-1 half-spaces (reference; §3.3 straw-man)
};

Result<Phase2Method> ParsePhase2Method(const std::string& name);
std::string Phase2MethodName(Phase2Method method);

// Rejects non-finite query weights with kInvalidArgument naming the
// offending dimension. A NaN or Inf weight would otherwise poison
// every score comparison downstream and surface as silently-wrong
// results; both query entry points (ComputeGir/ComputeGirStar and the
// batch shared-traversal path) apply this before any work.
Status ValidateQueryWeights(VecView weights);

// Cost breakdown of one GIR computation, mirroring what the paper's
// charts report (total CPU, total I/O) while keeping phases separate.
struct GirStats {
  double topk_cpu_ms = 0.0;
  double phase1_cpu_ms = 0.0;
  double phase2_cpu_ms = 0.0;      // pruning + constraint derivation
  double intersect_cpu_ms = 0.0;   // half-space intersection (qhalf role)
  uint64_t topk_reads = 0;
  uint64_t phase2_reads = 0;
  size_t candidates = 0;   // |SL|, |SL ∩ CH| or #critical records
  size_t star_facets = 0;  // FP only: live incident facets (Fig. 8(b))
  size_t star_facets_created = 0;  // FP only: facets created, dead included
  size_t constraints = 0;  // half-spaces in the final region

  double GirCpuMillis() const {
    return phase1_cpu_ms + phase2_cpu_ms + intersect_cpu_ms;
  }
  double GirIoMillis(double ms_per_read) const {
    return static_cast<double>(phase2_reads) * ms_per_read;
  }
};

struct GirComputation {
  TopKResult topk;
  GirRegion region;
  GirStats stats;
  // Dataset epoch the computation ran against (0 until the first
  // ApplyUpdates batch); what cache inserts must stamp entries with.
  uint64_t snapshot_version = 0;
};

// UpdateBatch lives in gir/update_batch.h (shared with the WAL).

// Outcome and cost breakdown of one ApplyUpdates call.
struct UpdateStats {
  size_t applied_inserts = 0;
  size_t applied_deletes = 0;
  uint64_t version = 0;        // epoch published by this batch
  bool wal_logged = false;     // batch is fsync-durable in the WAL
  double wal_ms = 0.0;         // record append + its fsync
  double apply_ms = 0.0;       // R*-tree + dataset mutation
  double refreeze_ms = 0.0;    // dataset copy + FlatRTree::Freeze
  double invalidate_ms = 0.0;  // incremental cache invalidation
  // Cache invalidation accounting (all zero when no cache was passed);
  // tests-vs-recomputes is the headline: lp_tests LPs were solved so
  // that only delete_evicted + insert_evicted regions need recomputing
  // instead of entries_before.
  size_t cache_entries_before = 0;
  size_t cache_lp_tests = 0;
  size_t cache_stale_evicted = 0;
  size_t cache_delete_evicted = 0;
  size_t cache_insert_evicted = 0;
  size_t cache_survived = 0;
};

struct GirEngineOptions {
  FpOptions fp;
  // Materialize the region polytope inside the timed section (the paper
  // charges Qhull's half-space intersection to each method's CPU).
  bool materialize_polytope = true;
};

// Unified construction input of GirEngine::Open: one value that names
// where the engine's data comes from (the source), whether it accepts
// ApplyUpdates (mutability follows the source), how records are scored,
// and the engine options. Build one with the factory that matches your
// source; every factory takes the same trailing (disk, scoring,
// options) triple. Move-only (it carries the scoring function).
//
//   auto engine = GirEngine::Open(
//       EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
//
// Source semantics:
//   FromDataset(const Dataset*)  read-only engine over a caller-owned
//                                dataset; ApplyUpdates fails.
//   FromDataset(Dataset*)        updatable engine; the caller's dataset
//                                is the mutable master.
//   FromCsv(path)                loads the CSV into an engine-owned
//                                mutable master (updatable).
//   FromArena(path)              mmaps an arena file (storage/
//                                arena_file.h). `path` may be the file
//                                itself or a snapshot directory — the
//                                newest valid arena-*.garn then wins
//                                (SnapshotStore::RecoverLatestArena).
//                                Without a WAL the engine serves
//                                straight from the mapping: no rebuild,
//                                no refreeze, read-only. With one
//                                (WithWal) it is updatable: the master
//                                R*-tree is thawed out of the arena's
//                                node pages (RTree::Thaw) and the WAL
//                                tail past the arena epoch replayed.
struct EngineConfig {
  enum class Source {
    kDataset,         // caller-owned immutable dataset
    kMutableDataset,  // caller-owned mutable master dataset
    kCsv,             // CSV file, loaded into an engine-owned master
    kArena,           // mmap'd arena file (or newest in a directory)
  };

  Source source = Source::kDataset;
  const Dataset* dataset = nullptr;    // kDataset
  Dataset* mutable_dataset = nullptr;  // kMutableDataset
  std::string path;                    // kCsv / kArena
  DiskManager* disk = nullptr;         // required, all sources
  std::unique_ptr<ScoringFunction> scoring;  // required, all sources
  GirEngineOptions options;

  // ----- durable update log (optional) -----
  // Non-empty: the engine is updatable, and ApplyUpdates appends each
  // batch to an epoch-segmented WAL under this directory and
  // acknowledges only after the record is fsync-durable (see
  // storage/wal.h). For a kArena source, Open first replays every
  // committed WAL batch past the arena epoch (two-phase recovery; the
  // tail may be empty); other sources attach a fresh log at the current
  // epoch without replaying — their dataset is caller-supplied and need
  // not match any logged history, so the directory should be fresh or
  // recovered-from. kDataset (const) refuses a WAL.
  std::string wal_dir;
  FaultInjector* wal_injector = nullptr;  // non-owning; may be null

  // Chains onto a factory:
  //   GirEngine::Open(EngineConfig::FromArena(dir, &disk, scoring)
  //                       .WithWal(wal_dir));
  EngineConfig&& WithWal(std::string dir,
                         FaultInjector* injector = nullptr) && {
    wal_dir = std::move(dir);
    wal_injector = injector;
    return std::move(*this);
  }

  static EngineConfig FromDataset(const Dataset* dataset, DiskManager* disk,
                                  std::unique_ptr<ScoringFunction> scoring,
                                  GirEngineOptions options = {}) {
    EngineConfig c;
    c.source = Source::kDataset;
    c.dataset = dataset;
    c.disk = disk;
    c.scoring = std::move(scoring);
    c.options = options;
    return c;
  }
  // Overload on mutability, mirroring the ApplyUpdates contract: a
  // non-const dataset pointer buys an updatable engine.
  static EngineConfig FromDataset(Dataset* dataset, DiskManager* disk,
                                  std::unique_ptr<ScoringFunction> scoring,
                                  GirEngineOptions options = {}) {
    EngineConfig c;
    c.source = Source::kMutableDataset;
    c.dataset = dataset;
    c.mutable_dataset = dataset;
    c.disk = disk;
    c.scoring = std::move(scoring);
    c.options = options;
    return c;
  }
  static EngineConfig FromCsv(std::string path, DiskManager* disk,
                              std::unique_ptr<ScoringFunction> scoring,
                              GirEngineOptions options = {}) {
    EngineConfig c;
    c.source = Source::kCsv;
    c.path = std::move(path);
    c.disk = disk;
    c.scoring = std::move(scoring);
    c.options = options;
    return c;
  }
  static EngineConfig FromArena(std::string path, DiskManager* disk,
                                std::unique_ptr<ScoringFunction> scoring,
                                GirEngineOptions options = {}) {
    EngineConfig c;
    c.source = Source::kArena;
    c.path = std::move(path);
    c.disk = disk;
    c.scoring = std::move(scoring);
    c.options = options;
    return c;
  }
};

// Public facade: owns the R*-tree over a dataset and computes top-k
// results together with their (order-sensitive or order-insensitive)
// global immutable regions.
//
//   DiskManager disk;
//   auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
//       &data, &disk, MakeScoring("Linear", data.dim())));
//   auto gir = engine->ComputeGir(weights, 20, Phase2Method::kFP);
//
// The dataset (when caller-owned) and disk manager must outlive the
// engine.
//
// Thread safety: ComputeGir / ComputeGirStar only read an immutable
// epoch snapshot (see below) plus the scoring function, and the
// DiskManager's accounting is atomic with thread-local per-query deltas
// — so any number of threads may compute queries on one engine
// concurrently (this is what BatchEngine does), including concurrently
// with one ApplyUpdates writer.
//
// Index lifecycle (epoch snapshots): the constructor bulk-loads the
// mutable R*-tree and immediately Freeze()s it into a FlatRTree; every
// query runs against the frozen image (same page ids as the master,
// one simulated read per node access — see flat_rtree.h) with the
// batched SoA score kernels. An engine constructed over a mutable `Dataset*`
// additionally accepts ApplyUpdates batches: under a single writer
// lock, the batch mutates the R*-tree (R* insert + delete with
// condense/reinsert) and the master dataset (append + tombstone), then
// refreezes into a *fresh* snapshot — an immutable dataset copy plus a
// new flat arena — published with an atomic shared_ptr swap. In-flight
// readers keep the snapshot they loaded alive until they finish, so
// they are never blocked and never observe a torn index; new queries
// see the new epoch. Snapshot versions count epochs (0 = construction)
// and stamp every GirComputation for cache coherence.
class GirEngine {
 public:
  // The one construction entry point: opens an engine from whatever
  // source the config names (see EngineConfig). Fails with
  // InvalidArgument on a malformed config (missing disk/scoring/source
  // operand), and with the underlying error for file-backed sources —
  // NotFound when nothing is there, DataLoss when every candidate is
  // torn or corrupt, the CSV parser's status for kCsv.
  static Result<std::unique_ptr<GirEngine>> Open(EngineConfig config);

  // Order-sensitive GIR (Definition 1).
  Result<GirComputation> ComputeGir(VecView weights, size_t k,
                                    Phase2Method method) const;

  // One pinned epoch, as a unit: the frozen image (the aliased
  // shared_ptr keeps the whole snapshot — arena + dataset copy —
  // alive) plus the version to stamp results and cache entries with.
  // This is what lets a caller run many queries against one consistent
  // epoch (the shared-traversal batch executor pins once per batch).
  struct PinnedIndex {
    std::shared_ptr<const FlatRTree> flat;
    uint64_t version = 0;
  };
  PinnedIndex PinIndex() const {
    std::shared_ptr<const Snapshot> snap = LoadSnapshot();
    PinnedIndex pin;
    pin.flat = std::shared_ptr<const FlatRTree>(snap, &snap->flat);
    pin.version = snap->version;
    return pin;
  }

  // Order-sensitive GIR from an already-computed top-k: runs Phase 1 /
  // Phase 2 / intersection exactly as ComputeGir does after its own
  // BRS, against the pinned epoch the top-k was computed on. `topk`
  // must be a RunBrs/RunBrsMulti output for (weights, k) on pin.flat;
  // the result is then bit-identical to ComputeGir on that epoch
  // (modulo wall-clock stats; topk_cpu_ms is taken from the caller,
  // who timed the traversal). This is the Phase-2 half of the
  // shared-traversal batch path.
  Result<GirComputation> ComputeGirWithTopK(const PinnedIndex& pin,
                                            VecView weights, size_t k,
                                            Phase2Method method,
                                            TopKResult topk,
                                            double topk_cpu_ms = 0.0) const;

  // Order-insensitive GIR* (Definition 2); no Phase-1 constraints.
  Result<GirComputation> ComputeGirStar(VecView weights, size_t k,
                                        Phase2Method method) const;

  // Applies one update batch and publishes a new epoch snapshot:
  //   1. validate — the whole batch, including that every delete id is
  //      live in the dataset AND present in the master tree, before a
  //      single mutation. A failed batch leaves dataset, tree and WAL
  //      untouched (all-or-nothing).
  //   2. log — with a WAL attached (EngineConfig::WithWal), the batch
  //      is appended and fsynced; the call fails without
  //      mutating anything if the record cannot be made durable. This
  //      is the ack point: a batch this method returns Ok for survives
  //      any crash from here on.
  //   3. mutate — deletes leave the R*-tree (condense + reinsert) and
  //      tombstone their dataset slot; inserts append and R*-insert.
  //   4. refreeze — the updated tree is frozen into a fresh FlatRTree
  //      arena bound to an immutable copy of the dataset.
  //   5. invalidate — when `cache` is non-null, cached GIRs are
  //      incrementally invalidated with the point-vs-region max-score
  //      LP test (see ShardedGirCache::InvalidateForUpdates): only
  //      regions the batch can actually pierce are evicted, survivors
  //      are re-stamped to the new epoch.
  //   6. publish — the snapshot pointer is swapped atomically and
  //      dataset_version() starts returning the new epoch.
  // Concurrent readers are never blocked; writers are serialized.
  // Returns InvalidArgument (without mutating) on malformed batches:
  // wrong-dimension or out-of-cube inserts, dead/out-of-range/duplicate
  // delete ids; Internal (also without mutating) when a live record is
  // missing from the master tree (a broken index invariant).
  Result<UpdateStats> ApplyUpdates(const UpdateBatch& batch,
                                   ShardedGirCache* cache = nullptr);

  // ----- durability (WAL-attached engines) -----

  // What two-phase recovery did when this engine was opened with a WAL
  // (zeros otherwise / when nothing needed replay).
  struct WalRecoveryStats {
    uint64_t recovered_epoch = 0;   // epoch phase 1 restored
    uint64_t replayed_to = 0;       // epoch after WAL replay
    size_t replayed_batches = 0;
    size_t overlap_skipped = 0;     // idempotence skips during replay
    size_t torn_truncated = 0;      // segments cut at a damaged record
    size_t gap_dropped = 0;
    size_t segments_truncated = 0;  // physical tail cuts (sanitize)
    size_t segments_removed = 0;    // unreadable/stale segments deleted
  };
  const WalRecoveryStats& wal_recovery() const { return wal_recovery_; }

  bool has_wal() const { return wal_ != nullptr; }
  // Append/fsync counters of the attached writer (zeros without one).
  WalWriter::Stats wal_writer_stats() const {
    return wal_ != nullptr ? wal_->stats() : WalWriter::Stats{};
  }

  struct CheckpointStats {
    std::string arena_path;          // published arena file
    uint64_t version = 0;            // epoch the checkpoint covers
    uint64_t arena_bytes = 0;
    size_t wal_segments_removed = 0;
    bool wal_truncated = false;      // false when the arena failed to
                                     // validate (e.g. injected damage)
  };

  // Publishes the current epoch as an arena file in `store` and — when
  // a WAL is attached — rotates the log onto a fresh segment based at
  // that epoch and truncates segments the checkpoint made obsolete.
  // The arena is written straight from the published epoch's arrays
  // (SnapshotStore::WriteArena), and the truncation only happens after
  // the just-published file validates end to end (ArenaFile::Verify:
  // every check ArenaFile::Open makes, read back through one chunk
  // buffer, nothing mapped): a torn checkpoint must not widen the
  // data-loss window, so on damage the WAL keeps everything and
  // wal_truncated comes back false. Serialized with ApplyUpdates.
  Result<CheckpointStats> Checkpoint(SnapshotStore* store);

  // Read-only arena engines only (Open with a kArena source and no
  // WAL): swaps the served epoch to the arena file at `path` — mmap the
  // new file, validate it end to end, publish it with one atomic
  // pointer swap. In-flight readers finish on the mapping they pinned;
  // the old file is munmapped when the last of them drains. This is the
  // replica epoch-advance path: a follower serves arena epoch N while a
  // leader publishes N+1 via SnapshotStore::WriteArena, then the
  // follower advances with no rebuild and no reader stall. Returns the
  // new epoch's version; FailedPrecondition on an updatable engine,
  // DataLoss/NotFound/InvalidArgument when the file is damaged,
  // missing, or from a different dataset shape.
  Result<uint64_t> AdvanceToArena(const std::string& path);

  // Epoch of the currently-published snapshot.
  uint64_t dataset_version() const {
    return version_.load(std::memory_order_acquire);
  }

  // True when the engine keeps a mutable master R*-tree (every source
  // except kArena without a WAL). Read-only arena engines serve the
  // frozen image only; tree() must not be called on them. Queries run
  // on PinIndex().flat, which every engine has.
  bool has_master_tree() const { return tree_.has_value(); }
  const RTree& tree() const { return *tree_; }
  // The currently-published frozen image. The reference stays valid
  // until the *next* ApplyUpdates retires the snapshot — single-epoch
  // callers (tests, static benches) may hold it freely. Any caller that
  // might hold the image across an ApplyUpdates must use PinFlatTree()
  // instead (ComputeGir pins internally).
  const FlatRTree& flat_tree() const { return LoadSnapshot()->flat; }
  // Pins the current epoch: the returned pointer keeps the whole
  // snapshot (arena + dataset image) alive across any number of
  // subsequent updates.
  std::shared_ptr<const FlatRTree> PinFlatTree() const {
    std::shared_ptr<const Snapshot> snap = LoadSnapshot();
    return std::shared_ptr<const FlatRTree>(snap, &snap->flat);
  }
  // The master dataset for dataset-backed engines. An arena engine has
  // no master — its dataset lives inside the served epoch, so the
  // reference is only stable until the next AdvanceToArena; pin the
  // epoch (PinIndex) to hold it across swaps.
  const Dataset& dataset() const {
    return dataset_ != nullptr ? *dataset_ : *LoadSnapshot()->dataset;
  }
  const ScoringFunction& scoring() const { return *scoring_; }
  DiskManager* disk() const { return disk_; }

 private:
  // One immutable epoch: a frozen arena over a dataset image that no
  // writer will ever touch. Readers pin it with shared_ptr.
  struct Snapshot {
    std::shared_ptr<const Dataset> dataset;
    FlatRTree flat;
    uint64_t version = 0;
  };

  // Shared implementation of the two public constructors;
  // `mutable_dataset` is null for the read-only variant.
  GirEngine(const Dataset* dataset, Dataset* mutable_dataset,
            DiskManager* disk, std::unique_ptr<ScoringFunction> scoring,
            const GirEngineOptions& options);

  // Restore path: adopts a thawed master instead of bulk-loading and
  // publishes no snapshot; AttachWal's replay publishes once, after its
  // last batch.
  GirEngine(std::unique_ptr<Dataset> owned, RTree tree, uint64_t version,
            DiskManager* disk, std::unique_ptr<ScoringFunction> scoring,
            const GirEngineOptions& options);

  // Read-only arena path: serves straight from the mapping — no master
  // tree, no refreeze. `flat` must be FromArena over `dataset`, which
  // the published snapshot takes ownership of.
  GirEngine(std::shared_ptr<const Dataset> dataset, FlatRTree flat,
            uint64_t version, DiskManager* disk,
            std::unique_ptr<ScoringFunction> scoring,
            const GirEngineOptions& options);

  std::shared_ptr<const Snapshot> LoadSnapshot() const {
    return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  }

  Result<GirComputation> Compute(VecView weights, size_t k,
                                 Phase2Method method, bool order_sensitive)
      const;

  // Body of ApplyUpdates; requires update_mu_.
  Result<UpdateStats> ApplyUpdatesLocked(const UpdateBatch& batch,
                                         ShardedGirCache* cache,
                                         bool log_to_wal);

  // ApplyUpdates' first half, up to the refreeze: validates the batch,
  // logs it when `log_to_wal` (replay passes false: its records came
  // *from* the log), and mutates the master tree and dataset. Fills the
  // wal and apply fields of `stats` and the inserted records' ids. A
  // failed batch leaves dataset, tree and WAL untouched. Requires
  // update_mu_ (or an unpublished engine).
  Status MutateLocked(const UpdateBatch& batch, bool log_to_wal,
                      UpdateStats* stats, std::vector<RecordId>* new_ids);

  // A snapshot of the master tree at `version`: Freeze (node ranges on
  // `pool` when non-null) over a copy of the master dataset, or over
  // the caller's dataset itself on a read-only engine.
  std::shared_ptr<Snapshot> FreezeEpoch(uint64_t version,
                                        ThreadPool* pool) const;

  // Makes `snap` the current epoch and its version the engine's.
  void Publish(std::shared_ptr<const Snapshot> snap);

  // Attaches the WAL named by `config` to a freshly-opened updatable
  // engine: replays committed records past the engine's epoch when
  // `replay` is set, then opens the writer on a segment based at the
  // final epoch. Factored out of Open.
  Status AttachWal(const EngineConfig& config, bool replay);

  // Shared tail of Compute and ComputeGirWithTopK: Phase 1 + Phase 2 +
  // intersection over an explicit epoch, consuming a finished top-k.
  Result<GirComputation> FinishGir(const FlatRTree& flat, uint64_t version,
                                   VecView weights, size_t k,
                                   Phase2Method method, bool order_sensitive,
                                   TopKResult topk, double topk_cpu_ms) const;

  // Restore/CSV paths only: the engine owns its master dataset
  // (declared first so dataset_/mutable_dataset_ can alias it during
  // init).
  std::unique_ptr<Dataset> owned_dataset_;
  const Dataset* dataset_;  // null iff arena-backed (dataset lives in
                            // the snapshot, swapped by AdvanceToArena)
  Dataset* mutable_dataset_ = nullptr;  // non-null iff updatable
  DiskManager* disk_;
  std::unique_ptr<ScoringFunction> scoring_;
  GirEngineOptions options_;
  // Mutable master index; touched only under update_mu_. Absent on
  // arena-backed engines — they have nothing to re-balance and serve
  // the mmap'd frozen image directly.
  std::optional<RTree> tree_;
  std::shared_ptr<const Snapshot> snapshot_;  // atomic publish point
  std::atomic<uint64_t> version_{0};
  std::mutex update_mu_;  // serializes ApplyUpdates writers
  // Durable update log (EngineConfig::WithWal); both null without one.
  std::unique_ptr<WalStore> wal_store_;
  std::unique_ptr<WalWriter> wal_;
  WalRecoveryStats wal_recovery_;
};

// Opens an engine or aborts with the error printed — the construction
// idiom of tests, benches and examples, where a failed open is a bug,
// not a condition to handle.
std::unique_ptr<GirEngine> OpenEngineOrDie(EngineConfig config);

}  // namespace gir

#endif  // GIR_GIR_ENGINE_H_
