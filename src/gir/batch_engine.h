#ifndef GIR_GIR_BATCH_ENGINE_H_
#define GIR_GIR_BATCH_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "gir/engine.h"
#include "gir/exec_policy.h"
#include "gir/sharded_cache.h"
#include "topk/brs.h"

namespace gir {

// Engine-level configuration of a BatchEngine: the resources it owns
// (threads, cache) plus the default ExecPolicy a plain ComputeBatch
// call runs under. Per-call execution knobs all live in ExecPolicy —
// pass one to ComputeBatch to steer a single batch without
// reconfiguring the engine.
struct BatchOptions {
  // Worker threads fanning queries over the shared engine. 0 = one per
  // hardware thread.
  size_t threads = 0;
  // Total cached GIRs across shards; 0 disables caching entirely.
  size_t cache_capacity = 256;
  // Insert computed GIRs back into the cache (lookups are always
  // attempted while the cache is enabled).
  bool populate_cache = true;
  // Default execution policy of this engine's batches (see
  // gir/exec_policy.h for every knob and its default). A per-call
  // policy passed to ComputeBatch replaces this wholesale.
  ExecPolicy exec;
};

// Outcome of one query of a batch, at its input position.
struct BatchItem {
  Status status = Status::Ok();
  // How the query was answered. kExact means the records came straight
  // from a cached GIR without touching the R-tree; kPartial means a
  // shorter cached prefix existed but the full answer was recomputed.
  ShardedGirCache::HitKind cache = ShardedGirCache::HitKind::kMiss;
  // The top-k record ids in decreasing score order; always set on
  // success, whether served from cache or computed.
  std::vector<RecordId> topk;
  // The full computation (region, scores, per-phase stats); present
  // exactly when the query was actually computed (miss or partial hit)
  // or replicated from a deduplicated twin.
  std::optional<GirComputation> computed;
  double latency_ms = 0.0;
  // Index page reads *charged* to this query: exactly what a solo
  // ComputeGir would have paid. Under shared traversal the physical
  // reads are amortized across the group (see BatchStats), but the
  // charge stays per-query-exact so accounting is mode-independent.
  uint64_t reads = 0;
  // Transient-fault retries this query consumed (0 = first attempt
  // served). A non-ok final status with retries > 0 means the budget
  // ran out, not that degradation was silent.
  uint32_t retries = 0;
};

// Aggregate statistics of one ComputeBatch call.
struct BatchStats {
  size_t queries = 0;
  size_t failures = 0;
  uint64_t exact_hits = 0;
  uint64_t partial_hits = 0;
  uint64_t misses = 0;
  // Sum of per-query charged reads (mode-independent; equals the
  // physical reads of a pure fan-out run).
  uint64_t total_reads = 0;
  double wall_ms = 0.0;  // end-to-end batch wall time
  double p50_ms = 0.0;   // per-query latency percentiles
  double p99_ms = 0.0;
  double max_ms = 0.0;

  // ----- shared-traversal accounting (zero in fan-out mode except
  // charged/amortized, which then both equal total_reads) -----
  // Queries answered by replicating an exact-duplicate twin (same
  // weights, same k) computed once in this batch.
  uint64_t duplicate_hits = 0;
  // Shared-traversal groups executed and the queries they carried.
  size_t shared_groups = 0;
  size_t grouped_queries = 0;
  // Reads charged to queries vs. physical page reads actually performed
  // (unique-per-group BRS reads + per-query Phase-2 reads). The gap is
  // the amortization the shared executor bought.
  uint64_t charged_reads = 0;
  uint64_t amortized_reads = 0;
  // Effective group width of this call (ExecPolicy::group_width); 0 in
  // fan-out mode.
  size_t width_used = 0;
  // Items whose latency exceeded ExecPolicy::deadline_ms (0 when no
  // deadline was given).
  uint64_t deadline_misses = 0;

  // ----- transient-fault accounting -----
  uint64_t fault_retries = 0;    // retry attempts performed, batch-wide
  uint64_t retry_successes = 0;  // queries served only thanks to a retry
  uint64_t unavailable = 0;      // queries terminally kUnavailable after
                                 // the retry/deadline budget ran out

  // Fraction of *served* (non-failed) queries answered from cache.
  double HitRate() const {
    const size_t served = queries - failures;
    return served == 0 ? 0.0
                       : static_cast<double>(exact_hits) /
                             static_cast<double>(served);
  }
  double QueriesPerSecond() const {
    return wall_ms <= 0.0 ? 0.0
                          : 1000.0 * static_cast<double>(queries) / wall_ms;
  }
  // Physical-read amortization factor of this batch (1.0 = none).
  double ReadAmortization() const {
    return amortized_reads == 0
               ? 1.0
               : static_cast<double>(charged_reads) /
                     static_cast<double>(amortized_reads);
  }
};

struct BatchResult {
  std::vector<BatchItem> items;  // input order
  BatchStats stats;
};

// Multi-threaded batch query layer over a (shared) GirEngine: fans the
// weight vectors of a batch across a fixed thread pool, answers repeats
// and near-repeats from a sharded GIR cache without touching the
// R-tree, and aggregates per-batch serving statistics. Results come back
// in input order and are bit-identical to issuing the same sequence of
// ComputeGir calls sequentially: a cache hit returns the exact cached
// top-k order, which the containment guarantee makes equal to what a
// fresh computation would produce.
//
// Shared traversal (ExecPolicy::shared_traversal): instead of one
// independent root-to-leaf search per cache-missing query, the batch is
// deduplicated (exact weight/k twins computed once), chunked into
// groups, and each group walks the pinned frozen tree once via
// RunBrsMulti — every visited page is fetched once per group and its
// SoA planes are scored against the whole group's weights in one
// multi-weight SIMD pass — before the unchanged Phase-2 algorithms run
// per query. Outputs are bit-identical to fan-out; BatchStats splits
// charged vs. amortized reads to show what the sharing saved. Group
// scratch (heaps, visit stamps, score matrices) lives in pooled
// BrsFrontierArenas recycled across groups and batches.
//
// Cache coherence under updates: every entry is stamped with the
// dataset epoch it was computed at, probes only accept the current
// epoch, and ApplyUpdates (below) runs the incremental LP invalidation
// over this cache — so a batch racing an update serves each query
// either from the old epoch (computed before the swap) or the new one,
// never a stale mix.
//
// The engine must outlive the BatchEngine. One BatchEngine may serve
// many ComputeBatch calls; the cache persists and warms across batches.
// ComputeBatch itself is not reentrant (one batch at a time per
// BatchEngine), but it may run concurrently with ApplyUpdates.
class BatchEngine {
 public:
  explicit BatchEngine(const GirEngine* engine,
                       const BatchOptions& options = {})
      : engine_(engine),
        options_(options),
        cache_(options.cache_capacity),
        pool_(options.threads != 0 ? options.threads
                                   : std::max(1u,
                                              std::thread::
                                                  hardware_concurrency())) {}

  // Updatable variant: also keeps the mutable engine handle so
  // ApplyUpdates can be routed through this BatchEngine's cache.
  BatchEngine(GirEngine* engine, const BatchOptions& options = {})
      : BatchEngine(static_cast<const GirEngine*>(engine), options) {
    mutable_engine_ = engine;
  }

  // Computes the order-sensitive GIR top-k for every weight vector,
  // under this engine's default policy (BatchOptions::exec). Per-query
  // errors (e.g. k out of range) land in the corresponding item's
  // status; the call itself only fails on malformed batch input.
  Result<BatchResult> ComputeBatch(const std::vector<Vec>& weights, size_t k,
                                   Phase2Method method);

  // Same, under an explicit per-call policy (caller-chosen traversal
  // groups, width, deadline, retry budget — see
  // gir/exec_policy.h). The policy replaces the engine default
  // wholesale for this call. Results are bit-identical across any
  // valid policies; only wall time and physical I/O differ.
  Result<BatchResult> ComputeBatch(const std::vector<Vec>& weights, size_t k,
                                   Phase2Method method,
                                   const ExecPolicy& policy);

  // Forwards the batch to GirEngine::ApplyUpdates with this engine's
  // cache attached, so cached GIRs are incrementally invalidated and
  // survivors keep serving across the epoch swap. FailedPrecondition
  // when constructed over a const engine.
  Result<UpdateStats> ApplyUpdates(const UpdateBatch& batch);

  size_t threads() const { return pool_.size(); }
  const ShardedGirCache& cache() const { return cache_; }
  ShardedGirCache* mutable_cache() { return &cache_; }
  const GirEngine& engine() const { return *engine_; }
  // The engine-level configuration, including the default ExecPolicy —
  // what callers (the serve replay loop) start from when building a
  // per-batch policy.
  const BatchOptions& options() const { return options_; }

 private:
  // Arena pool for the shared-traversal groups: one arena per in-flight
  // group, recycled across groups and batches so the traversal scratch
  // (heaps, visit stamps, score matrices, group lists, output slots) is
  // reused rather than reallocated.
  std::unique_ptr<BrsFrontierArena> AcquireArena();
  void ReleaseArena(std::unique_ptr<BrsFrontierArena> arena);

  Result<BatchResult> ComputeBatchShared(const std::vector<Vec>& weights,
                                         size_t k, Phase2Method method,
                                         const ExecPolicy& policy);
  void FinalizeStats(BatchResult* out, double deadline_ms) const;

  const GirEngine* engine_;
  GirEngine* mutable_engine_ = nullptr;
  BatchOptions options_;
  ShardedGirCache cache_;
  ThreadPool pool_;
  std::mutex arena_mu_;
  std::vector<std::unique_ptr<BrsFrontierArena>> arenas_;
};

}  // namespace gir

#endif  // GIR_GIR_BATCH_ENGINE_H_
