#ifndef GIR_GIR_SHARDED_CACHE_H_
#define GIR_GIR_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gir/gir_region.h"
#include "topk/scoring.h"

namespace gir {

// Outcome of one incremental invalidation pass over the cache.
struct UpdateInvalidation {
  size_t entries_before = 0;
  size_t stale_evicted = 0;   // entries from an epoch older than current
  size_t delete_evicted = 0;  // entries whose result held a deleted record
  size_t lp_tests = 0;        // point-vs-region piercing LPs solved
  size_t insert_evicted = 0;  // entries some insert can pierce
  size_t survived = 0;        // entries re-stamped to the new version
};

// Top-k result cache keyed by GIR containment (paper Introduction,
// "result caching" application): a new query vector that falls inside
// the GIR of a cached result can reuse it outright — including its
// exact score order.
//
// Entries carry the dataset version (epoch) they were computed at, and
// Probe only serves entries whose stamp matches the caller's current
// version — a hard backstop that makes stale hits impossible after a
// dataset mutation even when incremental invalidation missed (or was
// never run on) an entry. Callers that never mutate can ignore
// versioning entirely: everything defaults to version 0.
//
// Thread-safe (Probe/Insert/Clear/size from any thread;
// InvalidateForUpdates is single-writer — see its comment): entries are
// spread across independently-locked shards, each an LRU list stored
// flat (see Slots), so a probe runs its containment dot products over
// contiguous rows with an early exit and no pointer chasing. Inserts
// touch exactly one shard (chosen by hashing the query vector, so
// clustered workloads spread while repeats co-locate); probes scan
// shards starting from the inserting query's home shard, taking one
// shard lock at a time. Containment lookup is inherently a scan — a
// cached region anywhere may contain the probe point — so sharding
// bounds lock hold times rather than probe work.
//
// Total capacity is divided evenly across shards (rounded up), so a
// pathological insert pattern evicts at worst slightly later than a
// single LRU list would; with one shard it is exactly one LRU list.
class ShardedGirCache {
 public:
  enum class HitKind {
    kMiss,
    // Requested k <= cached k: the prefix of the cached result is the
    // exact answer.
    kExact,
    // Requested k > cached k: the cached records are the correct first
    // part of the answer and can be reported immediately (paper §1 /
    // Tan et al. progressive reporting); the tail still needs work.
    kPartial,
  };
  struct Lookup {
    HitKind kind = HitKind::kMiss;
    std::vector<RecordId> records;  // valid prefix of the true top-k
  };

  explicit ShardedGirCache(size_t capacity = 256, size_t num_shards = 8);

  // Probes every shard (home shard first) for a cached region
  // containing q, stamped with dataset version `version`: an exact hit
  // when the cached k covers the request, a partial hit when the cached
  // prefix is shorter, a miss otherwise. An exact hit anywhere is
  // preferred over an earlier shard's partial one. Entries from an
  // older epoch are evicted on sight (the version stamp is the
  // stale-hit backstop). The hit entry becomes MRU in its shard.
  Lookup Probe(VecView q, size_t k, uint64_t version = 0);

  // Inserts a computed GIR into the home shard of its query vector,
  // stamped with the dataset version it was computed at, evicting that
  // shard's LRU tail beyond the per-shard capacity. Only the query and
  // the constraint normals are copied, as packed rows; any materialized
  // polytope stays with the caller (containment probes never need it).
  void Insert(size_t k, std::vector<RecordId> result, const GirRegion& region,
              uint64_t version = 0);

  // Incremental invalidation after an update batch: walks every entry
  // once and decides, with the existing halfspace/LP machinery instead
  // of a recompute, whether the update stream can perturb it.
  //   - An entry whose cached result contains a deleted record is
  //     evicted (the result is certainly wrong everywhere).
  //   - For each inserted record p (given as its transformed
  //     coordinates g(p)), an entry is evicted iff p can outscore the
  //     entry's k-th record somewhere inside the cached region —
  //     GirRegion::AdmitsGain(g(p) − g(p_k)), one small LP per
  //     (entry, insert) pair, short-circuited on the first pierce.
  //   - Surviving entries are re-stamped to `new_version`: deleting a
  //     non-result record or inserting a non-piercing one provably
  //     leaves the cached top-k exact everywhere inside its region.
  // Only entries stamped with the currently-published epoch
  // (new_version - 1) are eligible to survive: an entry carrying any
  // older stamp was never tested against the intermediate batches (it
  // was inserted by a query that computed against a retired snapshot),
  // so it is evicted outright rather than resurrected.
  // `dataset` must resolve the entries' record ids (the post-update
  // snapshot: tombstones keep deleted coordinates readable). The LPs
  // run outside the shard locks (each shard's storage is swapped out
  // and merged back), so concurrent probes are never stalled — they
  // miss on the in-flight shard, which is safe. Single writer: this
  // method reuses unsynchronized member scratch (LP workspace, gains),
  // so at most one InvalidateForUpdates may run at a time — callers
  // must serialize update application, as GirEngine::ApplyUpdates'
  // writer mutex does. Probe/Insert stay safe to call concurrently.
  // Returns the tests-vs-evictions accounting.
  UpdateInvalidation InvalidateForUpdates(const std::vector<RecordId>& deleted,
                                          const std::vector<Vec>& inserted_g,
                                          const Dataset& dataset,
                                          const ScoringFunction& scoring,
                                          uint64_t new_version);

  // Drops every entry. girbench's read-only workloads (hot_d4, miss_d4)
  // call it before their isolated write phase, so those update acks are
  // timed against an empty cache.
  void Clear();

  size_t size() const;
  size_t shard_count() const { return shards_.size(); }
  size_t capacity() const { return shards_.size() * per_shard_capacity_; }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t partial_hits() const {
    return partial_hits_.load(std::memory_order_relaxed);
  }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  // One shard's entries, packed. Headers are kept in recency order
  // (front = most recently used); each names its query and constraint
  // normals, dim doubles per row in one array, and its result ids in
  // another. Dropping a header leaves its rows behind as garbage until
  // CompactIfSparse packs the arrays again.
  struct Slots {
    struct Header {
      size_t k;
      uint64_t version;  // dataset epoch the result is valid for
      size_t dim;
      size_t data_begin;  // the query at data[data_begin], then the rows
      size_t rows;
      size_t result_begin;
      size_t result_count;
    };
    std::vector<Header> headers;
    std::vector<double> data;
    std::vector<RecordId> results;
    size_t live_data = 0;  // doubles the headers still name

    const double* query(const Header& h) const {
      return data.data() + h.data_begin;
    }
    const double* normals(const Header& h) const {
      return data.data() + h.data_begin + h.dim;
    }
    // GirRegion::Contains(q) at eps = 0 over the packed rows, for a q
    // already known to lie in the unit cube.
    bool Contains(const Header& h, VecView q) const;
    // Appends an entry's query and result and returns its header, not
    // yet listed; AppendRow then adds its constraint normals.
    Header Begin(size_t k, uint64_t version, VecView query,
                 const RecordId* result, size_t result_count);
    void AppendRow(Header* h, const double* normal);
    // Appends a copy of `from`'s entry `h` and lists it last.
    void AppendCopy(const Slots& from, const Header& h);
    // Unlists header i; its arrays become garbage.
    void Erase(size_t i);
    // Copies the listed entries into fresh arrays, in header order, once
    // the garbage outweighs the live rows (amortized over the evictions
    // that made it).
    void CompactIfSparse();
    void Clear();
  };

  struct Shard {
    mutable std::mutex mu;
    Slots slots;
  };

  size_t HomeShard(VecView q) const;
  // Scans one shard under its lock for an entry containing q with
  // cached k >= requested k; fills `out`, promotes the entry to MRU and
  // returns true when found. Remembers in *partial_shard (when it is
  // still unset) that this shard holds a shorter containing entry.
  bool ProbeShardExact(Shard& shard, size_t shard_index, VecView q, size_t k,
                       uint64_t version, Lookup* out, int* partial_shard);
  // Second pass: takes any containing entry (exact or partial).
  bool ProbeShardAny(Shard& shard, VecView q, size_t k, uint64_t version,
                     Lookup* out);

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Scratch reused across InvalidateForUpdates calls (single writer, as
  // with the engine's update path): the storage a shard is swapped out
  // into, LP workspace with the recycled tableau, flattened gain
  // matrix, transformed k-th record. With these warm, the steady-state
  // invalidation loop performs zero heap allocations (asserted by
  // lp_workspace_test).
  Slots invalidate_slots_;
  LpWorkspace invalidate_ws_;
  std::vector<double> invalidate_gains_;
  Vec invalidate_gk_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> partial_hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace gir

#endif  // GIR_GIR_SHARDED_CACHE_H_
