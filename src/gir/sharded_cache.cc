#include "gir/sharded_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace gir {

ShardedGirCache::ShardedGirCache(size_t capacity, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  if (capacity < num_shards) num_shards = capacity > 0 ? capacity : 1;
  per_shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ShardedGirCache::HomeShard(VecView q) const {
  // FNV-1a over the raw weight bytes: bit-identical vectors co-locate,
  // jittered ones spread.
  uint64_t h = 1469598103934665603ULL;
  for (double x : q) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(x), "double must be 64-bit");
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return static_cast<size_t>(h % shards_.size());
}

bool ShardedGirCache::Slots::Contains(const Header& h, VecView q) const {
  if (q.size() != h.dim) return false;
  const size_t d = h.dim;
  const double* row = normals(h);
  for (size_t r = 0; r < h.rows; ++r, row += d) {
    double dot = 0.0;
    for (size_t j = 0; j < d; ++j) dot += row[j] * q[j];
    if (dot < 0.0) return false;
  }
  return true;
}

ShardedGirCache::Slots::Header ShardedGirCache::Slots::Begin(
    size_t k, uint64_t version, VecView query, const RecordId* result,
    size_t result_count) {
  Header h{k,           version,          query.size(), data.size(), 0,
           results.size(), result_count};
  data.insert(data.end(), query.begin(), query.end());
  results.insert(results.end(), result, result + result_count);
  live_data += query.size();
  return h;
}

void ShardedGirCache::Slots::AppendRow(Header* h, const double* normal) {
  data.insert(data.end(), normal, normal + h->dim);
  ++h->rows;
  live_data += h->dim;
}

void ShardedGirCache::Slots::AppendCopy(const Slots& from, const Header& h) {
  Header copy = Begin(h.k, h.version, VecView(from.query(h), h.dim),
                      from.results.data() + h.result_begin, h.result_count);
  const double* row = from.normals(h);
  for (size_t r = 0; r < h.rows; ++r, row += h.dim) AppendRow(&copy, row);
  headers.push_back(copy);
}

void ShardedGirCache::Slots::Erase(size_t i) {
  live_data -= (1 + headers[i].rows) * headers[i].dim;
  headers.erase(headers.begin() + static_cast<std::ptrdiff_t>(i));
}

void ShardedGirCache::Slots::CompactIfSparse() {
  if (data.size() <= 2 * live_data + 1024) return;
  Slots packed;
  packed.headers.reserve(headers.size());
  packed.data.reserve(live_data);
  packed.results.reserve(results.size());
  for (const Header& h : headers) packed.AppendCopy(*this, h);
  *this = std::move(packed);
}

void ShardedGirCache::Slots::Clear() {
  headers.clear();
  data.clear();
  results.clear();
  live_data = 0;
}

namespace {

bool InUnitCube(VecView q) {
  for (double x : q) {
    if (x < 0.0 || x > 1.0) return false;
  }
  return true;
}

}  // namespace

bool ShardedGirCache::ProbeShardExact(Shard& shard, size_t shard_index,
                                      VecView q, size_t k, uint64_t version,
                                      Lookup* out, int* partial_shard) {
  const bool in_cube = InUnitCube(q);
  std::lock_guard<std::mutex> lock(shard.mu);
  Slots& slots = shard.slots;
  for (size_t i = 0; i < slots.headers.size();) {
    const Slots::Header& h = slots.headers[i];
    // Entries lie about a kilobyte apart: fetch the next one's rows
    // while this one is tested.
    if (i + 1 < slots.headers.size()) {
      __builtin_prefetch(slots.normals(slots.headers[i + 1]));
    }
    if (h.version < version) {
      slots.Erase(i);  // stale epoch, unservable forever
      continue;
    }
    if (h.version > version || !in_cube || !slots.Contains(h, q)) {
      // A *newer* stamp means this probe raced an in-flight update
      // (survivors are re-stamped just before the version bump): skip,
      // never erase — the next-epoch probes will serve it.
      ++i;
      continue;
    }
    if (k > h.k) {
      if (*partial_shard < 0) *partial_shard = static_cast<int>(shard_index);
      ++i;
      continue;
    }
    out->kind = HitKind::kExact;
    const RecordId* result = slots.results.data() + h.result_begin;
    out->records.assign(result, result + k);
    hits_.fetch_add(1, std::memory_order_relaxed);
    std::rotate(slots.headers.begin(), slots.headers.begin() + i,
                slots.headers.begin() + i + 1);
    return true;
  }
  return false;
}

bool ShardedGirCache::ProbeShardAny(Shard& shard, VecView q, size_t k,
                                    uint64_t version, Lookup* out) {
  if (!InUnitCube(q)) return false;
  std::lock_guard<std::mutex> lock(shard.mu);
  Slots& slots = shard.slots;
  for (size_t i = 0; i < slots.headers.size(); ++i) {
    const Slots::Header& h = slots.headers[i];
    if (h.version != version || !slots.Contains(h, q)) continue;
    const RecordId* result = slots.results.data() + h.result_begin;
    if (k <= h.k) {
      out->kind = HitKind::kExact;
      out->records.assign(result, result + k);
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      out->kind = HitKind::kPartial;
      out->records.assign(result, result + h.result_count);
      partial_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    std::rotate(slots.headers.begin(), slots.headers.begin() + i,
                slots.headers.begin() + i + 1);
    return true;
  }
  return false;
}

ShardedGirCache::Lookup ShardedGirCache::Probe(VecView q, size_t k,
                                               uint64_t version) {
  Lookup out;
  const size_t home = HomeShard(q);
  const size_t n = shards_.size();
  // First pass: an exact-covering entry anywhere beats a shorter one in
  // an earlier shard (a partial hit forces a full recompute downstream).
  int partial_shard = -1;
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (home + i) % n;
    if (ProbeShardExact(*shards_[idx], idx, q, k, version, &out,
                        &partial_shard)) {
      return out;
    }
  }
  // No exact entry: settle for the remembered partial. The entry may
  // have been evicted concurrently since the first pass; that demotes
  // the probe to a miss, which is safe (the query just recomputes).
  if (partial_shard >= 0 &&
      ProbeShardAny(*shards_[partial_shard], q, k, version, &out)) {
    return out;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void ShardedGirCache::Insert(size_t k, std::vector<RecordId> result,
                             const GirRegion& region, uint64_t version) {
  Shard& shard = *shards_[HomeShard(region.query())];
  const bool in_cube = InUnitCube(region.query());
  std::lock_guard<std::mutex> lock(shard.mu);
  Slots& slots = shard.slots;
  // Skip the insert when the shard already covers this query at least
  // as well — concurrent identical queries would otherwise fill the
  // LRU list with duplicates, evicting distinct regions.
  for (const Slots::Header& h : slots.headers) {
    if (h.k >= k && h.version == version && in_cube &&
        slots.Contains(h, region.query())) {
      return;
    }
  }
  // The rows are plain doubles, so copying them under the lock costs
  // about as much as the containment test above.
  Slots::Header h =
      slots.Begin(k, version, region.query(), result.data(), result.size());
  for (const GirConstraint& c : region.constraints()) {
    slots.AppendRow(&h, c.normal.data());
  }
  slots.headers.insert(slots.headers.begin(), h);
  while (slots.headers.size() > per_shard_capacity_) {
    slots.Erase(slots.headers.size() - 1);
  }
  slots.CompactIfSparse();
}

UpdateInvalidation ShardedGirCache::InvalidateForUpdates(
    const std::vector<RecordId>& deleted, const std::vector<Vec>& inserted_g,
    const Dataset& dataset, const ScoringFunction& scoring,
    uint64_t new_version) {
  UpdateInvalidation out;
  // Member scratch, reused across every entry of every shard and across
  // calls: the swapped-out storage, the LP workspace (tableau recycled,
  // each entry's piercing LPs share one Prepare and warm-start each
  // other — see FirstAdmittedGain), the flattened gain matrix, and the
  // transformed k-th record.
  Slots& working = invalidate_slots_;
  LpWorkspace& lp_ws = invalidate_ws_;
  std::vector<double>& gains = invalidate_gains_;
  Vec& gk = invalidate_gk_;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    // Swap the shard's storage out under the lock and run the (possibly
    // many) piercing LPs unlocked: concurrent probes see an empty shard
    // and just miss — indistinguishable from eviction, and it keeps the
    // "sharding bounds lock hold times" promise during updates. Entries
    // inserted while we work land in the shard's (empty) storage and
    // are merged back under at the end (they carry the old epoch's
    // stamp, so the *next* invalidation pass retires them as laggards).
    working.Clear();
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      std::swap(working, shard.slots);
    }
    for (size_t i = 0; i < working.headers.size();) {
      Slots::Header& h = working.headers[i];
      ++out.entries_before;
      // Only entries at the currently-published epoch were validated
      // against every batch so far; older stamps were inserted by
      // queries that computed on a retired snapshot and must not be
      // resurrected by a re-stamp they never earned.
      if (h.version + 1 != new_version) {
        ++out.stale_evicted;
        working.Erase(i);
        continue;
      }
      const RecordId* result = working.results.data() + h.result_begin;
      // Deletes: a result that lost a member is wrong everywhere.
      bool evict = false;
      for (RecordId d : deleted) {
        evict = std::find(result, result + h.result_count, d) !=
                result + h.result_count;
        if (evict) break;
      }
      if (evict) {
        ++out.delete_evicted;
        working.Erase(i);
        continue;
      }
      // Inserts: evict iff some insert can outscore the cached k-th
      // record somewhere inside the region — batched max-score LPs with
      // shared setup, decision-equivalent to testing each insert in
      // order and stopping at the first pierce.
      if (!inserted_g.empty()) {
        scoring.TransformInto(dataset.Get(result[h.result_count - 1]), &gk);
        const size_t dim = gk.size();
        const size_t count = inserted_g.size();
        gains.resize(count * dim);
        for (size_t t = 0; t < count; ++t) {
          for (size_t j = 0; j < dim; ++j) {
            gains[t * dim + j] = inserted_g[t][j] - gk[j];
          }
        }
        size_t first = FirstAdmittedGain(
            working.normals(h), h.rows, VecView(working.query(h), h.dim),
            gains.data(), count, &lp_ws);
        // lp_tests keeps its historical meaning: (entry, insert) pairs
        // examined before the verdict, not simplex solves.
        out.lp_tests += first < count ? first + 1 : count;
        evict = first < count;
      }
      if (evict) {
        ++out.insert_evicted;
        working.Erase(i);
        continue;
      }
      h.version = new_version;
      ++out.survived;
      ++i;
    }
    working.CompactIfSparse();
    std::lock_guard<std::mutex> lock(shard.mu);
    // Survivors keep MRU priority over entries that raced in meanwhile.
    for (const Slots::Header& h : shard.slots.headers) {
      if (working.headers.size() >= per_shard_capacity_) break;
      working.AppendCopy(shard.slots, h);
    }
    std::swap(working, shard.slots);
  }
  working.Clear();
  return out;
}

void ShardedGirCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->slots.Clear();
  }
}

size_t ShardedGirCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->slots.headers.size();
  }
  return total;
}

}  // namespace gir
