#include "gir/batch_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/stopwatch.h"

namespace gir {

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Exponential backoff before retry attempt `attempt` (0-based).
double BackoffMs(double base_ms, uint32_t attempt) {
  return base_ms * static_cast<double>(uint64_t{1} << std::min(attempt, 30u));
}

void BackoffSleep(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

}  // namespace

void BatchEngine::FinalizeStats(BatchResult* out, double deadline_ms) const {
  BatchStats& stats = out->stats;
  stats.queries = out->items.size();
  std::vector<double> latencies;
  latencies.reserve(out->items.size());
  for (const BatchItem& item : out->items) {
    stats.fault_retries += item.retries;
    if (!item.status.ok()) {
      ++stats.failures;
      if (item.status.code() == StatusCode::kUnavailable) {
        ++stats.unavailable;
      }
      continue;
    }
    if (item.retries > 0) ++stats.retry_successes;
    if (deadline_ms > 0.0 && item.latency_ms > deadline_ms) {
      ++stats.deadline_misses;
    }
    switch (item.cache) {
      case ShardedGirCache::HitKind::kExact:
        ++stats.exact_hits;
        break;
      case ShardedGirCache::HitKind::kPartial:
        ++stats.partial_hits;
        break;
      case ShardedGirCache::HitKind::kMiss:
        ++stats.misses;
        break;
    }
    stats.total_reads += item.reads;
    latencies.push_back(item.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  stats.p50_ms = Percentile(latencies, 0.50);
  stats.p99_ms = Percentile(latencies, 0.99);
  stats.max_ms = latencies.empty() ? 0.0 : latencies.back();
}

Result<BatchResult> BatchEngine::ComputeBatch(const std::vector<Vec>& weights,
                                              size_t k, Phase2Method method) {
  return ComputeBatch(weights, k, method, options_.exec);
}

Result<BatchResult> BatchEngine::ComputeBatch(const std::vector<Vec>& weights,
                                              size_t k, Phase2Method method,
                                              const ExecPolicy& policy) {
  Status policy_ok = ValidateExecPolicy(policy);
  if (!policy_ok.ok()) return policy_ok;
  const size_t dim = engine_->dataset().dim();
  for (const Vec& w : weights) {
    if (w.size() != dim) {
      return Status::InvalidArgument("batch weight dimensionality mismatch");
    }
  }
  if (!policy.group_of.empty() && policy.group_of.size() != weights.size()) {
    return Status::InvalidArgument(
        "policy.group_of must be empty or match the batch size");
  }
  if (policy.pin_epoch > engine_->dataset_version()) {
    // Epoch pin: this engine has not yet caught up to the epoch the
    // caller's reply must reflect. Answering from the older epoch would
    // be time travel; an explicit kUnavailable item lets the routing
    // tier fail over to a replica at or ahead of the pin.
    BatchResult out;
    out.items.resize(weights.size());
    for (BatchItem& item : out.items) {
      item.status = Status::Unavailable("engine epoch behind pinned version");
    }
    FinalizeStats(&out, policy.deadline_ms);
    return out;
  }
  if (policy.shared_traversal) {
    return ComputeBatchShared(weights, k, method, policy);
  }

  BatchResult out;
  out.items.resize(weights.size());
  const bool use_cache = cache_.capacity() > 0;

  Stopwatch batch_sw;
  pool_.ParallelFor(weights.size(), [&](size_t i) {
    BatchItem& item = out.items[i];
    Stopwatch sw;
    IoStats before = DiskManager::ThreadStats();
    if (use_cache) {
      // Probe at the current epoch; entries from other epochs are
      // unservable by construction (stale-hit backstop).
      ShardedGirCache::Lookup hit =
          cache_.Probe(weights[i], k, engine_->dataset_version());
      item.cache = hit.kind;
      if (hit.kind == ShardedGirCache::HitKind::kExact) {
        item.topk = std::move(hit.records);
        item.latency_ms = sw.ElapsedMillis();
        return;
      }
    }
    Result<GirComputation> gir = engine_->ComputeGir(weights[i], k, method);
    // Bounded retry on transient storage faults: back off, then recompute
    // on whatever epoch is current (the fault is per-attempt, not
    // per-epoch). A retry that would blow the deadline budget is skipped
    // — the query degrades to an explicit kUnavailable instead.
    while (!gir.ok() && gir.status().code() == StatusCode::kUnavailable &&
           item.retries < policy.max_retries) {
      const double backoff_ms =
          BackoffMs(policy.retry_backoff_ms, item.retries);
      if (policy.deadline_ms > 0.0 &&
          sw.ElapsedMillis() + backoff_ms >= policy.deadline_ms) {
        break;
      }
      BackoffSleep(backoff_ms);
      ++item.retries;
      gir = engine_->ComputeGir(weights[i], k, method);
    }
    if (!gir.ok()) {
      item.status = gir.status();
      item.latency_ms = sw.ElapsedMillis();
      return;
    }
    item.topk = gir->topk.result;
    if (use_cache && options_.populate_cache) {
      // Stamp with the epoch the computation actually ran against — a
      // concurrent update between probe and insert then simply leaves
      // this entry unservable rather than stale.
      cache_.Insert(k, gir->topk.result, gir->region, gir->snapshot_version);
    }
    item.computed = std::move(*gir);
    item.reads = (DiskManager::ThreadStats() - before).reads;
    item.latency_ms = sw.ElapsedMillis();
  });
  out.stats.wall_ms = batch_sw.ElapsedMillis();

  FinalizeStats(&out, policy.deadline_ms);
  // Fan-out performs exactly what it charges.
  out.stats.charged_reads = out.stats.total_reads;
  out.stats.amortized_reads = out.stats.total_reads;
  return out;
}

Result<BatchResult> BatchEngine::ComputeBatchShared(
    const std::vector<Vec>& weights, size_t k, Phase2Method method,
    const ExecPolicy& policy) {
  BatchResult out;
  const size_t n = weights.size();
  out.items.resize(n);
  const bool use_cache = cache_.capacity() > 0;

  Stopwatch batch_sw;
  // One epoch for the whole batch: every group walks the same frozen
  // image, every result and cache insert is stamped with its version.
  const GirEngine::PinnedIndex pin = engine_->PinIndex();

  if (k == 0 || k > pin.flat->size()) {
    // Mirror the per-query status the fan-out path would report.
    for (BatchItem& item : out.items) {
      item.status = Status::InvalidArgument("k out of range");
    }
    out.stats.wall_ms = batch_sw.ElapsedMillis();
    FinalizeStats(&out, policy.deadline_ms);
    return out;
  }

  // Stage 1 — cache probes, in parallel; exact hits are answered here
  // and drop out of the compute set.
  std::vector<uint8_t> needs_compute(n, 0);
  pool_.ParallelFor(n, [&](size_t i) {
    BatchItem& item = out.items[i];
    Stopwatch sw;
    // Reject poisoned weights before any shared work: a NaN row would
    // otherwise ride along in a group's score matrix. Mirrors the
    // status ComputeGir reports on the fan-out path.
    Status valid = ValidateQueryWeights(VecView(weights[i]));
    if (!valid.ok()) {
      item.status = valid;
      item.latency_ms = sw.ElapsedMillis();
      return;
    }
    if (use_cache) {
      ShardedGirCache::Lookup hit = cache_.Probe(weights[i], k, pin.version);
      item.cache = hit.kind;
      if (hit.kind == ShardedGirCache::HitKind::kExact) {
        item.topk = std::move(hit.records);
        item.latency_ms = sw.ElapsedMillis();
        return;
      }
    }
    needs_compute[i] = 1;
    item.latency_ms = sw.ElapsedMillis();
  });

  // Stage 2 — dedupe exact twins (same weights, same k; the batch
  // shares one scoring function and method by construction). Twins are
  // found by sorting the candidate *indices* over the raw weight bytes
  // — bitwise equality, so -0.0/+0.0 stay distinct and NaN payloads
  // compare deterministically (numeric operator< would merge the
  // former and lose strict-weak-ordering on the latter), and no weight
  // vector is copied. The first occurrence in input order computes;
  // the rest replicate its item.
  std::vector<uint32_t> reps;
  std::vector<int64_t> dup_of(n, -1);
  {
    const size_t dim = engine_->dataset().dim();
    std::vector<uint32_t> order;
    order.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (needs_compute[i]) order.push_back(static_cast<uint32_t>(i));
    }
    const auto weight_bytes_cmp = [&](uint32_t a, uint32_t b) {
      return std::memcmp(weights[a].data(), weights[b].data(),
                         dim * sizeof(double));
    };
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const int c = weight_bytes_cmp(a, b);
      return c != 0 ? c < 0 : a < b;  // ties: input order, rep first
    });
    for (size_t s = 0; s < order.size(); ++s) {
      if (s > 0 && weight_bytes_cmp(order[s - 1], order[s]) == 0) {
        dup_of[order[s]] = dup_of[order[s - 1]] >= 0
                               ? dup_of[order[s - 1]]
                               : static_cast<int64_t>(order[s - 1]);
      } else {
        reps.push_back(order[s]);
      }
    }
    std::sort(reps.begin(), reps.end());  // groups follow input order
  }

  // Stage 3 — partition representatives into shared-traversal groups
  // and run them across the pool: one RunBrsMulti walk per group, then
  // the unchanged Phase-2 pipeline per query on the group's thread.
  // Default partition: fixed-width chunks in input order. With
  // policy.group_of, a group boundary falls wherever the caller's
  // label changes (the admission former's archetype clusters), still
  // capped at the effective width so the score-matrix working set
  // stays bounded.
  const size_t width = std::max<size_t>(1, policy.group_width);
  std::vector<std::pair<uint32_t, uint32_t>> group_ranges;  // [begin, end)
  {
    size_t begin = 0;
    for (size_t r = 1; r <= reps.size(); ++r) {
      const bool label_break =
          r < reps.size() && !policy.group_of.empty() &&
          policy.group_of[reps[r]] != policy.group_of[reps[begin]];
      if (r == reps.size() || label_break || r - begin == width) {
        group_ranges.emplace_back(static_cast<uint32_t>(begin),
                                  static_cast<uint32_t>(r));
        begin = r;
      }
    }
  }
  const size_t num_groups = group_ranges.size();
  std::vector<BrsMultiStats> group_stats(num_groups);
  std::vector<uint64_t> group_phase2_reads(num_groups, 0);
  std::vector<uint64_t> group_retry_reads(num_groups, 0);
  pool_.ParallelFor(num_groups, [&](size_t g) {
    const size_t begin = group_ranges[g].first;
    const size_t end = group_ranges[g].second;
    const size_t m = end - begin;
    std::unique_ptr<BrsFrontierArena> arena = AcquireArena();
    arena->group.clear();
    for (size_t r = 0; r < m; ++r) {
      arena->group.push_back(
          BrsMultiQuery{VecView(weights[reps[begin + r]]), k});
    }
    std::vector<TopKResult>& topks = arena->results;
    Stopwatch traversal_sw;
    Status st = RunBrsMulti(*pin.flat, engine_->scoring(), arena->group,
                            arena.get(), &topks, &group_stats[g],
                            &arena->statuses);
    const double traversal_ms = traversal_sw.ElapsedMillis();
    if (!st.ok()) {
      for (size_t r = 0; r < m; ++r) out.items[reps[begin + r]].status = st;
      ReleaseArena(std::move(arena));
      return;
    }
    for (size_t r = 0; r < m; ++r) {
      const size_t i = reps[begin + r];
      BatchItem& item = out.items[i];
      Stopwatch sw;
      Status qst = arena->statuses[r];
      TopKResult topk;
      if (qst.ok()) {
        topk = std::move(topks[r]);
      } else {
        // This query's page fetch faulted inside the shared walk; its
        // group mates already completed untouched. Retry it solo on the
        // same pinned epoch with backoff, inside the deadline budget —
        // then degrade to the terminal status, explicitly.
        while (qst.code() == StatusCode::kUnavailable &&
               item.retries < policy.max_retries) {
          const double backoff_ms =
              BackoffMs(policy.retry_backoff_ms, item.retries);
          if (policy.deadline_ms > 0.0 &&
              traversal_ms + sw.ElapsedMillis() + backoff_ms >=
                  policy.deadline_ms) {
            break;
          }
          BackoffSleep(backoff_ms);
          ++item.retries;
          Result<TopKResult> again =
              RunBrs(*pin.flat, engine_->scoring(), VecView(weights[i]), k);
          if (again.ok()) {
            topk = std::move(*again);
            // The solo retry's physical reads join the group's amortized
            // total (they were really performed, outside the shared walk).
            group_retry_reads[g] += topk.io.reads;
            qst = Status::Ok();
          } else {
            qst = again.status();
          }
        }
        if (!qst.ok()) {
          item.status = qst;
          item.latency_ms += traversal_ms + sw.ElapsedMillis();
          continue;
        }
      }
      const uint64_t topk_charged = topk.io.reads;
      IoStats before = DiskManager::ThreadStats();
      Result<GirComputation> gir = engine_->ComputeGirWithTopK(
          pin, weights[i], k, method, std::move(topk),
          traversal_ms / static_cast<double>(m));
      const uint64_t phase2_reads =
          (DiskManager::ThreadStats() - before).reads;
      group_phase2_reads[g] += phase2_reads;
      if (!gir.ok()) {
        item.status = gir.status();
        item.latency_ms += traversal_ms + sw.ElapsedMillis();
        continue;
      }
      item.topk = gir->topk.result;
      if (use_cache && options_.populate_cache) {
        cache_.Insert(k, gir->topk.result, gir->region,
                      gir->snapshot_version);
      }
      item.computed = std::move(*gir);
      // Charge what a solo run would have paid; the group amortization
      // is reported batch-level, not hidden in per-query accounting.
      item.reads = topk_charged + phase2_reads;
      // A grouped query's latency spans its whole group's shared
      // traversal plus its own Phase-2 tail.
      item.latency_ms += traversal_ms + sw.ElapsedMillis();
    }
    ReleaseArena(std::move(arena));
  });

  // Stage 4 — replicate the deduplicated twins from their
  // representatives (identical by determinism of the computation).
  for (size_t i = 0; i < n; ++i) {
    if (dup_of[i] < 0) continue;
    const BatchItem& rep = out.items[static_cast<size_t>(dup_of[i])];
    BatchItem& item = out.items[i];
    Stopwatch sw;
    item.status = rep.status;
    item.topk = rep.topk;
    item.computed = rep.computed;
    item.reads = rep.reads;  // charged as if computed; paid nothing
    item.latency_ms += sw.ElapsedMillis();
    if (rep.status.ok()) ++out.stats.duplicate_hits;
  }
  out.stats.wall_ms = batch_sw.ElapsedMillis();

  out.stats.shared_groups = num_groups;
  out.stats.grouped_queries = reps.size();
  out.stats.width_used = width;
  uint64_t amortized = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    amortized += group_stats[g].unique_reads + group_phase2_reads[g] +
                 group_retry_reads[g];
  }
  FinalizeStats(&out, policy.deadline_ms);
  out.stats.charged_reads = out.stats.total_reads;
  out.stats.amortized_reads = amortized;
  return out;
}

std::unique_ptr<BrsFrontierArena> BatchEngine::AcquireArena() {
  std::lock_guard<std::mutex> lock(arena_mu_);
  if (arenas_.empty()) return std::make_unique<BrsFrontierArena>();
  std::unique_ptr<BrsFrontierArena> arena = std::move(arenas_.back());
  arenas_.pop_back();
  return arena;
}

void BatchEngine::ReleaseArena(std::unique_ptr<BrsFrontierArena> arena) {
  std::lock_guard<std::mutex> lock(arena_mu_);
  arenas_.push_back(std::move(arena));
}

Result<UpdateStats> BatchEngine::ApplyUpdates(const UpdateBatch& batch) {
  if (mutable_engine_ == nullptr) {
    return Status::FailedPrecondition(
        "BatchEngine was constructed over a read-only engine");
  }
  return mutable_engine_->ApplyUpdates(batch, &cache_);
}

}  // namespace gir
