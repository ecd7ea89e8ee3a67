#ifndef GIRBENCH_PROBE_H_
#define GIRBENCH_PROBE_H_

// Layer probes of the traced run. Each probe calls one layer's public
// functions directly from the benchmark and times every call:
//
//   query path  ShardedGirCache::Probe -> RunBrs -> AddPhase1Constraints
//               -> RunFpNdPhase2 / RunFp2dPhase2 -> GirRegion::polytope,
//               on one pinned epoch, each result checked bitwise against
//               GirEngine::ComputeGir;
//   write path  a shadow the benchmark owns, fed each batch right after
//               the stack acked it: WalWriter::AppendDurable on its own
//               directory -> RTree Delete/Insert -> dataset copy +
//               FlatRTree::Freeze -> ShardedGirCache::InvalidateForUpdates;
//   recovery    SnapshotStore::RecoverLatestArena and
//               WalStore::ReadCommitted + apply on the stack's own
//               checkpoint and log.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "gir/sharded_cache.h"
#include "index/flat_rtree.h"
#include "index/rtree.h"
#include "plan.h"
#include "spans.h"
#include "stack.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "topk/scoring.h"

namespace girbench {

struct QueryProbe {
  gir::ShardedGirCache::HitKind hit = gir::ShardedGirCache::HitKind::kMiss;
  double cache_probe_us = 0.0;
  double brs_ms = 0.0;
  double phase1_ms = 0.0;
  double phase2_ms = 0.0;
  double intersect_ms = 0.0;
  double compute_gir_ms = 0.0;  // the same query through ComputeGir, warm
  uint64_t brs_reads = 0;
  uint64_t phase2_reads = 0;
  size_t phase2_candidates = 0;
  size_t constraints = 0;        // final region constraints
  size_t useful_phase2 = 0;      // Phase-2 constraints that are facets
};

// Probes `weights` one by one against the pinned current epoch of
// `stack`, probing (and so touching) its live cache. Fails with
// DataLoss naming the query when a probed result differs from
// ComputeGir's.
gir::Result<std::vector<QueryProbe>> ProbeQueries(
    const WorkloadSpec& spec, Stack* stack,
    const std::vector<gir::Vec>& weights, SpanLog* spans, const Clock& clock);

struct WriteProbe {
  size_t op = 0;  // position of the batch in the stack's update list
  double wal_append_ms = 0.0;
  double mutate_ms = 0.0;
  double refreeze_ms = 0.0;
  double invalidate_ms = 0.0;
  uint64_t refreeze_bytes = 0;  // dataset image + arena planes built
  size_t cache_entries = 0;     // before invalidation
  size_t lp_tests = 0;
  size_t evicted = 0;
};

struct WriteProbeSummary {
  std::vector<WriteProbe> batches;
  uint64_t fsyncs = 0;
  uint64_t log_bytes = 0;
  uint64_t payload_bytes = 0;  // coordinates + ids the batches carry
};

// The write path on a shadow the probe owns. The stack's writer calls
// Apply with each batch right after the stack acked it, on the same
// thread, so the shadow's layer times and the served ack of a batch are
// taken back to back under the same load.
class ShadowWriter {
 public:
  // A shadow of `initial` under `dir` (created), its cache warmed with
  // the regions of `cache_weights`.
  static gir::Result<std::unique_ptr<ShadowWriter>> Open(
      const WorkloadSpec& spec, const gir::Dataset& initial,
      const std::vector<gir::Vec>& cache_weights, const std::string& dir);

  ShadowWriter(const ShadowWriter&) = delete;
  ShadowWriter& operator=(const ShadowWriter&) = delete;

  // Applies the batch at position `op` of the stack's update list. The
  // first failure stops the shadow and is returned by Finish.
  void Apply(size_t op, const gir::UpdateBatch& b, SpanLog* spans,
             const Clock& clock);

  // Every applied batch, with the shadow WAL's fsyncs and bytes.
  gir::Result<WriteProbeSummary> Finish() const;

 private:
  ShadowWriter(const WorkloadSpec& spec, const gir::Dataset& initial,
               const std::string& dir);

  const size_t dim_;
  std::unique_ptr<gir::ScoringFunction> scoring_;
  gir::Dataset master_;
  gir::DiskManager disk_;
  gir::RTree tree_;  // over master_ and disk_
  std::shared_ptr<const gir::Dataset> data_;  // the current epoch
  gir::FlatRTree flat_;                       // frozen over data_
  uint64_t version_ = 0;
  gir::ShardedGirCache cache_;
  gir::WalStore wal_store_;
  std::unique_ptr<gir::WalWriter> wal_;
  WriteProbeSummary summary_;
  gir::Status status_;
};

struct RecoveryProbe {
  double arena_open_ms = 0.0;
  double wal_replay_ms = 0.0;  // ReadCommitted + mutate + refreeze each
  size_t replayed_batches = 0;
};

// Recovers the stack's newest checkpoint and replays its WAL tail into
// probe-owned structures (the stack's files are only read).
gir::Result<RecoveryProbe> ProbeRecovery(const Stack& stack, SpanLog* spans,
                                         const Clock& clock);

}  // namespace girbench

#endif  // GIRBENCH_PROBE_H_
