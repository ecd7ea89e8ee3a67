#include "probe.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#include "gir/fp2d.h"
#include "gir/fpnd.h"
#include "gir/phase1.h"
#include "gir/sharded_cache.h"
#include "index/flat_rtree.h"
#include "index/rtree.h"
#include "storage/arena_file.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"
#include "topk/brs.h"
#include "topk/scoring.h"

namespace girbench {

using gir::Result;
using gir::Status;

namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameRegion(const gir::GirRegion& a, const gir::GirRegion& b) {
  if (a.constraints().size() != b.constraints().size()) return false;
  for (size_t i = 0; i < a.constraints().size(); ++i) {
    if (!SameBits(a.constraints()[i].normal, b.constraints()[i].normal)) {
      return false;
    }
  }
  return true;
}

// Phase 2 exactly as GirEngine runs FP: the angular variant at d = 2,
// the incident-star variant above.
Result<gir::Phase2Output> RunFpPhase2(const gir::FlatRTree& flat,
                                      const gir::ScoringFunction& scoring,
                                      gir::VecView w,
                                      const gir::TopKResult& topk,
                                      gir::GirRegion* region) {
  return flat.dataset().dim() == 2
             ? gir::RunFp2dPhase2(flat, scoring, w, topk, region)
             : gir::RunFpNdPhase2(flat, scoring, w, topk, region,
                                  gir::GirEngineOptions{}.fp);
}

// Bytes a refreeze materializes: the dataset image plus the arena's
// coordinate planes (lo/hi per dimension) and child ids.
uint64_t RefreezeBytes(const gir::FlatRTree& flat) {
  const uint64_t dim = flat.dataset().dim();
  const uint64_t dataset = flat.dataset().size() * dim * sizeof(double);
  const uint64_t slots = flat.node_count() * flat.Capacity();
  return dataset + slots * (2 * dim * sizeof(double) + sizeof(int32_t));
}

uint64_t PayloadBytes(const gir::UpdateBatch& b, size_t dim) {
  return b.inserts.size() * dim * sizeof(double) +
         b.deletes.size() * sizeof(gir::RecordId);
}

// One epoch of the shadow: an immutable dataset copy and its frozen
// image, published the way the engine publishes.
struct ShadowEpoch {
  std::shared_ptr<const gir::Dataset> data;
  gir::FlatRTree flat;
};

ShadowEpoch Freeze(const gir::Dataset& master, const gir::RTree& tree) {
  ShadowEpoch e;
  e.data = std::make_shared<const gir::Dataset>(master);
  e.flat = gir::FlatRTree::Freeze(tree, e.data.get());
  return e;
}

// Deletes before inserts, as GirEngine::ApplyUpdates mutates.
Status Mutate(const gir::UpdateBatch& b, gir::Dataset* master,
              gir::RTree* tree, std::vector<gir::RecordId>* inserted) {
  for (gir::RecordId id : b.deletes) {
    if (!tree->Delete(id)) return Status::Internal("shadow delete missed");
    master->MarkDeleted(id);
  }
  for (const gir::Vec& p : b.inserts) {
    const gir::RecordId id = master->AppendRecord(p);
    tree->Insert(id);
    if (inserted != nullptr) inserted->push_back(id);
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<QueryProbe>> ProbeQueries(
    const WorkloadSpec& spec, Stack* stack,
    const std::vector<gir::Vec>& weights, SpanLog* spans, const Clock& clock) {
  const gir::GirEngine& engine = *stack->engine;
  const gir::ScoringFunction& scoring = engine.scoring();
  gir::ShardedGirCache* cache = stack->batch->mutable_cache();
  const gir::GirEngine::PinnedIndex pin = engine.PinIndex();
  const gir::FlatRTree& flat = *pin.flat;
  std::vector<QueryProbe> out;
  out.reserve(weights.size());
  for (size_t q = 0; q < weights.size(); ++q) {
    const gir::Vec& w = weights[q];
    QueryProbe p;
    double t = clock.Now();
    gir::ShardedGirCache::Lookup hit = cache->Probe(w, spec.k, pin.version);
    double t2 = clock.Now();
    spans->Add("Probe", "probe", kMainTrack, t, t2);
    p.hit = hit.kind;
    p.cache_probe_us = (t2 - t) * 1000.0;

    // The reference answer; the call also warms the CPU caches, so the
    // layer calls and the timed ComputeGir below start equally warm.
    Result<gir::GirComputation> ref =
        engine.ComputeGir(w, spec.k, gir::Phase2Method::kFP);
    if (!ref.ok()) return ref.status();

    t = clock.Now();
    Result<gir::TopKResult> topk = gir::RunBrs(flat, scoring, w, spec.k);
    t2 = clock.Now();
    spans->Add("RunBrs", "probe", kMainTrack, t, t2);
    if (!topk.ok()) return topk.status();
    p.brs_ms = t2 - t;
    p.brs_reads = topk->io.reads;

    gir::GirRegion region(flat.dataset().dim(), w, topk->result);
    t = clock.Now();
    gir::AddPhase1Constraints(flat.dataset(), scoring, topk->result, &region);
    t2 = clock.Now();
    spans->Add("AddPhase1Constraints", "probe", kMainTrack, t, t2);
    p.phase1_ms = t2 - t;
    const size_t phase1_constraints = region.constraints().size();

    t = clock.Now();
    Result<gir::Phase2Output> p2 = RunFpPhase2(flat, scoring, w, *topk, &region);
    t2 = clock.Now();
    spans->Add("RunFpPhase2", "probe", kMainTrack, t, t2);
    if (!p2.ok()) return p2.status();
    p.phase2_ms = t2 - t;
    p.phase2_reads = p2->io.reads;
    p.phase2_candidates = p2->candidates;

    t = clock.Now();
    region.polytope();
    t2 = clock.Now();
    spans->Add("polytope", "probe", kMainTrack, t, t2);
    p.intersect_ms = t2 - t;
    p.constraints = region.constraints().size();
    for (int idx : region.nonredundant_indices()) {
      if (static_cast<size_t>(idx) >= phase1_constraints) ++p.useful_phase2;
    }

    // The same query along the engine's own path, timed as a whole: the
    // measured latency the layer times are attributed against.
    t = clock.Now();
    Result<gir::GirComputation> timed =
        engine.ComputeGir(w, spec.k, gir::Phase2Method::kFP);
    p.compute_gir_ms = clock.Now() - t;
    if (!timed.ok()) return timed.status();

    // The probed layers must compose to exactly what the engine serves.
    if (ref->snapshot_version != pin.version ||
        ref->topk.result != topk->result ||
        !SameBits(ref->topk.scores, topk->scores) ||
        !SameRegion(ref->region, region)) {
      return Status::DataLoss("layer probe of query " + std::to_string(q) +
                              " differs from ComputeGir");
    }
    out.push_back(p);
  }
  return out;
}

ShadowWriter::ShadowWriter(const WorkloadSpec& spec,
                           const gir::Dataset& initial, const std::string& dir)
    : dim_(spec.dim),
      scoring_(gir::MakeScoring("Linear", spec.dim)),
      master_(initial),
      tree_(gir::RTree::BulkLoad(&master_, &disk_)),
      cache_(spec.cache_capacity),
      wal_store_(dir) {
  ShadowEpoch e = Freeze(master_, tree_);
  data_ = std::move(e.data);
  flat_ = std::move(e.flat);
}

Result<std::unique_ptr<ShadowWriter>> ShadowWriter::Open(
    const WorkloadSpec& spec, const gir::Dataset& initial,
    const std::vector<gir::Vec>& cache_weights, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir);
  std::unique_ptr<ShadowWriter> s(new ShadowWriter(spec, initial, dir));
  // Shadow cache, warmed with regions computed on the shadow's epoch 0.
  for (const gir::Vec& w : cache_weights) {
    Result<gir::TopKResult> topk =
        gir::RunBrs(s->flat_, *s->scoring_, w, spec.k);
    if (!topk.ok()) return topk.status();
    gir::GirRegion region(spec.dim, w, topk->result);
    gir::AddPhase1Constraints(*s->data_, *s->scoring_, topk->result, &region);
    Result<gir::Phase2Output> p2 =
        RunFpPhase2(s->flat_, *s->scoring_, w, *topk, &region);
    if (!p2.ok()) return p2.status();
    s->cache_.Insert(spec.k, topk->result, region, s->version_);
  }
  Result<std::unique_ptr<gir::WalWriter>> wal =
      gir::WalWriter::Open(&s->wal_store_, s->version_, spec.dim);
  if (!wal.ok()) return wal.status();
  s->wal_ = std::move(*wal);
  return s;
}

void ShadowWriter::Apply(size_t op, const gir::UpdateBatch& b, SpanLog* spans,
                         const Clock& clock) {
  if (!status_.ok()) return;
  WriteProbe p;
  p.op = op;
  const uint64_t next = version_ + 1;
  double t = clock.Now();
  status_ = wal_->AppendDurable(b, next);
  double t2 = clock.Now();
  spans->Add("WalWriter::AppendDurable", "probe", kWriterTrack, t, t2);
  if (!status_.ok()) return;
  p.wal_append_ms = t2 - t;
  summary_.payload_bytes += PayloadBytes(b, dim_);

  std::vector<gir::RecordId> inserted;
  t = clock.Now();
  status_ = Mutate(b, &master_, &tree_, &inserted);
  t2 = clock.Now();
  spans->Add("RTree::Delete/Insert", "probe", kWriterTrack, t, t2);
  if (!status_.ok()) return;
  p.mutate_ms = t2 - t;

  t = clock.Now();
  ShadowEpoch fresh = Freeze(master_, tree_);
  t2 = clock.Now();
  spans->Add("FlatRTree::Freeze", "probe", kWriterTrack, t, t2);
  p.refreeze_ms = t2 - t;
  p.refreeze_bytes = RefreezeBytes(fresh.flat);

  std::vector<gir::Vec> inserted_g;
  for (gir::RecordId id : inserted) {
    inserted_g.push_back(scoring_->Transform(fresh.data->Get(id)));
  }
  t = clock.Now();
  const gir::UpdateInvalidation inv = cache_.InvalidateForUpdates(
      b.deletes, inserted_g, *fresh.data, *scoring_, next);
  t2 = clock.Now();
  spans->Add("InvalidateForUpdates", "probe", kWriterTrack, t, t2);
  p.invalidate_ms = t2 - t;
  p.cache_entries = inv.entries_before;
  p.lp_tests = inv.lp_tests;
  p.evicted = inv.stale_evicted + inv.delete_evicted + inv.insert_evicted;

  // Publishing frees the superseded epoch, as the engine's publish does
  // when no reader pins it: that is refreeze cost too. The flat tree
  // points into the dataset it was frozen over, so the epoch is swapped
  // whole.
  t = clock.Now();
  flat_ = std::move(fresh.flat);
  data_ = std::move(fresh.data);
  t2 = clock.Now();
  p.refreeze_ms += t2 - t;
  version_ = next;
  summary_.batches.push_back(p);
}

Result<WriteProbeSummary> ShadowWriter::Finish() const {
  if (!status_.ok()) return status_;
  WriteProbeSummary out = summary_;
  const gir::WalWriter::Stats stats = wal_->stats();
  out.fsyncs = stats.fsyncs;
  out.log_bytes = stats.appended_bytes;
  return out;
}

Result<RecoveryProbe> ProbeRecovery(const Stack& stack, SpanLog* spans,
                                    const Clock& clock) {
  RecoveryProbe out;
  gir::SnapshotStore store(stack.snap_dir());
  double t = clock.Now();
  Result<gir::SnapshotStore::ArenaPick> pick = store.RecoverLatestArena();
  double t2 = clock.Now();
  spans->Add("RecoverLatestArena", "probe", kMainTrack, t, t2);
  if (!pick.ok()) return pick.status();
  out.arena_open_ms = t2 - t;

  Result<std::unique_ptr<gir::Dataset>> rows = pick->file->BuildDataset();
  if (!rows.ok()) return rows.status();
  gir::Dataset& master = **rows;
  gir::DiskManager disk;
  gir::RTree tree = gir::RTree::BulkLoad(&master, &disk);

  gir::WalStore wal(stack.wal_dir());
  t = clock.Now();
  Result<gir::WalStore::ReplayLog> log = wal.ReadCommitted(pick->version);
  if (!log.ok()) return log.status();
  for (const gir::WalStore::ReplayRecord& rec : log->records) {
    Status mutated = Mutate(rec.batch, &master, &tree, nullptr);
    if (!mutated.ok()) return mutated;
    Freeze(master, tree);
  }
  t2 = clock.Now();
  spans->Add("ReadCommitted+apply", "probe", kMainTrack, t, t2);
  out.wal_replay_ms = t2 - t;
  out.replayed_batches = log->records.size();
  return out;
}

}  // namespace girbench
