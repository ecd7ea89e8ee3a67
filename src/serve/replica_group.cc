#include "serve/replica_group.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace gir::serve {

Replica::Replica(ReplicaConfig config)
    : config_(std::move(config)),
      injector_(config_.fault_plan),
      store_(config_.dir, &injector_) {
  disk_.AttachFaultInjector(&injector_);
}

Result<std::unique_ptr<Replica>> Replica::Open(
    const ReplicaConfig& config, const SnapshotStore& leader,
    const ScoringFactory& scoring, const GirEngineOptions& options) {
  if (config.dir.empty()) {
    return Status::InvalidArgument("ReplicaConfig needs a directory");
  }
  if (!scoring) {
    return Status::InvalidArgument("Replica needs a scoring factory");
  }
  Result<SnapshotStore::ArenaPick> newest = leader.RecoverLatestArena();
  if (!newest.ok()) return newest.status();

  std::unique_ptr<Replica> replica(new Replica(config));
  Result<SnapshotStore::WriteStats> shipped =
      replica->store_.ShipArenaFrom(leader, newest->version);
  if (!shipped.ok()) return shipped.status();

  // Open over the replica's own directory (not the shipped path):
  // recovery picks the newest epoch that survives its checksums, so a
  // first ship that lands damaged fails here instead of serving lies.
  Result<std::unique_ptr<GirEngine>> engine = GirEngine::Open(
      EngineConfig::FromArena(replica->config_.dir, &replica->disk_,
                              scoring(), options));
  if (!engine.ok()) return engine.status();
  replica->engine_ = std::move(*engine);
  return replica;
}

Result<GirComputation> Replica::Compute(VecView weights, size_t k,
                                        Phase2Method method) const {
  if (killed()) {
    return Status::Unavailable("replica down (connection refused)");
  }
  const double slow = slow_ms();
  if (slow > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(slow));
  }
  return engine_->ComputeGir(weights, k, method);
}

Result<uint64_t> Replica::AdoptEpoch(const SnapshotStore& leader,
                                     uint64_t version) {
  if (killed()) {
    return Status::Unavailable("replica down, ship refused");
  }
  Result<SnapshotStore::WriteStats> shipped =
      store_.ShipArenaFrom(leader, version);
  if (!shipped.ok()) return shipped.status();
  Result<uint64_t> advanced = engine_->AdvanceToArena(shipped->path);
  if (!advanced.ok()) {
    // Corrupt-open domain: the shipped bytes failed their checksums.
    // The previous epoch keeps serving; lag grows until a clean ship.
    open_failures_.fetch_add(1, std::memory_order_relaxed);
    return advanced.status();
  }
  if (gc_keep_last_ > 0) {
    // Best effort; retention never gates the data path.
    (void)store_.GarbageCollect(gc_keep_last_);
  }
  return advanced;
}

Result<std::unique_ptr<ReplicaGroup>> ReplicaGroup::Open(
    const ReplicaGroupConfig& config, const SnapshotStore& leader) {
  if (config.replicas.empty()) {
    return Status::InvalidArgument("ReplicaGroup needs at least one replica");
  }
  std::unique_ptr<ReplicaGroup> group(new ReplicaGroup());
  group->replicas_.reserve(config.replicas.size());
  for (const ReplicaConfig& rc : config.replicas) {
    Result<std::unique_ptr<Replica>> replica =
        Replica::Open(rc, leader, config.scoring, config.engine_options);
    if (!replica.ok()) return replica.status();
    (*replica)->set_gc_keep_last(config.gc_keep_last);
    group->replicas_.push_back(std::move(*replica));
  }
  return group;
}

uint64_t ReplicaGroup::MinEpoch() const {
  uint64_t min_epoch = ~uint64_t{0};
  for (const auto& r : replicas_) min_epoch = std::min(min_epoch, r->epoch());
  return replicas_.empty() ? 0 : min_epoch;
}

uint64_t ReplicaGroup::MaxEpoch() const {
  uint64_t max_epoch = 0;
  for (const auto& r : replicas_) max_epoch = std::max(max_epoch, r->epoch());
  return max_epoch;
}

Result<EpochShipper::ShipReport> EpochShipper::ShipLatest() {
  Result<SnapshotStore::ArenaPick> newest = leader_->RecoverLatestArena();
  if (!newest.ok()) return newest.status();

  ShipReport report;
  report.leader_epoch = newest->version;
  for (size_t i = 0; i < group_->size(); ++i) {
    Replica* replica = group_->replica(i);
    if (replica->epoch() >= report.leader_epoch) {
      ++report.up_to_date;
    } else if (replica->stale()) {
      ++report.skipped_stale;
    } else {
      Result<uint64_t> adopted =
          replica->AdoptEpoch(*leader_, report.leader_epoch);
      if (adopted.ok()) {
        ++report.shipped;
      } else {
        ++report.failed;
      }
    }
    const uint64_t epoch = replica->epoch();
    const uint64_t lag =
        epoch >= report.leader_epoch ? 0 : report.leader_epoch - epoch;
    report.replica_epochs.push_back(epoch);
    report.lags.push_back(lag);
    ++lag_histogram_[std::min(lag, uint64_t{kLagBuckets - 1})];
  }
  last_lags_ = report.lags;
  return report;
}

}  // namespace gir::serve
