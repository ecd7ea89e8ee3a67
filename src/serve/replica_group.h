#ifndef GIR_SERVE_REPLICA_GROUP_H_
#define GIR_SERVE_REPLICA_GROUP_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "gir/engine.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/snapshot_store.h"

namespace gir::serve {

// ----- replica tier -----
//
// One leader publishes epochs as mmap'able arena files
// (SnapshotStore::WriteArena); each replica is an independent failure
// domain — its own directory of shipped arena files, its own
// DiskManager, its own FaultInjector — serving queries from an
// arena-backed GirEngine opened FromArena. Replicas never talk to each
// other: the EpochShipper copies `arena-<v>.garn` files leader →
// replica and advances each replica with one atomic epoch swap, and
// the Router (router.h) fans queries across the group. Shipping the
// leader's whole arena file is the only way a replica catches up; a
// replica never rebuilds an epoch itself.
//
// Because every replica serves the same immutable arena bytes at a
// given epoch, a reply from any replica at epoch v is bit-identical to
// a fault-free single engine serving that file, simulated page reads
// included — the property the router's failover relies on and
// replica_group_test checks
// (RouterTest.ChaosKillScheduleServesBitIdenticalReplies,
// ReplicaGroupTest.ReplicasServeShippedEpochBitIdenticalPerTier).

// Replica-level failure domains, driven by replica_group_test (the
// kill/slow/stale schedules of its RouterTest cases):
//   crash        — Kill(): every query and probe fails kUnavailable
//                  instantly (connection refused), until Revive().
//   slow         — SetSlowMs(ms): every query and probe pays an
//                  injected delay before computing (degraded host).
//   stale        — SetStale(true): the shipper skips this replica, so
//                  its epoch lags the leader and pinned reads must
//                  avoid it.
//   corrupt-open — a shipped file lands damaged (the replica store's
//                  FaultPlan torn/corrupt rates): AdoptEpoch's open
//                  fails by checksum and the replica keeps serving its
//                  previous epoch — lag grows, data never lies.
struct ReplicaConfig {
  std::string dir;  // replica-local epoch directory (created on ship)
  // Fault surface for this replica's own storage: page-read faults hit
  // its queries, torn/corrupt write faults hit the files shipped *to*
  // it (the replication transport fails like a local disk does).
  FaultPlan fault_plan;
};

class Replica {
 public:
  using ScoringFactory = std::function<std::unique_ptr<ScoringFunction>()>;

  // Ships the leader's newest valid arena epoch into config.dir (the
  // replica's first epoch), then opens an arena-backed engine over the
  // replica's own copy. Fails if the leader has no valid epoch or the
  // initial ship lands damaged.
  static Result<std::unique_ptr<Replica>> Open(
      const ReplicaConfig& config, const SnapshotStore& leader,
      const ScoringFactory& scoring, const GirEngineOptions& options = {});

  // Serves one query from this replica's current epoch, through its
  // fault domains: killed → kUnavailable immediately; slow → injected
  // delay first; page-read faults per its own FaultPlan.
  Result<GirComputation> Compute(VecView weights, size_t k,
                                 Phase2Method method) const;

  // Ships `version` from the leader into this replica's directory and
  // advances the serving engine onto it (one atomic swap; in-flight
  // readers drain on the old mapping). A damaged ship fails here —
  // kDataLoss from the open-time checksum — and the replica keeps its
  // current epoch. Ships are refused while killed (a down host
  // receives nothing).
  Result<uint64_t> AdoptEpoch(const SnapshotStore& leader, uint64_t version);

  // After AdoptEpoch: keep-last-N retention on this replica's own
  // directory (see SnapshotStore::GarbageCollect). 0 disables.
  void set_gc_keep_last(size_t n) { gc_keep_last_ = n; }

  uint64_t epoch() const { return engine_->dataset_version(); }
  const std::string& dir() const { return config_.dir; }
  size_t dim() const { return engine_->dataset().dim(); }
  uint64_t open_failures() const {
    return open_failures_.load(std::memory_order_relaxed);
  }

  // ----- chaos controls -----
  void Kill() { killed_.store(true, std::memory_order_release); }
  void Revive() { killed_.store(false, std::memory_order_release); }
  bool killed() const { return killed_.load(std::memory_order_acquire); }
  void SetSlowMs(double ms) { slow_ms_.store(ms, std::memory_order_release); }
  double slow_ms() const { return slow_ms_.load(std::memory_order_acquire); }
  void SetStale(bool stale) {
    stale_.store(stale, std::memory_order_release);
  }
  bool stale() const { return stale_.load(std::memory_order_acquire); }

 private:
  explicit Replica(ReplicaConfig config);

  ReplicaConfig config_;
  FaultInjector injector_;
  DiskManager disk_;
  SnapshotStore store_;  // over config_.dir, writes through injector_
  std::unique_ptr<GirEngine> engine_;
  std::atomic<bool> killed_{false};
  std::atomic<bool> stale_{false};
  std::atomic<double> slow_ms_{0.0};
  std::atomic<uint64_t> open_failures_{0};
  size_t gc_keep_last_ = 0;
};

// The serving fleet: owns the replicas. Lifetime: the leader
// SnapshotStore (and whatever publishes into it) must outlive the
// group only while Open or an EpochShipper runs — replicas serve from
// their own directories and never reach back to the leader's files.
struct ReplicaGroupConfig {
  std::vector<ReplicaConfig> replicas;
  Replica::ScoringFactory scoring;
  GirEngineOptions engine_options;
  size_t gc_keep_last = 0;  // per-replica retention after each adopt
};

class ReplicaGroup {
 public:
  // Opens every replica on the leader's newest valid epoch. All-or-
  // nothing: one replica failing to open fails the group.
  static Result<std::unique_ptr<ReplicaGroup>> Open(
      const ReplicaGroupConfig& config, const SnapshotStore& leader);

  size_t size() const { return replicas_.size(); }
  Replica* replica(size_t i) { return replicas_[i].get(); }
  const Replica* replica(size_t i) const { return replicas_[i].get(); }

  // Smallest epoch any replica serves — what a pin must not exceed if
  // it wants every replica eligible.
  uint64_t MinEpoch() const;
  uint64_t MaxEpoch() const;

 private:
  ReplicaGroup() = default;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

// Propagates leader epochs to the fleet and accounts replication lag.
// One shipper per (leader, group); ShipLatest is called after each
// leader publish (or on a schedule) — it is synchronous and
// deterministic given the fault plans, which is what lets the chaos
// suite replay schedules exactly. Every replica behind the leader
// takes the leader's newest arena file through Replica::AdoptEpoch.
class EpochShipper {
 public:
  EpochShipper(const SnapshotStore* leader, ReplicaGroup* group)
      : leader_(leader), group_(group) {
    lag_histogram_.fill(0);
  }

  struct ShipReport {
    uint64_t leader_epoch = 0;  // newest valid epoch at the leader
    size_t shipped = 0;         // replicas advanced onto leader_epoch
    size_t up_to_date = 0;      // already at or ahead of it
    size_t skipped_stale = 0;   // stale replicas, deliberately skipped
    size_t failed = 0;          // ship/open failures (incl. corrupt-open)
    std::vector<uint64_t> replica_epochs;  // post-ship, per replica
    std::vector<uint64_t> lags;            // leader_epoch - epoch, per replica
  };

  // Ships the leader's newest valid epoch to every live, non-stale
  // replica that is behind it, then records one lag observation per
  // replica into the histogram. NotFound when the leader has no valid
  // epoch yet.
  Result<ShipReport> ShipLatest();

  // Lag of replica i at the last ShipLatest (0 before any).
  uint64_t lag(size_t i) const {
    return i < last_lags_.size() ? last_lags_[i] : 0;
  }

  // Observations of per-replica lag, one per replica per ShipLatest:
  // bucket i counts lag == i, the last bucket is lag >= kLagBuckets-1.
  static constexpr size_t kLagBuckets = 8;
  const std::array<uint64_t, kLagBuckets>& lag_histogram() const {
    return lag_histogram_;
  }

 private:
  const SnapshotStore* leader_;
  ReplicaGroup* group_;
  std::vector<uint64_t> last_lags_;
  std::array<uint64_t, kLagBuckets> lag_histogram_;
};

}  // namespace gir::serve

#endif  // GIR_SERVE_REPLICA_GROUP_H_
