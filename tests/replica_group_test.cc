// Replicated serving tier: replicas opened FromArena over shipped
// epoch files serve bit-identically to a fault-free single engine (per
// SIMD tier); the EpochShipper tracks per-replica lag and skips stale
// replicas; a corrupt ship is rejected by checksum and the old epoch
// keeps serving; the router fails over crashed replicas behind a
// circuit breaker, hedges slow primaries, and never serves a read from
// a replica behind its pinned epoch — including under a seeded
// kill/revive chaos schedule.
#include "serve/replica_group.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "serve/router.h"
#include "storage/disk_manager.h"
#include "storage/snapshot_store.h"
#include "topk/scoring.h"

namespace gir::serve {
namespace {

constexpr size_t kDim = 3;
constexpr size_t kK = 8;

class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

// This run's own directory under TempDir(), removed when the run ends:
// copies of the binary running at once (say, ctest -j over two build
// trees) never share a file.
const std::filesystem::path& RunDir() {
  static const std::filesystem::path dir = [] {
    std::filesystem::path d =
        std::filesystem::path(testing::TempDir()) /
        ("replica_group_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

class RunDirCleanup : public testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(RunDir()); }
};
testing::Environment* const kRunDirCleanup =
    testing::AddGlobalTestEnvironment(new RunDirCleanup);

std::string FreshDir(const std::string& name) {
  const std::string dir = (RunDir() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

Replica::ScoringFactory LinearScoring() {
  return [] { return MakeScoring("Linear", kDim); };
}

std::vector<Vec> SpreadWeights(size_t m, uint64_t seed = 777) {
  std::vector<Vec> weights;
  Rng rng(seed);
  for (size_t i = 0; i < m; ++i) {
    Vec w(kDim);
    double sum = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      w[j] = 0.05 + rng.Uniform();
      sum += w[j];
    }
    for (size_t j = 0; j < kDim; ++j) w[j] /= sum;
    weights.push_back(std::move(w));
  }
  return weights;
}

// A leader that publishes arena epochs: the master engine plus the
// SnapshotStore its epochs land in. PublishEpoch applies one seeded
// update batch and writes the new epoch's arena file.
struct Leader {
  Dataset data;
  DiskManager disk;
  std::unique_ptr<GirEngine> engine;
  std::string dir;
  SnapshotStore store;
  Rng rng{505};

  explicit Leader(const std::string& name, size_t n = 400)
      : data([&] {
          Rng data_rng(404);
          auto d = GenerateByName("IND", n, kDim, data_rng);
          EXPECT_TRUE(d.ok());
          return std::move(*d);
        }()),
        engine(OpenEngineOrDie(EngineConfig::FromDataset(
            &data, &disk, MakeScoring("Linear", kDim)))),
        dir(FreshDir(name)),
        store(dir) {
    EXPECT_TRUE(store.WriteArena(engine->flat_tree(), 0).ok());
  }

  uint64_t PublishEpoch() {
    UpdateBatch batch;
    for (int i = 0; i < 4; ++i) {
      Vec v(kDim);
      for (double& x : v) x = 0.05 + 0.9 * rng.Uniform();
      batch.inserts.push_back(std::move(v));
    }
    auto up = engine->ApplyUpdates(batch);
    EXPECT_TRUE(up.ok()) << up.status().message();
    EXPECT_TRUE(store.WriteArena(engine->flat_tree(), up->version).ok());
    return up->version;
  }
};

ReplicaGroupConfig ThreeReplicas(const std::string& base) {
  ReplicaGroupConfig config;
  for (int i = 0; i < 3; ++i) {
    ReplicaConfig rc;
    rc.dir = FreshDir(base + "_r" + std::to_string(i));
    config.replicas.push_back(rc);
  }
  config.scoring = LinearScoring();
  return config;
}

// Same bits, not just ==: a -0.0 for a 0.0 or a NaN in a normal counts.
bool SameBits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every replica answers like `reference` on the scalar and AVX2 tiers:
// ids, scores, epoch, the region's constraint normals bit for bit, and
// the simulated page reads of both phases (so a replica that served
// another tree over the same rows fails here).
void ExpectGroupMatchesReference(const ReplicaGroup& group,
                                 const GirEngine& reference) {
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::ForceTier(tier) != tier) continue;  // host can't run it
    for (const Vec& w : SpreadWeights(12)) {
      auto want = reference.ComputeGir(w, kK, Phase2Method::kFP);
      ASSERT_TRUE(want.ok());
      const auto& want_constraints = want->region.constraints();
      for (size_t i = 0; i < group.size(); ++i) {
        auto got = group.replica(i)->Compute(w, kK, Phase2Method::kFP);
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(got->topk.result, want->topk.result);
        EXPECT_EQ(got->topk.scores, want->topk.scores);
        EXPECT_EQ(got->snapshot_version, want->snapshot_version);
        EXPECT_EQ(got->stats.topk_reads, want->stats.topk_reads)
            << "replica " << i;
        EXPECT_EQ(got->stats.phase2_reads, want->stats.phase2_reads)
            << "replica " << i;
        const auto& got_constraints = got->region.constraints();
        ASSERT_EQ(got_constraints.size(), want_constraints.size());
        for (size_t c = 0; c < got_constraints.size(); ++c) {
          EXPECT_TRUE(SameBits(got_constraints[c].normal,
                               want_constraints[c].normal))
              << "replica " << i << ", constraint " << c;
        }
      }
    }
  }
}

TEST(ReplicaGroupTest, ReplicasServeShippedEpochBitIdenticalPerTier) {
  TierGuard guard;
  Leader leader("rg_bitident_leader");
  leader.PublishEpoch();

  auto group =
      ReplicaGroup::Open(ThreeReplicas("rg_bitident"), leader.store);
  ASSERT_TRUE(group.ok()) << group.status().message();
  EXPECT_EQ((*group)->MinEpoch(), 1u);
  EXPECT_EQ((*group)->MaxEpoch(), 1u);

  // The fault-free single engine every replica must match.
  DiskManager ref_disk;
  auto reference = OpenEngineOrDie(EngineConfig::FromArena(
      leader.dir, &ref_disk, MakeScoring("Linear", kDim)));
  ExpectGroupMatchesReference(**group, *reference);

  // Two more leader epochs, shipped together: the replicas now serve
  // arenas they adopted, and still match a single engine on that file.
  leader.PublishEpoch();
  const uint64_t v3 = leader.PublishEpoch();
  EpochShipper shipper(&leader.store, group->get());
  auto report = shipper.ShipLatest();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leader_epoch, v3);
  EXPECT_EQ(report->shipped, 3u);
  EXPECT_EQ((*group)->MinEpoch(), v3);

  DiskManager ref3_disk;
  auto reference3 = OpenEngineOrDie(EngineConfig::FromArena(
      leader.dir, &ref3_disk, MakeScoring("Linear", kDim)));
  ASSERT_EQ(reference3->dataset_version(), v3);
  ExpectGroupMatchesReference(**group, *reference3);
}

TEST(ReplicaGroupTest, ShipperTracksLagAndSkipsStaleReplicas) {
  Leader leader("rg_lag_leader");
  auto group = ReplicaGroup::Open(ThreeReplicas("rg_lag"), leader.store);
  ASSERT_TRUE(group.ok());
  EpochShipper shipper(&leader.store, group->get());

  // Everyone starts current: lag 0 across the board.
  auto report = shipper.ShipLatest();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->leader_epoch, 0u);
  EXPECT_EQ(report->up_to_date, 3u);
  EXPECT_EQ(report->lags, (std::vector<uint64_t>{0, 0, 0}));

  // A stale replica is deliberately skipped; its lag grows per epoch.
  (*group)->replica(1)->SetStale(true);
  leader.PublishEpoch();
  report = shipper.ShipLatest();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->leader_epoch, 1u);
  EXPECT_EQ(report->shipped, 2u);
  EXPECT_EQ(report->skipped_stale, 1u);
  EXPECT_EQ(report->lags, (std::vector<uint64_t>{0, 1, 0}));
  EXPECT_EQ(shipper.lag(1), 1u);

  leader.PublishEpoch();
  report = shipper.ShipLatest();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->lags, (std::vector<uint64_t>{0, 2, 0}));

  // Un-stale: the next ship catches it up in one hop.
  (*group)->replica(1)->SetStale(false);
  report = shipper.ShipLatest();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->shipped, 1u);
  EXPECT_EQ(report->lags, (std::vector<uint64_t>{0, 0, 0}));
  EXPECT_EQ((*group)->MinEpoch(), 2u);

  // Histogram: one observation per replica per ship (4 ships x 3).
  const auto& hist = shipper.lag_histogram();
  uint64_t total = 0;
  for (uint64_t bucket : hist) total += bucket;
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(hist[1], 1u);  // the lag==1 observation
  EXPECT_EQ(hist[2], 1u);  // the lag==2 observation
}

TEST(ReplicaGroupTest, CorruptShipKeepsOldEpochServing) {
  Leader leader("rg_corrupt_leader");

  ReplicaConfig rc;
  rc.dir = FreshDir("rg_corrupt_r0");
  // First ship (the initial open) is clean; the second lands corrupt;
  // later ships are clean again.
  rc.fault_plan.seed = 77;
  rc.fault_plan.corrupt_rate = 1.0;
  rc.fault_plan.skip_ops = 1;
  rc.fault_plan.max_faults = 1;

  auto replica = Replica::Open(rc, leader.store, LinearScoring());
  ASSERT_TRUE(replica.ok()) << replica.status().message();
  EXPECT_EQ((*replica)->epoch(), 0u);

  const uint64_t v1 = leader.PublishEpoch();
  auto adopted = (*replica)->AdoptEpoch(leader.store, v1);
  // Corrupt-open domain: the shipped bytes fail their checksums; the
  // replica keeps serving its previous epoch instead of serving lies.
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ((*replica)->epoch(), 0u);
  EXPECT_EQ((*replica)->open_failures(), 1u);
  const Vec w = {0.5, 0.3, 0.2};
  auto still = (*replica)->Compute(w, kK, Phase2Method::kFP);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->snapshot_version, 0u);

  // A clean re-ship overwrites the damaged file and advances.
  adopted = (*replica)->AdoptEpoch(leader.store, v1);
  ASSERT_TRUE(adopted.ok()) << adopted.status().message();
  EXPECT_EQ((*replica)->epoch(), v1);
}

TEST(RouterTest, FailsOverCrashedReplicaAndBreakerOpens) {
  Leader leader("rt_crash_leader");
  auto group = ReplicaGroup::Open(ThreeReplicas("rt_crash"), leader.store);
  ASSERT_TRUE(group.ok());

  RouterOptions opts;
  opts.breaker_threshold = 3;
  opts.breaker_open_ms = 5.0;
  opts.breaker_max_open_ms = 10.0;
  opts.hedge = false;  // isolate failover behavior
  Router router(group->get(), opts);

  (*group)->replica(0)->Kill();
  const auto weights = SpreadWeights(24);
  for (const Vec& w : weights) {
    auto reply = router.Route(w, kK, Phase2Method::kFP);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_NE(reply->replica, 0);
  }
  RouterMetrics m = router.Snapshot();
  EXPECT_EQ(m.served, weights.size());
  // Round-robin put the dead replica first for ~1/3 of requests until
  // the breaker opened; each of those cost one failover dispatch.
  EXPECT_GE(m.failovers, 1u);
  EXPECT_GE(m.replicas[0].failures, 3u);
  EXPECT_NE(m.replicas[0].state, BreakerState::kClosed);

  // Revive; once the backoff expires a health probe closes the breaker
  // and the replica serves again.
  (*group)->replica(0)->Revive();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  router.RunHealthChecks();
  m = router.Snapshot();
  EXPECT_EQ(m.replicas[0].state, BreakerState::kClosed);
  bool replica0_served = false;
  for (const Vec& w : weights) {
    auto reply = router.Route(w, kK, Phase2Method::kFP);
    ASSERT_TRUE(reply.ok());
    replica0_served |= reply->replica == 0;
  }
  EXPECT_TRUE(replica0_served);
}

TEST(RouterTest, HedgesSlowPrimaryAndChargesBoth) {
  Leader leader("rt_hedge_leader");
  auto group = ReplicaGroup::Open(ThreeReplicas("rt_hedge"), leader.store);
  ASSERT_TRUE(group.ok());

  Router router(group->get());
  (*group)->replica(0)->SetSlowMs(150.0);

  ExecPolicy policy;
  policy.hedge_delay_ms = 2.0;  // explicit hint overrides the p99 derivation
  for (const Vec& w : SpreadWeights(6)) {
    auto reply = router.Route(w, kK, Phase2Method::kFP, policy);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    // Whoever won, the reply must be a real epoch-stamped answer.
    EXPECT_EQ(reply->served_epoch, 0u);
  }
  RouterMetrics m = router.Snapshot();
  EXPECT_EQ(m.served, 6u);
  // The slow replica was primary for ~2 of 6 requests: each of those
  // hedged after 2ms and the healthy peer won long before the 150ms
  // sleep finished. Both attempts are charged — the loser still lands
  // in the slow replica's served/failures ledger once it wakes.
  EXPECT_GE(m.hedges_dispatched, 1u);
  EXPECT_GE(m.hedge_wins, 1u);
  EXPECT_EQ(m.hedge_wins + m.hedge_losses, m.hedges_dispatched);
}

TEST(RouterTest, EpochPinnedFailoverNeverTimeTravels) {
  Leader leader("rt_pin_leader");
  auto group = ReplicaGroup::Open(ThreeReplicas("rt_pin"), leader.store);
  ASSERT_TRUE(group.ok());
  EpochShipper shipper(&leader.store, group->get());

  // Replica 2 goes stale at epoch 0; the rest advance to epoch 1.
  (*group)->replica(2)->SetStale(true);
  const uint64_t v1 = leader.PublishEpoch();
  ASSERT_TRUE(shipper.ShipLatest().ok());
  ASSERT_EQ((*group)->replica(2)->epoch(), 0u);

  RouterOptions opts;
  opts.hedge = false;
  Router router(group->get(), opts);

  // Reads pinned to the acknowledged update may only land on replicas
  // 0 and 1 — never the lagging one, even via failover.
  ExecPolicy pinned;
  pinned.pin_epoch = v1;
  const auto weights = SpreadWeights(18);
  for (const Vec& w : weights) {
    auto reply = router.Route(w, kK, Phase2Method::kFP, pinned);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_GE(reply->served_epoch, v1);
    EXPECT_NE(reply->replica, 2);
  }

  // Kill one fresh replica: pinned reads fail over to the other fresh
  // one, still never to the stale replica.
  (*group)->replica(0)->Kill();
  for (const Vec& w : weights) {
    auto reply = router.Route(w, kK, Phase2Method::kFP, pinned);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(reply->replica, 1);
    EXPECT_GE(reply->served_epoch, v1);
  }

  // Kill the last fresh replica: a pinned read now has no legal source
  // — the router refuses rather than time-traveling to epoch 0.
  (*group)->replica(1)->Kill();
  auto refused = router.Route(weights[0], kK, Phase2Method::kFP, pinned);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  // An unpinned read is still happy to be served from epoch 0.
  auto unpinned = router.Route(weights[0], kK, Phase2Method::kFP);
  ASSERT_TRUE(unpinned.ok()) << unpinned.status().message();
  EXPECT_EQ(unpinned->replica, 2);
  EXPECT_EQ(unpinned->served_epoch, 0u);

  EXPECT_EQ(router.Snapshot().pin_violations, 0u);
}

TEST(RouterTest, ValidatesPolicyAtTheBoundary) {
  Leader leader("rt_validate_leader");
  auto group = ReplicaGroup::Open(ThreeReplicas("rt_validate"), leader.store);
  ASSERT_TRUE(group.ok());
  Router router(group->get());
  const Vec w = {0.5, 0.3, 0.2};

  ExecPolicy bad;
  bad.hedge_delay_ms = -1.0;
  auto reply = router.Route(w, kK, Phase2Method::kFP, bad);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);

  bad = ExecPolicy{};
  bad.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  reply = router.Route(w, kK, Phase2Method::kFP, bad);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

// A revived replica rejoins only through its breaker: until the
// backoff ends, no probe runs and no request reaches it. So reviving
// one replica and killing another can leave every admitted replica
// down, though two are up — the interleaving the chaos schedule below
// must wait out.
TEST(RouterTest, BreakerKeepsARevivedReplicaOutUntilItsBackoffEnds) {
  Leader leader("rt_backoff_leader");
  auto group = ReplicaGroup::Open(ThreeReplicas("rt_backoff"), leader.store);
  ASSERT_TRUE(group.ok());
  RouterOptions opts;
  opts.breaker_open_ms = 600000.0;  // outlives the test
  opts.breaker_max_open_ms = 600000.0;
  opts.hedge = false;
  Router router(group->get(), opts);
  const auto weights = SpreadWeights(30);
  // Kills replica r and routes until its breaker opens.
  auto kill_until_open = [&](size_t r) {
    (*group)->replica(r)->Kill();
    for (const Vec& w : weights) {
      auto reply = router.Route(w, kK, Phase2Method::kFP);
      ASSERT_TRUE(reply.ok()) << reply.status().message();
      if (router.Snapshot().replicas[r].state == BreakerState::kOpen) return;
    }
    FAIL() << "breaker of replica " << r << " never opened";
  };
  kill_until_open(0);
  (*group)->replica(0)->Revive();
  kill_until_open(1);
  (*group)->replica(1)->Revive();
  (*group)->replica(2)->Kill();
  router.RunHealthChecks();  // 0 and 1 are still backing off
  RouterMetrics m = router.Snapshot();
  EXPECT_EQ(m.replicas[0].state, BreakerState::kOpen);
  EXPECT_EQ(m.replicas[1].state, BreakerState::kOpen);
  auto reply = router.Route(weights[0], kK, Phase2Method::kFP);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

// Chaos: a seeded kill/revive schedule across the trace, served from a
// shipped leader epoch. With at most one replica down at a time, every
// request is served, every reply is bit-identical to the fault-free
// reference, no pinned read is ever answered from behind its pin, and
// at the end every revived replica charges the reference's simulated
// reads. "Down" counts the breaker: before the next kill, the schedule
// waits until a probe has closed the revived replica's breaker
// (otherwise a 2-8 ms backoff can outlive a 20-request period, and two
// replicas are out at once).
TEST(RouterTest, ChaosKillScheduleServesBitIdenticalReplies) {
  TierGuard guard;
  Leader leader("rt_chaos_leader");
  auto group = ReplicaGroup::Open(ThreeReplicas("rt_chaos"), leader.store);
  ASSERT_TRUE(group.ok());
  // Serve a shipped epoch three insert batches on, whose tree a fresh
  // bulk load of its rows does not reproduce, so the end-of-schedule
  // read check can tell the two apart.
  leader.PublishEpoch();
  leader.PublishEpoch();
  leader.PublishEpoch();
  EpochShipper shipper(&leader.store, group->get());
  auto shipped = shipper.ShipLatest();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  ASSERT_EQ(shipped->shipped, 3u);

  DiskManager ref_disk;
  auto reference = OpenEngineOrDie(EngineConfig::FromArena(
      leader.dir, &ref_disk, MakeScoring("Linear", kDim)));

  RouterOptions opts;
  opts.breaker_open_ms = 2.0;
  opts.breaker_max_open_ms = 8.0;
  Router router(group->get(), opts);

  Rng chaos(909);
  int down = -1;
  const auto weights = SpreadWeights(120, 31337);
  for (size_t q = 0; q < weights.size(); ++q) {
    if (q % 20 == 0) {
      if (down >= 0) {
        const size_t up = static_cast<size_t>(down);
        (*group)->replica(up)->Revive();
        // Wait on the breaker, not on time; the deadline only bounds a
        // broken router.
        Stopwatch waited;
        router.RunHealthChecks();
        while (router.Snapshot().replicas[up].state != BreakerState::kClosed) {
          ASSERT_LT(waited.ElapsedMillis(), 10000.0) << "replica " << up;
          std::this_thread::yield();
          router.RunHealthChecks();
        }
      }
      down = static_cast<int>(chaos.UniformInt(3));
      (*group)->replica(static_cast<size_t>(down))->Kill();
      router.RunHealthChecks();
    }
    auto reply = router.Route(weights[q], kK, Phase2Method::kFP);
    ASSERT_TRUE(reply.ok()) << "q=" << q << ": " << reply.status().message();
    auto want = reference->ComputeGir(weights[q], kK, Phase2Method::kFP);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(reply->topk, want->topk.result);
    EXPECT_EQ(reply->scores, want->topk.scores);
  }
  RouterMetrics m = router.Snapshot();
  EXPECT_EQ(m.served, weights.size());
  EXPECT_EQ(m.failed + m.unroutable, 0u);
  EXPECT_EQ(m.pin_violations, 0u);

  // A RoutedReply carries ids and scores only; with every replica back
  // up, each one's simulated reads and constraint bits must match the
  // reference too, which a replica serving a rebuilt tree would not.
  for (size_t i = 0; i < (*group)->size(); ++i) {
    (*group)->replica(i)->Revive();
  }
  ExpectGroupMatchesReference(**group, *reference);
}

}  // namespace
}  // namespace gir::serve
