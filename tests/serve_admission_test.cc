// Admission/batch-former contract: cosine archetype clustering orders
// batches cluster-major and picks the adaptive width, shedding is
// always an explicit ResourceExhausted (capacity at Submit, expiry at
// Form), firing is work-conserving and capped at max_batch — and the queue
// is safe under concurrent producers with a consumer (the TSan CI job
// hammers this test).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/admission.h"

namespace gir::serve {
namespace {

Vec Archetype(double a, double b, double c) { return Vec{a, b, c}; }

ServiceRequest Req(uint64_t id, Vec w, double enqueue_ms) {
  ServiceRequest r;
  r.id = id;
  r.weights = std::move(w);
  r.k = 10;
  r.enqueue_ms = enqueue_ms;
  r.deadline_ms = enqueue_ms + 100.0;
  return r;
}

TEST(ClusterForExecutionTest, GroupsByArchetypeAndPicksWidth) {
  AdmissionOptions opt;
  opt.cluster_cos = 0.999;
  // Two archetypes (4 and 2 members, scaled copies cluster together)
  // plus two stragglers.
  std::vector<ServiceRequest> reqs;
  reqs.push_back(Req(0, Archetype(0.9, 0.1, 0.1), 0.0));
  reqs.push_back(Req(1, Archetype(0.1, 0.9, 0.1), 1.0));
  reqs.push_back(Req(2, Archetype(0.45, 0.05, 0.05), 2.0));  // = 0 scaled
  reqs.push_back(Req(3, Archetype(0.3, 0.3, 0.9), 3.0));     // straggler
  reqs.push_back(Req(4, Archetype(0.9, 0.1, 0.1), 4.0));
  reqs.push_back(Req(5, Archetype(0.05, 0.45, 0.05), 5.0));  // = 1 scaled
  reqs.push_back(Req(6, Archetype(0.9, 0.1, 0.1), 6.0));
  reqs.push_back(Req(7, Archetype(0.9, 0.3, 0.7), 7.0));     // straggler

  FormedBatch fb = ClusterForExecution(std::move(reqs), opt, 10.0);
  ASSERT_EQ(fb.requests.size(), 8u);
  ASSERT_EQ(fb.group_of.size(), 8u);
  EXPECT_EQ(fb.clusters, 2u);
  EXPECT_EQ(fb.stragglers, 2u);
  EXPECT_EQ(fb.width, 4u);  // largest cluster

  // Cluster-major order: the size-4 cluster first (ids 0,2,4,6 in
  // arrival order), then the size-2 cluster (1,5), stragglers last.
  std::vector<uint64_t> ids;
  for (const ServiceRequest& r : fb.requests) ids.push_back(r.id);
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 2, 4, 6, 1, 5, 3, 7}));
  // Labels are contiguous runs (what BatchExecHints::group_of wants).
  EXPECT_EQ(fb.group_of[0], fb.group_of[1]);
  EXPECT_EQ(fb.group_of[0], fb.group_of[3]);
  EXPECT_EQ(fb.group_of[4], fb.group_of[5]);
  EXPECT_NE(fb.group_of[0], fb.group_of[4]);
  EXPECT_NE(fb.group_of[5], fb.group_of[6]);
  EXPECT_NE(fb.group_of[6], fb.group_of[7]);
}

TEST(ClusterForExecutionTest, AllStragglersFallBackToFanOutWidth) {
  AdmissionOptions opt;
  opt.cluster_cos = 0.99999;
  std::vector<ServiceRequest> reqs;
  reqs.push_back(Req(0, Archetype(0.9, 0.1, 0.1), 0.0));
  reqs.push_back(Req(1, Archetype(0.1, 0.9, 0.1), 1.0));
  reqs.push_back(Req(2, Archetype(0.1, 0.1, 0.9), 2.0));
  FormedBatch fb = ClusterForExecution(std::move(reqs), opt, 3.0);
  EXPECT_EQ(fb.clusters, 0u);
  EXPECT_EQ(fb.stragglers, 3u);
  EXPECT_EQ(fb.width, 1u);  // per-query traversal = fan-out fallback
}

TEST(ClusterForExecutionTest, WidthIsCappedAtMaxWidth) {
  AdmissionOptions opt;
  opt.cluster_cos = 0.9;
  opt.max_width = 4;
  std::vector<ServiceRequest> reqs;
  for (uint64_t i = 0; i < 16; ++i) {
    reqs.push_back(Req(i, Archetype(0.9, 0.1, 0.1), static_cast<double>(i)));
  }
  FormedBatch fb = ClusterForExecution(std::move(reqs), opt, 20.0);
  EXPECT_EQ(fb.width, 4u);
}

// Work-conserving firing: a queued request is ripe at once (no linger
// to fill a batch), the fire time is the oldest enqueue, and Form still
// takes at most max_batch, oldest first.
TEST(AdmissionQueueTest, FiringPolicyWorkConservingAndMaxBatch) {
  AdmissionOptions opt;
  opt.max_batch = 3;
  AdmissionQueue q(opt);
  EXPECT_LT(q.NextFireTime(), 0.0);
  EXPECT_FALSE(q.ShouldForm(100.0));

  ASSERT_TRUE(q.Submit(0, Archetype(0.5, 0.5, 0.5), 10, 1.0).ok());
  EXPECT_EQ(q.NextFireTime(), 1.0);  // the oldest enqueue
  EXPECT_TRUE(q.ShouldForm(1.0));    // fires on arrival

  for (uint64_t id = 1; id < 5; ++id) {
    ASSERT_TRUE(q.Submit(id, Archetype(0.5, 0.5, 0.5), 10,
                         1.0 + static_cast<double>(id))
                    .ok());
  }
  EXPECT_TRUE(q.ShouldForm(5.0));
  EXPECT_EQ(q.NextFireTime(), 1.0);

  std::vector<ShedRequest> shed;
  FormedBatch fb = q.Form(5.0, &shed);
  ASSERT_EQ(fb.requests.size(), 3u);  // capped at max_batch
  for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(fb.requests[i].id, i);  // FIFO
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.NextFireTime(), 4.0);  // the leftover's oldest enqueue
  EXPECT_TRUE(q.ShouldForm(5.0));

  fb = q.Form(5.0, &shed);
  ASSERT_EQ(fb.requests.size(), 2u);
  EXPECT_EQ(fb.requests[0].id, 3u);
  EXPECT_EQ(fb.requests[1].id, 4u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.ShouldForm(5.0));
}

TEST(AdmissionQueueTest, ShedsExplicitlyOnCapacityAndExpiry) {
  AdmissionOptions opt;
  opt.queue_capacity = 2;
  opt.deadline_ms = 10.0;
  opt.max_batch = 8;
  AdmissionQueue q(opt);
  ASSERT_TRUE(q.Submit(0, Archetype(0.5, 0.5, 0.5), 10, 0.0).ok());
  ASSERT_TRUE(q.Submit(1, Archetype(0.5, 0.5, 0.5), 10, 1.0).ok());
  Status overflow = q.Submit(2, Archetype(0.5, 0.5, 0.5), 10, 2.0);
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(q.Submit(3, Vec{}, 10, 2.0).ok());  // malformed

  // Request 0 (deadline 10.0) expires by t=15; request 1 (deadline
  // 11.0) expires too. Both must come back as explicit sheds.
  std::vector<ShedRequest> shed;
  FormedBatch fb = q.Form(15.0, &shed);
  EXPECT_TRUE(fb.requests.empty());
  ASSERT_EQ(shed.size(), 2u);
  for (const ShedRequest& s : shed) {
    EXPECT_EQ(s.status.code(), StatusCode::kResourceExhausted);
  }
}

// Concurrency hammer (the TSan target): producers race Submit against
// a consumer forming batches; every submitted id must come out exactly
// once, either admitted or shed — conservation, no duplicates, no
// losses.
TEST(AdmissionQueueTest, ConcurrentProducersConserveRequests) {
  AdmissionOptions opt;
  opt.max_batch = 16;
  opt.queue_capacity = 64;
  opt.deadline_ms = 1e9;
  AdmissionQueue q(opt);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(p + 1);
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t id =
            static_cast<uint64_t>(p) * kPerProducer + static_cast<uint64_t>(i);
        Vec w{rng.Uniform(0.05, 1.0), rng.Uniform(0.05, 1.0),
              rng.Uniform(0.05, 1.0)};
        Status st = q.Submit(id, std::move(w), 10, static_cast<double>(i));
        if (st.ok()) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::set<uint64_t> drained;
  std::thread consumer([&] {
    std::vector<ShedRequest> shed;
    while (!done.load() || q.size() > 0) {
      FormedBatch fb = q.Form(0.0, &shed);
      for (const ServiceRequest& r : fb.requests) {
        EXPECT_TRUE(drained.insert(r.id).second) << "duplicate id " << r.id;
      }
      if (fb.requests.empty()) std::this_thread::yield();
    }
    for (const ShedRequest& s : shed) {
      EXPECT_TRUE(drained.insert(s.request.id).second);
    }
  });
  for (std::thread& t : producers) t.join();
  done.store(true);
  consumer.join();
  EXPECT_EQ(static_cast<int>(drained.size()), accepted.load());
  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
}

TEST(AdmissionQueueTest, ShutdownDrainsPendingWithUnavailable) {
  AdmissionOptions opt;
  opt.max_batch = 8;
  AdmissionQueue q(opt);
  ASSERT_TRUE(q.Submit(0, Archetype(0.5, 0.5, 0.5), 10, 0.0).ok());
  ASSERT_TRUE(q.Submit(1, Archetype(0.5, 0.5, 0.5), 10, 1.0).ok());
  EXPECT_FALSE(q.shut_down());

  std::vector<ShedRequest> drained = q.Shutdown();
  EXPECT_TRUE(q.shut_down());
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].request.id, 0u);
  EXPECT_EQ(drained[1].request.id, 1u);
  for (const ShedRequest& s : drained) {
    EXPECT_EQ(s.status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(q.size(), 0u);

  // Submitted-after-shutdown requests are refused before any capacity
  // check — the queue is gone, not full.
  Status late = q.Submit(2, Archetype(0.5, 0.5, 0.5), 10, 2.0);
  EXPECT_EQ(late.code(), StatusCode::kUnavailable);
  // And a post-shutdown Form finds nothing to batch or shed.
  std::vector<ShedRequest> shed;
  FormedBatch fb = q.Form(3.0, &shed);
  EXPECT_TRUE(fb.requests.empty());
  EXPECT_TRUE(shed.empty());
  // Idempotent: a second Shutdown has nothing left to drain.
  EXPECT_TRUE(q.Shutdown().empty());
}

// Shutdown hammer (the TSan target): producers race Submit against one
// Shutdown; afterwards every accepted request must have been handed to
// exactly one side — a formed batch before the shutdown or the drained
// list — and every post-shutdown Submit must have been refused.
TEST(AdmissionQueueTest, ConcurrentShutdownConservesRequests) {
  AdmissionOptions opt;
  opt.max_batch = 16;
  opt.queue_capacity = 1 << 20;  // capacity out of the picture
  opt.deadline_ms = 1e9;
  AdmissionQueue q(opt);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(p + 11);
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t id =
            static_cast<uint64_t>(p) * kPerProducer + static_cast<uint64_t>(i);
        Vec w{rng.Uniform(0.05, 1.0), rng.Uniform(0.05, 1.0),
              rng.Uniform(0.05, 1.0)};
        Status st = q.Submit(id, std::move(w), 10, static_cast<double>(i));
        if (st.ok()) {
          accepted.fetch_add(1);
        } else {
          EXPECT_EQ(st.code(), StatusCode::kUnavailable);
          refused.fetch_add(1);
        }
      }
    });
  }

  std::set<uint64_t> seen;
  size_t formed = 0;
  std::vector<ShedRequest> shed;
  // Let the producers get going, then shut down mid-stream and keep
  // forming until the pre-shutdown backlog would have drained (it
  // cannot: Shutdown drained it atomically).
  for (int spin = 0; spin < 50; ++spin) {
    FormedBatch fb = q.Form(0.0, &shed);
    for (const ServiceRequest& r : fb.requests) {
      EXPECT_TRUE(seen.insert(r.id).second) << "duplicate id " << r.id;
      ++formed;
    }
    std::this_thread::yield();
  }
  std::vector<ShedRequest> drained = q.Shutdown();
  for (std::thread& t : producers) t.join();
  for (const ShedRequest& s : drained) {
    EXPECT_EQ(s.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(seen.insert(s.request.id).second);
  }
  for (const ShedRequest& s : shed) {
    EXPECT_TRUE(seen.insert(s.request.id).second);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(static_cast<int>(seen.size()), accepted.load());
  EXPECT_EQ(accepted.load() + refused.load(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace gir::serve
