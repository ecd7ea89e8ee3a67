#include "stack.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "dataset/generators.h"
#include "serve/admission.h"
#include "topk/scoring.h"

namespace girbench {

using gir::Result;
using gir::Status;

namespace {

using HitKind = gir::ShardedGirCache::HitKind;

// True when `t` (ms after the traffic started) lies in the measured
// window.
bool InWindow(double t, const Plan& plan) {
  return t >= plan.warmup_ms && t < plan.warmup_ms + plan.measure_ms;
}

// A checkpoint as the writer takes it: GirEngine::Checkpoint, then
// retention of the two newest arenas, as an operator would run it —
// recovery validates every retained arena, so unbounded retention would
// make restart_ms grow with the run length.
CheckpointRecord RunCheckpoint(Stack* stack, SpanLog* spans,
                               const Clock& clock) {
  CheckpointRecord cp;
  cp.start_ms = clock.Now();
  cp.ok = stack->engine->Checkpoint(stack->store.get()).ok() &&
          stack->store->GarbageCollect(2).ok();
  cp.end_ms = clock.Now();
  spans->Add("Checkpoint", "call", kWriterTrack, cp.start_ms, cp.end_ms);
  return cp;
}

// Hand-off between the generator and the serving thread: the generator
// bumps `submitted` after each Submit so the server wakes up for a full
// batch, and the serving thread posts reply times for the closed loop.
struct Mailbox {
  std::mutex mu;
  std::condition_variable server_cv;
  std::condition_variable client_cv;
  uint64_t submitted = 0;        // guarded by mu
  bool generator_done = false;   // guarded by mu
  std::deque<double> replies;    // guarded by mu; closed-loop slot frees
};

class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, const Plan& plan, Stack* stack,
          SpanLog* spans, const Clock& clock, const AfterAck& after_ack)
      : spec_(spec),
        plan_(plan),
        stack_(stack),
        spans_(spans),
        clock_(clock),
        after_ack_(after_ack),
        base_ms_(clock.Now()),
        queue_(AdmissionOptionsFor(spec)) {
    result_.queries.resize(plan.queries.size());
    result_.updates.resize(plan.updates.size());
    result_.window_start_ms = base_ms_ + plan.warmup_ms;
    result_.window_end_ms = result_.window_start_ms + plan.measure_ms;
  }

  TrafficResult Run() {
    std::thread server([this] { ServeLoop(); });
    std::thread writer;
    if (!plan_.updates.empty()) writer = std::thread([this] { WriteLoop(); });
    if (spec_.loop == Loop::kOpen) {
      OpenLoopGenerator();
    } else {
      ClosedLoopGenerator();
    }
    {
      std::lock_guard<std::mutex> lock(box_.mu);
      box_.generator_done = true;
    }
    box_.server_cv.notify_all();
    server.join();
    if (writer.joinable()) writer.join();
    return std::move(result_);
  }

 private:
  static gir::serve::AdmissionOptions AdmissionOptionsFor(
      const WorkloadSpec& spec) {
    gir::serve::AdmissionOptions o;
    o.max_batch = spec.max_batch;
    o.max_wait_ms = spec.max_wait_ms;
    o.deadline_ms = spec.slo_ms;
    o.queue_capacity = 64 * spec.max_batch;
    o.max_width = spec.max_batch;
    return o;
  }

  void Submit(size_t i, double due_ms) {
    const QueryOp& op = plan_.queries[i];
    QueryRecord& rec = result_.queries[i];
    rec.attempted = true;
    rec.due_ms = due_ms;
    rec.submit_start_ms = clock_.Now();
    rec.measured = InWindow(
        (spec_.loop == Loop::kOpen ? due_ms : rec.submit_start_ms) - base_ms_,
        plan_);
    Status s = queue_.Submit(op.id, op.weights, spec_.k, rec.submit_start_ms);
    rec.submit_end_ms = clock_.Now();
    spans_->Add("Submit", "call", kGeneratorTrack, rec.submit_start_ms,
                rec.submit_end_ms);
    if (!s.ok()) {
      rec.shed = true;
      rec.reply_ms = rec.submit_end_ms;
      if (spec_.loop == Loop::kClosed) PostReply(rec.reply_ms);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(box_.mu);
      ++box_.submitted;
    }
    box_.server_cv.notify_one();
  }

  void OpenLoopGenerator() {
    for (size_t i = 0; i < plan_.queries.size(); ++i) {
      const double due = base_ms_ + plan_.queries[i].due_ms;
      std::this_thread::sleep_until(clock_.At(due));
      Submit(i, due);
    }
  }

  void ClosedLoopGenerator() {
    const double end_ms = result_.window_end_ms;
    size_t next = 0;
    size_t outstanding = 0;
    // Every client's first request is due at start.
    for (size_t c = 0; c < spec_.clients && next < plan_.queries.size(); ++c) {
      ++outstanding;
      Submit(next++, clock_.Now());
    }
    while (outstanding > 0) {
      double freed_at = 0.0;
      {
        std::unique_lock<std::mutex> lock(box_.mu);
        box_.client_cv.wait(lock, [this] { return !box_.replies.empty(); });
        freed_at = box_.replies.front();
        box_.replies.pop_front();
      }
      --outstanding;
      if (clock_.Now() >= end_ms) continue;
      if (next >= plan_.queries.size()) {
        ++result_.plan_exhausted;
        continue;
      }
      ++outstanding;
      Submit(next++, freed_at);
    }
  }

  void PostReply(double t) {
    {
      std::lock_guard<std::mutex> lock(box_.mu);
      box_.replies.push_back(t);
    }
    box_.client_cv.notify_one();
  }

  void ServeLoop() {
    std::vector<gir::serve::ShedRequest> shed;
    std::vector<gir::Vec> weights;
    for (;;) {
      const double now = clock_.Now();
      if (queue_.ShouldForm(now)) {
        shed.clear();
        const double form_start = now;
        gir::serve::FormedBatch formed = queue_.Form(now, &shed);
        const double form_end = clock_.Now();
        spans_->Add("Form", "call", kServerTrack, form_start, form_end);
        for (const gir::serve::ShedRequest& s : shed) {
          QueryRecord& rec = result_.queries[s.request.id];
          rec.shed = true;
          rec.form_start_ms = form_start;
          rec.form_end_ms = form_end;
          rec.reply_ms = form_end;
          if (spec_.loop == Loop::kClosed) PostReply(rec.reply_ms);
        }
        if (!formed.requests.empty()) {
          Dispatch(formed, form_start, form_end, &weights);
        }
        continue;
      }
      std::unique_lock<std::mutex> lock(box_.mu);
      const uint64_t seen = box_.submitted;
      const double fire = queue_.NextFireTime();
      if (fire < 0.0 && box_.generator_done) break;
      const auto wake = [&] {
        return box_.submitted != seen || box_.generator_done;
      };
      if (fire < 0.0) {
        box_.server_cv.wait(lock, wake);
      } else {
        box_.server_cv.wait_until(lock, clock_.At(fire), wake);
      }
    }
  }

  void Dispatch(const gir::serve::FormedBatch& formed, double form_start,
                double form_end, std::vector<gir::Vec>* weights) {
    weights->clear();
    for (const gir::serve::ServiceRequest& r : formed.requests) {
      weights->push_back(r.weights);
    }
    gir::ExecPolicy policy = stack_->batch->options().exec;
    policy.group_width = formed.width;
    policy.group_of = formed.group_of;
    const uint64_t epoch = stack_->engine->dataset_version();
    const double start = clock_.Now();
    Result<gir::BatchResult> out = stack_->batch->ComputeBatch(
        *weights, spec_.k, gir::Phase2Method::kFP, policy);
    const double end = clock_.Now();
    spans_->Add("ComputeBatch", "call", kServerTrack, start, end);

    BatchRecord batch;
    batch.start_ms = start;
    batch.end_ms = end;
    batch.size = formed.requests.size();
    if (out.ok()) batch.stats = out->stats;
    for (size_t i = 0; i < formed.requests.size(); ++i) {
      QueryRecord& rec = result_.queries[formed.requests[i].id];
      batch.measured = batch.measured || rec.measured;
      rec.form_start_ms = form_start;
      rec.form_end_ms = form_end;
      rec.batch_start_ms = start;
      rec.batch_end_ms = end;
      rec.epoch = epoch;
      if (!out.ok() || !out->items[i].status.ok()) {
        rec.failed = true;
      } else {
        gir::BatchItem& item = out->items[i];
        rec.hit = item.cache;
        rec.topk = std::move(item.topk);
        if (item.computed.has_value()) {
          rec.scores = std::move(item.computed->topk.scores);
        }
      }
      rec.reply_ms = clock_.Now();
      if (spec_.loop == Loop::kClosed) PostReply(rec.reply_ms);
    }
    result_.batches.push_back(std::move(batch));
  }

  void WriteLoop() {
    for (size_t i = 0; i < plan_.updates.size(); ++i) {
      const UpdateOp& op = plan_.updates[i];
      const double due = base_ms_ + op.due_ms;
      std::this_thread::sleep_until(clock_.At(due));
      UpdateRecord& rec = result_.updates[i];
      rec.attempted = true;
      rec.measured = InWindow(op.due_ms, plan_);
      rec.due_ms = due;
      rec.call_start_ms = clock_.Now();
      Result<gir::UpdateStats> applied = stack_->batch->ApplyUpdates(op.batch);
      rec.call_end_ms = clock_.Now();
      spans_->Add("ApplyUpdates", "call", kWriterTrack, rec.call_start_ms,
                  rec.call_end_ms);
      rec.ack_ms = clock_.Now();
      rec.ok = applied.ok();
      if (!rec.ok) {
        std::fprintf(stderr, "update %zu failed: %s\n", i,
                     applied.status().ToString().c_str());
        continue;
      }
      ++result_.acked;
      if (after_ack_) after_ack_(i, op.batch);
      if (result_.acked % kCheckpointEvery == 0) {
        result_.checkpoints.push_back(RunCheckpoint(stack_, spans_, clock_));
      }
    }
  }

  const WorkloadSpec& spec_;
  const Plan& plan_;
  Stack* stack_;
  SpanLog* spans_;
  const Clock& clock_;
  const AfterAck& after_ack_;
  const double base_ms_;  // clock time the traffic started at
  gir::serve::AdmissionQueue queue_;
  Mailbox box_;
  // Each record is written by exactly one thread at a time: queries by
  // the generator until Submit, then by the serving thread; updates
  // and checkpoints by the writer. Run() reads them after the joins.
  TrafficResult result_;
};

}  // namespace

gir::Dataset MakeDataset(const WorkloadSpec& spec) {
  gir::Rng rng(kCatalogSeed);
  return gir::GenerateIndependent(spec.n, spec.dim, rng);
}

gir::BatchOptions ServingBatchOptions(const WorkloadSpec& spec) {
  gir::BatchOptions o;
  // An open loop leaves one core to the threads that keep running while
  // a batch computes: the generator (a wake-up per arrival) and the
  // writer's refreeze. With nproc pool threads they time-slice the pool,
  // and the reply p99 swung with the scheduler's phase (0.3-0.7 spread
  // between runs on identical inputs). In the closed loop the clients
  // and the serving thread wait on the batch, so the pool takes nproc.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  o.threads = spec.loop == Loop::kOpen && cores > 1 ? cores - 1 : cores;
  o.cache_capacity = spec.cache_capacity;
  o.exec.shared_traversal = true;
  o.exec.group_width = spec.max_batch;
  return o;
}

Result<std::unique_ptr<Stack>> SetUp(const WorkloadSpec& spec,
                                     const std::string& dir, SpanLog* spans,
                                     const Clock& clock) {
  auto stack = std::make_unique<Stack>();
  stack->dir = dir;
  std::error_code ec;
  std::filesystem::create_directories(stack->snap_dir(), ec);
  if (ec) return Status::Internal("cannot create " + stack->snap_dir());
  stack->data = std::make_unique<gir::Dataset>(MakeDataset(spec));
  stack->disk = std::make_unique<gir::DiskManager>();
  stack->store = std::make_unique<gir::SnapshotStore>(stack->snap_dir());
  const double open_start = clock.Now();
  Result<std::unique_ptr<gir::GirEngine>> engine =
      gir::GirEngine::Open(gir::EngineConfig::FromDataset(
                               stack->data.get(), stack->disk.get(),
                               gir::MakeScoring("Linear", spec.dim))
                               .WithWal(stack->wal_dir()));
  if (!engine.ok()) return engine.status();
  spans->Add("Open", "call", kMainTrack, open_start, clock.Now());
  stack->engine = std::move(*engine);
  const double cp_start = clock.Now();
  Result<gir::GirEngine::CheckpointStats> cp =
      stack->engine->Checkpoint(stack->store.get());
  if (!cp.ok()) return cp.status();
  spans->Add("Checkpoint", "call", kMainTrack, cp_start, clock.Now());
  stack->batch = std::make_unique<gir::BatchEngine>(stack->engine.get(),
                                                    ServingBatchOptions(spec));
  return stack;
}

TrafficResult RunTraffic(const WorkloadSpec& spec, const Plan& plan,
                         Stack* stack, SpanLog* spans, const Clock& clock,
                         const AfterAck& after_ack) {
  Traffic traffic(spec, plan, stack, spans, clock, after_ack);
  return traffic.Run();
}

std::vector<UpdateRecord> RunIsolatedUpdates(
    const std::vector<UpdateOp>& ops, size_t acked_before, Stack* stack,
    SpanLog* spans, const Clock& clock, const AfterAck& after_ack,
    std::vector<CheckpointRecord>* cps) {
  std::vector<UpdateRecord> out(ops.size());
  size_t acked = acked_before;
  stack->batch->mutable_cache()->Clear();
  for (size_t i = 0; i < ops.size(); ++i) {
    UpdateRecord& rec = out[i];
    rec.attempted = true;
    rec.measured = true;
    rec.call_start_ms = clock.Now();
    rec.due_ms = rec.call_start_ms;
    Result<gir::UpdateStats> applied = stack->batch->ApplyUpdates(ops[i].batch);
    rec.call_end_ms = clock.Now();
    spans->Add("ApplyUpdates", "call", kWriterTrack, rec.call_start_ms,
               rec.call_end_ms);
    rec.ack_ms = clock.Now();
    rec.ok = applied.ok();
    if (!rec.ok) continue;
    if (after_ack) after_ack(i, ops[i].batch);
    if (++acked % kCheckpointEvery == 0) {
      cps->push_back(RunCheckpoint(stack, spans, clock));
    }
  }
  return out;
}

Result<Restart> RestartEngine(const WorkloadSpec& spec, const Stack& stack,
                              const gir::Vec& first_query, SpanLog* spans,
                              const Clock& clock) {
  Restart r;
  r.disk = std::make_unique<gir::DiskManager>();
  const double start = clock.Now();
  Result<std::unique_ptr<gir::GirEngine>> engine =
      gir::GirEngine::Open(gir::EngineConfig::FromArena(
                               stack.snap_dir(), r.disk.get(),
                               gir::MakeScoring("Linear", spec.dim))
                               .WithWal(stack.wal_dir()));
  if (!engine.ok()) return engine.status();
  const double opened = clock.Now();
  spans->Add("Open", "call", kMainTrack, start, opened);
  r.engine = std::move(*engine);
  Result<gir::GirComputation> first =
      r.engine->ComputeGir(first_query, spec.k, gir::Phase2Method::kFP);
  if (!first.ok()) return first.status();
  r.first_query_ms = clock.Now() - start;
  return r;
}

}  // namespace girbench
