#include "serve/replay.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"

namespace gir::serve {

namespace {

// Mutable replay state shared by the batch-execution helper.
struct ReplayState {
  AdmissionQueue queue;
  MetricsBuilder metrics;
  ServiceReport report;
  double server_free_ms = 0.0;  // single-server busy clock
  size_t trace_k = 0;

  ReplayState(const AdmissionOptions& admission, double window_ms)
      : queue(admission), metrics(window_ms) {}
};

void RecordShedOutcome(ReplayState* state, const ServiceRequest& req,
                       Status status, double reply_ms) {
  RequestOutcome& out = state->report.outcomes[req.id];
  out.status = std::move(status);
  out.timing.enqueue_ms = req.enqueue_ms;
  out.timing.reply_ms = reply_ms;
  out.timing.shed = true;
  state->metrics.RecordShed(out.timing);
}

// Forms one batch at fire_ms (the server is free by then) and runs it
// through the engine, advancing the busy clock by its service time
// (measured, or modeled from its page reads). Returns non-OK only on
// batch-level engine failure (malformed input — a bug, not load).
Status ExecuteOneBatch(ReplayState* state, BatchEngine* engine,
                       const ReplayOptions& options, double fire_ms) {
  std::vector<ShedRequest> shed;
  FormedBatch formed = state->queue.Form(fire_ms, &shed);
  for (ShedRequest& s : shed) {
    RecordShedOutcome(state, s.request, std::move(s.status), fire_ms);
  }
  if (formed.requests.empty()) return Status::Ok();

  std::vector<Vec> weights;
  weights.reserve(formed.requests.size());
  for (const ServiceRequest& req : formed.requests) {
    if (req.k != state->trace_k) {
      return Status::InvalidArgument("trace queries must share one k");
    }
    weights.push_back(req.weights);
  }

  // Per-batch execution policy: the engine's default, specialized with
  // the admission former's grouping (adaptive) or the configured static
  // width, plus the SLA deadline for miss accounting.
  ExecPolicy policy = engine->options().exec;
  if (options.adaptive_width) {
    policy.group_of = formed.group_of;
    if (formed.width != 0) policy.group_width = formed.width;
  } else if (options.static_width != 0) {
    policy.group_width = options.static_width;
  }
  policy.deadline_ms = state->queue.options().deadline_ms;

  Result<BatchResult> result =
      engine->ComputeBatch(weights, state->trace_k, options.method, policy);
  if (!result.ok()) return result.status();
  const double wall_ms = result->stats.wall_ms;
  const double service_ms =
      options.modeled_ms_per_read > 0.0
          ? options.modeled_ms_per_read *
                static_cast<double>(result->stats.amortized_reads)
          : wall_ms;
  state->server_free_ms = fire_ms + service_ms;
  state->report.compute_ms += wall_ms;
  state->report.charged_reads += result->stats.charged_reads;
  state->report.amortized_reads += result->stats.amortized_reads;
  state->report.deadline_misses += result->stats.deadline_misses;
  state->metrics.RecordFaultRetries(result->stats.fault_retries,
                                    result->stats.retry_successes);
  state->metrics.RecordBatch(formed.requests.size(),
                             options.adaptive_width ? formed.width
                                                    : options.static_width);

  // The batch replies as a unit when its compute finishes.
  const double reply_ms = state->server_free_ms;
  for (size_t i = 0; i < formed.requests.size(); ++i) {
    const ServiceRequest& req = formed.requests[i];
    BatchItem& item = result->items[i];
    RequestOutcome& out = state->report.outcomes[req.id];
    out.status = item.status;
    out.timing.enqueue_ms = req.enqueue_ms;
    out.timing.admit_ms = fire_ms;
    out.timing.compute_start_ms = fire_ms;
    out.timing.compute_end_ms = reply_ms;
    out.timing.reply_ms = reply_ms;
    if (!item.status.ok()) {
      state->metrics.RecordFailed(item.status.code());
      continue;
    }
    out.topk = std::move(item.topk);
    state->metrics.RecordServed(out.timing);
  }
  return Status::Ok();
}

// Work-conserving firing: the single server takes the queue as soon as
// it is free and something is queued, so the next batch fires at
// max(oldest enqueue, server free). A query arriving while the server
// is busy waits and joins the next batch. Fires every batch due by
// now_ms; an infinite now_ms runs the whole backlog.
Status DrainDue(ReplayState* state, BatchEngine* engine,
                const ReplayOptions& options, double now_ms) {
  for (;;) {
    const double oldest = state->queue.NextFireTime();
    if (oldest < 0.0) return Status::Ok();
    const double fire = std::max(oldest, state->server_free_ms);
    if (fire > now_ms) return Status::Ok();
    Status st = ExecuteOneBatch(state, engine, options, fire);
    if (!st.ok()) return st;
  }
}

constexpr double kWholeBacklog = std::numeric_limits<double>::infinity();

}  // namespace

Result<ServiceReport> ReplayTrace(const Trace& trace, BatchEngine* engine,
                                  const ReplayOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine");
  }
  ReplayState state(options.admission, options.window_ms);
  state.trace_k = trace.config.k;
  state.report.outcomes.resize(trace.queries);

  uint64_t query_ordinal = 0;
  for (const TraceEvent& ev : trace.events) {
    const double t = ev.arrival_ms;
    Status st = DrainDue(&state, engine, options, t);
    if (!st.ok()) return st;

    if (ev.kind == TraceEventKind::kUpdate) {
      // Update events are barriers: every queued query formed before
      // the swap runs on the pre-update epoch, deterministically.
      st = DrainDue(&state, engine, options, kWholeBacklog);
      if (!st.ok()) return st;
      Stopwatch sw;
      Result<UpdateStats> up = engine->ApplyUpdates(ev.update);
      if (!up.ok()) return up.status();
      const double wall_ms = sw.ElapsedMillis();
      // The modeled clock charges page reads only; updates are free.
      const double service_ms =
          options.modeled_ms_per_read > 0.0 ? 0.0 : wall_ms;
      state.server_free_ms = std::max(state.server_free_ms, t) + service_ms;
      state.report.update_ms += wall_ms;
      state.metrics.RecordUpdate();
      continue;
    }

    const uint64_t id = query_ordinal++;
    RequestOutcome& out = state.report.outcomes[id];
    out.id = id;
    Status submit = state.queue.Submit(id, ev.weights, ev.k, t);
    if (!submit.ok()) {
      // Backlog overflow (or malformed request): explicit rejection at
      // arrival time.
      out.status = std::move(submit);
      out.timing.enqueue_ms = t;
      out.timing.reply_ms = t;
      out.timing.shed = true;
      state.metrics.RecordShed(out.timing);
      continue;
    }
    // Fires at once (at t) only if the server is free: anything queued
    // before this arrival is already waiting on a busy server.
    st = DrainDue(&state, engine, options, t);
    if (!st.ok()) return st;
  }
  // End of trace: the residual backlog fires as the server frees up.
  Status st = DrainDue(&state, engine, options, kWholeBacklog);
  if (!st.ok()) return st;

  state.report.metrics = state.metrics.Finalize();
  return std::move(state.report);
}

}  // namespace gir::serve
