#include "serve/admission.h"

#include <algorithm>
#include <cmath>

namespace gir::serve {

namespace {

// Unit-normalized copy of w (cosine similarity is a dot of these).
Vec UnitOf(const Vec& w) {
  double norm_sq = 0.0;
  for (double x : w) norm_sq += x * x;
  const double norm = std::sqrt(norm_sq);
  Vec u(w.size());
  if (norm <= 0.0) return u;
  for (size_t j = 0; j < w.size(); ++j) u[j] = w[j] / norm;
  return u;
}

}  // namespace

FormedBatch ClusterForExecution(std::vector<ServiceRequest> requests,
                                const AdmissionOptions& options,
                                double now_ms) {
  FormedBatch out;
  out.formed_ms = now_ms;
  const size_t n = requests.size();
  if (n == 0) return out;

  // Greedy leader clustering on the unit sphere: a request joins the
  // first cluster whose leader it matches, else founds a new one.
  // Deterministic in input (arrival) order.
  std::vector<Vec> leaders;
  std::vector<std::vector<uint32_t>> members;
  for (size_t i = 0; i < n; ++i) {
    const Vec u = UnitOf(requests[i].weights);
    size_t home = leaders.size();
    for (size_t c = 0; c < leaders.size(); ++c) {
      if (leaders[c].size() != u.size()) continue;
      double dot = 0.0;
      for (size_t j = 0; j < u.size(); ++j) dot += leaders[c][j] * u[j];
      if (dot >= options.cluster_cos) {
        home = c;
        break;
      }
    }
    if (home == leaders.size()) {
      leaders.push_back(u);
      members.emplace_back();
    }
    members[home].push_back(static_cast<uint32_t>(i));
  }

  // Execution order: clusters by descending size (ties: first
  // arrival), stragglers (size 1) last. Each cluster keeps its
  // members' arrival order inside.
  std::vector<uint32_t> cluster_order(members.size());
  for (size_t c = 0; c < members.size(); ++c) {
    cluster_order[c] = static_cast<uint32_t>(c);
  }
  std::sort(cluster_order.begin(), cluster_order.end(),
            [&](uint32_t a, uint32_t b) {
              if (members[a].size() != members[b].size()) {
                return members[a].size() > members[b].size();
              }
              return members[a].front() < members[b].front();
            });

  out.requests.reserve(n);
  out.group_of.reserve(n);
  size_t max_cluster = 0;
  for (uint32_t c : cluster_order) {
    const std::vector<uint32_t>& m = members[c];
    max_cluster = std::max(max_cluster, m.size());
    if (m.size() >= 2) {
      ++out.clusters;
    } else {
      ++out.stragglers;
    }
    for (uint32_t i : m) {
      out.requests.push_back(std::move(requests[i]));
      out.group_of.push_back(c);
    }
  }
  // Adaptive width: the dominant archetype bucket sets the group size;
  // an all-straggler batch degenerates to width 1 = per-query
  // traversal (fan-out fallback).
  out.width = std::max<size_t>(
      1, std::min(max_cluster, std::max<size_t>(1, options.max_width)));
  return out;
}

Status AdmissionQueue::Submit(uint64_t id, Vec weights, size_t k,
                              double now_ms) {
  if (weights.empty()) {
    return Status::InvalidArgument("empty weight vector");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_) {
    return Status::Unavailable("admission queue shut down");
  }
  if (queue_.size() >= options_.queue_capacity) {
    return Status::ResourceExhausted("admission queue at capacity");
  }
  ServiceRequest req;
  req.id = id;
  req.weights = std::move(weights);
  req.k = k;
  req.enqueue_ms = now_ms;
  req.deadline_ms = now_ms + options_.deadline_ms;
  queue_.push_back(std::move(req));
  return Status::Ok();
}

double AdmissionQueue::NextFireTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() ? -1.0 : queue_.front().enqueue_ms;
}

bool AdmissionQueue::ShouldForm(double /*now_ms*/) const {
  std::lock_guard<std::mutex> lock(mu_);
  return !queue_.empty();
}

FormedBatch AdmissionQueue::Form(double now_ms,
                                 std::vector<ShedRequest>* shed) {
  std::vector<ServiceRequest> admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t take = std::min(queue_.size(), options_.max_batch);
    admitted.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      ServiceRequest req = std::move(queue_.front());
      queue_.pop_front();
      if (req.deadline_ms < now_ms) {
        // Expired while queued: provably cannot reply in time; reject
        // explicitly rather than compute a dead answer.
        if (shed != nullptr) {
          shed->push_back(ShedRequest{
              std::move(req),
              Status::ResourceExhausted("deadline expired in queue")});
        }
        continue;
      }
      admitted.push_back(std::move(req));
    }
  }
  return ClusterForExecution(std::move(admitted), options_, now_ms);
}

size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<ShedRequest> AdmissionQueue::Shutdown() {
  std::vector<ShedRequest> drained;
  std::lock_guard<std::mutex> lock(mu_);
  shut_down_ = true;
  drained.reserve(queue_.size());
  while (!queue_.empty()) {
    drained.push_back(
        ShedRequest{std::move(queue_.front()),
                    Status::Unavailable("admission queue shut down")});
    queue_.pop_front();
  }
  return drained;
}

bool AdmissionQueue::shut_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shut_down_;
}

}  // namespace gir::serve
