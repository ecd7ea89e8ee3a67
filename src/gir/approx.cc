#include "gir/approx.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace gir {

double MinScoring::Score(VecView p, VecView q) const {
  double best = 1e300;
  for (size_t j = 0; j < p.size(); ++j) {
    best = std::min(best, q[j] * p[j]);
  }
  return best;
}

Result<std::vector<RecordId>> GeneralTopK(const FlatRTree& tree,
                                          const GeneralScoringFunction& fn,
                                          VecView q, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const Dataset& data = tree.dataset();
  struct Entry {
    double key;
    bool is_node;
    int32_t id;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.key != b.key) return a.key < b.key;
      if (a.is_node != b.is_node) return a.is_node;
      return a.id > b.id;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Less> heap;
  if (tree.root() != kInvalidPage) {
    heap.push(Entry{fn.MaxScore(tree.PeekNode(tree.root()).mbb(), q), true,
                    static_cast<int32_t>(tree.root())});
  }
  std::vector<RecordId> out;
  Mbb box;
  while (!heap.empty() && out.size() < k) {
    Entry top = heap.top();
    heap.pop();
    if (!top.is_node) {
      out.push_back(top.id);
      continue;
    }
    FlatRTree::NodeView node = tree.ReadNode(static_cast<PageId>(top.id));
    for (size_t e = 0; e < node.count(); ++e) {
      const int32_t child = node.child(e);
      if (node.is_leaf()) {
        heap.push(Entry{fn.Score(data.Get(child), q), false, child});
      } else {
        node.EntryMbbInto(e, &box);
        heap.push(Entry{fn.MaxScore(box, q), true, child});
      }
    }
  }
  return out;
}

Result<ApproxGir> ApproxGir::Compute(const FlatRTree& tree,
                                     const GeneralScoringFunction& fn,
                                     VecView q, size_t k,
                                     const ApproxGirOptions& options) {
  const size_t d = tree.dataset().dim();
  if (q.size() != d) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  ApproxGir out(&tree, &fn, Vec(q.begin(), q.end()), k);
  Result<std::vector<RecordId>> base = GeneralTopK(tree, fn, q, k);
  if (!base.ok()) return base.status();
  out.result_ = std::move(base).value();

  Rng rng(options.seed);
  // Boundary sampling: along each random direction, find the largest
  // step that keeps the (ordered) result, by bisection against the
  // exact oracle. t_hi starts at the cube exit distance.
  double min_dist = 1e300;
  double sum_dist = 0.0;
  size_t found = 0;
  for (size_t ray = 0; ray < options.rays; ++ray) {
    Vec dir(d);
    double norm = 0.0;
    for (size_t j = 0; j < d; ++j) {
      dir[j] = rng.Gaussian(0.0, 1.0);
      norm += dir[j] * dir[j];
    }
    norm = std::sqrt(norm);
    if (norm < 1e-12) continue;
    for (double& x : dir) x /= norm;
    // Cube exit distance along dir.
    double t_exit = 1e300;
    for (size_t j = 0; j < d; ++j) {
      if (dir[j] > 0) t_exit = std::min(t_exit, (1.0 - q[j]) / dir[j]);
      if (dir[j] < 0) t_exit = std::min(t_exit, -q[j] / dir[j]);
    }
    if (t_exit <= 0) continue;
    double lo = 0.0;
    double hi = t_exit;
    if (out.PreservedAt(AddScaled(q, dir, t_exit))) {
      // Result preserved all the way to the wall: boundary = wall.
      lo = t_exit;
    } else {
      for (size_t it = 0; it < options.bisection_steps; ++it) {
        double mid = 0.5 * (lo + hi);
        if (out.PreservedAt(AddScaled(q, dir, mid))) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    out.boundary_.push_back(AddScaled(q, dir, lo));
    min_dist = std::min(min_dist, lo);
    sum_dist += lo;
    ++found;
  }
  if (found > 0) {
    out.min_distance_ = min_dist;
    out.mean_distance_ = sum_dist / static_cast<double>(found);
  }

  // Preserved-probability estimate (the LIK / volume-ratio measure).
  size_t hits = 0;
  Vec probe(d);
  for (size_t s = 0; s < options.probability_samples; ++s) {
    for (size_t j = 0; j < d; ++j) probe[j] = rng.Uniform();
    if (out.PreservedAt(probe)) ++hits;
  }
  out.preserved_probability_ =
      options.probability_samples == 0
          ? 0.0
          : static_cast<double>(hits) /
                static_cast<double>(options.probability_samples);
  return out;
}

bool ApproxGir::PreservedAt(VecView q2) const {
  Result<std::vector<RecordId>> now = GeneralTopK(*tree_, *fn_, q2, k_);
  return now.ok() && now.value() == result_;
}

}  // namespace gir
