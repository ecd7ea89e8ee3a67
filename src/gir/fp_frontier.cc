#include "gir/fp_frontier.h"

namespace gir {

GPlanes LeafGPlanes(const ScoringFunction& scoring,
                    const FlatRTree::NodeView& node, size_t dim,
                    std::vector<double>* scratch) {
  if (scoring.IsIdentityTransform()) {
    return GPlanes{node.hi(0), node.plane_stride()};
  }
  const size_t count = node.count();
  scratch->resize(dim * count);
  for (size_t j = 0; j < dim; ++j) {
    scoring.TransformDimBatch(j, node.hi(j), count,
                              scratch->data() + j * count);
  }
  return GPlanes{scratch->data(), count};
}

Result<bool> InsertWithJoggle(IncidentStar& star, VecView g, int id,
                              const std::vector<int>* pool, Rng& rng,
                              Vec* joggled) {
  Result<bool> r =
      pool != nullptr ? star.InsertPooled(g, id, *pool) : star.Insert(g, id);
  for (int attempt = 1; attempt < 3 && !r.ok(); ++attempt) {
    joggled->assign(g.begin(), g.end());
    for (double& x : *joggled) {
      x += rng.Uniform(-1e-11, 1e-11) * (1 << attempt);
    }
    r = star.Insert(*joggled, id);
  }
  return r;
}

bool LeafGroupTest::Reset(const IncidentStar& star, const Mbb& g_box) {
  g_box_ = &g_box;
  star.CollectPool(g_box, &pool_);
  return !pool_.empty();
}

void LeafGroupTest::Test(const IncidentStar& star, const GPlanes& planes,
                         size_t n) {
  planes_ = planes;
  n_ = n;
  mask_.assign(n, 0);
  star.MarkVisible(pool_.data(), pool_.size(), planes.base, planes.stride, n,
                   mask_.data());
}

bool LeafGroupTest::Insert(IncidentStar& star, VecView g, int id, size_t i,
                           Rng& rng, Vec* joggled) {
  Result<bool> r = InsertWithJoggle(star, g, id, &pool_, rng, joggled);
  if (!r.ok()) return false;
  if (*r) {
    // Whichever attempt changed the star, the survivors of the pool are
    // still exactly the surviving facets the box lies above; only the
    // new facets need the box test, and the later records need testing
    // against the new pool members only.
    const size_t added = star.UpdatePool(*g_box_, &pool_);
    const size_t next = i + 1;
    if (added > 0 && next < n_) {
      star.MarkVisible(pool_.data() + pool_.size() - added, added,
                       planes_.base + next, planes_.stride, n_ - next,
                       mask_.data() + next);
    }
  }
  return true;
}

}  // namespace gir
