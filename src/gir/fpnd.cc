#include "gir/fpnd.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"
#include "common/simd.h"
#include "gir/fp_frontier.h"
#include "skyline/dominance.h"

namespace gir {

IncidentStar::IncidentStar(VecView apex, double eps)
    : eps_(eps), dim_(apex.size()) {
  const size_t d = dim_;
  coords_.assign(apex.begin(), apex.end());
  external_ids_.assign(d + 1, -1);
  // Dummy seeds: apex - c_i e_i, dominated by the apex, spanning a
  // full-dimensional simplex together with it.
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      coords_.push_back(j == i ? apex[j] - std::max(apex[j], 0.5) : apex[j]);
    }
  }
  interior_.assign(d, 0.0);
  for (size_t p = 0; p <= d; ++p) {
    for (size_t j = 0; j < d; ++j) interior_[j] += coords_[p * d + j];
  }
  for (double& x : interior_) x /= static_cast<double>(d + 1);

  // Initial star: the d simplex facets containing the apex. Facet o-1
  // omits dummy o; its apex ridge opposite dummy v is shared with the
  // facet omitting v.
  normals_.resize(d * d);
  offsets_.resize(d);
  fit_vertices_.resize(d);
  for (size_t omit = 1; omit <= d; ++omit) {
    const size_t f = omit - 1;
    vertices_.push_back(0);
    for (size_t v = 1; v <= d; ++v) {
      if (v == omit) continue;
      vertices_.push_back(static_cast<int>(v));
      neighbors_.push_back(static_cast<int>(v) - 1);
    }
    for (size_t i = 0; i < d; ++i) {
      fit_vertices_[i] = coords_.data() + vertices_[f * d + i] * d;
    }
    Status fit = FitHyperplaneInto(fit_vertices_.data(), interior_,
                                   &fit_scratch_, normals_.data() + f * d,
                                   offsets_.data() + f);
    // The dummy simplex is non-degenerate by construction.
    assert(fit.ok());
    (void)fit;
  }
  assert(neighbors_.size() == d * (d - 1));
  facets_created_ = d;
}

Result<bool> IncidentStar::Insert(VecView p, int external_id) {
  return InsertImpl(p, external_id, nullptr);
}

Result<bool> IncidentStar::InsertPooled(VecView p, int external_id,
                                        const std::vector<int>& pool) {
  return InsertImpl(p, external_id, &pool);
}

Result<bool> IncidentStar::InsertImpl(VecView p, int external_id,
                                      const std::vector<int>* pool) {
  const size_t d = dim_;
  const size_t slots = d - 1;
  const size_t live = offsets_.size();

  // 1. Visibility scan over the packed live facets, or over the pool
  // (ascending, so visible_ comes out in the same order either way).
  visible_.clear();
  auto test = [&](size_t f) {
    const double* n = normals_.data() + f * d;
    double dot = 0.0;
    for (size_t j = 0; j < d; ++j) dot += n[j] * p[j];
    if (dot - offsets_[f] > eps_) visible_.push_back(static_cast<int>(f));
  };
  if (pool != nullptr) {
    for (int f : *pool) {
      assert(static_cast<size_t>(f) < live);
      test(static_cast<size_t>(f));
    }
  } else {
    for (size_t f = 0; f < live; ++f) test(f);
  }
  if (visible_.empty()) return false;
  is_visible_.assign(live, 0);
  for (int f : visible_) is_visible_[f] = 1;

  // 2. Horizon ridges containing the apex: slots of a visible facet
  // whose neighbour is not visible.
  horizon_.clear();
  for (int f : visible_) {
    for (size_t s = 0; s < slots; ++s) {
      const int outer = neighbors_[f * slots + s];
      if (is_visible_[outer]) continue;  // interior ridge
      int back = -1;
      for (size_t t = 0; t < slots; ++t) {
        if (neighbors_[outer * slots + t] == f) {
          back = static_cast<int>(t);
          break;
        }
      }
      if (back < 0) return Status::Internal("incident star adjacency broken");
      horizon_.push_back(HorizonRidge{f, static_cast<int>(s), outer, back});
    }
  }
  if (horizon_.empty()) {
    // Would mean the apex stops being a hull vertex — impossible for
    // points with lower score than the apex; numerical pathology only.
    return Status::Internal("incident star lost its apex");
  }

  // 3. Fit all new facet planes BEFORE mutating anything, so a
  // degenerate fit leaves the star untouched. New facet k is
  // [apex, horizon ridge of visible facet in its vertex order, p].
  const size_t fresh = horizon_.size();
  const int p_id = static_cast<int>(external_ids_.size());
  fresh_normals_.resize(fresh * d);
  fresh_offsets_.resize(fresh);
  fresh_vertices_.resize(fresh * d);
  fresh_neighbors_.resize(fresh * slots);
  for (size_t k = 0; k < fresh; ++k) {
    const HorizonRidge& h = horizon_[k];
    const int* src = vertices_.data() + h.facet * d;
    int* dst = fresh_vertices_.data() + k * d;
    size_t w = 0;
    for (size_t i = 0; i < d; ++i) {
      if (i != static_cast<size_t>(h.slot) + 1) dst[w++] = src[i];
    }
    dst[d - 1] = p_id;
    for (size_t i = 0; i + 1 < d; ++i) {
      fit_vertices_[i] = coords_.data() + dst[i] * d;
    }
    fit_vertices_[d - 1] = p.data();
    Status fit = FitHyperplaneInto(fit_vertices_.data(), interior_,
                                   &fit_scratch_, fresh_normals_.data() + k * d,
                                   fresh_offsets_.data() + k);
    if (!fit.ok()) {
      return Status::FailedPrecondition("degenerate star facet fit");
    }
    // The slot opposite p is the horizon ridge itself. Neighbour ids
    // below are pre-compaction: old positions, then live + k for new.
    fresh_neighbors_[k * slots + slots - 1] = h.outer;
  }

  // 4. Pair the remaining slots among the new facets. The slot opposite
  // ridge vertex r of new facet k is {apex, p} + (ridge \ {r}); key it
  // on the sorted d-3 vertices of ridge \ {r}. Each key occurs exactly
  // twice in a consistent star.
  const size_t per = slots - 1;  // ridge-vertex slots per new facet
  const size_t key_len = per > 0 ? per - 1 : 0;
  const size_t entries = fresh * per;
  ridge_keys_.resize(entries * key_len);
  ridge_order_.resize(entries);
  for (size_t k = 0; k < fresh; ++k) {
    for (size_t s = 0; s < per; ++s) {
      const size_t e = k * per + s;
      int* key = ridge_keys_.data() + e * key_len;
      size_t w = 0;
      for (size_t i = 1; i <= per; ++i) {
        if (i != s + 1) key[w++] = fresh_vertices_[k * d + i];
      }
      std::sort(key, key + key_len);
      ridge_order_[e] = static_cast<int>(e);
    }
  }
  auto key_of = [&](int e) { return ridge_keys_.data() + e * key_len; };
  std::sort(ridge_order_.begin(), ridge_order_.end(), [&](int a, int b) {
    return std::lexicographical_compare(key_of(a), key_of(a) + key_len,
                                        key_of(b), key_of(b) + key_len);
  });
  auto same_key = [&](int a, int b) {
    return std::equal(key_of(a), key_of(a) + key_len, key_of(b));
  };
  if (entries % 2 != 0) {
    return Status::Internal("incident star ridge unmatched");
  }
  for (size_t t = 0; t < entries; t += 2) {
    const int a = ridge_order_[t];
    const int b = ridge_order_[t + 1];
    if (!same_key(a, b) ||
        (t + 2 < entries && same_key(b, ridge_order_[t + 2]))) {
      return Status::Internal("incident star ridge unmatched");
    }
    fresh_neighbors_[(a / per) * slots + a % per] =
        static_cast<int>(live + b / per);
    fresh_neighbors_[(b / per) * slots + b % per] =
        static_cast<int>(live + a / per);
  }

  // 5. Commit: point each outer facet at its new neighbour, drop the
  // visible facets (keeping creation order), append the new ones and
  // renumber every neighbour slot.
  for (size_t k = 0; k < fresh; ++k) {
    const HorizonRidge& h = horizon_[k];
    neighbors_[h.outer * slots + h.outer_slot] = static_cast<int>(live + k);
  }
  remap_.resize(live + fresh);
  size_t kept = 0;
  for (size_t f = 0; f < live; ++f) {
    if (is_visible_[f]) {
      remap_[f] = -1;
      continue;
    }
    remap_[f] = static_cast<int>(kept);
    if (kept != f) {
      std::copy_n(normals_.data() + f * d, d, normals_.data() + kept * d);
      offsets_[kept] = offsets_[f];
      std::copy_n(vertices_.data() + f * d, d, vertices_.data() + kept * d);
      std::copy_n(neighbors_.data() + f * slots, slots,
                  neighbors_.data() + kept * slots);
    }
    ++kept;
  }
  for (size_t k = 0; k < fresh; ++k) {
    remap_[live + k] = static_cast<int>(kept + k);
  }
  normals_.resize(kept * d);
  offsets_.resize(kept);
  vertices_.resize(kept * d);
  neighbors_.resize(kept * slots);
  normals_.insert(normals_.end(), fresh_normals_.begin(),
                  fresh_normals_.end());
  offsets_.insert(offsets_.end(), fresh_offsets_.begin(),
                  fresh_offsets_.end());
  vertices_.insert(vertices_.end(), fresh_vertices_.begin(),
                   fresh_vertices_.end());
  neighbors_.insert(neighbors_.end(), fresh_neighbors_.begin(),
                    fresh_neighbors_.end());
  for (int& nb : neighbors_) {
    nb = remap_[nb];
    assert(nb >= 0);
  }
  coords_.insert(coords_.end(), p.begin(), p.end());
  external_ids_.push_back(external_id);
  facets_created_ += fresh;
  return true;
}

std::vector<IncidentStar::StarFacet> IncidentStar::facets() const {
  const size_t d = dim_;
  const size_t slots = d - 1;
  std::vector<StarFacet> out(live_facet_count());
  for (size_t f = 0; f < out.size(); ++f) {
    const int* vertices = vertices_.data() + f * d;
    const double* normal = normals_.data() + f * d;
    out[f].vertices.assign(vertices, vertices + d);
    out[f].plane.normal.assign(normal, normal + d);
    out[f].plane.offset = offsets_[f];
    out[f].neighbors.assign(neighbors_.begin() + f * slots,
                            neighbors_.begin() + (f + 1) * slots);
  }
  return out;
}

std::vector<int> IncidentStar::CriticalRecordIds() const {
  std::vector<int> ids;
  for (int v : vertices_) {
    if (external_ids_[v] >= 0) ids.push_back(external_ids_[v]);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool IncidentStar::BoxAbove(size_t f, const double* lo,
                            const double* hi) const {
  // Mbb::MaxDot, inlined: this runs for every live facet of every
  // popped node, and the out-of-line call measured slower. Same
  // per-dimension order, so the same bits.
  const size_t d = dim_;
  const double* n = normals_.data() + f * d;
  double max_dot = 0.0;
  for (size_t j = 0; j < d; ++j) {
    max_dot += std::max(n[j] * lo[j], n[j] * hi[j]);
  }
  return max_dot - offsets_[f] > eps_;
}

bool IncidentStar::BoxBelowAllFacets(const Mbb& g_box) const {
  const size_t live = offsets_.size();
  for (size_t f = 0; f < live; ++f) {
    if (BoxAbove(f, g_box.lo.data(), g_box.hi.data())) return false;
  }
  return true;
}

void IncidentStar::CollectPool(const Mbb& g_box,
                               std::vector<int>* pool) const {
  pool->clear();
  const size_t live = offsets_.size();
  for (size_t f = 0; f < live; ++f) {
    if (BoxAbove(f, g_box.lo.data(), g_box.hi.data())) {
      pool->push_back(static_cast<int>(f));
    }
  }
}

size_t IncidentStar::UpdatePool(const Mbb& g_box,
                                std::vector<int>* pool) const {
  // remap_ and horizon_ still describe the insert that just changed
  // the star: survivors keep their relative order and the fresh facets
  // sit at the back, so the pool stays ascending.
  size_t kept = 0;
  for (int f : *pool) {
    const int to = remap_[f];
    if (to >= 0) (*pool)[kept++] = to;
  }
  pool->resize(kept);
  const size_t live = offsets_.size();
  for (size_t f = live - horizon_.size(); f < live; ++f) {
    if (BoxAbove(f, g_box.lo.data(), g_box.hi.data())) {
      pool->push_back(static_cast<int>(f));
    }
  }
  return pool->size() - kept;
}

void IncidentStar::MarkVisible(const int* pool, size_t pool_n,
                               const double* planes, size_t stride, size_t n,
                               uint8_t* mask) const {
  simd::MarkAboveFacets(normals_.data(), offsets_.data(), pool, pool_n, dim_,
                        eps_, planes, stride, mask, n);
}

void IncidentStar::MarkBoxesAbove(const double* lo, const double* hi,
                                  size_t stride, size_t n,
                                  uint8_t* mask) const {
  simd::MarkBoxesAboveFacets(normals_.data(), offsets_.data(),
                             offsets_.size(), dim_, eps_, lo, hi, stride,
                             mask, n);
}

namespace {

// Adds record `id`'s constraint directly: the fallback when every
// rung of the joggle ladder hit a degenerate fit (always sound,
// possibly redundant).
void AddDirectConstraint(VecView g, RecordId id, GirRegion* region,
                         const Vec& gk, int position) {
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = position;
  prov.challenger = id;
  region->AddConstraint(Sub(gk, g), prov);
}

}  // namespace

ConeFilter::ConeFilter(const std::vector<Vec>& vertices, VecView gk)
    : dim_(gk.size()) {
  normals_.reserve(vertices.size() * dim_);
  offsets_.reserve(vertices.size());
  all_.reserve(vertices.size());
  for (const Vec& v : vertices) {
    normals_.insert(normals_.end(), v.begin(), v.end());
    offsets_.push_back(Dot(gk, v));
    all_.push_back(static_cast<int>(all_.size()));
  }
}

void ConeFilter::KeepPoints(const double* planes, size_t stride, size_t n,
                            uint8_t* mask) {
  if (empty() || n == 0) return;
  above_.assign(n, 0);
  simd::MarkAboveFacets(normals_.data(), offsets_.data(), all_.data(),
                        all_.size(), dim_, 0.0, planes, stride, above_.data(),
                        n);
  for (size_t i = 0; i < n; ++i) mask[i] &= above_[i];
}

void ConeFilter::KeepBoxes(const double* lo, const double* hi, size_t stride,
                           size_t n, uint8_t* mask) {
  if (empty() || n == 0) return;
  // The kernel skips boxes already marked: pre-mark those the caller
  // dropped, so only kept boxes are tested.
  above_.resize(n);
  for (size_t i = 0; i < n; ++i) above_[i] = mask[i] == 0;
  simd::MarkBoxesAboveFacets(normals_.data(), offsets_.data(),
                             offsets_.size(), dim_, 0.0, lo, hi, stride,
                             above_.data(), n);
  for (size_t i = 0; i < n; ++i) mask[i] &= above_[i];
}

MaxCoordinateSeeder::MaxCoordinateSeeder(size_t dim)
    : dim_(dim), best_(dim * dim), held_(dim, 0) {}

void MaxCoordinateSeeder::Offer(VecView row, size_t pos) {
  // The picks are sequential (dimension j skips the up to j records
  // already picked), so each dimension keeps its d best positions.
  const size_t dim = dim_;
  for (size_t j = 0; j < dim; ++j) {
    const double v = row[j];
    Best* list = best_.data() + j * dim;
    size_t n = held_[j];
    // Later positions lose ties, so v enters only above a smaller
    // value.
    if (!(v > -1e300) || (n == dim && !(v > list[n - 1].value))) continue;
    if (n < dim) held_[j] = ++n;
    size_t at = n - 1;
    for (; at > 0 && v > list[at - 1].value; --at) list[at] = list[at - 1];
    list[at] = Best{v, pos};
  }
}

std::vector<size_t> MaxCoordinateSeeder::Seeds() const {
  const size_t dim = dim_;
  std::vector<size_t> seeds;
  for (size_t j = 0; j < dim; ++j) {
    const Best* list = best_.data() + j * dim;
    for (size_t c = 0; c < held_[j]; ++c) {
      if (std::find(seeds.begin(), seeds.end(), list[c].pos) == seeds.end()) {
        seeds.push_back(list[c].pos);
        break;
      }
    }
  }
  return seeds;
}

Result<Phase2Output> RunFpNdPhase2(const FlatRTree& tree,
                                   const ScoringFunction& scoring,
                                   VecView weights, const TopKResult& topk,
                                   GirRegion* region,
                                   const FpOptions& options) {
  const Dataset& data = tree.dataset();
  const size_t dim = data.dim();
  if (topk.result.empty()) {
    return Status::InvalidArgument("empty top-k result");
  }
  IoStats before = DiskManager::ThreadStats();
  const RecordId pk = topk.result.back();
  const int position = static_cast<int>(topk.result.size()) - 1;
  VecView pk_raw = data.Get(pk);
  Vec gk = scoring.Transform(pk_raw);
  IncidentStar star(gk, options.eps);
  Rng joggle_rng(0xFACE7);

  // Footnote 7: the cone is the region as Phase 1 left it. The region's
  // next materialization grows the cone's dual hull by the Phase-2
  // constraints. A cone from a joggled hull has inexact vertices, so it
  // filters nothing.
  ConeFilter cone;
  if (options.phase1_tightening && !region->constraints().empty()) {
    const Polytope& cone_polytope = region->polytope();
    if (!region->polytope_joggled()) {
      cone = ConeFilter(cone_polytope.vertices(), gk);
    }
  }

  // --- First step: the encountered set T (paper §6.3.1). ---
  // One pass over T's rows decides the pre-filter (dominated by p_k),
  // picks the max-coordinate seeds and maps each record through g into
  // SoA planes; one kernel pass then applies the cone.
  const std::vector<RecordId>& t = topk.encountered;
  const size_t n = t.size();
  MaxCoordinateSeeder seeder(dim);
  std::vector<double> t_planes(dim * n);
  std::vector<uint8_t> t_keep(n);
  Vec g(dim);  // g(p) of the record being processed
  const bool identity = scoring.IsIdentityTransform();
  for (size_t i = 0; i < n; ++i) {
    // T's rows lie scattered over the dataset: fetch ahead.
    if (i + 8 < n) __builtin_prefetch(data.Get(t[i + 8]).data());
    VecView p_raw = data.Get(t[i]);
    if (options.max_coordinate_seeding) seeder.Offer(p_raw, i);
    t_keep[i] = !Dominates(pk_raw, p_raw);
    VecView p_g = p_raw;
    if (!identity) {
      scoring.TransformInto(p_raw, &g);
      p_g = g;
    }
    for (size_t j = 0; j < dim; ++j) t_planes[j * n + i] = p_g[j];
  }
  cone.KeepPoints(t_planes.data(), n, n, t_keep.data());
  // T arrives in heap-pop order, strongest records first (Quickhull's
  // farthest-point-first idea): early facets then sit close to the final
  // star, and about half as many facets are created and killed as in
  // record-id order. On data in general position the final star does
  // not depend on the order; with tied or coplanar records its vertex
  // set can (which of two equal records, or which point of a shared
  // face, becomes a vertex), but the region it bounds cannot. The seeds
  // go first.
  Vec joggled;  // joggle-retry copy of g
  auto insert_from_t = [&](size_t i) {
    if (!t_keep[i]) return;
    for (size_t j = 0; j < dim; ++j) g[j] = t_planes[j * n + i];
    if (!InsertWithJoggle(star, g, t[i], nullptr, joggle_rng, &joggled)
             .ok()) {
      AddDirectConstraint(g, t[i], region, gk, position);
    }
  };
  std::vector<size_t> seeds = seeder.Seeds();
  for (size_t i : seeds) insert_from_t(i);
  std::sort(seeds.begin(), seeds.end());
  for (size_t i = 0, s = 0; i < n; ++i) {
    if (s < seeds.size() && seeds[s] == i) {
      ++s;
      continue;
    }
    insert_from_t(i);
  }

  // --- Second step: refine from disk via the retained BRS heap. ---
  // Only nodes whose box lies above a live facet and is not redundant
  // in the cone enter the walk (the cone never changes, so a box it
  // drops at push time it would drop at pop time). A leaf's records are
  // group-tested against the facets its box lies above (LeafGroupTest)
  // and the cone; internal nodes keep the early-exit box test.
  auto mark = [&star, &cone](const double* lo, const double* hi,
                             size_t stride, size_t count, uint8_t* mask) {
    star.MarkBoxesAbove(lo, hi, stride, count, mask);
    cone.KeepBoxes(lo, hi, stride, count, mask);
  };
  FrontierWalker walker(tree, scoring, weights, topk.pending, mark);
  LeafGroupTest group;
  std::vector<double> planes;  // a leaf's records through g, SoA
  std::vector<uint8_t> leaf_keep;
  while (walker.Pop()) {
    const Mbb& g_box = walker.g_box();
    if (!walker.leaf()) {
      if (star.BoxBelowAllFacets(g_box)) continue;
      walker.Expand(tree.ReadNode(walker.page()));
      continue;
    }
    if (!group.Reset(star, g_box)) continue;
    FlatRTree::NodeView node = tree.ReadNode(walker.page());
    const size_t count = node.count();
    const GPlanes gp = LeafGPlanes(scoring, node, dim, &planes);
    group.Test(star, gp, count);
    // Inserts only mark records after the first marked one, so the cone
    // needs testing from there on.
    size_t first = 0;
    while (first < count && !group.Marked(first)) ++first;
    leaf_keep.assign(count, 1);
    cone.KeepPoints(gp.base + first, gp.stride, count - first,
                    leaf_keep.data() + first);
    for (size_t i = first; i < count; ++i) {
      if (!group.Marked(i) || !leaf_keep[i]) continue;
      const RecordId id = node.child(i);
      VecView p_raw = data.Get(id);
      if (Dominates(pk_raw, p_raw)) continue;
      scoring.TransformInto(p_raw, &g);
      if (!group.Insert(star, g, id, i, joggle_rng, &joggled)) {
        AddDirectConstraint(g, id, region, gk, position);
      }
    }
  }

  // --- Emit one half-space per critical record. ---
  std::vector<int> critical = star.CriticalRecordIds();
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = position;
  for (int id : critical) {
    prov.challenger = id;
    scoring.TransformInto(data.Get(static_cast<RecordId>(id)), &g);
    region->AddConstraint(Sub(gk, g), prov);
  }
  Phase2Output out;
  out.candidates = critical.size();
  out.star_facets = star.live_facet_count();
  out.star_facets_created = star.facets_created();
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

}  // namespace gir
