#include "geom/convex_hull.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.h"

namespace gir {

namespace {

// d! for simplex volume normalization.
double Factorial(size_t d) {
  double f = 1.0;
  for (size_t i = 2; i <= d; ++i) f *= static_cast<double>(i);
  return f;
}

// |det| of the d x d matrix whose rows are (v_i - base), for the d
// vertices `vertex_ids` of the row-major point array `pts`. `m` is the
// elimination buffer.
double SimplexDet(const double* pts, const int* vertex_ids, const Vec& base,
                  std::vector<double>* m) {
  const size_t d = base.size();
  m->resize(d * d);
  double* a = m->data();
  for (size_t i = 0; i < d; ++i) {
    const double* v = pts + static_cast<size_t>(vertex_ids[i]) * d;
    for (size_t j = 0; j < d; ++j) a[i * d + j] = v[j] - base[j];
  }
  // Gaussian elimination with partial pivoting; determinant magnitude.
  double det = 1.0;
  for (size_t col = 0; col < d; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < d; ++row) {
      if (std::fabs(a[row * d + col]) > std::fabs(a[pivot * d + col])) {
        pivot = row;
      }
    }
    if (a[pivot * d + col] == 0.0) return 0.0;
    if (pivot != col) {
      std::swap_ranges(a + col * d, a + col * d + d, a + pivot * d);
    }
    det *= a[col * d + col];
    for (size_t row = col + 1; row < d; ++row) {
      double f = a[row * d + col] / a[col * d + col];
      for (size_t j = col; j < d; ++j) a[row * d + j] -= f * a[col * d + j];
    }
  }
  return std::fabs(det);
}

// FindInitialSimplex over the n row-major points `pts`: writes the d+1
// chosen ids to `chosen`. `scratch` holds the orthonormal basis (d
// rows), the candidate's residual and the best residual so far.
Status FindSimplex(const double* pts, size_t n, size_t d, double tol,
                   std::vector<double>* scratch, std::vector<int>* chosen) {
  if (n < d + 1) return Status::FailedPrecondition("too few points");
  chosen->clear();
  // Seed with the lexicographically smallest point for determinism.
  size_t first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (std::lexicographical_compare(pts + i * d, pts + i * d + d,
                                     pts + first * d, pts + first * d + d)) {
      first = i;
    }
  }
  chosen->push_back(static_cast<int>(first));
  const double* base = pts + first * d;
  scratch->resize((d + 2) * d);
  double* basis = scratch->data();
  double* r = basis + d * d;
  double* best_residual = r + d;
  // Orthonormal basis of span{p - base}, built incrementally.
  size_t rank = 0;
  while (chosen->size() < d + 1) {
    int best = -1;
    double best_dist = tol;
    for (size_t i = 0; i < n; ++i) {
      const double* p = pts + i * d;
      for (size_t j = 0; j < d; ++j) r[j] = p[j] - base[j];
      for (size_t b = 0; b < rank; ++b) {
        const double* row = basis + b * d;
        double c = Dot(VecView(r, d), VecView(row, d));
        for (size_t j = 0; j < d; ++j) r[j] -= c * row[j];
      }
      double dist = Norm(VecView(r, d));
      if (dist > best_dist) {
        best_dist = dist;
        best = static_cast<int>(i);
        std::swap(r, best_residual);
      }
    }
    if (best < 0) {
      return Status::FailedPrecondition(
          "points are affinely dependent (lower-dimensional input)");
    }
    chosen->push_back(best);
    const double norm = Norm(VecView(best_residual, d));
    double* row = basis + rank * d;
    for (size_t j = 0; j < d; ++j) {
      row[j] = norm < 1e-300 ? best_residual[j] : best_residual[j] / norm;
    }
    ++rank;
  }
  return Status::Ok();
}

}  // namespace

Status HullBuilder::Build(const double* coords, size_t n, size_t dim,
                          const ConvexHullOptions& options) {
  if (n == 0) return Status::InvalidArgument("empty point set");
  if (dim < 2) return Status::InvalidArgument("dimension must be >= 2");
  options_ = options;
  built_ = false;
  n_ = n;
  dim_ = dim;
  std::optional<Rng> joggle_rng;
  double magnitude = options.joggle_magnitude;
  Status last = Status::Ok();
  int attempts = options.enable_joggle ? options.max_joggle_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    pts_ = coords;
    if (attempt > 0) {
      // Joggle: re-perturb the ORIGINAL coordinates so magnitudes don't
      // accumulate across retries.
      if (!joggle_rng) joggle_rng.emplace(options.joggle_seed);
      joggled_coords_.assign(coords, coords + n * dim);
      for (double& x : joggled_coords_) {
        x += joggle_rng->Uniform(-magnitude, magnitude);
      }
      magnitude *= 10.0;
      pts_ = joggled_coords_.data();
    }
    last = Run();
    if (last.ok()) {
      joggled_ = attempt > 0;
      built_ = true;
      Compact();
      return last;
    }
    if (last.code() != StatusCode::kFailedPrecondition &&
        last.code() != StatusCode::kInternal) {
      return last;  // non-degeneracy error: do not retry
    }
  }
  return last;
}

Status HullBuilder::Extend(const double* coords, size_t n) {
  if (!built_ || joggled_) {
    return Status::FailedPrecondition("no unjoggled hull to extend");
  }
  if (n < n_) return Status::InvalidArgument("extend cannot drop points");
  built_ = false;
  pts_ = coords;
  // Compact left the live facets packed; reset their per-facet marks.
  const size_t live = offsets_.size();
  alive_.assign(live, 1);
  visible_.assign(live, 0);
  head_.assign(live, -1);
  tail_.assign(live, -1);
  next_.resize(n);
  const size_t first_new = n_;
  n_ = n;
  for (size_t p = first_new; p < n; ++p) {
    AssignPoint(static_cast<int>(p), 0, live);
  }
  Status s = ProcessOutsidePoints();
  if (!s.ok()) return s;
  built_ = true;
  Compact();
  return s;
}

Status HullBuilder::Run() {
  if (n_ < dim_ + 1) {
    return Status::FailedPrecondition("too few points for full-dim hull");
  }
  verts_.clear();
  nbrs_.clear();
  normals_.clear();
  offsets_.clear();
  alive_.clear();
  visible_.clear();
  head_.clear();
  tail_.clear();
  next_.resize(n_);
  Status s = FindSimplex(pts_, n_, dim_, 1e-9, &simplex_scratch_, &simplex_);
  if (!s.ok()) return s;
  s = BuildInitialSimplex();
  if (!s.ok()) return s;
  const size_t initial = offsets_.size();
  for (int p = 0; p < static_cast<int>(n_); ++p) {
    if (std::find(simplex_.begin(), simplex_.end(), p) != simplex_.end()) {
      continue;
    }
    AssignPoint(p, 0, initial);
  }
  return ProcessOutsidePoints();
}

Status HullBuilder::BuildInitialSimplex() {
  const size_t d = dim_;
  interior_.assign(d, 0.0);
  for (int id : simplex_) {
    for (size_t j = 0; j < d; ++j) interior_[j] += pts_[id * d + j];
  }
  for (size_t j = 0; j < d; ++j) interior_[j] /= (d + 1);

  // One facet per omitted simplex vertex. Facet `omit` and facet `other`
  // share the ridge missing both simplex vertices, so the slot of
  // simplex vertex `other` in facet `omit` neighbours facet `other`.
  for (size_t omit = 0; omit <= d; ++omit) {
    const int f = NewFacet();
    int* verts = verts_.data() + f * d;
    size_t w = 0;
    for (size_t i = 0; i <= d; ++i) {
      if (i != omit) verts[w++] = simplex_[i];
    }
    Status s = FitPlane(f);
    if (!s.ok()) return s;
    for (size_t pos = 0; pos < d; ++pos) {
      const size_t other = static_cast<size_t>(
          std::find(simplex_.begin(), simplex_.end(), verts[pos]) -
          simplex_.begin());
      nbrs_[f * d + pos] = static_cast<int>(other);
    }
  }
  return Status::Ok();
}

int HullBuilder::NewFacet() {
  const size_t d = dim_;
  const size_t f = offsets_.size();
  verts_.resize((f + 1) * d);
  nbrs_.resize((f + 1) * d, -1);
  normals_.resize((f + 1) * d);
  offsets_.push_back(0.0);
  alive_.push_back(1);
  visible_.push_back(0);
  head_.push_back(-1);
  tail_.push_back(-1);
  return static_cast<int>(f);
}

Status HullBuilder::FitPlane(int f) {
  const size_t d = dim_;
  fit_vertices_.resize(d);
  for (size_t i = 0; i < d; ++i) {
    fit_vertices_[i] = pts_ + static_cast<size_t>(verts_[f * d + i]) * d;
  }
  return FitHyperplaneInto(fit_vertices_.data(), interior_, &fit_scratch_,
                           normals_.data() + f * d, &offsets_[f]);
}

double HullBuilder::Height(size_t f, int p) const {
  // Hyperplane::Evaluate over the packed arrays, same summation order.
  const size_t d = dim_;
  const double* normal = normals_.data() + f * d;
  const double* x = pts_ + static_cast<size_t>(p) * d;
  double dot = 0.0;
  for (size_t j = 0; j < d; ++j) dot += normal[j] * x[j];
  return dot - offsets_[f];
}

void HullBuilder::Append(int f, int p) {
  next_[p] = -1;
  if (tail_[f] < 0) {
    head_[f] = p;
  } else {
    next_[tail_[f]] = p;
  }
  tail_[f] = p;
}

// Assigns point p to the facet (among [first, last)) it is furthest
// above, if any.
void HullBuilder::AssignPoint(int p, size_t first, size_t last) {
  double best = options_.eps;
  int best_facet = -1;
  for (size_t f = first; f < last; ++f) {
    if (!alive_[f]) continue;
    double h = Height(f, p);
    if (h > best) {
      best = h;
      best_facet = static_cast<int>(f);
    }
  }
  if (best_facet >= 0) Append(best_facet, p);
}

Status HullBuilder::ProcessOutsidePoints() {
  // Work queue of facets that may have outside points.
  queue_.clear();
  for (size_t f = 0; f < offsets_.size(); ++f) {
    if (head_[f] >= 0) queue_.push_back(static_cast<int>(f));
  }
  size_t iterations = 0;
  const size_t max_iterations = 64 * n_ + 1024;
  while (!queue_.empty()) {
    if (++iterations > max_iterations) {
      return Status::Internal("convex hull failed to converge");
    }
    const int fid = queue_.back();
    queue_.pop_back();
    if (!alive_[fid] || head_[fid] < 0) continue;

    // Furthest outside point of this facet.
    int apex = -1;
    double best = -1.0;
    for (int p = head_[fid]; p >= 0; p = next_[p]) {
      double h = Height(fid, p);
      if (h > best) {
        best = h;
        apex = p;
      }
    }
    if (best <= options_.eps) {
      head_[fid] = tail_[fid] = -1;
      continue;
    }

    Status s = InsertPoint(apex, fid);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status HullBuilder::InsertPoint(int apex, int seed_facet) {
  const size_t d = dim_;
  // 1. Visible set: depth-first over neighbours from the seed facet.
  visible_list_.clear();
  stack_.assign(1, seed_facet);
  visible_[seed_facet] = 1;
  while (!stack_.empty()) {
    const int fid = stack_.back();
    stack_.pop_back();
    visible_list_.push_back(fid);
    for (size_t pos = 0; pos < d; ++pos) {
      const int nb = nbrs_[fid * d + pos];
      if (visible_[nb] || !alive_[nb]) continue;
      if (Height(nb, apex) > options_.eps) {
        visible_[nb] = 1;
        stack_.push_back(nb);
      }
    }
  }

  // 2. Horizon ridges: (visible facet, slot) whose neighbour is hidden.
  horizon_.clear();
  for (int fid : visible_list_) {
    for (size_t pos = 0; pos < d; ++pos) {
      const int nb = nbrs_[fid * d + pos];
      if (visible_[nb]) continue;
      int back = -1;
      for (size_t i = 0; i < d; ++i) {
        if (nbrs_[nb * d + i] == fid) {
          back = static_cast<int>(i);
          break;
        }
      }
      if (back < 0) return Status::Internal("hull adjacency corrupted");
      horizon_.push_back(HorizonRidge{fid, static_cast<int>(pos), nb, back});
    }
  }
  if (horizon_.empty()) {
    return Status::Internal("empty horizon for outside point");
  }

  // 3. Build one new facet per horizon ridge: the ridge in its visible
  // facet's vertex order, then the apex. Slot d-1 holds the apex, so
  // the ridge opposite it is the horizon ridge: its neighbour is outer.
  const size_t first_new = offsets_.size();
  for (const HorizonRidge& h : horizon_) {
    const int nf = NewFacet();
    size_t w = 0;
    for (size_t i = 0; i < d; ++i) {
      if (i != static_cast<size_t>(h.slot)) {
        verts_[nf * d + w++] = verts_[h.facet * d + i];
      }
    }
    verts_[nf * d + d - 1] = apex;
    Status s = FitPlane(nf);
    if (!s.ok()) return s;
    nbrs_[nf * d + d - 1] = h.outer;
    nbrs_[h.outer * d + h.outer_slot] = nf;
  }
  const size_t last = offsets_.size();

  // 4. Wire the ridges shared between pairs of new facets. Two new
  // facets share the ridge {apex} + (ridge \ {v}); key each non-apex
  // slot on its sorted d-2 ridge vertices and pair equal keys by
  // sorting, in slot order within a key.
  const size_t per = d - 1;
  const size_t key_len = d - 2;
  const size_t entries = (last - first_new) * per;
  ridge_keys_.resize(entries * key_len);
  ridge_order_.resize(entries);
  for (size_t e = 0; e < entries; ++e) {
    const int* verts = verts_.data() + (first_new + e / per) * d;
    int* key = ridge_keys_.data() + e * key_len;
    size_t w = 0;
    for (size_t i = 0; i < per; ++i) {
      if (i != e % per) key[w++] = verts[i];
    }
    std::sort(key, key + key_len);
    ridge_order_[e] = static_cast<int>(e);
  }
  auto key_of = [&](int e) {
    return ridge_keys_.data() + static_cast<size_t>(e) * key_len;
  };
  auto same_key = [&](int a, int b) {
    return std::equal(key_of(a), key_of(a) + key_len, key_of(b));
  };
  std::sort(ridge_order_.begin(), ridge_order_.end(), [&](int a, int b) {
    if (same_key(a, b)) return a < b;
    return std::lexicographical_compare(key_of(a), key_of(a) + key_len,
                                        key_of(b), key_of(b) + key_len);
  });
  for (size_t t = 0; t < entries;) {
    size_t u = t + 1;
    while (u < entries && same_key(ridge_order_[t], ridge_order_[u])) ++u;
    if ((u - t) % 2 != 0) {
      return Status::Internal("unmatched new-facet ridges");
    }
    for (; t < u; t += 2) {
      const size_t a = static_cast<size_t>(ridge_order_[t]);
      const size_t b = static_cast<size_t>(ridge_order_[t + 1]);
      const size_t fa = first_new + a / per;
      const size_t fb = first_new + b / per;
      nbrs_[fa * d + a % per] = static_cast<int>(fb);
      nbrs_[fb * d + b % per] = static_cast<int>(fa);
    }
  }

  // 5. Redistribute the outside points of the visible facets.
  orphans_.clear();
  for (int fid : visible_list_) {
    for (int p = head_[fid]; p >= 0; p = next_[p]) {
      if (p != apex) orphans_.push_back(p);
    }
    head_[fid] = tail_[fid] = -1;
    alive_[fid] = 0;
    visible_[fid] = 0;
  }
  for (int p : orphans_) AssignPoint(p, first_new, last);
  for (size_t nf = first_new; nf < last; ++nf) {
    if (head_[nf] >= 0) queue_.push_back(static_cast<int>(nf));
  }
  return Status::Ok();
}

void HullBuilder::Compact() {
  const size_t d = dim_;
  const size_t total = offsets_.size();
  remap_.resize(total);
  size_t live = 0;
  for (size_t f = 0; f < total; ++f) {
    if (!alive_[f]) {
      remap_[f] = -1;
      continue;
    }
    remap_[f] = static_cast<int>(live);
    if (live != f) {
      std::copy_n(verts_.data() + f * d, d, verts_.data() + live * d);
      std::copy_n(nbrs_.data() + f * d, d, nbrs_.data() + live * d);
      std::copy_n(normals_.data() + f * d, d, normals_.data() + live * d);
      offsets_[live] = offsets_[f];
    }
    ++live;
  }
  verts_.resize(live * d);
  nbrs_.resize(live * d);
  normals_.resize(live * d);
  offsets_.resize(live);
  for (int& nb : nbrs_) nb = remap_[nb];
  is_vertex_.assign(n_, 0);
  for (int v : verts_) is_vertex_[v] = 1;
  vertex_ids_.clear();
  for (size_t p = 0; p < n_; ++p) {
    if (is_vertex_[p]) vertex_ids_.push_back(static_cast<int>(p));
  }
}

Result<std::vector<int>> FindInitialSimplex(const std::vector<Vec>& points,
                                            size_t dim, double tol) {
  std::vector<double> coords;
  coords.reserve(points.size() * dim);
  for (const Vec& p : points) coords.insert(coords.end(), p.begin(), p.end());
  std::vector<double> scratch;
  std::vector<int> chosen;
  Status s = FindSimplex(coords.data(), points.size(), dim, tol, &scratch,
                         &chosen);
  if (!s.ok()) return s;
  return chosen;
}

Result<ConvexHull> ConvexHull::Build(const std::vector<Vec>& points,
                                     const ConvexHullOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("empty point set");
  }
  const size_t d = points[0].size();
  if (d < 2) return Status::InvalidArgument("dimension must be >= 2");
  const size_t n = points.size();
  ConvexHull hull;
  hull.coords_.reserve(n * d);
  for (const Vec& p : points) {
    hull.coords_.insert(hull.coords_.end(), p.begin(), p.end());
  }
  HullBuilder builder;
  Status s = builder.Build(hull.coords_.data(), n, d, options);
  if (!s.ok()) return s;
  hull.dim_ = d;
  hull.interior_ = builder.interior();
  hull.joggled_ = builder.joggled();
  if (hull.joggled_) {
    hull.coords_.assign(builder.points(), builder.points() + n * d);
  }
  hull.facets_.resize(builder.facet_count());
  for (size_t f = 0; f < hull.facets_.size(); ++f) {
    HullFacet& out = hull.facets_[f];
    out.vertices.assign(builder.facet_vertices(f),
                        builder.facet_vertices(f) + d);
    out.plane.normal.assign(builder.facet_normal(f),
                            builder.facet_normal(f) + d);
    out.plane.offset = builder.facet_offset(f);
    out.neighbors.assign(builder.facet_neighbors(f),
                         builder.facet_neighbors(f) + d);
  }
  hull.vertex_indices_ = builder.vertex_indices();
  return hull;
}

bool ConvexHull::Contains(VecView x, double eps) const {
  for (const HullFacet& f : facets_) {
    if (f.plane.Evaluate(x) > eps) return false;
  }
  return true;
}

double ConvexHull::Volume() const {
  // The facets are simplices; the hull volume is the fan decomposition
  // around the interior point. This is exact for the coordinates the
  // hull was built on.
  double total = 0.0;
  const double dfact = Factorial(dim_);
  std::vector<double> m;
  for (const HullFacet& f : facets_) {
    total += SimplexDet(coords_.data(), f.vertices.data(), interior_, &m) /
             dfact;
  }
  return total;
}

}  // namespace gir
