#include "geom/hyperplane.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gir {

Result<Vec> SolveLinearSystem(std::vector<Vec> a, Vec b, double pivot_floor) {
  const size_t d = b.size();
  assert(a.size() == d);
  for (size_t col = 0; col < d; ++col) {
    // Partial pivoting: bring the largest remaining entry into place.
    size_t pivot = col;
    for (size_t row = col + 1; row < d; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) pivot = row;
    }
    if (std::fabs(a[pivot][col]) < pivot_floor) {
      return Status::FailedPrecondition("singular linear system");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t row = col + 1; row < d; ++row) {
      double f = a[row][col] / a[col][col];
      if (f == 0.0) continue;
      for (size_t j = col; j < d; ++j) a[row][j] -= f * a[col][j];
      b[row] -= f * b[col];
    }
  }
  Vec x(d, 0.0);
  for (size_t row = d; row-- > 0;) {
    double sum = b[row];
    for (size_t j = row + 1; j < d; ++j) sum -= a[row][j] * x[j];
    x[row] = sum / a[row][row];
  }
  return x;
}

namespace {

// Computes a (numerical) null vector of the (d-1) x d row-major matrix
// `rows` into normal[0..d-1], via Gaussian elimination with full column
// bookkeeping. The matrix must have rank d-1; the free column
// determines the normal.
Status NullVector(double* rows, size_t d, HyperplaneFitScratch* scratch,
                  double* normal) {
  const size_t m = d - 1;
  std::vector<int>& pivot_col_of_row = scratch->pivot_col_of_row;
  std::vector<char>& col_used = scratch->col_used;
  pivot_col_of_row.assign(m, -1);
  col_used.assign(d, 0);
  for (size_t row = 0; row < m; ++row) {
    // Choose the largest-magnitude unused column in this row block.
    size_t best_row = row;
    size_t best_col = 0;
    double best_val = 0.0;
    for (size_t r = row; r < m; ++r) {
      for (size_t c = 0; c < d; ++c) {
        if (col_used[c]) continue;
        if (std::fabs(rows[r * d + c]) > best_val) {
          best_val = std::fabs(rows[r * d + c]);
          best_row = r;
          best_col = c;
        }
      }
    }
    if (best_val < 1e-12) {
      return Status::FailedPrecondition(
          "affinely dependent points (rank-deficient facet basis)");
    }
    double* pivot = rows + row * d;
    if (best_row != row) {
      std::swap_ranges(pivot, pivot + d, rows + best_row * d);
    }
    col_used[best_col] = 1;
    pivot_col_of_row[row] = static_cast<int>(best_col);
    for (size_t r = row + 1; r < m; ++r) {
      double* target = rows + r * d;
      double f = target[best_col] / pivot[best_col];
      if (f == 0.0) continue;
      for (size_t c = 0; c < d; ++c) target[c] -= f * pivot[c];
    }
  }
  // Exactly one column is pivot-free; it parameterizes the null space.
  size_t free_col = d;
  for (size_t c = 0; c < d; ++c) {
    if (!col_used[c]) {
      free_col = c;
      break;
    }
  }
  assert(free_col < d);
  std::fill(normal, normal + d, 0.0);
  normal[free_col] = 1.0;
  // Back-substitute pivot coordinates.
  for (size_t r = m; r-- > 0;) {
    const double* row = rows + r * d;
    int pc = pivot_col_of_row[r];
    double sum = 0.0;
    for (size_t c = 0; c < d; ++c) {
      if (static_cast<int>(c) != pc) sum += row[c] * normal[c];
    }
    normal[pc] = -sum / row[pc];
  }
  return Status::Ok();
}

}  // namespace

Status FitHyperplaneInto(const double* const* vertices, VecView interior,
                         HyperplaneFitScratch* scratch, double* normal,
                         double* offset) {
  const size_t d = interior.size();
  assert(d >= 1);
  const double* base = vertices[0];
  std::vector<double>& rows = scratch->rows;
  rows.resize((d - 1) * d);
  for (size_t i = 1; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      rows[(i - 1) * d + j] = vertices[i][j] - base[j];
    }
  }
  Status s = NullVector(rows.data(), d, scratch, normal);
  if (!s.ok()) return s;
  const VecView n(normal, d);
  const double norm = Norm(n);
  if (norm < 1e-300) {
    return Status::FailedPrecondition("degenerate facet normal");
  }
  for (size_t j = 0; j < d; ++j) normal[j] /= norm;
  double off = Dot(n, VecView(base, d));
  double side = Dot(n, interior) - off;
  if (std::fabs(side) < 1e-14) {
    return Status::FailedPrecondition("interior point lies on facet plane");
  }
  if (side > 0.0) {
    for (size_t j = 0; j < d; ++j) normal[j] = -normal[j];
    off = -off;
  }
  *offset = off;
  return Status::Ok();
}

Result<Hyperplane> FitHyperplane(const std::vector<Vec>& points,
                                 const std::vector<int>& indices,
                                 VecView interior) {
  const size_t d = interior.size();
  assert(indices.size() == d);
  static thread_local HyperplaneFitScratch scratch;
  static thread_local std::vector<const double*> vertices;
  vertices.resize(d);
  for (size_t i = 0; i < d; ++i) vertices[i] = points[indices[i]].data();
  Hyperplane plane;
  plane.normal.resize(d);
  Status s = FitHyperplaneInto(vertices.data(), interior, &scratch,
                               plane.normal.data(), &plane.offset);
  if (!s.ok()) return s;
  return plane;
}

}  // namespace gir
