// Region fingerprints: one FNV-1a hash per (method, dataset, scoring,
// d) cell over a fixed query stream, for proving that a change to the
// Phase-2 algorithms keeps every answer bit-identical. Each query folds
// in the ordered top-k, every region constraint (the bits of its normal
// and its provenance: kind, position, challenger), the Phase-2
// candidate count, the live star facets, the Phase-2 page reads and the
// region's polytope: its vertex bits, each facet's normal bits and
// offset, and the non-redundant constraint indices, in order.
//
// Methods: FP (order-sensitive, paper defaults), FP+tight (FP with
// FpOptions::phase1_tightening on), SP, CP, and the order-insensitive
// GIR*-FP, GIR*-SP and GIR*-CP. At d = 2 the order-sensitive FP runs
// the angular variant (fp2d). Cells: IND/ANTI/COR with Linear scoring at d = dmin..dmax, plus
// IND with Polynomial and Mixed scoring at d = dmin..min(dmax, 5).
//
// Output, one tab-separated line per cell:
//   method  dataset  scoring  d  fingerprint  total  topk  phase2
// The first five columns are deterministic. The last three are not:
// milliseconds per query for the whole computation, its BRS top-k and
// its Phase 2. --methods picks a comma-separated subset of the method
// labels (default: all seven).
// To compare two commits, build this file in both trees and diff the
// deterministic columns:
//   diff <(a/build/bench/bench_region_fingerprint | cut -f1-5) \
//        <(b/build/bench/bench_region_fingerprint | cut -f1-5)
#include <cinttypes>
#include <cstring>

#include "bench_util.h"

using namespace gir;
using namespace gir::bench;

namespace {

struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Bytes(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Value(T v) {
    Bytes(&v, sizeof(v));
  }
};

void FoldComputation(const GirComputation& gir, Fnv1a* fnv) {
  fnv->Value<uint64_t>(gir.topk.result.size());
  for (RecordId id : gir.topk.result) fnv->Value<int64_t>(id);
  const std::vector<GirConstraint>& cs = gir.region.constraints();
  fnv->Value<uint64_t>(cs.size());
  for (const GirConstraint& c : cs) {
    fnv->Bytes(c.normal.data(), c.normal.size() * sizeof(double));
    fnv->Value<int32_t>(static_cast<int32_t>(c.provenance.kind));
    fnv->Value<int32_t>(c.provenance.position);
    fnv->Value<int64_t>(c.provenance.challenger);
  }
  fnv->Value<uint64_t>(gir.stats.candidates);
  fnv->Value<uint64_t>(gir.stats.star_facets);
  fnv->Value<uint64_t>(gir.stats.phase2_reads);
  const Polytope& polytope = gir.region.polytope();
  fnv->Value<uint64_t>(polytope.vertices().size());
  for (const Vec& v : polytope.vertices()) {
    fnv->Bytes(v.data(), v.size() * sizeof(double));
  }
  fnv->Value<uint64_t>(polytope.facets().size());
  for (const Hyperplane& f : polytope.facets()) {
    fnv->Bytes(f.normal.data(), f.normal.size() * sizeof(double));
    fnv->Value<double>(f.offset);
  }
  const std::vector<int>& nonredundant = gir.region.nonredundant_indices();
  fnv->Value<uint64_t>(nonredundant.size());
  for (int i : nonredundant) fnv->Value<int32_t>(i);
}

struct Method {
  const char* label;
  Phase2Method method;
  bool tightening;
  bool order_sensitive;
};

void RunCell(const Method& m, const std::string& dist,
             const std::string& scoring, int64_t d, const Params& params) {
  Dataset data = MakeNamedDataset(dist, params.n, d, params.seed + d);
  DiskManager disk;
  GirEngineOptions options;
  options.fp.phase1_tightening = m.tightening;
  auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &disk, MakeScoring(scoring, d), options));
  Rng rng(params.seed * 31 + d);
  Fnv1a fnv;
  double total_ms = 0.0;
  double topk_ms = 0.0;
  double phase2_ms = 0.0;
  for (int64_t q = 0; q < params.queries; ++q) {
    Vec w = RandomQuery(rng, d);
    Stopwatch sw;
    Result<GirComputation> gir =
        m.order_sensitive ? engine->ComputeGir(w, params.k, m.method)
                          : engine->ComputeGirStar(w, params.k, m.method);
    total_ms += sw.ElapsedMillis();
    if (!gir.ok()) {
      // A failure is part of the fingerprint: its code, not its text.
      fnv.Value<int32_t>(static_cast<int32_t>(gir.status().code()));
      continue;
    }
    topk_ms += gir->stats.topk_cpu_ms;
    phase2_ms += gir->stats.phase2_cpu_ms;
    FoldComputation(*gir, &fnv);
  }
  const double per = params.queries > 0 ? 1.0 / params.queries : 0.0;
  std::printf("%s\t%s\t%s\td=%lld\t%016" PRIx64 "\t%.3f\t%.3f\t%.3f\n",
              m.label, dist.c_str(), scoring.c_str(),
              static_cast<long long>(d), fnv.h, total_ms * per,
              topk_ms * per, phase2_ms * per);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Params params;
  params.n = 50000;
  params.queries = 20;
  FlagSet flags;
  params.Register(&flags);
  int64_t dmin = 3;
  int64_t dmax = 6;
  flags.AddInt("dmin", &dmin, "smallest dimensionality");
  flags.AddInt("dmax", &dmax, "largest dimensionality");
  std::string methods_flag = "FP,FP+tight,GIR*-FP,CP,SP,GIR*-SP,GIR*-CP";
  flags.AddString("methods", &methods_flag,
                  "comma-separated method labels to run");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  params.ApplyFullDefaults();

  const Method methods[] = {
      {"FP", Phase2Method::kFP, false, true},
      {"FP+tight", Phase2Method::kFP, true, true},
      {"GIR*-FP", Phase2Method::kFP, false, false},
      {"CP", Phase2Method::kCP, false, true},
      {"SP", Phase2Method::kSP, false, true},
      {"GIR*-SP", Phase2Method::kSP, false, false},
      {"GIR*-CP", Phase2Method::kCP, false, false},
  };
  for (const Method& m : methods) {
    if (("," + methods_flag + ",").find("," + std::string(m.label) + ",") ==
        std::string::npos) {
      continue;
    }
    for (const char* dist : {"IND", "ANTI", "COR"}) {
      for (int64_t d = dmin; d <= dmax; ++d) {
        RunCell(m, dist, "Linear", d, params);
      }
    }
    for (const char* scoring : {"Polynomial", "Mixed"}) {
      for (int64_t d = dmin; d <= std::min<int64_t>(dmax, 5); ++d) {
        RunCell(m, "IND", scoring, d, params);
      }
    }
  }
  return 0;
}
