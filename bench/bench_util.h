#ifndef GIR_BENCH_BENCH_UTIL_H_
#define GIR_BENCH_BENCH_UTIL_H_

// Shared harness for the paper-figure benchmarks. Each bench binary
// reproduces one figure of the paper's Section 8 and prints the same
// rows/series the figure plots. Defaults are scaled down so that the
// full `for b in build/bench/*; do $b; done` sweep finishes in minutes;
// pass --full for paper-scale parameters (Table 2), or override n / k /
// queries / dims individually.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "dataset/generators.h"
#include "dataset/real_data_sim.h"
#include "gir/engine.h"

namespace gir::bench {

// Table 2 of the paper (defaults in bold there): d in {2..8} (4),
// n in {0.5M..20M} (1M), k in {5..100} (20), 100 random queries.
struct Params {
  int64_t n = 100000;
  int64_t k = 20;
  int64_t queries = 4;
  int64_t seed = 2014;
  bool full = false;

  void Register(FlagSet* flags) {
    flags->AddInt("n", &n, "dataset cardinality");
    flags->AddInt("k", &k, "top-k result size");
    flags->AddInt("queries", &queries, "random queries averaged per cell");
    flags->AddInt("seed", &seed, "RNG seed");
    flags->AddBool("full", &full,
                   "paper-scale parameters (slow: hours, not minutes)");
  }
  void ApplyFullDefaults() {
    if (full) {
      n = 1000000;
      queries = 100;
    }
  }
};

inline Dataset MakeNamedDataset(const std::string& name, size_t n,
                                size_t dim, uint64_t seed) {
  Rng rng(seed);
  if (name == "HOUSE") return MakeHouseLike(rng, n);
  if (name == "HOTEL") return MakeHotelLike(rng, n);
  Result<Dataset> d = GenerateByName(name, n, dim, rng);
  if (!d.ok()) {
    std::fprintf(stderr, "bad dataset %s\n", name.c_str());
    std::exit(1);
  }
  return std::move(d).value();
}

// The engine as the paper evaluated it: FP without footnote 7's
// Phase-1 tightening (on by default in the library), so the figures
// that time or count FP mirror the paper's setup.
inline GirEngineOptions PaperOptions() {
  GirEngineOptions options;
  options.fp.phase1_tightening = false;
  return options;
}

// The paper issues random queries; weights are bounded away from zero
// so every dimension participates.
inline Vec RandomQuery(Rng& rng, size_t dim) {
  Vec w(dim);
  for (size_t j = 0; j < dim; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

// Average CPU/IO cost of one GIR method over Q random queries.
struct MethodCost {
  double cpu_ms = 0.0;       // phase1 + phase2 + intersection
  double io_ms = 0.0;        // simulated: reads * ms_per_read
  double reads = 0.0;        // phase-2 page reads
  double candidates = 0.0;   // records surviving the method's pruning
  bool ok = false;
};

inline MethodCost MeasureGir(const GirEngine& engine, Phase2Method method,
                             size_t k, int queries, Rng& rng,
                             bool order_sensitive = true) {
  MethodCost out;
  const size_t dim = engine.dataset().dim();
  int done = 0;
  for (int q = 0; q < queries; ++q) {
    Vec w = RandomQuery(rng, dim);
    Result<GirComputation> gir =
        order_sensitive ? engine.ComputeGir(w, k, method)
                        : engine.ComputeGirStar(w, k, method);
    if (!gir.ok()) continue;
    out.cpu_ms += gir->stats.GirCpuMillis();
    out.io_ms += gir->stats.GirIoMillis(engine.disk()->ms_per_read());
    out.reads += static_cast<double>(gir->stats.phase2_reads);
    out.candidates += static_cast<double>(gir->stats.candidates);
    ++done;
  }
  if (done > 0) {
    out.cpu_ms /= done;
    out.io_ms /= done;
    out.reads /= done;
    out.candidates /= done;
    out.ok = true;
  }
  return out;
}

// ----- plain-text table helpers (one row per x-axis point) -----

inline void PrintTitle(const std::string& title) {
  std::printf("\n### %s\n", title.c_str());
}

inline void PrintHeader(const std::string& x,
                        const std::vector<std::string>& series) {
  std::printf("%-10s", x.c_str());
  for (const std::string& s : series) std::printf("%14s", s.c_str());
  std::printf("\n");
}

inline void PrintCell(double v) {
  if (v < 0) {
    std::printf("%14s", "-");
  } else if (v != 0 && (v < 1e-3 || v >= 1e7)) {
    std::printf("%14.3e", v);
  } else {
    std::printf("%14.3f", v);
  }
}

template <typename X>
void PrintRow(X x, const std::vector<double>& cells) {
  if constexpr (std::is_integral_v<X>) {
    std::printf("%-10lld", static_cast<long long>(x));
  } else {
    std::printf("%-10s", std::string(x).c_str());
  }
  for (double v : cells) PrintCell(v);
  std::printf("\n");
}

}  // namespace gir::bench

#endif  // GIR_BENCH_BENCH_UTIL_H_
