// Micro-benchmarks (google-benchmark): throughput of the geometric and
// index substrates, the ablations DESIGN.md calls out (FP
// max-coordinate seeding on/off, STR vs R* construction), and the
// scalar-vs-flat kernel pairs that track the SoA layout's speedup.
//
// Dataset seeds derive from --seed (default 2014) so perf runs are
// reproducible across machines; the flag is stripped before
// google-benchmark sees the command line.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "geom/convex_hull.h"
#include "geom/halfspace_intersection.h"
#include "geom/lp.h"
#include "gir/engine.h"
#include "gir/fpnd.h"
#include "index/flat_rtree.h"
#include "index/rtree.h"
#include "skyline/dominance.h"
#include "skyline/skyline.h"
#include "topk/brs.h"
#include "topk/tree_kernels.h"

namespace {

using namespace gir;

uint64_t g_seed = 2014;

std::vector<Vec> RandomCloud(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vec p(d);
    for (size_t j = 0; j < d; ++j) p[j] = rng.Uniform();
    pts.push_back(std::move(p));
  }
  return pts;
}

void BM_ConvexHull(benchmark::State& state) {
  const size_t d = state.range(0);
  const size_t n = state.range(1);
  std::vector<Vec> pts = RandomCloud(n, d, g_seed + 7);
  for (auto _ : state) {
    Result<ConvexHull> hull = ConvexHull::Build(pts);
    benchmark::DoNotOptimize(hull.ok());
  }
}
BENCHMARK(BM_ConvexHull)
    ->Args({2, 2000})
    ->Args({3, 2000})
    ->Args({4, 2000})
    ->Args({5, 1000})
    ->Unit(benchmark::kMillisecond);

void BM_HalfspaceIntersection(benchmark::State& state) {
  const size_t d = state.range(0);
  const size_t m = state.range(1);
  Rng rng(g_seed + 11);
  Vec q(d, 0.5);
  std::vector<Halfspace> ge;
  for (size_t i = 0; i < m; ++i) {
    Vec n(d);
    for (size_t j = 0; j < d; ++j) n[j] = rng.Uniform(-1.0, 1.0);
    if (Dot(n, q) < 0) {
      for (double& x : n) x = -x;
    }
    ge.push_back(Halfspace{std::move(n), 0.0});
  }
  for (auto _ : state) {
    Result<IntersectionResult> r = IntersectHalfspaces(ge, q);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_HalfspaceIntersection)
    ->Args({3, 64})
    ->Args({4, 256})
    ->Args({5, 1024})
    ->Unit(benchmark::kMillisecond);

void BM_ChebyshevLp(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(g_seed + 13);
  std::vector<Halfspace> ge;
  for (int i = 0; i < 200; ++i) {
    Vec n(d);
    for (size_t j = 0; j < d; ++j) n[j] = rng.Uniform(-0.3, 1.0);
    ge.push_back(Halfspace{std::move(n), 0.0});
  }
  for (auto _ : state) {
    Result<ChebyshevResult> c = ChebyshevCenter(ge);
    benchmark::DoNotOptimize(c.ok());
  }
}
BENCHMARK(BM_ChebyshevLp)->Arg(3)->Arg(5)->Arg(8)->Unit(
    benchmark::kMillisecond);

// Shared constraint system, many objectives: per-call SolveLp vs
// SolveLpBatch (one Prepare, warm phase-2 re-solves). Arg is the batch
// size; the paired timings are the invalidation LP phase ablation.
void BM_LpBatchVsPerCall(benchmark::State& state) {
  const size_t d = 4;
  const size_t count = state.range(0);
  const bool batch = state.range(1) != 0;
  Rng rng(g_seed + 19);
  LpProblem lp;
  for (int i = 0; i < 40; ++i) {
    Vec n(d);
    for (size_t j = 0; j < d; ++j) n[j] = rng.Uniform(-1.0, 0.3);
    lp.a.push_back(std::move(n));
    lp.b.push_back(0.0);
  }
  for (size_t j = 0; j < d; ++j) {
    Vec up(d, 0.0);
    up[j] = 1.0;
    lp.a.push_back(up);
    lp.b.push_back(1.0);
    Vec down(d, 0.0);
    down[j] = -1.0;
    lp.a.push_back(std::move(down));
    lp.b.push_back(0.0);
  }
  const size_t m = lp.a.size();
  std::vector<double> a(m * d);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) a[i * d + j] = lp.a[i][j];
  }
  std::vector<double> objectives(count * d);
  for (double& x : objectives) x = rng.Uniform(-1.0, 1.0);
  std::vector<LpBatchItem> items(count);
  LpWorkspace ws;
  for (auto _ : state) {
    if (batch) {
      SolveLpBatch(a.data(), lp.b.data(), m, d, objectives.data(), count,
                   &ws, items.data());
      benchmark::DoNotOptimize(items[count - 1].objective);
    } else {
      double sink = 0.0;
      for (size_t t = 0; t < count; ++t) {
        lp.c.assign(objectives.begin() + t * d,
                    objectives.begin() + (t + 1) * d);
        sink += SolveLp(lp).objective;
      }
      benchmark::DoNotOptimize(sink);
    }
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_LpBatchVsPerCall)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

// Dual-simplex AddConstraint re-solve vs a cold solve of the grown
// system (the one-constraint-changed warm-start entry point).
void BM_LpAddConstraintResolve(benchmark::State& state) {
  const size_t d = state.range(0);
  const bool warm = state.range(1) != 0;
  Rng rng(g_seed + 23);
  LpProblem lp;
  for (size_t j = 0; j < d; ++j) {
    Vec up(d, 0.0);
    up[j] = 1.0;
    lp.a.push_back(up);
    lp.b.push_back(1.0);
    Vec down(d, 0.0);
    down[j] = -1.0;
    lp.a.push_back(std::move(down));
    lp.b.push_back(0.0);
  }
  lp.c.assign(d, 1.0);
  Vec cut(d);
  for (size_t j = 0; j < d; ++j) cut[j] = rng.Uniform(0.2, 1.0);
  const double bound = 0.6 * Dot(cut, Vec(d, 1.0));
  LpWorkspace ws;
  for (auto _ : state) {
    if (warm) {
      LpSolution base = SolveLpWith(&ws, lp);
      benchmark::DoNotOptimize(base.objective);
      ws.AddConstraint(cut.data(), bound);
      benchmark::DoNotOptimize(ws.objective());
    } else {
      LpProblem grown = lp;
      grown.a.push_back(cut);
      grown.b.push_back(bound);
      LpSolution base = SolveLp(lp);
      benchmark::DoNotOptimize(base.objective);
      benchmark::DoNotOptimize(SolveLp(grown).objective);
    }
  }
}
BENCHMARK(BM_LpAddConstraintResolve)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_RtreeBulkLoad(benchmark::State& state) {
  Rng rng(g_seed + 17);
  Dataset data = GenerateIndependent(state.range(0), 4, rng);
  for (auto _ : state) {
    DiskManager disk;
    RTree tree = RTree::BulkLoad(&data, &disk);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_RtreeBulkLoad)->Arg(50000)->Arg(200000)->Unit(
    benchmark::kMillisecond);

void BM_RtreeInsertBuild(benchmark::State& state) {
  Rng rng(g_seed + 19);
  Dataset data = GenerateIndependent(state.range(0), 4, rng);
  for (auto _ : state) {
    DiskManager disk;
    RTree tree(&data, &disk);
    for (size_t i = 0; i < data.size(); ++i) {
      tree.Insert(static_cast<RecordId>(i));
    }
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_RtreeInsertBuild)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_IncidentStarInsert(benchmark::State& state) {
  const size_t d = state.range(0);
  std::vector<Vec> pts = RandomCloud(4000, d, g_seed + 29);
  Vec apex(d, 0.98);  // near the top corner, like a real p_k
  for (auto _ : state) {
    IncidentStar star(apex);
    for (size_t i = 0; i < pts.size(); ++i) {
      Result<bool> r = star.Insert(pts[i], static_cast<int>(i));
      benchmark::DoNotOptimize(r.ok());
    }
    benchmark::DoNotOptimize(star.live_facet_count());
  }
}
BENCHMARK(BM_IncidentStarInsert)->Arg(3)->Arg(4)->Arg(5)->Unit(
    benchmark::kMillisecond);

// --- Ablation: FP with and without max-coordinate seeding (§6.3.1) ---
void BM_FpSeedingAblation(benchmark::State& state) {
  const bool seeding = state.range(0) != 0;
  Rng rng(g_seed + 31);
  Dataset data = GenerateAnticorrelated(50000, 4, rng);
  DiskManager disk;
  GirEngineOptions opt;
  opt.fp.max_coordinate_seeding = seeding;
  opt.materialize_polytope = false;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 4), opt));
  size_t i = 0;
  for (auto _ : state) {
    Rng qrng(g_seed * 1000 + 100 + i++);
    Vec w(4);
    for (int j = 0; j < 4; ++j) w[j] = qrng.Uniform(0.05, 1.0);
    Result<GirComputation> gir = engine->ComputeGir(w, 20, Phase2Method::kFP);
    benchmark::DoNotOptimize(gir.ok());
  }
}
BENCHMARK(BM_FpSeedingAblation)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// --- Ablation: query I/O on STR-bulk-loaded vs insert-built trees ---
void BM_TopKIoByBuildMethod(benchmark::State& state) {
  const bool bulk = state.range(0) != 0;
  Rng rng(g_seed + 37);
  Dataset data = GenerateIndependent(50000, 4, rng);
  DiskManager disk;
  RTree tree = bulk ? RTree::BulkLoad(&data, &disk) : RTree(&data, &disk);
  if (!bulk) {
    for (size_t i = 0; i < data.size(); ++i) {
      tree.Insert(static_cast<RecordId>(i));
    }
  }
  FlatRTree flat = FlatRTree::Freeze(tree);
  LinearScoring scoring(4);
  size_t i = 0;
  uint64_t reads = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    Rng qrng(g_seed * 1000 + i++);
    Vec w(4);
    for (int j = 0; j < 4; ++j) w[j] = qrng.Uniform(0.05, 1.0);
    Result<TopKResult> r = RunBrs(flat, scoring, w, 20);
    if (r.ok()) {
      reads += r->io.reads;
      ++runs;
    }
  }
  if (runs) {
    state.counters["reads/query"] =
        static_cast<double>(reads) / static_cast<double>(runs);
  }
}
BENCHMARK(BM_TopKIoByBuildMethod)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMicrosecond);

// --- Layout kernel trackers ---

// The SoA plane kernel over every node of the frozen tree, at d =
// Arg(0); reports ns/entry.
void BM_NodeEntryScores(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(g_seed + 41);
  Dataset data = GenerateIndependent(100000, d, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  LinearScoring scoring(d);
  Rng qrng(g_seed + 43);
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = qrng.Uniform(0.05, 1.0);
  size_t entries = 0;
  for (size_t p = 0; p < flat.node_count(); ++p) {
    entries += flat.PeekNode(static_cast<PageId>(p)).count();
  }
  ScoreBuffer buf;
  for (auto _ : state) {
    double sink = 0.0;
    for (size_t p = 0; p < flat.node_count(); ++p) {
      ComputeEntryScores(scoring, flat.PeekNode(static_cast<PageId>(p)), w,
                         &buf);
      sink += buf.scores[0];
    }
    benchmark::DoNotOptimize(sink);
  }
  state.counters["ns/entry"] = benchmark::Counter(
      static_cast<double>(entries) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_NodeEntryScores)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

// The SoA kernel under each forced dispatch tier (Arg(0): 0=scalar,
// 1=avx2; clamped to what the CPU supports). Isolates what the
// runtime dispatch layer buys in *this* build, no ISA flags needed.
void BM_NodeEntryScoresTier(benchmark::State& state) {
  const simd::Tier saved = simd::ActiveTier();
  const simd::Tier tier =
      simd::ForceTier(static_cast<simd::Tier>(state.range(0)));
  const size_t d = state.range(1);
  Rng rng(g_seed + 41);
  Dataset data = GenerateIndependent(100000, d, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  LinearScoring scoring(d);
  Rng qrng(g_seed + 43);
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = qrng.Uniform(0.05, 1.0);
  size_t entries = 0;
  for (size_t p = 0; p < flat.node_count(); ++p) {
    entries += flat.PeekNode(static_cast<PageId>(p)).count();
  }
  ScoreBuffer buf;
  for (auto _ : state) {
    double sink = 0.0;
    for (size_t p = 0; p < flat.node_count(); ++p) {
      ComputeEntryScores(scoring, flat.PeekNode(static_cast<PageId>(p)), w,
                         &buf);
      sink += buf.scores[0];
    }
    benchmark::DoNotOptimize(sink);
  }
  state.counters["ns/entry"] = benchmark::Counter(
      static_cast<double>(entries) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(simd::TierName(tier));
  simd::ForceTier(saved);
}
BENCHMARK(BM_NodeEntryScoresTier)
    ->Args({0, 4})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

// Incremental skyline (the k-dominance hot loop): Arg(0)=0 replays the
// pre-packing SkylineSet (dataset-row chasing), Arg(0)=1 the packed
// member block. The dataset is large enough that member rows scatter
// across several MB — the locality gap the packing closes.
void BM_SkylineDominance(benchmark::State& state) {
  const bool packed = state.range(0) != 0;
  Rng rng(g_seed + 47);
  Dataset data = GenerateAnticorrelated(60000, 4, rng);
  for (auto _ : state) {
    size_t skyline = 0;
    if (packed) {
      SkylineSet sky(&data);
      for (size_t i = 0; i < data.size(); ++i) {
        sky.Insert(static_cast<RecordId>(i));
      }
      skyline = sky.size();
    } else {
      std::vector<RecordId> members;
      for (size_t r = 0; r < data.size(); ++r) {
        const RecordId id = static_cast<RecordId>(r);
        VecView p = data.Get(id);
        bool dominated = false;
        for (RecordId m : members) {
          if (Dominates(data.Get(m), p)) {
            dominated = true;
            break;
          }
        }
        if (dominated) continue;
        size_t kept = 0;
        for (size_t i = 0; i < members.size(); ++i) {
          if (!Dominates(p, data.Get(members[i]))) {
            members[kept++] = members[i];
          }
        }
        members.resize(kept);
        members.push_back(id);
      }
      skyline = members.size();
    }
    benchmark::DoNotOptimize(skyline);
  }
}
BENCHMARK(BM_SkylineDominance)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Whole BRS query against the frozen tree.
void BM_BrsTopKFlat(benchmark::State& state) {
  Rng rng(g_seed + 23);
  Dataset data = GenerateIndependent(200000, 4, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  LinearScoring scoring(4);
  size_t i = 0;
  for (auto _ : state) {
    Rng qrng(g_seed * 1000 + i++);
    Vec w(4);
    for (int j = 0; j < 4; ++j) w[j] = qrng.Uniform(0.05, 1.0);
    Result<TopKResult> r = RunBrs(flat, scoring, w, state.range(0));
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_BrsTopKFlat)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);

}  // namespace

// BENCHMARK_MAIN, plus a --seed flag (stripped before google-benchmark
// parses the rest) so dataset seeds are reproducible across machines.
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--seed=", 0) == 0) {
      g_seed = std::stoull(a.substr(7));
      continue;
    }
    if (a == "--seed" && i + 1 < argc) {
      g_seed = std::stoull(argv[++i]);
      continue;
    }
    args.push_back(argv[i]);
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
