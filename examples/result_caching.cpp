// GIR-based result caching (paper §1): cache each computed top-k result
// together with its GIR; a later query whose weight vector falls inside
// a cached GIR is answered without touching the index at all. This
// example simulates a workload of users with clustered preferences
// ("archetypes" with personal jitter) and reports hit rates and saved
// I/O — the setting where GIR caching shines.
#include <cstdio>

#include <algorithm>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "gir/sharded_cache.h"

int main() {
  using namespace gir;
  const size_t n = 40000;
  const size_t d = 3;
  const size_t k = 10;
  Rng rng(99);
  Dataset data = GenerateCorrelated(n, d, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
  ShardedGirCache cache(256);
  // The no-cache baseline runs plain top-k on the published frozen
  // image, which every engine has (arena-opened ones have no master
  // tree).
  const GirEngine::PinnedIndex pin = engine->PinIndex();

  // Preference archetypes: "quality seeker", "bargain hunter", ...
  std::vector<Vec> archetypes = {
      {0.9, 0.3, 0.4}, {0.2, 0.8, 0.5}, {0.5, 0.5, 0.5}, {0.3, 0.4, 0.9}};

  const int queries = 400;
  uint64_t reads_with_cache = 0;
  uint64_t reads_without_cache = 0;
  int served_from_cache = 0;
  double jitter = 0.03;

  for (int i = 0; i < queries; ++i) {
    const Vec& base = archetypes[rng.UniformInt(archetypes.size())];
    Vec q(d);
    for (size_t j = 0; j < d; ++j) {
      q[j] = std::clamp(base[j] + rng.Gaussian(0.0, jitter), 0.01, 1.0);
    }
    ShardedGirCache::Lookup hit = cache.Probe(q, k);
    if (hit.kind == ShardedGirCache::HitKind::kExact) {
      ++served_from_cache;  // zero I/O, zero computation
    } else {
      Result<GirComputation> gir = engine->ComputeGir(q, k, Phase2Method::kFP);
      if (!gir.ok()) {
        std::fprintf(stderr, "%s\n", gir.status().ToString().c_str());
        return 1;
      }
      reads_with_cache += gir->stats.topk_reads + gir->stats.phase2_reads;
      cache.Insert(k, gir->topk.result, gir->region);
    }
    // Baseline: every query pays its own top-k I/O.
    Result<TopKResult> plain = RunBrs(*pin.flat, engine->scoring(), q, k);
    if (plain.ok()) reads_without_cache += plain->io.reads;
  }

  std::printf("workload: %d queries, %zu archetypes, jitter %.2f\n", queries,
              archetypes.size(), jitter);
  std::printf("cache:    %d exact hits (%.1f%%), %llu entries resident\n",
              served_from_cache, 100.0 * served_from_cache / queries,
              static_cast<unsigned long long>(cache.size()));
  std::printf("I/O:      %llu page reads with GIR cache vs %llu for plain "
              "re-evaluation\n",
              static_cast<unsigned long long>(reads_with_cache),
              static_cast<unsigned long long>(reads_without_cache));
  std::printf("          (cached queries also skip all GIR/top-k CPU)\n");

  // Tighter preference clusters -> higher hit rates. Show the trend.
  std::printf("\nhit rate vs preference-cluster tightness:\n");
  std::printf("%-10s %s\n", "jitter", "exact-hit rate");
  for (double jit : {0.01, 0.02, 0.05, 0.10}) {
    ShardedGirCache c2(256);
    int hits = 0;
    for (int i = 0; i < 200; ++i) {
      const Vec& base = archetypes[rng.UniformInt(archetypes.size())];
      Vec q(d);
      for (size_t j = 0; j < d; ++j) {
        q[j] = std::clamp(base[j] + rng.Gaussian(0.0, jit), 0.01, 1.0);
      }
      ShardedGirCache::Lookup hit = c2.Probe(q, k);
      if (hit.kind == ShardedGirCache::HitKind::kExact) {
        ++hits;
        continue;
      }
      Result<GirComputation> gir = engine->ComputeGir(q, k, Phase2Method::kFP);
      if (gir.ok()) c2.Insert(k, gir->topk.result, gir->region);
    }
    std::printf("%-10.2f %.1f%%\n", jit, 100.0 * hits / 200);
  }
  return 0;
}
