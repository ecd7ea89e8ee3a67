// Batch GIR server scenario: a front-end accumulates user top-k
// requests into ticks and hands each tick to BatchEngine, which fans
// the queries across a thread pool and serves repeat preferences from
// the sharded GIR cache without touching the R-tree. The cache persists
// across ticks, so the serving cost drops as the preference clusters
// get covered — the paper's result-caching application at batch scale.
#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/batch_engine.h"

int main() {
  using namespace gir;
  const size_t n = 40000;
  const size_t d = 3;
  const size_t k = 10;
  Rng rng(2014);
  Dataset data = GenerateCorrelated(n, d, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));

  BatchOptions options;
  options.threads = 4;
  options.cache_capacity = 512;
  BatchEngine server(engine.get(), options);

  // Preference archetypes with per-user jitter: "quality seeker",
  // "bargain hunter", ... — the clustered traffic a recommender sees.
  std::vector<Vec> archetypes = {
      {0.9, 0.3, 0.4}, {0.2, 0.8, 0.5}, {0.5, 0.5, 0.5}, {0.3, 0.4, 0.9}};
  const double jitter = 0.02;

  const int ticks = 6;
  const size_t batch_size = 128;
  std::printf("batch server: %zu workers, cache %zu GIRs x %zu shards, "
              "%zu queries/tick\n\n",
              server.threads(), options.cache_capacity,
              server.cache().shard_count(), batch_size);
  std::printf("%-6s %10s %10s %10s %10s %10s %10s\n", "tick", "wall_ms",
              "qps", "hit_rate", "p50_ms", "p99_ms", "reads");

  for (int tick = 0; tick < ticks; ++tick) {
    std::vector<Vec> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      const Vec& base = archetypes[rng.UniformInt(archetypes.size())];
      Vec q(d);
      for (size_t j = 0; j < d; ++j) {
        q[j] = std::clamp(base[j] + rng.Gaussian(0.0, jitter), 0.01, 1.0);
      }
      batch.push_back(std::move(q));
    }
    Result<BatchResult> r = server.ComputeBatch(batch, k, Phase2Method::kFP);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%-6d %10.2f %10.0f %9.1f%% %10.3f %10.3f %10llu\n", tick,
                r->stats.wall_ms, r->stats.QueriesPerSecond(),
                100.0 * r->stats.HitRate(), r->stats.p50_ms, r->stats.p99_ms,
                static_cast<unsigned long long>(r->stats.total_reads));
  }

  const ShardedGirCache& cache = server.cache();
  std::printf("\ncache after %d ticks: %zu resident GIRs, %llu exact hits, "
              "%llu partial, %llu misses\n",
              ticks, cache.size(),
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.partial_hits()),
              static_cast<unsigned long long>(cache.misses()));
  std::printf("a cache hit returns the full ranked top-%zu with zero index "
              "I/O and zero GIR computation\n", k);
  return 0;
}
