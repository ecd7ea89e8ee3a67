// Figure 19: non-linear scoring functions (SP on the HOTEL stand-in) —
// CPU and simulated I/O time vs k for Polynomial / Mixed / Linear
// scoring (all of the sum-of-monotone-terms family, §7.2).
#include "bench_util.h"

using namespace gir;
using namespace gir::bench;

int main(int argc, char** argv) {
  Params params;
  FlagSet flags;
  params.Register(&flags);
  int64_t real_n = 60000;
  flags.AddInt("real-n", &real_n,
               "records drawn from the HOTEL simulator (0 = native)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  if (params.full) {
    real_n = 0;
    params.queries = 100;
  }

  const size_t n = real_n == 0 ? 418843 : static_cast<size_t>(real_n);
  const std::vector<int64_t> ks = {5, 10, 20, 50, 100};
  const std::vector<std::string> functions = {"Polynomial", "Mixed",
                                              "Linear"};
  std::printf("Figure 19: non-linear scoring, SP on HOTEL sim "
              "(n=%zu, %lld queries)\n",
              n, static_cast<long long>(params.queries));

  Dataset data = MakeNamedDataset("HOTEL", n, 4, params.seed);
  std::vector<std::vector<double>> cpu, io;
  for (int64_t k : ks) {
    std::vector<double> cpu_row, io_row;
    for (const std::string& fn : functions) {
      DiskManager disk;
      auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
          &data, &disk, MakeScoring(fn, 4), PaperOptions()));
      Rng rng(params.seed + 13 * k);
      MethodCost c = MeasureGir(*engine, Phase2Method::kSP, k,
                                static_cast<int>(params.queries), rng);
      cpu_row.push_back(c.ok ? c.cpu_ms : -1.0);
      io_row.push_back(c.ok ? c.io_ms : -1.0);
    }
    cpu.push_back(cpu_row);
    io.push_back(io_row);
  }
  PrintTitle("Figure 19(a): SP CPU time (ms) vs k");
  PrintHeader("k", {"Polynomial", "Mixed", "Linear"});
  for (size_t i = 0; i < ks.size(); ++i) PrintRow(ks[i], cpu[i]);
  PrintTitle("Figure 19(b): SP I/O time (ms) vs k");
  PrintHeader("k", {"Polynomial", "Mixed", "Linear"});
  for (size_t i = 0; i < ks.size(); ++i) PrintRow(ks[i], io[i]);
  std::printf("\nExpected shape: SP costs are similar across function "
              "families (skyline computation is function-agnostic).\n");
  return 0;
}
