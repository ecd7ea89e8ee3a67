// Figure 16: effect of dataset cardinality n (IND, d = 4, k = 20) on
// SP / CP / FP — CPU time and simulated I/O time.
// Paper setting: n in {0.5M, 1M, 5M, 10M, 20M}.
#include "bench_util.h"

using namespace gir;
using namespace gir::bench;

int main(int argc, char** argv) {
  Params params;
  FlagSet flags;
  params.Register(&flags);
  int64_t dim = 4;
  flags.AddInt("d", &dim, "dimensionality");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  params.ApplyFullDefaults();

  std::vector<int64_t> ns = {25000, 50000, 100000, 200000, 400000};
  if (params.full) ns = {500000, 1000000, 5000000, 10000000, 20000000};

  std::printf("Figure 16: effect of cardinality (IND, d=%lld, k=%lld, "
              "%lld queries)\n",
              static_cast<long long>(dim), static_cast<long long>(params.k),
              static_cast<long long>(params.queries));

  std::vector<std::vector<double>> cpu, io;
  for (int64_t n : ns) {
    Dataset data = MakeNamedDataset("IND", n, dim, params.seed);
    DiskManager disk;
    auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
        &data, &disk, MakeScoring("Linear", dim), PaperOptions()));
    std::vector<double> cpu_row, io_row;
    for (Phase2Method m :
         {Phase2Method::kCP, Phase2Method::kSP, Phase2Method::kFP}) {
      Rng rng(params.seed * 3 + n);
      MethodCost c = MeasureGir(*engine, m, params.k,
                                static_cast<int>(params.queries), rng);
      cpu_row.push_back(c.ok ? c.cpu_ms : -1.0);
      io_row.push_back(c.ok ? c.io_ms : -1.0);
    }
    cpu.push_back(cpu_row);
    io.push_back(io_row);
  }
  PrintTitle("Figure 16(a): CPU time (ms) vs n");
  PrintHeader("n", {"CP", "SP", "FP"});
  for (size_t i = 0; i < ns.size(); ++i) PrintRow(ns[i], cpu[i]);
  PrintTitle("Figure 16(b): I/O time (ms) vs n");
  PrintHeader("n", {"CP", "SP", "FP"});
  for (size_t i = 0; i < ns.size(); ++i) PrintRow(ns[i], io[i]);
  std::printf("\nExpected shape: all methods grow with n; FP scales far "
              "better (orders of magnitude less I/O than SP/CP).\n");
  return 0;
}
