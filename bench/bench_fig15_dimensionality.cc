// Figure 15: effect of dimensionality d on SP / CP / FP for the three
// synthetic distributions — CPU time and (simulated) I/O time.
// Paper setting: n = 1M, k = 20, d in {2..8}, 100 queries.
#include "bench_util.h"

using namespace gir;
using namespace gir::bench;

int main(int argc, char** argv) {
  Params params;
  params.n = 50000;
  FlagSet flags;
  params.Register(&flags);
  int64_t dmax = 5;
  flags.AddInt("dmax", &dmax, "largest dimensionality to test");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  params.ApplyFullDefaults();
  if (params.full) dmax = 8;

  std::printf("Figure 15: effect of d (n=%lld, k=%lld, %lld queries)\n",
              static_cast<long long>(params.n),
              static_cast<long long>(params.k),
              static_cast<long long>(params.queries));

  const std::vector<std::string> dists = {"IND", "COR", "ANTI"};
  const char* panels[3][2] = {{"15(a)", "15(b)"},
                              {"15(c)", "15(d)"},
                              {"15(e)", "15(f)"}};
  for (size_t di = 0; di < dists.size(); ++di) {
    std::vector<std::vector<double>> cpu, io;
    for (int64_t d = 2; d <= dmax; ++d) {
      Dataset data =
          MakeNamedDataset(dists[di], params.n, d, params.seed + d);
      DiskManager disk;
      auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
          &data, &disk, MakeScoring("Linear", d), PaperOptions()));
      std::vector<double> cpu_row, io_row;
      for (Phase2Method m :
           {Phase2Method::kCP, Phase2Method::kSP, Phase2Method::kFP}) {
        Rng rng(params.seed * 3 + d);  // same queries for all methods
        MethodCost c = MeasureGir(*engine, m, params.k,
                                  static_cast<int>(params.queries), rng);
        cpu_row.push_back(c.ok ? c.cpu_ms : -1.0);
        io_row.push_back(c.ok ? c.io_ms : -1.0);
      }
      cpu.push_back(cpu_row);
      io.push_back(io_row);
    }
    PrintTitle(std::string("Figure ") + panels[di][0] + ": CPU time (ms), " +
               dists[di]);
    PrintHeader("d", {"CP", "SP", "FP"});
    for (int64_t d = 2; d <= dmax; ++d) PrintRow(d, cpu[d - 2]);
    PrintTitle(std::string("Figure ") + panels[di][1] + ": I/O time (ms), " +
               dists[di]);
    PrintHeader("d", {"CP", "SP", "FP"});
    for (int64_t d = 2; d <= dmax; ++d) PrintRow(d, io[d - 2]);
  }
  std::printf("\nExpected shape: FP fastest in CPU and I/O everywhere; SP "
              "runner-up; CP pays its hull in CPU; SP and CP share I/O.\n");
  return 0;
}
