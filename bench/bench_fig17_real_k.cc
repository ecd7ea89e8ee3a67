// Figure 17: effect of k on the real datasets (HOTEL and HOUSE
// stand-ins) — CPU time and simulated I/O time for SP / CP / FP.
// Paper setting: k in {5, 10, 20, 50, 100}, native cardinalities.
#include "bench_util.h"

using namespace gir;
using namespace gir::bench;

int main(int argc, char** argv) {
  Params params;
  FlagSet flags;
  params.Register(&flags);
  int64_t real_n = 60000;
  flags.AddInt("real-n", &real_n,
               "records drawn from each real-data simulator (0 = native)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  if (params.full) {
    real_n = 0;
    params.queries = 100;
  }

  const std::vector<int64_t> ks = {5, 10, 20, 50, 100};
  struct RealSet {
    const char* name;
    size_t native;
    size_t dim;
    const char* cpu_panel;
    const char* io_panel;
  };
  const RealSet sets[2] = {{"HOTEL", 418843, 4, "17(a)", "17(b)"},
                           {"HOUSE", 315265, 6, "17(c)", "17(d)"}};

  for (const RealSet& rs : sets) {
    size_t n = real_n == 0 ? rs.native : static_cast<size_t>(real_n);
    std::printf("\nFigure 17 [%s]: n=%zu, d=%zu, %lld queries\n", rs.name, n,
                rs.dim, static_cast<long long>(params.queries));
    Dataset data = MakeNamedDataset(rs.name, n, rs.dim, params.seed);
    DiskManager disk;
    auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
        &data, &disk, MakeScoring("Linear", rs.dim), PaperOptions()));
    std::vector<std::vector<double>> cpu, io;
    for (int64_t k : ks) {
      std::vector<double> cpu_row, io_row;
      for (Phase2Method m :
           {Phase2Method::kCP, Phase2Method::kSP, Phase2Method::kFP}) {
        Rng rng(params.seed + 13 * k);
        MethodCost c = MeasureGir(*engine, m, k,
                                  static_cast<int>(params.queries), rng);
        cpu_row.push_back(c.ok ? c.cpu_ms : -1.0);
        io_row.push_back(c.ok ? c.io_ms : -1.0);
      }
      cpu.push_back(cpu_row);
      io.push_back(io_row);
    }
    PrintTitle(std::string("Figure ") + rs.cpu_panel + ": CPU time (ms), " +
               rs.name);
    PrintHeader("k", {"CP", "SP", "FP"});
    for (size_t i = 0; i < ks.size(); ++i) PrintRow(ks[i], cpu[i]);
    PrintTitle(std::string("Figure ") + rs.io_panel + ": I/O time (ms), " +
               rs.name);
    PrintHeader("k", {"CP", "SP", "FP"});
    for (size_t i = 0; i < ks.size(); ++i) PrintRow(ks[i], io[i]);
  }
  std::printf("\nExpected shape: CPU grows with k for all; FP I/O slightly "
              "decreases with k; SP/CP I/O rises with k on HOUSE (skyline "
              "widens) but not on HOTEL.\n");
  return 0;
}
