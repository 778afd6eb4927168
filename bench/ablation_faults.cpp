// Ablation: fault injection vs the optimization levels.
//
// Sweeps the per-link drop probability (with matching duplicate/reorder/
// corrupt rates riding along) over the 2-D array microbenchmark at every
// paper optimization level and reports the virtual makespan.  Two things
// to read off the table:
//
//  * correctness — the application check value never moves: the session
//    ARQ plus the receive-side dedup window mask every injected fault, at
//    every optimization level, so the columns only get *slower*, never
//    wrong;
//  * proportion — the optimized levels send the same number of frames but
//    far fewer bytes, so the absolute retransmit tax shrinks with the
//    same optimizations that shrink the healthy runtime.
#include <cstdio>

#include "apps/microbench.hpp"
#include "bench/bench_common.hpp"

using namespace rmiopt;

namespace {

apps::RunResult run_at(codegen::OptLevel level, double drop) {
  apps::ArrayBenchConfig cfg;
  cfg.iterations = 50;
  cfg.env.faults.seed = 1234;
  cfg.env.faults.default_link.drop = drop;
  cfg.env.faults.default_link.duplicate = drop / 2;
  cfg.env.faults.default_link.reorder = drop / 2;
  cfg.env.faults.default_link.corrupt = drop / 4;
  return apps::run_array_bench(level, cfg);
}

}  // namespace

int main() {
  constexpr double kRates[] = {0.0, 0.02, 0.05, 0.10, 0.20};

  std::printf(
      "fault sweep: 16x16 double[][] x50, seeded drop/dup/reorder/corrupt\n"
      "(cells: virtual makespan in ms; check value verified unchanged)\n\n");
  TextTable t({"drop rate", "class", "site", "site+cycle", "site+reuse",
               "site+reuse+cycle", "retrans", "faults"});
  double baseline_check = -1.0;
  for (const double rate : kRates) {
    std::vector<std::string> row{fmt_fixed(rate, 2)};
    std::uint64_t retrans = 0, faults = 0;
    for (codegen::OptLevel level : codegen::kPaperLevels) {
      const apps::RunResult r = run_at(level, rate);
      if (baseline_check < 0) baseline_check = r.check;
      RMIOPT_CHECK(r.check == baseline_check,
                   "fault injection changed an application result");
      row.push_back(fmt_fixed(r.makespan.as_seconds() * 1e3, 3));
      retrans += r.net.retransmits;
      faults += r.net.faults();
    }
    row.push_back(std::to_string(retrans));
    row.push_back(std::to_string(faults));
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Every cell completed with the same application check value: the ARQ\n"
      "and dedup window mask the injected faults; they only cost time.\n");
  return 0;
}
