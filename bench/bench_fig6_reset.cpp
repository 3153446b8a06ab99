// Reproduces Figure 6 / Section IV-D: targeted packet drops force the
// client's RST_STREAM; after the reset, the re-requested object transmits
// single-threaded. The paper reports ~90 % success at an 80 % drop rate and
// broken connections beyond it. We sweep the drop rate to show both the
// plateau and the breakage.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "cli_args.hpp"
#include "experiment/harness.hpp"
#include "experiment/table_printer.hpp"
#include "sweep_util.hpp"

int main(int argc, char** argv) {
  using namespace h2sim;
  using experiment::TablePrinter;
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 100);
  bench::SweepSession sweep("bench_fig6_reset");

  const double rates[] = {0.5, 0.65, 0.8, 0.9, 0.95};

  TablePrinter table({"drop rate", "paper", "success (html serialized+IDed)",
                      "resets seen", "broken connections"});
  for (const double rate : rates) {
    experiment::TrialConfig proto;
    proto.attack = experiment::full_attack_config();
    proto.attack.drop_rate = rate;
    char label[32];
    std::snprintf(label, sizeof(label), "drop=%.0f%%", rate * 100);
    const auto results =
        sweep.run(label, bench::seed_sweep(proto, 60000, trials));

    std::vector<bool> success;
    std::vector<double> resets;
    int broken = 0;
    for (const auto& r : results) {
      if (!r.page_complete) {
        ++broken;
        success.push_back(false);
        continue;
      }
      success.push_back(r.success[0]);
      resets.push_back(static_cast<double>(r.reset_sweeps));
    }
    char row[16];
    std::snprintf(row, sizeof(row), "%.0f%%", rate * 100);
    const char* paper = rate == 0.8 ? "~90% success"
                        : rate > 0.8 ? "broken connection" : "-";
    table.add_row({row, paper,
                   TablePrinter::pct(analysis::percent_true(success), 0),
                   TablePrinter::fmt(analysis::mean(resets), 1),
                   std::to_string(broken)});
  }
  table.print("Figure 6 / §IV-D: targeted packet drops force a stream reset (" +
              std::to_string(trials) + " downloads per point)");
  return 0;
}
