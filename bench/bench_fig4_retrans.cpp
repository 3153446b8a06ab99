// Reproduces the Figure 4 mechanics: holding a client request back for
// progressively longer triggers duplicate-ACK-driven fast retransmits of the
// held request and, past the stall threshold, browser re-requests; the
// duplicate copies intensify the multiplexing of the subsequent object.

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
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 40);
  bench::SweepSession sweep("bench_fig4_retrans");

  // Note: duplicate object copies under pure jitter arrive mostly through
  // TCP-bundled retransmissions of held request bytes (several GETs per
  // segment), which the wire count below captures; browser-level reissues
  // need a fully quiet connection and the staggered holds rarely leave one.
  TablePrinter table({"hold per request", "TCP retransmissions", "browser reissues",
                      "html copies (mean)", "requests spaced (refined mode)"});
  const int holds_ms[] = {0, 50, 150, 300, 600};
  for (const int hold : holds_ms) {
    experiment::TrialConfig proto;
    if (hold > 0) {
      proto.attack = experiment::jitter_only_config(sim::Duration::millis(hold));
      proto.attack.suppress_request_retransmissions = false;
    }
    const auto results =
        sweep.run("faithful hold=" + std::to_string(hold) + "ms",
                  bench::seed_sweep(proto, 80000, trials));

    std::vector<double> tcp_retrans, reissues, copies, suppressed;
    for (const auto& r : results) {
      if (!r.page_complete) continue;
      tcp_retrans.push_back(static_cast<double>(r.tcp_retransmits));
      reissues.push_back(static_cast<double>(r.browser_reissues));
      copies.push_back(static_cast<double>(r.interest[0].copies));
      suppressed.push_back(0);
    }
    // Refined adversary comparison (suppression counter).
    if (hold > 0) {
      experiment::TrialConfig refined = proto;
      refined.attack.suppress_request_retransmissions = true;
      const auto refined_results =
          sweep.run("refined hold=" + std::to_string(hold) + "ms",
                    bench::seed_sweep(refined, 80000, trials));
      for (const auto& r : refined_results) {
        if (!r.page_complete) continue;
        // adversary_drops counts targeted s2c drops; suppression is separate.
        suppressed.push_back(static_cast<double>(r.requests_spaced));
      }
    }
    table.add_row({std::to_string(hold) + " ms",
                   TablePrinter::fmt(analysis::mean(tcp_retrans), 1),
                   TablePrinter::fmt(analysis::mean(reissues), 1),
                   TablePrinter::fmt(analysis::mean(copies), 2),
                   TablePrinter::fmt(analysis::mean(suppressed), 1)});
  }
  table.print("Figure 4: request holds -> retransmissions and duplicate copies (" +
              std::to_string(trials) + " downloads per row)");
  return 0;
}
