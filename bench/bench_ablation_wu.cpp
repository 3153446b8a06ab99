// Ablation: what fuels the paper's fast-retransmit storm? The client's
// WINDOW_UPDATE cadence. Held GETs are only fast-retransmitted after the
// server dup-ACKs them, and dup-ACKs need subsequent client payload packets
// — which, during a page load, are almost exclusively WINDOW_UPDATE frames.
// Sweeping the client's connection-level WINDOW_UPDATE batch size under the
// 50 ms jitter adversary (paper-faithful controller) shows the storm grow as
// the client gets chattier.

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
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 30);
  bench::SweepSession sweep("bench_ablation_wu");

  TablePrinter table({"client WU batch", "wire retransmissions (mean)",
                      "html not multiplexed", "broken"});
  for (const std::size_t batch : {4096u, 16384u, 32768u, 131072u, 1048576u}) {
    experiment::TrialConfig proto;
    proto.attack = experiment::jitter_only_config(sim::Duration::millis(50));
    proto.attack.suppress_request_retransmissions = false;  // paper-faithful
    proto.client_h2.window_update_batch = batch;
    const auto results =
        sweep.run("wu_batch=" + std::to_string(batch),
                  bench::seed_sweep(proto, 47000, trials));

    std::vector<double> retrans;
    std::vector<bool> nomux;
    int broken = 0;
    for (const auto& r : results) {
      if (!r.page_complete) {
        ++broken;
        continue;
      }
      retrans.push_back(static_cast<double>(r.wire_retransmissions()));
      nomux.push_back(r.interest[0].any_copy_serialized);
    }
    table.add_row({std::to_string(batch / 1024) + " KiB",
                   TablePrinter::fmt(analysis::mean(retrans), 1),
                   TablePrinter::pct(analysis::percent_true(nomux), 0),
                   std::to_string(broken)});
  }
  table.print("Ablation: WINDOW_UPDATE cadence vs the fast-retransmit storm (" +
              std::to_string(trials) + " downloads per row, jitter 50 ms)");
  std::printf("\na chattier client (small batches) hands the adversary's holds\n"
              "more dup-ACK fuel; a quieter client starves the storm and the\n"
              "jitter serializes cleanly — the paper's Table I sits in between.\n");
  return 0;
}
