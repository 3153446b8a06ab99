// Reproduces Section IV-A (negative result): adding a *uniform* delay to
// every packet on the client->server path shifts all request arrivals by the
// same amount but cannot increase their inter-arrival spacing, so the degree
// of multiplexing is unchanged. (Jitter — unequal delays — is what works.)

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
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 60);
  bench::SweepSession sweep("bench_secIVA_delay");

  TablePrinter table({"uniform extra delay", "html DoM (mean)",
                      "html not multiplexed", "page load time (mean)"});
  for (const int delay_ms : {0, 10, 25, 50, 100}) {
    experiment::TrialConfig proto;
    proto.attack.enabled = false;
    // Uniform delay on the client-side links (both directions).
    proto.path.client_side.delay =
        sim::Duration::millis(2) + sim::Duration::millis(delay_ms);
    const auto results =
        sweep.run("delay=" + std::to_string(delay_ms) + "ms",
                  bench::seed_sweep(proto, 70000, trials));

    std::vector<double> dom, load;
    std::vector<bool> nomux;
    for (const auto& r : results) {
      if (!r.page_complete) continue;
      dom.push_back(r.interest[0].primary_dom * 100);
      nomux.push_back(r.interest[0].primary_serialized);
      load.push_back(r.page_load_seconds);
    }
    table.add_row({std::to_string(delay_ms) + " ms",
                   TablePrinter::pct(analysis::mean(dom), 1),
                   TablePrinter::pct(analysis::percent_true(nomux), 0),
                   TablePrinter::fmt(analysis::mean(load), 2) + " s"});
  }
  table.print("Section IV-A: uniform delay does not affect multiplexing (" +
              std::to_string(trials) + " downloads per row)");
  std::printf("\npaper: uniform delay cannot increase inter-arrival spacing at\n"
              "the server, so it is useless to the adversary.\n");
  return 0;
}
