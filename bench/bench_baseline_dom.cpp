// Reproduces the paper's Section IV baseline numbers: with no adversary, the
// result HTML is multiplexed with a DoM of ~98% and the emblem images show
// DoM in the 80-99% range; only ~32% of downloads leave the HTML
// non-multiplexed (Table I row 1).

#include <algorithm>
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
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 100);
  bench::SweepSession sweep("bench_baseline_dom");

  experiment::TrialConfig proto;
  proto.attack.enabled = false;
  const auto results =
      sweep.run("baseline", bench::seed_sweep(proto, 1000, trials));

  std::vector<double> html_dom;
  std::vector<bool> html_not_muxed;
  std::vector<double> emblem_dom_min, emblem_dom_max;
  std::vector<double> retrans;

  for (const auto& r : results) {
    if (!r.page_complete) continue;

    html_dom.push_back(r.interest[0].primary_dom * 100);
    html_not_muxed.push_back(r.interest[0].primary_serialized);
    double lo = 100, hi = 0;
    for (int j = 1; j <= 8; ++j) {
      const double d = r.interest[static_cast<std::size_t>(j)].primary_dom * 100;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    emblem_dom_min.push_back(lo);
    emblem_dom_max.push_back(hi);
    retrans.push_back(static_cast<double>(r.wire_retransmissions()));
  }

  using experiment::TablePrinter;
  TablePrinter table({"metric", "paper", "measured"});
  table.add_row({"HTML degree of multiplexing (mean)", "~98%",
                 TablePrinter::pct(analysis::mean(html_dom), 1)});
  table.add_row({"HTML not multiplexed (share of downloads)", "32%",
                 TablePrinter::pct(analysis::percent_true(html_not_muxed), 0)});
  table.add_row({"emblem DoM range (mean of per-trial min)", ">=80%",
                 TablePrinter::pct(analysis::mean(emblem_dom_min), 1)});
  table.add_row({"emblem DoM range (mean of per-trial max)", "<=99%",
                 TablePrinter::pct(analysis::mean(emblem_dom_max), 1)});
  table.add_row({"baseline wire retransmissions (mean/download)", "(reference)",
                 TablePrinter::fmt(analysis::mean(retrans), 1)});
  table.print("Section IV baseline: HTTP/2 multiplexing with no adversary (" +
              std::to_string(html_dom.size()) + " downloads)");
  return 0;
}
