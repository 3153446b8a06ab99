// Reproduces Table I: effect of per-request jitter (spacing 0/25/50/100 ms)
// on (a) the share of downloads where the object of interest (the result
// HTML, the 6th GET) is not multiplexed and (b) the increase in wire
// retransmissions relative to the no-jitter baseline.
//
// Two adversary variants are reported:
//  - "faithful": the paper's controller. Client TCP fast-retransmits of held
//    requests race past the holds, bundling several GETs into one packet and
//    re-multiplexing the objects — the storm behind the paper's plateau at
//    54 %.
//  - "refined": additionally drops TCP retransmissions of requests still
//    being held (the paper's §VII "trigger the packet drops accurately"
//    improvement), which keeps serialization effective at high jitter.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "cli_args.hpp"
#include "experiment/harness.hpp"
#include "experiment/table_printer.hpp"
#include "sweep_util.hpp"

namespace {

struct Series {
  std::vector<double> nomux_pct;
  std::vector<double> retrans_mean;
  std::vector<int> broken;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace h2sim;
  using experiment::TablePrinter;
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 100);
  bench::SweepSession sweep("bench_table1_jitter");

  const int jitters_ms[] = {0, 25, 50, 100};
  const char* paper_nomux[] = {"32%", "46%", "54%", "54%"};
  const char* paper_retrans[] = {"baseline", "+33%", "+130%", "+194%"};

  Series faithful, refined;
  for (const bool suppress : {false, true}) {
    Series& out = suppress ? refined : faithful;
    for (const int jitter : jitters_ms) {
      experiment::TrialConfig proto;
      if (jitter == 0) {
        proto.attack = experiment::TrialConfig::default_attack_off();
      } else {
        proto.attack = experiment::jitter_only_config(sim::Duration::millis(jitter));
        proto.attack.suppress_request_retransmissions = suppress;
      }
      const auto cfgs = bench::seed_sweep(proto, 42000, trials);
      const auto results = sweep.run(
          (suppress ? "refined jitter=" : "faithful jitter=") +
              std::to_string(jitter) + "ms",
          cfgs);

      std::vector<bool> nomux;
      std::vector<double> retrans;
      int broken = 0;
      for (const auto& r : results) {
        if (r.connection_broken || !r.page_complete) {
          ++broken;
          continue;  // the paper counts completed downloads
        }
        nomux.push_back(r.interest[0].any_copy_serialized);
        retrans.push_back(static_cast<double>(r.wire_retransmissions()));
      }
      out.nomux_pct.push_back(analysis::percent_true(nomux));
      out.retrans_mean.push_back(analysis::mean(retrans));
      out.broken.push_back(broken);
    }
  }

  TablePrinter table({"jitter", "not muxed (paper)", "not muxed (faithful)",
                      "not muxed (refined)", "retrans (paper)",
                      "retrans incr (faithful)", "retrans incr (refined)",
                      "broken f/r"});
  for (std::size_t i = 0; i < 4; ++i) {
    auto incr = [&](const Series& s) {
      if (i == 0 || s.retrans_mean[0] <= 0) return std::string("baseline");
      return "+" + TablePrinter::pct(100.0 * (s.retrans_mean[i] - s.retrans_mean[0]) /
                                         s.retrans_mean[0],
                                     0);
    };
    table.add_row({std::to_string(jitters_ms[i]) + " ms", paper_nomux[i],
                   TablePrinter::pct(faithful.nomux_pct[i], 0),
                   TablePrinter::pct(refined.nomux_pct[i], 0), paper_retrans[i],
                   incr(faithful), incr(refined),
                   std::to_string(faithful.broken[i]) + "/" +
                       std::to_string(refined.broken[i])});
  }
  table.print("Table I: effect of jitter on HTTP/2 multiplexing (" +
              std::to_string(trials) + " downloads per cell)");

  std::printf("\nabsolute mean wire retransmissions per download:\n");
  for (std::size_t i = 0; i < 4; ++i) {
    std::printf("  %3d ms: faithful %.1f, refined %.1f\n", jitters_ms[i],
                faithful.retrans_mean[i], refined.retrans_mean[i]);
  }
  return 0;
}
