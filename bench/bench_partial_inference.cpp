// Ablation for the paper's §VII extension: partial-multiplexing inference.
// With NO adversary, the classic detector identifies almost nothing (the
// emblems multiplex); the subset-sum region explainer recovers the identity
// SET (though not the order) from region byte totals. With the full attack,
// both work — order included.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/partial.hpp"
#include "analysis/stats.hpp"
#include "cli_args.hpp"
#include "experiment/harness.hpp"
#include "experiment/table_printer.hpp"
#include "sweep_util.hpp"

namespace {

struct Scores {
  std::vector<double> direct;   // emblems found by direct size match (of 8)
  std::vector<double> partial;  // emblems found including subset-sum (of 8)
};

Scores run_mode(h2sim::bench::SweepSession& sweep, bool attack_on, int trials) {
  using namespace h2sim;
  experiment::TrialConfig proto;
  proto.attack = attack_on ? experiment::full_attack_config()
                           : experiment::TrialConfig::default_attack_off();

  analysis::SizeIdentityDb emblems;
  for (int k = 0; k < 8; ++k) {
    emblems.add("party" + std::to_string(k),
                proto.site.emblem_sizes[static_cast<std::size_t>(k)]);
  }

  auto cfgs = bench::seed_sweep(proto, 46000, trials);
  // One detection slot per trial: the inspectors run on worker threads, so
  // each closure may only write its own index.
  std::vector<std::vector<analysis::DetectedObject>> detections(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].trace_inspector = [&detections, i](const analysis::PacketTrace& t) {
      detections[i] = analysis::detect_objects(t);
    };
  }
  const auto results =
      sweep.run(attack_on ? "full-attack" : "no-adversary", cfgs);

  Scores s;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (!r.page_complete && !attack_on) continue;

    auto count_found = [&](const std::vector<std::string>& labels) {
      int found = 0;
      for (int k = 0; k < 8; ++k) {
        const std::string want = "party" + std::to_string(k);
        for (const auto& l : labels) {
          if (l == want) {
            ++found;
            break;
          }
        }
      }
      return found;
    };

    std::vector<std::string> direct_labels;
    for (const auto& d : detections[i]) {
      if (const auto m = emblems.identify(d.size_estimate)) {
        direct_labels.push_back(m->label);
      }
    }
    const auto partial = analysis::infer_objects_partial(detections[i], emblems);
    s.direct.push_back(count_found(direct_labels));
    s.partial.push_back(count_found(partial.labels));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace h2sim;
  using experiment::TablePrinter;
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 30);
  bench::SweepSession sweep("bench_partial_inference");

  const Scores base = run_mode(sweep, false, trials);
  const Scores attacked = run_mode(sweep, true, trials);

  TablePrinter table({"scenario", "direct size match (of 8)",
                      "with §VII partial inference (of 8)"});
  table.add_row({"no adversary (multiplexed)",
                 TablePrinter::fmt(analysis::mean(base.direct), 2),
                 TablePrinter::fmt(analysis::mean(base.partial), 2)});
  table.add_row({"full attack (serialized)",
                 TablePrinter::fmt(analysis::mean(attacked.direct), 2),
                 TablePrinter::fmt(analysis::mean(attacked.partial), 2)});
  table.print("§VII ablation: partial-multiplexing inference (" +
              std::to_string(trials) + " downloads per row)");
  std::printf("\npartial inference narrows the identity set even under\n"
              "multiplexing (the paper's 'preliminary experiments suggest this\n"
              "is indeed possible'), but only serialization recovers the order.\n");
  return 0;
}
