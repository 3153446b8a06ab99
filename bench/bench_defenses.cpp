// Defense shoot-out: the serialization attack (full pipeline) against the
// classic size-channel defenses the paper's introduction surveys, plus its
// own §VII suggestion. Reports attack accuracy vs. the overhead each defense
// pays — quantifying the "unreasonable CPU and bandwidth overheads" claim.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "cli_args.hpp"
#include "defense/defenses.hpp"
#include "experiment/harness.hpp"
#include "experiment/table_printer.hpp"
#include "sweep_util.hpp"

namespace {

struct DefenseRow {
  const char* name;
  std::size_t pad_quantum;
  int dummies;
  bool randomize_order;
  bool random_scheduler = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace h2sim;
  using experiment::TablePrinter;
  const int trials = examples::CliArgs(argc, argv, "[trials]").trials(1, 30);
  bench::SweepSession sweep("bench_defenses");

  const DefenseRow rows[] = {
      {"none", 0, 0, false},
      {"pad to 2 KiB", 2048, 0, false},
      {"pad to 8 KiB", 8192, 0, false},
      {"pad to 16 KiB", 16384, 0, false},
      {"8 dummy objects", 0, 8, false},
      {"randomized order (§VII)", 0, 0, true},
      {"random frame scheduler", 0, 0, false, true},
      {"pad 8 KiB + dummies + random", 8192, 8, true},
  };

  TablePrinter table({"defense", "positions recovered (of 8)",
                      "distinguishable emblems", "bandwidth overhead",
                      "page load (mean)"});

  for (const DefenseRow& row : rows) {
    experiment::TrialConfig proto;
    proto.attack = experiment::full_attack_config();
    proto.defense.pad_quantum = row.pad_quantum;
    proto.defense.dummy_count = row.dummies;
    proto.browser.randomize_embedded_order = row.randomize_order;
    if (row.random_scheduler) {
      proto.server_h2.scheduler = h2::SchedulerKind::kRandom;
    }
    const auto results =
        sweep.run(row.name, bench::seed_sweep(proto, 52000, trials));

    std::vector<double> positions, load;
    for (const auto& r : results) {
      int pos = 0;
      for (int j = 1; j <= 8; ++j) {
        if (r.success[static_cast<std::size_t>(j)]) ++pos;
      }
      positions.push_back(pos);
      if (r.page_complete) load.push_back(r.page_load_seconds);
    }

    // Static site-level metrics.
    const web::Website original = web::make_isidewith_site();
    web::Website transformed = original;
    double overhead = 0.0;
    if (row.pad_quantum > 1) {
      transformed = defense::pad_site(original, row.pad_quantum);
      overhead = defense::padding_overhead(original, transformed);
    }
    if (row.dummies > 0) {
      sim::Rng rng(1);
      defense::DummyConfig dc;
      dc.count = row.dummies;
      defense::inject_dummies(transformed, rng, dc);
      std::size_t extra = 0, base = 0;
      for (const auto& [p, o] : original.objects()) base += o.size;
      for (const auto& [p, o] : transformed.objects()) extra += o.size;
      overhead = static_cast<double>(extra) / static_cast<double>(base) - 1.0;
    }
    const int unique = defense::distinguishable_emblems(transformed);

    table.add_row({row.name, TablePrinter::fmt(analysis::mean(positions), 2),
                   std::to_string(unique) + "/8",
                   TablePrinter::pct(overhead * 100, 1),
                   TablePrinter::fmt(analysis::mean(load), 1) + " s"});
  }
  table.print("Defenses vs the full serialization attack (" +
              std::to_string(trials) + " downloads per row)");
  std::printf(
      "\npadding defeats identification once size classes collide, at a\n"
      "direct bandwidth cost; dummies and order randomization attack the\n"
      "ordering instead. Note the 'random frame scheduler' row: shuffling\n"
      "HOW the server multiplexes does nothing, because the attack removes\n"
      "multiplexing altogether — the paper's core thesis. This is the\n"
      "trade-off space that made pre-HTTP/2 defenses 'impractical', and why\n"
      "multiplexing looked like a free lunch until this attack.\n");
  return 0;
}
