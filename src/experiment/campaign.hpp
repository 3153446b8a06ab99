#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "experiment/harness.hpp"
#include "experiment/sink.hpp"
#include "obs/aggregate.hpp"

namespace h2sim::experiment {

/// One config cell of a campaign grid: a label ("attack=full,pad=256") and
/// the seed-independent TrialConfig it instantiates per seed.
struct CampaignCell {
  std::string label;
  TrialConfig base;
};

/// Campaign manifest: the durable index of a (possibly interrupted) run.
/// Lives at <out_dir>/manifest.json and is replaced atomically (write tmp,
/// rename), so a SIGKILL at any instant leaves either the old or the new
/// manifest — never a torn one. Shard files not listed here are ignored on
/// resume (their wave reruns); listed shards must match their recorded
/// SHA256 or resume refuses to proceed.
struct CampaignManifest {
  std::string config_digest;
  std::uint64_t seed_base = 0;
  std::uint64_t trials_per_cell = 0;
  std::uint64_t wave_seeds = 0;
  std::vector<std::string> cells;
  struct Shard {
    std::string file;  // relative to out_dir, "shard-00012.ndjson"
    std::uint64_t rows = 0;
    std::string sha256;
  };
  std::vector<Shard> shards;  // one per completed wave, in wave order
  /// Informational only — recomputed from the records on resume.
  std::vector<std::string> stopped_cells;
  bool complete = false;

  std::string json() const;
  static std::optional<CampaignManifest> parse(const std::string& text);
};

/// Periodic live-telemetry snapshot (see CampaignOptions::on_report).
struct CampaignReport {
  std::uint64_t trials_done = 0;    // applied to the aggregate, all sessions
  std::uint64_t trials_target = 0;  // shrinks when cells stop early
  double elapsed_seconds = 0.0;     // this session
  double trials_per_sec = 0.0;      // recent completion rate, this session
  double eta_seconds = 0.0;
  std::uint64_t wave = 0;
  /// Per-cell 95% CI half-width of the stop field (label, halfwidth, trials,
  /// stopped) at the last wave boundary.
  struct CellStatus {
    std::string label;
    std::uint64_t trials = 0;
    double ci95 = 0.0;
    bool stopped = false;
  };
  std::vector<CellStatus> cell_status;
};

struct CampaignOptions {
  std::vector<CampaignCell> cells;
  std::uint64_t seed_base = 1;
  std::uint64_t trials_per_cell = 32;

  /// Seeds per cell per wave — the checkpoint/spill granularity: each wave's
  /// records form one NDJSON shard, and kill+resume replays whole shards.
  std::uint64_t wave_seeds = 32;

  int jobs = 0;                 // RunOptions::jobs semantics
  std::string out_dir;          // required; created if missing
  bool resume = false;          // continue from <out_dir>/manifest.json
  bool profile = false;         // enable obs::Profiler per trial; merged
                                // collapsed stacks land in profile.folded

  /// Live telemetry: minimum seconds between reports (0 = wave boundaries
  /// only when on_report is set).
  double report_interval_seconds = 0.0;
  std::function<void(const CampaignReport&)> on_report;

  /// CI-based early stop: when > 0, a cell stops scheduling new waves once
  /// its `ci_stop_field` 95% CI half-width is <= this after at least
  /// `ci_stop_min_trials` trials. Decisions are taken only at wave
  /// boundaries from the canonical aggregate table, so they are a pure
  /// function of the records — an interrupted+resumed campaign stops the
  /// same cells at the same waves as an uninterrupted one.
  double ci_stop_halfwidth = 0.0;
  std::string ci_stop_field = "page_load_seconds";
  std::uint64_t ci_stop_min_trials = 64;

  /// Test knob: end the session (manifest left resumable) after at most
  /// this many freshly run trials. 0 = unlimited.
  std::uint64_t max_trials_this_run = 0;
};

struct CampaignOutcome {
  bool ok = false;
  std::string error;             // set when !ok
  bool complete = false;         // all cells done or stopped
  std::uint64_t trials_run = 0;  // fresh this session
  std::uint64_t trials_total = 0;  // applied to aggregates, all sessions
  obs::AggregateTable aggregates;
  std::string aggregates_path;  // <out_dir>/aggregates.ndjson
  std::string manifest_path;    // <out_dir>/manifest.json
  /// Peak resident set (VmHWM) in kB at the end of the run; 0 where
  /// /proc/self/status is unavailable.
  long peak_rss_kb = 0;
};

/// Runs (or resumes) a campaign: a trials_per_cell x cells grid executed in
/// waves of `wave_seeds` seeds per active cell.
///
/// Determinism / resume equivalence: trial `t` of cell `c` always runs with
/// seed `seed_base + c * 1'000'003 + t` and global index
/// `t * cells.size() + c`. A wave's records are reduced into the canonical
/// per-cell aggregate in ascending global-index order and spilled — in that
/// same order — as one NDJSON shard (doubles as %.17g, so the file is a
/// lossless encoding of the reduction's inputs). Early-stop decisions read
/// only the canonical table at wave boundaries. Resume replays the
/// manifest's shards wave by wave (verifying SHA256s), re-deriving the same
/// table and the same stop decisions the interrupted run made, then keeps
/// running — so the final aggregates.ndjson is byte-identical to an
/// uninterrupted run's, which the campaign CI job asserts with `cmp`.
///
/// Memory is bounded by (cells x wave_seeds) in-flight records plus the
/// per-cell accumulators — never by trials_per_cell.
CampaignOutcome run_campaign(const CampaignOptions& opts);

/// VmHWM in kB from /proc/self/status; 0 when unavailable.
long peak_rss_kb();

}  // namespace h2sim::experiment
