// perfbench: the repository benchmark. Runs one named workload of the
// paper's staged attack as a closed loop of `jobs` workers for a wall-clock
// budget, checks that the outputs are correct, and prints one JSON line of
// metrics as the last line of stdout (a readable table goes to stderr).
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   perfbench --workload solo_attack|shared_gateway|capture_roundtrip
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             --reference FILE --trace-out FILE [--corrupt-reference]
//
// --trace 0 reports the end-to-end metrics of the untraced run. --trace 1
// splits the budget between an untraced and a traced run and reports the
// per-layer metrics; spans are timed here, around calls into the public
// experiment/capture/analysis API, never inside the simulator. See
// perfbench/README.md for every metric's definition.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/padding.hpp"
#include "analysis/predictor.hpp"
#include "capture/reader.hpp"
#include "defense/policy.hpp"
#include "experiment/campaign.hpp"
#include "experiment/digest.hpp"
#include "experiment/harness.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sink.hpp"
#include "experiment/world.hpp"
#include "obs/aggregate.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"

namespace {

using namespace h2sim;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Seed whose first kReferenceTrials results are pinned in reference.json.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kReferenceTrials = 4;
/// Extra trials, drawn from the run's seed, re-run for the shard-row check.
constexpr std::size_t kSampleExtra = 4;
/// Campaign wave size (h2sim-campaign's default) and the traced run's wave.
constexpr std::size_t kWave = 32;
/// Exact per-layer counts are means over the first kCountTrials trials of
/// the traced run, so they are a pure function of (workload, seed).
constexpr std::size_t kCountTrials = kWave;
constexpr int kSetupRepeats = 5;
/// Warm-up trials use fixed seeds far from any timed seed, so set-up does
/// the same work on every run.
constexpr std::uint64_t kWarmupSeed = 1ULL << 50;
constexpr int kMaxWorkers = 4;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  return v[std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size()) - 1];
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  int background_clients;
  bool capture;
  /// Waves per run_campaign call (or trials per run_trials chunk / kWave):
  /// enough that per-call overhead stays the program's own, few enough that
  /// the run ends close to its budget.
  std::size_t waves_per_chunk;
  /// Warm-up trials per worker: enough that set-up lasts over 0.1 s, so a
  /// few milliseconds of scheduling noise on one worker do not dominate it.
  std::size_t warmup_per_worker;
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"solo_attack", 0, false, 4, 4},
    {"shared_gateway", 7, false, 1, 1},
    {"capture_roundtrip", 0, true, 1, 2},
}};

experiment::TrialConfig base_config(const Workload& w) {
  experiment::TrialConfig cfg;
  cfg.attack = experiment::full_attack_config();
  cfg.load.background_clients = w.background_clients;
  if (w.capture) cfg.defense.padding = defense::PaddingSpec::random_pad(0.25);
  return cfg;
}

// -------------------------------------------------------------------- spans

enum SpanName : std::uint8_t {
  kTrial,
  kSetup,
  kSimulate,
  kEvaluate,
  kRecord,
  kCaptureRead,
  kCaptureReassemble,
  kAnalysisOffline,
  kSpanNames
};

constexpr std::array<const char*, kSpanNames> kSpanLabel = {
    "trial",        "experiment.setup",  "experiment.simulate",
    "experiment.evaluate", "experiment.record", "capture.read",
    "capture.reassemble",  "analysis.offline"};

struct Span {
  SpanName name;
  std::int32_t parent;  // index in the same worker's list, -1 = top level
  std::uint64_t trial;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// One worker's spans, kept in memory until the run ends. Only its own
/// worker thread appends, so no locking.
class WorkerSpans {
 public:
  explicit WorkerSpans(Clock::time_point origin) : origin_(origin) {}

  std::int32_t begin(SpanName name, std::uint64_t trial) {
    spans_.push_back(Span{name, current_, trial, now_ns(), 0});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void end(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a null recorder (the untraced run) reads no clock at all.
class ScopedSpan {
 public:
  ScopedSpan(WorkerSpans* rec, SpanName name, std::uint64_t trial)
      : rec_(rec), id_(rec ? rec->begin(name, trial) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  WorkerSpans* rec_;
  std::int32_t id_;
};

// ------------------------------------------------------------- exact counts

enum CountField : std::size_t {
  kEvents,
  kCascades,
  kSlotsScanned,
  kCancels,
  kAllocs,
  kPoolHits,
  kPoolMisses,
  kLinkDelivered,
  kLinkDrops,
  kTcpSegments,
  kTcpRetransmits,
  kTlsBodyBytes,
  kH2Frames,
  kH2Rst,
  kH2FlowStalls,
  kWebRequests,
  kWebReissues,
  kRecordsObserved,
  kAttackDrops,
  kCaptureBytes,
  kCountFields
};

constexpr std::array<const char*, kCountFields> kCountLabel = {
    "events",         "cascades",         "slots_scanned",   "cancels",
    "allocs",         "pool_hits",        "pool_misses",     "link_delivered",
    "link_drops",     "tcp_segments",     "tcp_retransmits", "tls_body_bytes",
    "h2_frames",      "h2_rst",           "h2_flow_stalls",  "web_requests",
    "web_reissues",   "records_observed", "attack_drops",    "capture_bytes"};

using Counts = std::array<std::uint64_t, kCountFields>;

/// Reads one finished trial's work counts from its metrics registry. The TLS
/// byte count is not in the registry; callers fill it from the trace.
void read_counts(const obs::MetricsRegistry& reg, Counts& c) {
  auto v = [&reg](const char* name) { return reg.counter_value(name); };
  c[kEvents] = v("sim.events_executed");
  c[kCascades] = v("sim.sched.cascades");
  c[kSlotsScanned] = v("sim.sched.slots_scanned");
  c[kCancels] = v("sim.sched.cancels");
  c[kAllocs] = v("sim.alloc.slab_chunks") + v("sim.alloc.callback_heap") +
               v("sim.alloc.heap_growth") + v("sim.alloc.pool_misses");
  c[kPoolHits] = v("sim.alloc.pool_hits");
  c[kPoolMisses] = v("sim.alloc.pool_misses");
  c[kLinkDelivered] = v("net.link_delivered");
  c[kLinkDrops] = v("net.link_drops");
  c[kTcpSegments] = v("tcp.segments_sent");
  c[kTcpRetransmits] = v("tcp.retransmits_fast") + v("tcp.retransmits_rto");
  c[kH2Frames] = v("h2.server.frames_sent") + v("h2.client.frames_sent");
  c[kH2Rst] = v("h2.server.rst_sent") + v("h2.client.rst_sent");
  c[kH2FlowStalls] = v("h2.server.flow_stalls") + v("h2.client.flow_stalls");
  c[kWebRequests] = v("web.requests_sent");
  c[kWebReissues] = v("web.reissues");
  c[kRecordsObserved] = v("attack.records_observed");
  c[kAttackDrops] = v("attack.packets_dropped");
  c[kCaptureBytes] = v("capture.bytes_written");
}

std::uint64_t trace_body_bytes(const analysis::PacketTrace& t) {
  std::uint64_t n = 0;
  for (const analysis::RecordObs& r : t.records()) n += r.body_len;
  return n;
}

// --------------------------------------------------------- offline analysis

/// The adversary's emblem size database, compiled as the live harness does:
/// one entry per wire size the deployed padding policy can serve.
struct OfflineDbs {
  analysis::SizeIdentityDb emblems;
  analysis::SizeEstimator estimator;
};

OfflineDbs make_offline_dbs(const experiment::TrialConfig& base) {
  analysis::SizeIdentityDb emblems;
  const web::Website& site = *base.prebuilt_site;
  const auto policy = defense::make_policy(base.defense.padding);
  for (int k = 0; k < 8; ++k) {
    const std::size_t size =
        site.find(site.emblem_paths[static_cast<std::size_t>(k)])->size;
    const std::string label = "party" + std::to_string(k);
    if (policy) {
      for (const std::size_t c : policy->candidates(size)) emblems.add(label, c);
    } else {
      emblems.add(label, size);
    }
  }
  return OfflineDbs{std::move(emblems), analysis::SizeEstimator(base.defense.padding)};
}

/// The h2sim-analyze path on one trial's capture: read the pcapng, rebuild
/// the gateway record stream, detect objects, rank emblems and invert the
/// padding. The offline record trace must equal the live adversary's and the
/// offline ranking the trial's prediction. Returns the recovered-size sum
/// (kept so the estimator's work is observable), or nullopt with `why`.
std::optional<std::uint64_t> offline_check(
    const std::string& path, const analysis::PacketTrace& live,
    const std::vector<std::string>& predicted, const OfflineDbs& dbs,
    WorkerSpans* spans, std::uint64_t trial, std::string* why) {
  // Callers run on worker threads outside any trial's context; without a
  // context of its own the reader's and monitor's counters would land in the
  // shared process-default registry.
  obs::Context analysis_ctx;
  obs::ScopedContext scope(analysis_ctx);
  capture::PcapReader reader;
  {
    ScopedSpan s(spans, kCaptureRead, trial);
    if (!reader.open(path, why)) return std::nullopt;
  }
  const auto gateway = reader.find_interface("gateway");
  if (!gateway) {
    *why = "capture has no gateway interface";
    return std::nullopt;
  }
  const std::vector<const capture::CapturedPacket*> packets =
      reader.packets_on(*gateway);
  capture::TlsRecordReassembler reassembler;
  {
    ScopedSpan s(spans, kCaptureReassemble, trial);
    reassembler.feed_all(std::span<const capture::CapturedPacket* const>(packets));
  }
  analysis::SequencePrediction pred;
  std::uint64_t recovered = 0;
  {
    ScopedSpan s(spans, kAnalysisOffline, trial);
    const std::vector<analysis::DetectedObject> detections =
        analysis::detect_objects(reassembler.trace());
    pred = analysis::predict_sequence(detections, dbs.emblems);
    for (const analysis::DetectedObject& d : detections) {
      if (dbs.emblems.identify(d.size_estimate)) {
        recovered += dbs.estimator.estimate(d.size_estimate);
      }
    }
  }
  if (!(reassembler.trace().records() == live.records())) {
    *why = "offline record trace differs from the live trace";
    return std::nullopt;
  }
  if (pred.ranking != predicted) {
    *why = "offline ranking differs from TrialResult::predicted";
    return std::nullopt;
  }
  return recovered;
}

// ------------------------------------------------------------------ options

bool read_file(const std::string& path, std::string& out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[1 << 16];
  std::size_t got = 0;
  out.clear();
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string reference;
  std::string trace_out;
  bool corrupt_reference = false;
};

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--corrupt-reference") {
      o.corrupt_reference = true;
      continue;
    }
    if (!(v = value())) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) o.workload = &w;
      }
      if (!o.workload) return false;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (!(o.seconds > 0)) return false;
    } else if (arg == "--trace") {
      o.trace = std::strtol(v, &end, 10) != 0;
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else if (arg == "--reference") {
      o.reference = v;
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return o.workload && !o.work_dir.empty() && !o.reference.empty() &&
         !o.trace_out.empty();
}

// ---------------------------------------------------------------- the bench

/// Failure bookkeeping shared by every phase: per-trial failed flags plus the
/// first few reasons, for the stderr report.
class Failures {
 public:
  void note(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (reasons_.size() < 8) reasons_.push_back(why);
    ++notes_;
  }
  std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reasons_;
  }
  std::size_t notes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return notes_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
  std::size_t notes_ = 0;
};

/// One phase's per-trial outputs, indexed by trial number.
struct PhaseOut {
  std::size_t trials = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<experiment::TrialRecord> records;
  std::vector<std::uint64_t> digests;  // filled where the phase sees results
  std::vector<Counts> counts;          // traced phase only
  std::vector<char> failed;

  void grow(std::size_t n) {
    records.resize(n);
    digests.resize(n, 0);
    counts.resize(n, Counts{});
    failed.resize(n, 0);
  }
  std::size_t failed_count() const {
    return static_cast<std::size_t>(std::count(failed.begin(), failed.end(), 1));
  }
};

class Bench {
 public:
  Bench(const Options& opt, int jobs)
      : opt_(opt),
        w_(*opt.workload),
        jobs_(jobs),
        seed_base_(1 + (splitmix64(opt.seed) >> 24)) {}

  /// Seed-independent preparation: site template and size databases.
  void prepare() {
    tmpl_ = std::make_unique<experiment::ScenarioTemplate>(base_config(w_));
    if (w_.capture) dbs_ = make_offline_dbs(tmpl_->base());
  }

  /// Runs the warm-up trials through the workload's program path.
  bool warm_up(Failures& fails) {
    PhaseOut scratch;
    std::vector<std::string> dirs;
    const std::size_t n = static_cast<std::size_t>(jobs_) * w_.warmup_per_worker;
    const bool ok = run_chunk(0, n, kWarmupSeed, "warmup", scratch, dirs, fails);
    for (const std::string& d : dirs) remove_tree(d);
    return ok && scratch.failed_count() == 0;
  }

  /// The closed-loop timed phase: chunks of the program path back to back
  /// until `seconds` have passed. Shard rows are read after the clock stops.
  PhaseOut run_untraced(double seconds, Failures& fails) {
    PhaseOut out;
    std::vector<std::string> dirs;
    const std::size_t chunk = kWave * w_.waves_per_chunk;
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    std::uint64_t next = 0;
    do {
      run_chunk(next, chunk, seed_base_ + next, "timed", out, dirs, fails);
      next += chunk;
    } while (seconds_since(t0) < seconds);
    out.wall_s = seconds_since(t0);
    out.cpu_s = process_cpu_seconds() - cpu0;
    out.trials = static_cast<std::size_t>(next);
    if (!w_.capture) {
      for (std::size_t k = 0; k < dirs.size(); ++k) {
        read_shards(dirs[k], k * chunk, chunk, out, fails);
      }
    }
    for (const std::string& d : dirs) remove_tree(d);
    return out;
  }

  /// The traced run: the benchmark drives each trial itself exactly as
  /// run_trial does, in waves of kWave with `jobs` workers, timing spans
  /// around each call. Runs at least kCountTrials trials.
  PhaseOut run_traced(double seconds, Failures& fails,
                      std::vector<WorkerSpans>& spans,
                      Clock::time_point origin) {
    PhaseOut out;
    spans.clear();
    for (int j = 0; j < jobs_; ++j) spans.emplace_back(origin);
    const Clock::time_point t0 = Clock::now();
    std::uint64_t first = 0;
    do {
      out.grow(first + kWave);
      std::atomic<std::uint64_t> next{first};
      const std::uint64_t end = first + kWave;
      auto worker = [&](int j) {
        for (;;) {
          const std::uint64_t t = next.fetch_add(1, std::memory_order_relaxed);
          if (t >= end) return;
          traced_trial(t, j, spans[static_cast<std::size_t>(j)], out, fails);
        }
      };
      std::vector<std::thread> pool;
      for (int j = 0; j < jobs_; ++j) pool.emplace_back(worker, j);
      for (std::thread& th : pool) th.join();
      first = end;
    } while (seconds_since(t0) < seconds || first < kCountTrials);
    out.wall_s = seconds_since(t0);
    out.trials = static_cast<std::size_t>(first);
    return out;
  }

  /// Re-runs the given trials untimed on one thread through run_trials (the
  /// program's untraced path), returning their results and exact counts.
  struct Rerun {
    std::vector<experiment::TrialResult> results;
    std::vector<Counts> counts;
  };
  Rerun rerun(const std::vector<std::uint64_t>& trials) {
    Rerun out;
    out.counts.resize(trials.size(), Counts{});
    std::vector<experiment::TrialConfig> cfgs;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      experiment::TrialConfig cfg = tmpl_->instantiate(seed_base_ + trials[i]);
      Counts* slot = &out.counts[i];
      cfg.trace_inspector = [slot](const analysis::PacketTrace& t) {
        (*slot)[kTlsBodyBytes] = trace_body_bytes(t);
      };
      cfgs.push_back(std::move(cfg));
    }
    experiment::RunOptions ro;
    ro.jobs = 1;
    const std::string pattern = opt_.work_dir + "/verify_{index}.pcapng";
    if (w_.capture) ro.capture_path = pattern;
    ro.context_inspector = [&](std::size_t i, const obs::Context& ctx) {
      const std::uint64_t tls = out.counts[i][kTlsBodyBytes];
      read_counts(ctx.metrics, out.counts[i]);
      out.counts[i][kTlsBodyBytes] = tls;
      if (w_.capture) {
        remove_file(experiment::expand_capture_path(pattern, i, cfgs[i].seed,
                                                    cfgs.size()));
      }
    };
    out.results = experiment::run_trials(cfgs, ro);
    return out;
  }

  experiment::TrialRecord record_for(std::uint64_t t,
                                     const experiment::TrialResult& r) const {
    return experiment::make_trial_record(t, tmpl_->instantiate(seed_base_ + t),
                                         w_.name, r);
  }

  const Workload& workload() const { return w_; }
  /// Sum of the offline size estimates over every analysed capture.
  std::uint64_t recovered_bytes() const { return recovered_bytes_.load(); }

 private:
  /// Runs trials [first, first+n) with seeds seed0.. through the workload's
  /// program path: run_campaign for the campaign workloads (the chunk's
  /// output directory is appended to `dirs`), run_trials with capture and an
  /// offline-analysing sink for capture_roundtrip.
  bool run_chunk(std::uint64_t first, std::size_t n, std::uint64_t seed0,
                 const char* tag, PhaseOut& out, std::vector<std::string>& dirs,
                 Failures& fails) {
    out.grow(first + n);
    if (!w_.capture) {
      experiment::CampaignOptions co;
      co.cells.push_back({w_.name, tmpl_->base()});
      co.seed_base = seed0;
      co.trials_per_cell = n;
      co.wave_seeds = std::min<std::size_t>(kWave, n);
      co.jobs = jobs_;
      co.out_dir = opt_.work_dir + "/" + tag + "-" + std::to_string(dirs.size());
      dirs.push_back(co.out_dir);
      const experiment::CampaignOutcome oc = experiment::run_campaign(co);
      if (!oc.ok || !oc.complete || oc.trials_run != n) {
        fails.note("run_campaign failed: " + oc.error);
        std::fill(out.failed.begin() + static_cast<std::ptrdiff_t>(first),
                  out.failed.begin() + static_cast<std::ptrdiff_t>(first + n), 1);
        return false;
      }
      return true;
    }

    std::vector<analysis::PacketTrace> live(n);
    std::vector<experiment::TrialConfig> cfgs;
    cfgs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      experiment::TrialConfig cfg = tmpl_->instantiate(seed0 + i);
      analysis::PacketTrace* slot = &live[i];
      cfg.trace_inspector = [slot](const analysis::PacketTrace& t) { *slot = t; };
      cfgs.push_back(std::move(cfg));
    }
    CaptureSink sink(*this, first, n, live, out, fails);
    experiment::RunOptions ro;
    ro.jobs = jobs_;
    ro.collect_results = false;
    ro.sink = &sink;
    ro.capture_path = sink.pattern();
    experiment::run_trials(cfgs, ro);
    return true;
  }

  /// Analyses and deletes each capture on the worker thread right after its
  /// trial, so at most one capture per worker is on disk.
  class CaptureSink : public experiment::ResultSink {
   public:
    CaptureSink(Bench& b, std::uint64_t first, std::size_t n,
                std::vector<analysis::PacketTrace>& live, PhaseOut& out,
                Failures& fails)
        : b_(b), first_(first), n_(n), live_(live), out_(out), fails_(fails) {}

    std::string pattern() const { return b_.opt_.work_dir + "/cap_{index}.pcapng"; }

    void consume(std::size_t index, const experiment::TrialConfig& cfg,
                 const experiment::TrialResult& r, const obs::Context&) override {
      const std::uint64_t t = first_ + index;
      const std::string path =
          experiment::expand_capture_path(pattern(), index, cfg.seed, n_);
      std::string why;
      const auto ok =
          offline_check(path, live_[index], r.predicted, *b_.dbs_, nullptr, t, &why);
      remove_file(path);
      if (ok) b_.recovered_bytes_ += *ok;
      live_[index] = analysis::PacketTrace{};
      out_.records[t] = experiment::make_trial_record(t, cfg, b_.w_.name, r);
      out_.digests[t] = experiment::result_digest(r);
      if (!ok) {
        out_.failed[t] = 1;
        fails_.note("trial " + std::to_string(t) + ": " + why);
      }
    }

   private:
    Bench& b_;
    std::uint64_t first_;
    std::size_t n_;
    std::vector<analysis::PacketTrace>& live_;
    PhaseOut& out_;
    Failures& fails_;
  };

  void traced_trial(std::uint64_t t, int worker, WorkerSpans& sp, PhaseOut& out,
                    Failures& fails) {
    experiment::TrialConfig cfg = tmpl_->instantiate(seed_base_ + t);
    analysis::PacketTrace live;
    std::uint64_t tls_bytes = 0;
    cfg.trace_inspector = [&](const analysis::PacketTrace& tr) {
      tls_bytes = trace_body_bytes(tr);
      if (w_.capture) live = tr;
    };
    if (w_.capture) {
      cfg.capture.path =
          opt_.work_dir + "/traced_" + std::to_string(worker) + ".pcapng";
    }
    try {
      ScopedSpan trial(&sp, kTrial, t);
      experiment::TrialResult r;
      {
        obs::Context ctx;
        obs::ScopedContext scope(ctx);
        obs::metrics().reset();
        obs::tracer().clear();
        std::optional<experiment::TrialWorld> world;
        {
          ScopedSpan s(&sp, kSetup, t);
          world.emplace(cfg);
        }
        {
          ScopedSpan s(&sp, kSimulate, t);
          world->run_to_limit();
        }
        {
          ScopedSpan s(&sp, kEvaluate, t);
          r = world->finish();
          world.reset();
        }
        read_counts(ctx.metrics, out.counts[t]);
        out.counts[t][kTlsBodyBytes] = tls_bytes;
      }
      {
        ScopedSpan s(&sp, kRecord, t);
        out.records[t] = experiment::make_trial_record(t, cfg, w_.name, r);
        experiment::apply_trial_record(tables_[static_cast<std::size_t>(worker)],
                                       out.records[t]);
      }
      out.digests[t] = experiment::result_digest(r);
      if (w_.capture) {
        std::string why;
        const auto ok = offline_check(cfg.capture.path, live, r.predicted,
                                      *dbs_, &sp, t, &why);
        remove_file(cfg.capture.path);
        if (ok) recovered_bytes_ += *ok;
        if (!ok) {
          out.failed[t] = 1;
          fails.note("traced trial " + std::to_string(t) + ": " + why);
        }
      }
    } catch (const std::exception& e) {
      out.failed[t] = 1;
      fails.note("traced trial " + std::to_string(t) + " threw: " + e.what());
    }
  }

  /// Parses a campaign chunk's shards into `out.records`, checking that every
  /// trial appears exactly once with its expected seed and cell.
  void read_shards(const std::string& dir, std::uint64_t first, std::size_t n,
                   PhaseOut& out, Failures& fails) {
    std::vector<char> seen(n, 0);
    std::string manifest_text;
    std::optional<experiment::CampaignManifest> manifest;
    if (read_file(dir + "/manifest.json", manifest_text)) {
      manifest = experiment::CampaignManifest::parse(manifest_text);
    }
    if (manifest) {
      for (const auto& shard : manifest->shards) {
        std::string text;
        if (!read_file(dir + "/" + shard.file, text)) continue;
        std::size_t pos = 0;
        while (pos < text.size()) {
          std::size_t nl = text.find('\n', pos);
          if (nl == std::string::npos) nl = text.size();
          auto rec = experiment::parse_trial_record(text.substr(pos, nl - pos));
          pos = nl + 1;
          if (!rec || rec->index >= n || seen[rec->index]) continue;
          const std::uint64_t t = first + rec->index;
          if (rec->seed != seed_base_ + t || rec->cell != w_.name) continue;
          seen[rec->index] = 1;
          rec->index = t;
          out.records[t] = std::move(*rec);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (seen[i] || out.failed[first + i]) continue;
      out.failed[first + i] = 1;
      fails.note("trial " + std::to_string(first + i) +
                 ": no valid campaign shard row");
    }
  }

  static void remove_file(const std::string& path) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  static void remove_tree(const std::string& path) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }

  const Options& opt_;
  const Workload& w_;
  int jobs_;
  std::uint64_t seed_base_;
  std::unique_ptr<experiment::ScenarioTemplate> tmpl_;
  std::optional<OfflineDbs> dbs_;
  std::array<obs::AggregateTable, kMaxWorkers> tables_;
  std::atomic<std::uint64_t> recovered_bytes_{0};
};

// ------------------------------------------------------------- verification

std::vector<std::uint64_t> sample_trials(std::uint64_t seed, std::size_t done) {
  std::vector<std::uint64_t> picks;
  for (std::uint64_t t = 0; t < std::min(kReferenceTrials, done); ++t) {
    picks.push_back(t);
  }
  std::uint64_t state = splitmix64(seed ^ 0x5eedf00dULL);
  const std::size_t pool = done > kReferenceTrials ? done - kReferenceTrials : 0;
  const std::size_t target = picks.size() + std::min(kSampleExtra, pool);
  while (picks.size() < target) {
    state = splitmix64(state);
    const std::uint64_t t = kReferenceTrials + state % pool;
    if (std::find(picks.begin(), picks.end(), t) == picks.end()) picks.push_back(t);
  }
  return picks;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over the per-trial result digests, in trial order.
std::uint64_t digest_of_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t d : digests) {
    for (int b = 0; b < 8; ++b) {
      h ^= (d >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::optional<std::string> reference_digest(const std::string& path,
                                            const std::string& workload) {
  std::string text;
  if (!read_file(path, text)) return std::nullopt;
  const auto doc = obs::json::parse(text);
  if (!doc) return std::nullopt;
  const obs::json::Value* digests = doc->find("digests");
  const obs::json::Value* d = digests ? digests->find(workload) : nullptr;
  if (!d || !d->is_string()) return std::nullopt;
  return d->string;
}

/// Re-runs the sample on one thread and checks it against the phase(s):
/// shard rows / records and digests must match, and (traced run) exact
/// counts too. On the default seed the first kReferenceTrials digests must
/// match reference.json. Mismatching trials are marked failed in `check`.
void verify(Bench& bench, const Options& opt, PhaseOut& check,
            const PhaseOut* untraced, Failures& fails, std::string& report) {
  const std::vector<std::uint64_t> picks = sample_trials(opt.seed, check.trials);
  const Bench::Rerun rr = bench.rerun(picks);
  const bool have_digests = opt.trace || bench.workload().capture;
  std::vector<std::uint64_t> ref_digests;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const std::uint64_t t = picks[i];
    const experiment::TrialResult& r = rr.results[i];
    auto fail = [&](const std::string& what) {
      check.failed[t] = 1;
      fails.note("trial " + std::to_string(t) + ": " + what);
    };
    if (bench.record_for(t, r) != check.records[t]) {
      fail("single-thread re-run does not reproduce its record");
    }
    if (have_digests && experiment::result_digest(r) != check.digests[t]) {
      fail("single-thread re-run changes result_digest");
    }
    if (opt.trace) {
      for (std::size_t f = 0; f < kCountFields; ++f) {
        if (rr.counts[i][f] != check.counts[t][f]) {
          fail(std::string("count ") + kCountLabel[f] +
               " differs between traced and single-thread untraced runs");
        }
      }
    }
    if (t < kReferenceTrials) ref_digests.push_back(experiment::result_digest(r));
  }

  // Traced records (benchmark-driven) against the untraced program path's
  // for every trial both phases ran; digests too where the untraced path
  // sees results (capture_roundtrip; run_campaign keeps only shard rows).
  if (untraced) {
    const std::size_t both = std::min(check.trials, untraced->trials);
    for (std::uint64_t t = 0; t < both; ++t) {
      if (untraced->failed[t]) continue;
      const bool same = check.records[t] == untraced->records[t] &&
                        (!bench.workload().capture ||
                         check.digests[t] == untraced->digests[t]);
      if (same) continue;
      check.failed[t] = 1;
      fails.note("trial " + std::to_string(t) +
                 ": traced record or digest differs from the untraced run's");
    }
  }

  const std::string got = hex64(digest_of_digests(ref_digests));
  report = "reference digest (trials 0-" + std::to_string(kReferenceTrials - 1) +
           "): " + got;
  if (opt.seed != kDefaultSeed && !opt.corrupt_reference) {
    report += " (checked only on seed " + std::to_string(kDefaultSeed) + ")";
    return;
  }
  std::optional<std::string> want =
      reference_digest(opt.reference, bench.workload().name);
  if (want && opt.corrupt_reference && !want->empty()) {
    (*want)[0] = (*want)[0] == '0' ? '1' : '0';
  }
  report += ", expected " + (want ? *want : std::string("<missing>"));
  if (want && *want == got && ref_digests.size() == kReferenceTrials) return;
  for (std::uint64_t t = 0; t < kReferenceTrials && t < check.trials; ++t) {
    check.failed[t] = 1;
  }
  fails.note("reference digest mismatch for " +
             std::string(bench.workload().name));
}

// ------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> per_layer_metrics(const PhaseOut& untraced, const PhaseOut& traced,
                                      const std::vector<WorkerSpans>& spans,
                                      int jobs) {
  std::array<double, kSpanNames> sum_ns{};
  std::vector<double> trial_ms;
  for (const WorkerSpans& ws : spans) {
    for (const Span& s : ws.spans()) {
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      sum_ns[s.name] += d;
      if (s.name == kTrial) trial_ms.push_back(d / 1e6);
    }
  }
  const double n = static_cast<double>(traced.trials);
  const auto per_trial_ms = [&](SpanName s) { return ratio(sum_ns[s], n) / 1e6; };

  Counts total{};
  for (std::size_t t = 0; t < kCountTrials; ++t) {
    for (std::size_t f = 0; f < kCountFields; ++f) total[f] += traced.counts[t][f];
  }
  const double m = static_cast<double>(kCountTrials);
  const auto c = [&total](CountField f) { return static_cast<double>(total[f]); };
  const double events = c(kEvents);

  const double tps_untraced =
      ratio(static_cast<double>(untraced.trials), untraced.wall_s);
  const double tps_traced = ratio(static_cast<double>(traced.trials), traced.wall_s);
  const double worker_s = traced.wall_s * jobs;
  return {
      {"experiment.setup_ms", per_trial_ms(kSetup), "ms"},
      {"experiment.simulate_ms", per_trial_ms(kSimulate), "ms"},
      {"experiment.evaluate_ms", per_trial_ms(kEvaluate), "ms"},
      {"experiment.record_us", per_trial_ms(kRecord) * 1e3, "us"},
      {"experiment.trial_ms_p50", percentile(trial_ms, 0.50), "ms"},
      {"experiment.trial_ms_p95", percentile(trial_ms, 0.95), "ms"},
      {"experiment.cpu_busy_frac", ratio(untraced.cpu_s, untraced.wall_s * jobs),
       "fraction"},
      {"sim.events_per_trial", events / m, "count"},
      {"sim.cascades_per_event", ratio(c(kCascades), events), "1/event"},
      {"sim.slots_scanned_per_event", ratio(c(kSlotsScanned), events), "1/event"},
      {"sim.cancels_per_event", ratio(c(kCancels), events), "1/event"},
      {"sim.allocs_per_event", ratio(c(kAllocs), events), "1/event"},
      {"sim.pool_hit_frac", ratio(c(kPoolHits), c(kPoolHits) + c(kPoolMisses)),
       "fraction"},
      {"net.packets_per_trial", c(kLinkDelivered) / m, "count"},
      {"net.drops_per_trial", c(kLinkDrops) / m, "count"},
      {"tcp.segments_per_trial", c(kTcpSegments) / m, "count"},
      {"tcp.retransmit_frac", ratio(c(kTcpRetransmits), c(kTcpSegments)), "fraction"},
      {"tls.mbytes_per_trial", c(kTlsBodyBytes) / m / 1e6, "MB"},
      {"h2.frames_per_trial", c(kH2Frames) / m, "count"},
      {"h2.rst_per_trial", c(kH2Rst) / m, "count"},
      {"h2.flow_stalls_per_trial", c(kH2FlowStalls) / m, "count"},
      {"web.requests_per_trial", c(kWebRequests) / m, "count"},
      {"web.reissues_per_trial", c(kWebReissues) / m, "count"},
      {"attack.records_observed_per_trial", c(kRecordsObserved) / m, "count"},
      {"attack.packets_dropped_per_trial", c(kAttackDrops) / m, "count"},
      {"capture.mbytes_written_per_trial", c(kCaptureBytes) / m / 1e6, "MB"},
      {"capture.read_ms", per_trial_ms(kCaptureRead), "ms"},
      {"capture.reassemble_ms", per_trial_ms(kCaptureReassemble), "ms"},
      {"analysis.offline_us", per_trial_ms(kAnalysisOffline) * 1e3, "us"},
      {"trace.overhead_frac", tps_untraced > 0 ? 1.0 - tps_traced / tps_untraced : 0.0,
       "fraction"},
      {"trace.coverage_frac", ratio(sum_ns[kTrial] / 1e9, worker_s), "fraction"},
  };
}

/// Writes the spans as Chrome trace-event JSON (complete "X" events, one
/// thread per worker; args carry the trial id and the parent span id).
bool write_chrome_trace(const std::string& path,
                        const std::vector<WorkerSpans>& spans) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t w = 0; w < spans.size(); ++w) {
    const std::vector<Span>& list = spans[w].spans();
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Span& s = list[i];
      auto span_id = [w](std::size_t k) {
        return static_cast<long long>((w << 32) | k);
      };
      const long long id = span_id(i);
      const long long parent =
          s.parent < 0 ? -1 : span_id(static_cast<std::size_t>(s.parent));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trial\":%llu,"
                   "\"span\":%lld,\"parent\":%lld}}",
                   first ? "" : ",", kSpanLabel[s.name], w,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.trial), id, parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload solo_attack|shared_gateway|capture_roundtrip\n"
                 "          --seed N --seconds S --trace 0|1 --work-dir DIR\n"
                 "          --reference FILE --trace-out FILE [--corrupt-reference]\n",
                 argv[0]);
    return 2;
  }
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int jobs = std::min(hw, kMaxWorkers);

  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  if (!fs::create_directories(opt.work_dir, ec)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", opt.work_dir.c_str());
    return 1;
  }
  struct RemoveAtExit {
    std::string dir;
    ~RemoveAtExit() {
      std::error_code e;
      fs::remove_all(dir, e);
    }
  } cleanup{opt.work_dir};

  Failures fails;
  Bench bench(opt, jobs);
  const Workload& w = bench.workload();
  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d jobs=%d\n",
               w.name, static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? 1 : 0, jobs);

  // Set-up: site template, size databases, warm-up. Repeated and reported
  // as the median; the first repeat counts from process start.
  std::vector<double> setups;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupRepeats); ++rep) {
    const Clock::time_point t0 = rep == 0 ? process_start : Clock::now();
    bench.prepare();
    if (!bench.warm_up(fails)) {
      for (const std::string& why : fails.reasons()) {
        std::fprintf(stderr, "perfbench: warm-up failed: %s\n", why.c_str());
      }
      return 1;
    }
    setups.push_back(seconds_since(t0));
  }
  const double setup_s = percentile(setups, 0.5);

  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string ref_report;
  if (!opt.trace) {
    PhaseOut timed = bench.run_untraced(opt.seconds, fails);
    verify(bench, opt, timed, nullptr, fails, ref_report);
    attempted = timed.trials;
    failed = timed.failed_count();
    const double n = static_cast<double>(timed.trials);
    metrics = {
        {"trials_per_s", n / timed.wall_s, "trials/s"},
        {"cpu_ms_per_trial", timed.cpu_s * 1e3 / n, "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", static_cast<double>(experiment::peak_rss_kb()) / 1024.0, "MB"},
    };
  } else {
    PhaseOut untraced = bench.run_untraced(opt.seconds / 2, fails);
    std::vector<WorkerSpans> spans;
    PhaseOut traced = bench.run_traced(opt.seconds / 2, fails, spans, Clock::now());
    verify(bench, opt, traced, &untraced, fails, ref_report);
    attempted = untraced.trials + traced.trials;
    failed = untraced.failed_count() + traced.failed_count();
    metrics = per_layer_metrics(untraced, traced, spans, jobs);
    if (!write_chrome_trace(opt.trace_out, spans)) {
      fails.note("cannot write " + opt.trace_out);
    } else {
      std::fprintf(stderr, "perfbench: spans written to %s\n", opt.trace_out.c_str());
    }
  }

  const bool correct = failed == 0 && fails.notes() == 0;
  std::fprintf(stderr, "perfbench: %s\n", ref_report.c_str());
  if (w.capture) {
    std::fprintf(stderr, "perfbench: offline size estimates total %llu bytes\n",
                 static_cast<unsigned long long>(bench.recovered_bytes()));
  }
  for (const std::string& why : fails.reasons()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  %-36s %14.6g %s  (%zu of %zu trials)\n", "failed_frac",
               ratio(static_cast<double>(failed), static_cast<double>(attempted)),
               "fraction", failed, attempted);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
