// stgbench — runs one seeded STGSim workload through the simulator's public
// entry points and prints what it measured as one JSON document (the last
// line of standard output). run.py builds this program and wraps it; see
// README.md in this directory for the workloads and every metric.
//
//   stgbench --workload am_scale|de_validate|threaded_am|serve_mixed
//            --seed N --seconds S --trace 0|1 --stgsim PATH --work-dir DIR
//            [--expected FILE] [--write-expected FILE]
//
// The simulation workloads run the pipeline `stgsim run` uses:
// apps::build_app -> core::compile -> campaign::run_calibration ->
// campaign::resolve_spec -> harness::run_program -> harness::run_digest_hex.
// serve_mixed drives the real `stgsim serve` binary over loopback HTTP.
//
// Every workload does a fixed, deterministic amount of work: whole rounds
// of a seeded request list, the round count derived from --seconds. With
// --trace 1 the rounds alternate traced and untraced; the traced ones give
// the per-layer busy times (span self time), and the rate gap between the
// two kinds is the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "campaign/exec.hpp"
#include "core/compiler.hpp"
#include "harness/config_json.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "serve/http.hpp"
#include "served.hpp"
#include "support/json.hpp"
#include "trace.hpp"

namespace {

using namespace stgsim;
using stgbench::Clock;
using stgbench::Tracer;
using stgbench::seconds_between;

/// The benchmark seed whose outputs are checked into expected.json. It
/// maps to RunConfig::seed 20260704, the simulator's own default, so the
/// expected digests are the ones `stgsim run --digest` prints.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kConfigSeedBase = 20260703;

constexpr int kValidationProcs = 64;
constexpr int kCalibrationProcs = 16;
constexpr int kThreadedWorkers = 2;
/// Closed-loop client connections of serve_mixed. Two, not three: on a
/// shared 4-core host a third client made run-to-run spread about twice
/// as wide.
constexpr int kServeClients = 2;
/// Samples that must lie beyond the reported tail percentile.
constexpr std::size_t kTailBeyond = 10;
/// Measured (emulation) runs averaged per validation point, each with its
/// own noise seed, so am_err_pct rests on more than one noisy measurement.
constexpr int kMeasureRepeats = 3;
constexpr std::uint64_t kRemeasureSeedStride = 1000003;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string stgsim_bin;
  std::string work_dir;
  std::string expected_path;
  std::string write_expected_path;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--stgsim") {
      o.stgsim_bin = v;
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else if (flag == "--expected") {
      o.expected_path = v;
    } else if (flag == "--write-expected") {
      o.write_expected_path = v;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.work_dir.empty()) {
    throw std::runtime_error("need --workload and --work-dir");
  }
  if (o.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return o;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail latency and the percentile it sits at (nearest rank): p99, or
/// the highest percentile below it that still has kTailBeyond samples
/// above it. Beyond p99 a run's few worst samples are single host stalls.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.size() <= kTailBeyond) {
    throw std::runtime_error("too few latency samples for a tail percentile");
  }
  std::sort(v.begin(), v.end());
  const std::size_t p99 = (v.size() * 99 + 99) / 100;  // ceil(0.99 n)
  const std::size_t rank = std::min(p99, v.size() - kTailBeyond);  // 1-based
  return {v[rank - 1], 100.0 * static_cast<double>(rank) /
                           static_cast<double>(v.size())};
}

double cpu_seconds_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- report

/// What one run found: metrics, exact counts, and every failed check.
struct Report {
  json::Value metrics = json::Value::object();
  json::Value samples = json::Value::object();
  json::Value counts = json::Value::object();
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::vector<std::string> problems;

  void metric(const std::string& name, double value, const std::string& unit) {
    json::Value m = json::Value::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  }
  /// Records a failed check; the first few are kept verbatim.
  void problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
    else if (problems.size() == 20) problems.push_back("...");
  }
  void check(bool cond, const std::string& what) {
    if (!cond) problem(what);
  }
};

// ------------------------------------------------------- expected values

/// Digests and predicted times checked into expected.json for the default
/// seed, keyed by spec ("am:sweep3d@4096"), plus each workload's exact
/// per-round counts. am_scale and threaded_am share keys, so the threaded
/// scheduler is held to the sequential digests.
class Expected {
 public:
  explicit Expected(const Options& o) : active_(o.seed == kDefaultSeed) {
    if (!o.write_expected_path.empty()) {
      write_path_ = o.write_expected_path;
      if (std::filesystem::exists(write_path_)) doc_ = load(write_path_);
    } else if (active_ && !o.expected_path.empty()) {
      doc_ = load(o.expected_path);
    } else {
      active_ = false;
    }
    if (!doc_.has("predictions")) doc_.set("predictions", json::Value::object());
    if (!doc_.has("counts")) doc_.set("counts", json::Value::object());
  }

  /// Checks (or records) one prediction.
  void prediction(Report& r, const std::string& key, const std::string& digest,
                  double predicted_ns) {
    json::Value& preds = member("predictions");
    if (!write_path_.empty()) {
      json::Value e = json::Value::object();
      e.set("digest", digest);
      e.set("predicted_ns", predicted_ns);
      preds.set(key, std::move(e));
      return;
    }
    if (!active_) return;
    const json::Value* e = preds.find(key);
    if (e == nullptr) {
      r.problem(key + ": no expected value for the default seed");
      return;
    }
    r.check(e->at("digest").as_string() == digest &&
                e->at("predicted_ns").as_number() == predicted_ns,
            key + ": digest " + digest + " differs from expected.json");
  }

  void counts(Report& r, const std::string& workload, const json::Value& c) {
    json::Value& all = member("counts");
    if (!write_path_.empty()) {
      all.set(workload, c);
      return;
    }
    if (!active_) return;
    const json::Value* e = all.find(workload);
    r.check(e != nullptr && *e == c,
            workload + ": exact counts differ from expected.json");
  }

  void save() const {
    if (write_path_.empty()) return;
    std::ofstream(write_path_, std::ios::trunc) << doc_.dump(2) << '\n';
  }

 private:
  static json::Value load(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return json::Value::parse(ss.str());
  }
  json::Value& member(const std::string& key) {
    return doc_.as_object()[key];
  }

  bool active_;
  std::string write_path_;
  json::Value doc_ = json::Value::object();
};

// ------------------------------------------------------------------ specs

/// One prediction of the fixed work list.
struct Job {
  std::string key;  ///< "am:sweep3d@4096" — mode, app, target processes
  harness::RunSpec spec;
};

/// RunConfig::seed for a benchmark seed. Kept small: specs travel as JSON,
/// whose numbers are doubles.
std::uint64_t config_seed(std::uint64_t seed) {
  return kConfigSeedBase + seed % 1000000;
}

Job make_job(harness::Mode mode, const std::string& app, int procs,
             std::uint64_t seed,
             std::map<std::string, std::string> options = {},
             int calibrate_procs = kCalibrationProcs) {
  Job j;
  j.key = std::string(harness::mode_key(mode)) + ":" + app + "@" +
          std::to_string(procs);
  j.spec.app = app;
  j.spec.app_options = std::move(options);
  j.spec.config.nprocs = procs;
  j.spec.config.mode = mode;
  j.spec.config.seed = config_seed(seed);
  if (mode == harness::Mode::kAnalytical) j.spec.calibrate_procs = calibrate_procs;
  return j;
}

const std::vector<std::string> kPaperApps = {"sweep3d", "tomcatv", "nas_sp",
                                             "sample"};

/// am_scale: the four paper apps at 4096 targets, then sweep3d at 16384.
std::vector<Job> scale_jobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (const std::string& app : kPaperApps) {
    jobs.push_back(make_job(harness::Mode::kAnalytical, app, 4096, seed));
  }
  jobs.push_back(make_job(harness::Mode::kAnalytical, "sweep3d", 16384, seed));
  return jobs;
}

/// The validation points: measured (emulation), DE and AM per paper app at
/// 64 targets. `with_de` = false leaves out DE, which am_err_pct does not
/// need.
std::vector<Job> validation_jobs(std::uint64_t seed, bool with_de) {
  std::vector<Job> jobs;
  for (const std::string& app : kPaperApps) {
    jobs.push_back(
        make_job(harness::Mode::kMeasured, app, kValidationProcs, seed));
    if (with_de) {
      jobs.push_back(
          make_job(harness::Mode::kDirectExec, app, kValidationProcs, seed));
    }
    jobs.push_back(
        make_job(harness::Mode::kAnalytical, app, kValidationProcs, seed));
  }
  return jobs;
}

/// The repeat measurements of each validation point, with other noise
/// seeds; keyed "measured#<j>:<app>@64".
std::vector<Job> remeasure_jobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (const std::string& app : kPaperApps) {
    for (int j = 1; j < kMeasureRepeats; ++j) {
      Job job = make_job(harness::Mode::kMeasured, app, kValidationProcs, seed);
      job.key = "measured#" + std::to_string(j) + job.key.substr(8);
      job.spec.config.seed += static_cast<std::uint64_t>(j) * kRemeasureSeedStride;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

// --------------------------------------------------------- the pipeline

struct Prediction {
  harness::RunOutcome outcome;
  std::string digest;
  double latency_s = 0.0;
};

/// One prediction through the `stgsim run` pipeline, each layer call in
/// its own span under a "predict" span with id `id`.
Prediction predict(const harness::RunSpec& spec, Tracer& tr, std::int64_t id) {
  Prediction p;
  const Clock::time_point t0 = Clock::now();
  tr.span("predict", id, [&] {
    const apps::AppSpec app{spec.app, spec.app_options};
    const ir::Program prog = tr.span("apps.build", id, [&] {
      return apps::build_app(app, spec.config.nprocs);
    });
    switch (spec.config.mode) {
      case harness::Mode::kAnalytical: {
        const core::CompileResult compiled =
            tr.span("core.compile", id, [&] { return core::compile(prog); });
        const std::map<std::string, double> calib =
            tr.span("harness.calibrate", id,
                    [&] { return campaign::run_calibration(spec); });
        const harness::RunSpec resolved = tr.span(
            "campaign.resolve", id,
            [&] { return campaign::resolve_spec(spec, &calib); });
        p.outcome = tr.span("harness.run_am", id, [&] {
          return harness::run_program(compiled.simplified.program,
                                      resolved.config);
        });
        break;
      }
      case harness::Mode::kDirectExec:
        p.outcome = tr.span("harness.run_de", id, [&] {
          return harness::run_program(prog, spec.config);
        });
        break;
      case harness::Mode::kMeasured:
        p.outcome = tr.span("harness.run_measured", id, [&] {
          return harness::run_program(prog, spec.config);
        });
        break;
    }
    p.digest = tr.span("harness.digest", id,
                       [&] { return harness::run_digest_hex(p.outcome); });
    return 0;
  });
  p.latency_s = seconds_between(t0, Clock::now());
  return p;
}

// --------------------------------------------------------- exact counts

/// Per-round totals that depend only on the simulated programs. A drift
/// between rounds or runs of one seed means the program changed, not its
/// speed.
struct Counts {
  double events = 0, slices = 0, sends = 0, collectives = 0, delays = 0;
  double peak_target_mb = 0;

  void add(double messages, double n_slices, double n_sends,
           double n_collectives, double n_delays, double peak_bytes) {
    events += messages;
    slices += n_slices;
    sends += n_sends;
    collectives += n_collectives;
    delays += n_delays;
    peak_target_mb = std::max(peak_target_mb, peak_bytes / (1024.0 * 1024.0));
  }
  void add(const harness::RunOutcome& o) {
    add(static_cast<double>(o.messages), static_cast<double>(o.slices),
        static_cast<double>(o.stats.sends),
        static_cast<double>(o.stats.collectives),
        static_cast<double>(o.stats.delays),
        static_cast<double>(o.peak_target_bytes));
  }
  json::Value to_json() const {
    json::Value v = json::Value::object();
    v.set("sim.events", events);
    v.set("sim.slices", slices);
    v.set("smpi.sends", sends);
    v.set("smpi.collectives", collectives);
    v.set("smpi.delays", delays);
    v.set("sim.peak_target_mb", peak_target_mb);
    return v;
  }
};

/// Threaded-protocol totals for one round.
struct ParTotals {
  double rounds = 0, intra = 0, mailbox = 0, barrier = 0, imbalance_sum = 0;
  int runs = 0;

  void add(const simk::ParallelStats& p) {
    rounds += static_cast<double>(p.rounds);
    intra += static_cast<double>(p.intra_messages);
    mailbox += static_cast<double>(p.mailbox_messages);
    barrier += static_cast<double>(p.barrier_messages);
    if (!p.worker_slices.empty()) {
      double sum = 0, max = 0;
      for (const std::uint64_t s : p.worker_slices) {
        sum += static_cast<double>(s);
        max = std::max(max, static_cast<double>(s));
      }
      if (sum > 0) {
        imbalance_sum +=
            max / (sum / static_cast<double>(p.worker_slices.size()));
        ++runs;
      }
    }
  }
};

// ----------------------------------------------------- shared emitters

/// The fixed number of rounds a run does: the nominal round cost on the
/// reference host fills --seconds, with at least `min_rounds` so there are
/// enough latency samples for a tail percentile.
int round_count(double seconds, double nominal_round_s, int min_rounds) {
  return std::max(min_rounds,
                  static_cast<int>(std::lround(seconds / nominal_round_s)));
}

/// Wall time of each round of a run, in order. With --trace 1, even rounds
/// are traced and odd ones not.
struct Rounds {
  std::vector<double> seconds;

  /// Work per second: a round's work over the median round time, so a
  /// round that a host stall slowed does not move the figure.
  double rate(double work_per_round) const {
    return work_per_round / median(seconds);
  }
  int traced() const { return static_cast<int>(seconds.size() + 1) / 2; }
  /// Fastest, median and slowest round, for telling a run whose rounds
  /// varied (host interference within the run) from one uniformly slow.
  void describe(json::Value& samples) const {
    samples.set("round_s_min", *std::min_element(seconds.begin(), seconds.end()));
    samples.set("round_s_median", median(seconds));
    samples.set("round_s_max", *std::max_element(seconds.begin(), seconds.end()));
  }
  /// Mean traced round time over mean untraced round time, minus 1, in %.
  /// The first round, always traced, is left out when later rounds have
  /// both kinds: it alone pays the first touch of the largest predictions'
  /// memory, which would read as tracing cost.
  double trace_overhead_pct() const {
    double t = 0, u = 0;
    int nt = 0, nu = 0;
    for (std::size_t i = seconds.size() >= 3 ? 1 : 0; i < seconds.size(); ++i) {
      if (i % 2 == 0) {
        t += seconds[i];
        ++nt;
      } else {
        u += seconds[i];
        ++nu;
      }
    }
    return 100.0 * ((t / nt) / (u / nu) - 1.0);
  }
};

/// The e2e latency pair over `latencies` (seconds), with sample counts.
/// With few samples the pair picks single predictions: on threaded_am (15
/// a run) the tail is the 5th fastest, at p33, below the median; on
/// am_scale (25) it is the 15th, at p60.
void emit_latency(Report& r, const std::vector<double>& latencies) {
  const auto [tail_s, pct] = tail(latencies);
  r.metric("req_p50_ms", 1e3 * median(latencies), "ms");
  r.metric("req_tail_ms", 1e3 * tail_s, "ms");
  r.samples.set("latency_samples", static_cast<std::int64_t>(latencies.size()));
  r.samples.set("tail_percentile", pct);
  r.samples.set("beyond_tail", static_cast<std::int64_t>(kTailBeyond));
}

/// Per-layer names every traced run reports. Layers a workload does not
/// exercise read 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"apps.build_ms", "ms"},          {"core.compile_ms", "ms"},
    {"harness.calibrate_ms", "ms"},   {"campaign.resolve_ms", "ms"},
    {"harness.run_am_ms", "ms"},      {"harness.run_de_ms", "ms"},
    {"harness.run_measured_ms", "ms"}, {"harness.digest_ms", "ms"},
    {"sim.events", "count"},          {"sim.slices", "count"},
    {"smpi.sends", "count"},          {"smpi.collectives", "count"},
    {"smpi.delays", "count"},         {"sim.events_per_s", "1/s"},
    {"sim.us_per_slice", "us"},       {"sim.peak_target_mb", "MB"},
    {"sim.par.rounds", "count"},      {"sim.par.cross_frac", "ratio"},
    {"sim.par.barrier_frac", "ratio"}, {"sim.par.imbalance", "ratio"},
    {"serve.connect_ms", "ms"},       {"serve.ttfb_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},       {"serve.miss_p50_ms", "ms"},
    {"serve.dedup_p50_ms", "ms"},     {"campaign.hit_frac", "ratio"},
    {"campaign.executed", "count"},   {"serve.refused", "count"},
    {"bench.cpu_util", "ratio"},      {"bench.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

void emit_zero_layers(Report& r) {
  for (const auto& [name, unit] : kLayerMetrics) {
    if (!r.metrics.has(name)) r.metric(name, 0.0, unit);
  }
}

void emit_counts(Report& r, const json::Value& counts) {
  r.counts = counts;
  for (const auto& [name, value] : counts.as_object()) {
    r.metric(name, value.as_number(), name == "sim.peak_target_mb" ? "MB"
                                                                   : "count");
  }
}

// ------------------------------------------------- simulation workloads

/// Runs `jobs` once, untimed and untraced, checking each against the
/// expected values; returns the predictions by key.
std::map<std::string, Prediction> run_untimed(const std::vector<Job>& jobs,
                                              Report& r, Expected& expected,
                                              Tracer& tr) {
  std::map<std::string, Prediction> out;
  for (const Job& j : jobs) {
    Prediction p = predict(j.spec, tr, -1);
    r.check(p.outcome.ok(), j.key + ": " + p.outcome.diagnostic);
    expected.prediction(r, j.key, p.digest,
                        static_cast<double>(p.outcome.predicted_time));
    out[j.key] = std::move(p);
  }
  return out;
}

/// am_err_pct: mean over the paper apps at 64 targets of |AM - measured| /
/// measured, in percent, where measured is the mean of kMeasureRepeats
/// noise-seeded emulation runs. Runs untimed, after the timed phase;
/// `triple` holds predictions already made for this seed (de_validate's
/// rounds), so only the missing ones run.
double am_error(std::uint64_t seed, std::map<std::string, Prediction> triple,
                Report& r, Expected& expected, Tracer& tr) {
  std::vector<Job> jobs = remeasure_jobs(seed);
  if (triple.empty()) {
    const std::vector<Job> v = validation_jobs(seed, false);
    jobs.insert(jobs.end(), v.begin(), v.end());
  }
  triple.merge(run_untimed(jobs, r, expected, tr));
  double sum = 0.0;
  for (const std::string& app : kPaperApps) {
    const std::string at = ":" + app + "@" + std::to_string(kValidationProcs);
    double m = triple.at("measured" + at).outcome.predicted_seconds();
    for (int j = 1; j < kMeasureRepeats; ++j) {
      m += triple.at("measured#" + std::to_string(j) + at)
               .outcome.predicted_seconds();
    }
    m /= kMeasureRepeats;
    const double a = triple.at("am" + at).outcome.predicted_seconds();
    sum += std::abs(a - m) / m;
  }
  return 100.0 * sum / static_cast<double>(kPaperApps.size());
}

void run_simulation(const Options& o, Report& r, Expected& expected,
                    Tracer& tr) {
  const bool threaded = o.workload == "threaded_am";
  const bool validate = o.workload == "de_validate";
  // Nominal round costs on a 4-core x86-64 host (Release build).
  const double nominal_round_s = validate ? 3.2 : (threaded ? 9.0 : 7.5);
  // am_scale runs 5 rounds so that its latency tail rests on 25
  // predictions (p60, above the median); threaded_am keeps 3 to bound run
  // time. More rounds did not narrow pred_per_s's spread over seeds, which
  // follows the host's speed from run to run.
  const int min_rounds = validate ? 1 : (threaded ? 3 : 5);
  int rounds = round_count(o.seconds, nominal_round_s, min_rounds);
  if (o.trace) rounds = std::max(rounds, 2);

  std::vector<Job> jobs;
  // Set-up: generate the inputs, build and compile each program once, and
  // warm up with one small prediction. Repeated for a steady median.
  const int setup_reps = o.trace ? 1 : 5;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    jobs = validate ? validation_jobs(o.seed, true) : scale_jobs(o.seed);
    for (Job& j : jobs) {
      if (threaded) {
        j.spec.config.threads = kThreadedWorkers;
        j.spec.config.partition = simk::PartitionMode::kComm;
      }
      const ir::Program prog = apps::build_app(
          apps::AppSpec{j.spec.app, j.spec.app_options}, j.spec.config.nprocs);
      if (j.spec.config.mode == harness::Mode::kAnalytical) {
        (void)core::compile(prog);
      }
    }
    const Job warm =
        make_job(harness::Mode::kAnalytical, "tomcatv", kValidationProcs, o.seed);
    const Prediction w = predict(warm.spec, tr, -1);
    r.check(w.outcome.ok(), "warm-up prediction failed: " + w.outcome.diagnostic);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed phase.
  std::vector<double> latencies;
  std::map<std::string, std::string> first_digest;
  std::map<std::string, double> first_predicted;
  std::map<std::string, Prediction> round0;
  json::Value counts0;
  ParTotals par;
  Rounds times;
  std::int64_t id = 0;
  const double cpu0 = cpu_seconds_self();
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    const bool traced = o.trace && round % 2 == 0;
    Tracer::set_recording(traced);
    Counts counts;
    const Clock::time_point rt0 = Clock::now();
    for (const Job& j : jobs) {
      Prediction p = predict(j.spec, tr, id++);
      latencies.push_back(p.latency_s);
      ++r.attempted;
      counts.add(p.outcome);
      if (traced) par.add(p.outcome.parallel);
      const double predicted = static_cast<double>(p.outcome.predicted_time);
      bool ok = p.outcome.ok();
      r.check(ok, j.key + ": " + harness::run_status_name(p.outcome.status) +
                      " " + p.outcome.diagnostic);
      if (round == 0) {
        first_digest[j.key] = p.digest;
        first_predicted[j.key] = predicted;
        const std::size_t before = r.problems.size();
        expected.prediction(r, j.key, p.digest, predicted);
        ok = ok && r.problems.size() == before;
        round0[j.key] = std::move(p);
      } else if (first_digest[j.key] != p.digest ||
                 first_predicted[j.key] != predicted) {
        ok = false;
        r.problem(j.key + ": round " + std::to_string(round) +
                  " digest differs from round 0");
      }
      if (ok) ++r.ok;
    }
    times.seconds.push_back(seconds_between(rt0, Clock::now()));
    const json::Value c = counts.to_json();
    if (round == 0) {
      counts0 = c;
    } else {
      r.check(c == counts0, "exact counts drifted in round " +
                                std::to_string(round));
    }
  }
  const double wall = seconds_between(start, Clock::now());
  const double cpu = cpu_seconds_self() - cpu0;
  // Read before the untimed checks below, whose own runs (the sequential
  // reference of threaded_am among them) must not count.
  const double peak_rss_mb = peak_rss_mb_self();
  r.samples.set("cpu_util", cpu / wall);
  Tracer::set_recording(false);
  expected.counts(r, o.workload, counts0);

  // Verification, untimed: the threaded digests must equal the sequential
  // scheduler's for the same specs (the digest-matrix invariant).
  if (threaded) {
    std::vector<Job> seq = jobs;
    for (Job& j : seq) {
      j.spec.config.threads = 0;
      j.spec.config.partition = simk::PartitionMode::kBlock;
    }
    const auto ref = run_untimed(seq, r, expected, tr);
    for (const Job& j : jobs) {
      if (ref.at(j.key).digest != first_digest[j.key]) {
        r.problem(j.key + ": threaded digest " + first_digest[j.key] +
                  " != sequential " + ref.at(j.key).digest);
        r.ok = std::max<std::int64_t>(0, r.ok - rounds);
      }
    }
  }
  const double err_pct = am_error(
      o.seed, validate ? std::move(round0) : std::map<std::string, Prediction>{},
      r, expected, tr);

  const std::int64_t timed = static_cast<std::int64_t>(latencies.size());
  r.samples.set("rounds", rounds);
  times.describe(r.samples);
  r.samples.set("predictions_timed", timed);
  r.samples.set("setup_reps", setup_reps);
  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("pred_per_s", times.rate(static_cast<double>(jobs.size())),
             "1/s");
    r.metric("peak_rss_mb", peak_rss_mb, "MB");
    r.metric("ok_frac",
             static_cast<double>(r.ok) / static_cast<double>(r.attempted),
             "ratio");
    r.metric("am_err_pct", err_pct, "%");
    emit_latency(r, latencies);
    r.counts = counts0;
    return;
  }

  // Per-layer metrics from the traced rounds: busy (self) ms per round.
  const int traced_rounds = times.traced();
  const std::map<std::string, double> self = tr.self_seconds();
  auto busy_ms = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : 1e3 * it->second / traced_rounds;
  };
  for (const char* layer :
       {"apps.build", "core.compile", "harness.calibrate", "campaign.resolve",
        "harness.run_am", "harness.run_de", "harness.run_measured",
        "harness.digest"}) {
    r.metric(std::string(layer) + "_ms", busy_ms(layer), "ms");
  }
  emit_counts(r, counts0);
  const double run_ms = busy_ms("harness.run_am") + busy_ms("harness.run_de") +
                        busy_ms("harness.run_measured");
  r.metric("sim.events_per_s",
           counts0.at("sim.events").as_number() / (run_ms / 1e3), "1/s");
  r.metric("sim.us_per_slice",
           1e3 * run_ms / counts0.at("sim.slices").as_number(), "us");
  if (threaded) {
    const double all = par.intra + par.mailbox + par.barrier;
    r.metric("sim.par.rounds", par.rounds / traced_rounds, "count");
    r.metric("sim.par.cross_frac", (par.mailbox + par.barrier) / all, "ratio");
    r.metric("sim.par.barrier_frac", par.barrier / all, "ratio");
    r.metric("sim.par.imbalance",
             par.runs > 0 ? par.imbalance_sum / par.runs : 0.0, "ratio");
  }
  const double predict_ms = 1e3 * [&] {
    double s = 0;
    for (const double d : tr.durations("predict")) s += d;
    return s;
  }() / traced_rounds;
  r.metric("bench.cpu_util", cpu / wall, "ratio");
  r.metric("bench.unattributed_pct", 100.0 * busy_ms("predict") / predict_ms,
           "%");
  r.metric("trace.overhead_pct", times.trace_overhead_pct(), "%");
  emit_zero_layers(r);
}

// --------------------------------------------------------- serve_mixed

enum class Kind { kHit, kMiss, kDedup };

struct Request {
  Kind kind = Kind::kHit;
  std::string key;   ///< spec identity; shared by repeats and dedup pairs
  harness::RunSpec spec;
  std::string body;  ///< the wire request
};

/// What a client saw for one request.
struct Served {
  Kind kind = Kind::kHit;
  std::string key;
  int round = 0;
  bool traced = false;
  double latency_s = 0.0;
  int http_status = 0;
  std::string last_frame;    ///< raw; decoded after the timed phase
  bool ok = false;
  std::string spec_dump;     ///< the result frame's resolved spec
  std::string outcome_dump;  ///< its outcome, sim_host_seconds zeroed
  json::Value outcome;
  std::string error;
};

std::string wire_body(const harness::RunSpec& spec, int client) {
  json::Value req = json::Value::object();
  req.set("proto", "stgsim-serve-1");
  req.set("kind", "run");
  req.set("client", "bench-" + std::to_string(client));
  req.set("stream", true);
  req.set("payload", harness::run_spec_to_json(spec));
  return req.dump();
}

/// The outcome's canonical dump without its one host-time field.
std::string outcome_dump(json::Value outcome) {
  outcome.set("sim_host_seconds", 0.0);
  return outcome.dump();
}

/// Seeded request scripts: script[client][round] is that client's closed
/// loop for the round. Per round each of the two clients sends 20 repeats
/// of cached specs and 1 never-seen spec in a shuffled order, and both
/// send one identical never-seen spec at the same script position (behind
/// a barrier), so the daemon executes it once and the other joins it.
/// Never-seen specs are few because each one writes cache files, and disk
/// writes are the noisiest cost on a shared host.
struct Scripts {
  std::vector<Request> hits;  ///< the cached pool, warmed during set-up
  std::vector<std::vector<std::vector<Request>>> script;
};

constexpr int kHitsPerClient = 20;
/// Executions per round: each client's never-seen spec, plus the pair.
constexpr int kFreshPerRound = kServeClients + 1;

Scripts make_scripts(std::uint64_t seed, int rounds) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x5e77e);
  Scripts s;
  const std::uint64_t cseed = config_seed(seed);
  auto small = [&](harness::Mode mode, const std::string& app, int procs,
                   std::map<std::string, std::string> opts) {
    return make_job(mode, app, procs, seed, std::move(opts), 4);
  };
  const std::vector<Job> pool = {
      small(harness::Mode::kAnalytical, "tomcatv", 16,
            {{"n", "128"}, {"iters", "2"}}),
      small(harness::Mode::kAnalytical, "sweep3d", 16,
            {{"kt", "36"}, {"kb", "12"}}),
      small(harness::Mode::kAnalytical, "nas_sp", 16, {{"steps", "1"}}),
      small(harness::Mode::kAnalytical, "sample", 16, {{"iters", "8"}}),
      small(harness::Mode::kDirectExec, "tomcatv", 4,
            {{"n", "128"}, {"iters", "2"}}),
      small(harness::Mode::kDirectExec, "sweep3d", 4,
            {{"kt", "36"}, {"kb", "12"}}),
  };
  for (const Job& j : pool) {
    s.hits.push_back(Request{Kind::kHit, "hit:" + j.key, j.spec, ""});
  }

  // Never-seen specs: AM runs on a machine whose network options the seed
  // picks once, made new each round by a fresh RunConfig::seed (which also
  // forces a fresh calibration). The options change predictions, not the
  // amount of simulation, so every round and every seed simulates the same
  // programs at the same cost.
  auto pick = [&](std::initializer_list<const char*> values) {
    std::vector<const char*> v(values);
    return std::string(v[rng() % v.size()]);
  };
  std::vector<Job> fresh_templates = {
      small(harness::Mode::kAnalytical, "tomcatv", 16,
            {{"n", "128"}, {"iters", "2"}}),
      small(harness::Mode::kAnalytical, "sweep3d", 16,
            {{"kt", "36"}, {"kb", "12"}}),
      small(harness::Mode::kAnalytical, "sample", 16, {{"iters", "6"}}),
  };
  for (Job& j : fresh_templates) {
    j.spec.config.machine = harness::parse_machine_spec(
        "ibm_sp[latency_us=" + pick({"20", "30", "40", "50"}) +
        ",bw=" + pick({"80e6", "100e6", "120e6", "140e6"}) + "]");
  }
  auto fresh_request = [&](int round, int i, Kind kind) {
    Job j = fresh_templates[static_cast<std::size_t>(i) %
                            fresh_templates.size()];
    j.spec.config.seed =
        cseed + 1000 + static_cast<std::uint64_t>(round) * 100 +
        static_cast<std::uint64_t>(i);
    return Request{kind,
                   "fresh:r" + std::to_string(round) + ":" + std::to_string(i),
                   j.spec, ""};
  };

  s.script.assign(kServeClients, {});
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::vector<Request>> per(kServeClients);
    for (int c = 0; c < kServeClients; ++c) {
      for (int h = 0; h < kHitsPerClient; ++h) {
        per[c].push_back(s.hits[rng() % s.hits.size()]);
      }
      per[c].push_back(fresh_request(round, c, Kind::kMiss));
      std::shuffle(per[c].begin(), per[c].end(), rng);
    }
    const Request pair = fresh_request(round, kServeClients, Kind::kDedup);
    const auto at = static_cast<std::ptrdiff_t>(rng() % (per[0].size() + 1));
    for (int c = 0; c < kServeClients; ++c) {
      per[c].insert(per[c].begin() + at, pair);
      for (Request& q : per[c]) q.body = wire_body(q.spec, c);
      s.script[c].push_back(std::move(per[c]));
    }
  }
  for (Request& q : s.hits) q.body = wire_body(q.spec, 0);
  return s;
}

Served send(int port, const Request& q, int round, Tracer& tr,
            std::int64_t id) {
  Served s;
  s.kind = q.kind;
  s.key = q.key;
  s.round = round;
  s.traced = Tracer::recording();
  try {
    stgbench::Exchange ex = stgbench::post_request(port, q.body, tr, id);
    s.latency_s = ex.total_s;
    s.http_status = ex.status;
    if (!ex.lines.empty()) s.last_frame = std::move(ex.lines.back());
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  return s;
}

/// Decodes the terminal frame `send` kept. Done after the timed phase, so
/// the clients spend no CPU on checking while the daemon is measured.
void decode(Served& s) {
  if (!s.error.empty()) return;
  try {
    if (s.http_status != 200 || s.last_frame.empty()) {
      s.error = "HTTP " + std::to_string(s.http_status);
      return;
    }
    const json::Value last = json::Value::parse(s.last_frame);
    if (last.at("event").as_string() != "result") {
      s.error = s.last_frame;
      return;
    }
    s.spec_dump = last.at("spec").dump();
    s.outcome = last.at("outcome");
    s.outcome_dump = outcome_dump(s.outcome);
    s.ok = s.outcome.at("status").as_string() == "ok";
    if (!s.ok) s.error = s.outcome.at("diagnostic").as_string();
  } catch (const std::exception& e) {
    s.error = e.what();
  }
}

std::map<std::string, double> daemon_scalars(int port) {
  const auto resp =
      serve::http_request("127.0.0.1", port, "GET", "/v1/metrics", "");
  const json::Value doc = json::Value::parse(resp.body);
  std::map<std::string, double> out;
  for (const auto& [k, v] : doc.at("scalars").as_object()) {
    out[k] = v.as_number();
  }
  return out;
}

/// Plays rounds [first, last) of every client's script against the daemon
/// on `port`, one closed-loop thread per client connection. Clients meet
/// at a barrier after each round, which timestamps the round's end. With
/// `trace`, every other round is traced. Returns what each client saw.
std::vector<std::vector<Served>> play(const Scripts& scripts, int port,
                                      int first, int last, bool trace,
                                      Tracer& tr, Rounds* rounds) {
  std::vector<std::vector<Served>> results(kServeClients);
  std::vector<Clock::time_point> ends(static_cast<std::size_t>(last - first));
  std::size_t ended = 0;
  std::barrier pair_sync(2);
  std::barrier round_sync(kServeClients,
                          [&]() noexcept { ends[ended++] = Clock::now(); });
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      std::int64_t id = (static_cast<std::int64_t>(c) << 32) +
                        static_cast<std::int64_t>(first) * 1000;
      for (int round = first; round < last; ++round) {
        Tracer::set_recording(trace && (round - first) % 2 == 0);
        for (const Request& q : scripts.script[c][round]) {
          if (q.kind == Kind::kDedup) pair_sync.arrive_and_wait();
          results[c].push_back(send(port, q, round, tr, id++));
        }
        round_sync.arrive_and_wait();
      }
      Tracer::set_recording(false);
    });
  }
  for (std::thread& t : clients) t.join();
  Clock::time_point prev = start;
  for (const Clock::time_point end : ends) {
    rounds->seconds.push_back(seconds_between(prev, end));
    prev = end;
  }
  return results;
}

/// Untimed rounds played during set-up, so the timed phase starts with a
/// warmed daemon (its first rounds run markedly slower).
constexpr int kWarmupRounds = 8;

void run_serve(const Options& o, Report& r, Expected& expected, Tracer& tr) {
  // Nominal round cost on a 4-core x86-64 host (Release build).
  int rounds = round_count(o.seconds, 0.075, 1);
  if (o.trace) rounds = std::max(rounds, 2);
  const int first = kWarmupRounds;
  const int last = kWarmupRounds + rounds;

  // Set-up: generate the scripts, start the daemon until it is ready, fill
  // its cache with the repeated specs and play the warm-up rounds.
  // Repeated for a steady median; the last daemon serves the timed phase.
  const int setup_reps = o.trace ? 1 : 5;
  std::vector<double> setup_s;
  Scripts scripts;
  std::unique_ptr<stgbench::Daemon> daemon;
  for (int rep = 0; rep < setup_reps; ++rep) {
    daemon.reset();
    const std::string dir = o.work_dir + "/daemon" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    scripts = make_scripts(o.seed, last);
    daemon = std::make_unique<stgbench::Daemon>(o.stgsim_bin, dir);
    for (const Request& q : scripts.hits) {
      Served s = send(daemon->port(), q, -1, tr, -1);
      decode(s);
      r.check(s.ok, q.key + " (cache fill): " + s.error);
    }
    Rounds ignored;
    for (auto& client :
         play(scripts, daemon->port(), 0, first, false, tr, &ignored)) {
      for (Served& s : client) {
        decode(s);
        r.check(s.ok, s.key + " (warm-up): " + s.error);
      }
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const int port = daemon->port();

  // Timed phase.
  const std::map<std::string, double> m0 = daemon_scalars(port);
  const double cpu0 = cpu_seconds_self() + daemon->cpu_seconds();
  Rounds times;
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<Served>> results =
      play(scripts, port, first, last, o.trace, tr, &times);
  const double wall = seconds_between(start, Clock::now());
  const double cpu = cpu_seconds_self() + daemon->cpu_seconds() - cpu0;
  r.samples.set("cpu_util", cpu / wall);
  const double daemon_rss = daemon->peak_rss_mb();
  const std::map<std::string, double> m1 = daemon_scalars(port);
  daemon->stop();
  auto delta = [&](const std::string& k) {
    const auto a = m0.find(k);
    const auto b = m1.find(k);
    return (b == m1.end() ? 0.0 : b->second) -
           (a == m0.end() ? 0.0 : a->second);
  };

  // Output checks. Repeats of one spec and both halves of a pair must be
  // byte-identical; hits and the never-seen specs of the first and last
  // round must match an in-process campaign::execute_spec of the spec.
  std::map<std::string, const Served*> first_seen;
  std::vector<double> latencies;
  std::map<Kind, std::vector<double>> by_kind;
  std::vector<Counts> round_counts(static_cast<std::size_t>(rounds));
  std::map<std::string, bool> counted;
  std::map<std::string, int> occurrences;
  for (auto& client : results) {
    for (Served& s : client) decode(s);
  }
  for (const auto& client : results) {
    for (const Served& s : client) {
      ++r.attempted;
      ++occurrences[s.key];
      latencies.push_back(s.latency_s);
      if (s.traced) by_kind[s.kind].push_back(s.latency_s);
      bool ok = s.ok;
      r.check(s.ok, s.key + ": " + s.error);
      const auto [it, inserted] = first_seen.emplace(s.key, &s);
      if (!inserted && ok &&
          (it->second->outcome_dump != s.outcome_dump ||
           it->second->spec_dump != s.spec_dump)) {
        ok = false;
        r.problem(s.key + ": served results of one spec differ");
      }
      if (ok && s.kind != Kind::kHit && !counted[s.key]) {
        counted[s.key] = true;
        const json::Value& st = s.outcome.at("stats");
        round_counts[static_cast<std::size_t>(s.round - first)].add(
            s.outcome.at("messages").as_number(),
            s.outcome.at("slices").as_number(), st.at("sends").as_number(),
            st.at("collectives").as_number(), st.at("delays").as_number(),
            s.outcome.at("peak_target_bytes").as_number());
      }
      if (ok) ++r.ok;
    }
  }
  std::vector<const Request*> reference;
  for (const Request& q : scripts.hits) reference.push_back(&q);
  for (const int round : {first, last - 1}) {
    for (const Request& q : scripts.script[kServeClients - 1][round]) {
      if (q.kind == Kind::kDedup) reference.push_back(&q);
    }
    for (int c = 0; c < kServeClients; ++c) {
      for (const Request& q : scripts.script[c][round]) {
        if (q.kind == Kind::kMiss) reference.push_back(&q);
      }
    }
  }
  for (const Request* q : reference) {
    const auto it = first_seen.find(q->key);
    if (it == first_seen.end() || !it->second->ok) continue;  // already failed
    std::map<std::string, double> calib;
    if (q->spec.calibrate_procs > 0) calib = campaign::run_calibration(q->spec);
    const harness::RunSpec resolved = campaign::resolve_spec(
        q->spec, q->spec.calibrate_procs > 0 ? &calib : nullptr);
    const harness::RunOutcome out = campaign::execute_spec(resolved, true);
    const bool same =
        harness::run_spec_to_json(resolved).dump() == it->second->spec_dump &&
        outcome_dump(harness::outcome_to_json(out)) ==
            it->second->outcome_dump;
    if (!same) {
      r.problem(q->key + ": served result differs from execute_spec");
      r.ok -= occurrences[q->key];
    }
    if (q->kind == Kind::kHit || it->second->round == first) {
      expected.prediction(r, "serve/" + q->key, harness::run_digest_hex(out),
                          static_cast<double>(out.predicted_time));
    }
  }
  const json::Value counts0 = round_counts[0].to_json();
  for (int round = 1; round < rounds; ++round) {
    r.check(round_counts[static_cast<std::size_t>(round)].to_json() == counts0,
            "exact counts drifted in round " + std::to_string(round));
  }
  json::Value counts = counts0;
  const double executed = delta("serve.executed");
  counts.set("campaign.executed", executed / rounds);
  r.check(executed == static_cast<double>(rounds * kFreshPerRound),
          "daemon executed " + std::to_string(executed) + " runs, expected " +
              std::to_string(rounds * kFreshPerRound));
  expected.counts(r, o.workload, counts);

  const double err_pct = am_error(o.seed, {}, r, expected, tr);

  r.samples.set("rounds", rounds);
  times.describe(r.samples);
  r.samples.set("requests_timed", static_cast<std::int64_t>(latencies.size()));
  r.samples.set("setup_reps", setup_reps);
  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("pred_per_s",
             times.rate(static_cast<double>(latencies.size()) / rounds),
             "1/s");
    r.metric("peak_rss_mb", daemon_rss, "MB");
    r.metric("ok_frac",
             static_cast<double>(r.ok) / static_cast<double>(r.attempted),
             "ratio");
    r.metric("am_err_pct", err_pct, "%");
    emit_latency(r, latencies);
    r.counts = counts;
    return;
  }

  auto span_median_ms = [&](const char* name) {
    return 1e3 * median(tr.durations(name));
  };
  emit_counts(r, counts);
  r.metric("serve.connect_ms", span_median_ms("serve.connect"), "ms");
  r.metric("serve.ttfb_ms", span_median_ms("serve.first_byte"), "ms");
  r.metric("serve.hit_p50_ms", 1e3 * median(by_kind[Kind::kHit]), "ms");
  r.metric("serve.miss_p50_ms", 1e3 * median(by_kind[Kind::kMiss]), "ms");
  r.metric("serve.dedup_p50_ms", 1e3 * median(by_kind[Kind::kDedup]), "ms");
  r.metric("campaign.hit_frac",
           (delta("serve.cache_hits") + delta("serve.dedup_joined")) /
               delta("serve.runs"),
           "ratio");
  r.metric("serve.refused",
           delta("serve.rejected.draining") +
               delta("serve.rejected.queue_full") +
               delta("serve.rejected.client_budget"),
           "count");
  r.metric("bench.cpu_util", cpu / wall, "ratio");
  const std::map<std::string, double> self = tr.self_seconds();
  double request_s = 0;
  for (const double d : tr.durations("serve.request")) request_s += d;
  r.metric("bench.unattributed_pct",
           100.0 * self.at("serve.request") / request_s, "%");
  r.metric("trace.overhead_pct", times.trace_overhead_pct(), "%");
  emit_zero_layers(r);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "stgbench: " << e.what() << '\n';
    return 2;
  }
  const std::string workload = o.workload;
  if (workload != "am_scale" && workload != "de_validate" &&
      workload != "threaded_am" && workload != "serve_mixed") {
    std::cerr << "stgbench: unknown workload " << workload << '\n';
    return 2;
  }

  Report r;
  Tracer tr;
  try {
    std::filesystem::remove_all(o.work_dir);
    std::filesystem::create_directories(o.work_dir);
    Expected expected(o);
    if (workload == "serve_mixed") {
      run_serve(o, r, expected, tr);
    } else {
      run_simulation(o, r, expected, tr);
    }
    expected.save();
    if (o.trace) tr.write(o.work_dir + "/../trace-" + workload + ".json");
  } catch (const std::exception& e) {
    std::cerr << "stgbench: " << e.what() << '\n';
    return 1;
  }
  std::filesystem::remove_all(o.work_dir);

  json::Value doc = json::Value::object();
  doc.set("workload", workload);
  doc.set("seed", static_cast<std::int64_t>(o.seed));
  doc.set("correct", r.problems.empty() && r.attempted > 0);
  doc.set("attempted", r.attempted);
  doc.set("failed", r.attempted - r.ok);
  doc.set("metrics", r.metrics);
  doc.set("samples", r.samples);
  doc.set("counts", r.counts);
  json::Value problems = json::Value::array();
  for (const std::string& p : r.problems) problems.push_back(p);
  doc.set("problems", problems);
  std::cout << doc.dump() << std::endl;
  return 0;
}
