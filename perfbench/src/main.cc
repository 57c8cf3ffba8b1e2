// perfbench_run: one workload, one seed, one mode.
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//                 [--source-digest HEX] [--trace-out PATH]
//
// --trace 0 repeats set-up + RunReallocatedStream while another repetition
// still fits in S seconds (at least three times), checks every repetition,
// and reports the end-to-end metrics as medians over repetitions.
// --trace 1 repeats trace cycles (a run with the capturing decorator, the
// layer drives replaying it, an untraced baseline run) while another still
// fits in S seconds (at least one), and reports the per-layer metrics as
// medians over cycles. Human-readable lines start with '#'; the last line
// of stdout is the JSON result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "drives.h"
#include "host.h"
#include "spans.h"
#include "timed_allocator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using txallo::engine::AllocatorMode;
using txallo::engine::PipelineResult;

constexpr int kMinRepetitions = 3;
constexpr int kMaxRepetitions = 64;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string source_digest = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + key + "'";
      return false;
    }
    key.erase(0, 2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.erase(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "--" + key + " needs a value";
      return false;
    }
    values[key] = value;
  }
  for (const auto& [key, value] : values) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "source-digest") {
      args->source_digest = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      *error = "--" + key + ": '" + value + "' is not a number";
      return false;
    }
  }
  if (args->workload.empty() || values.count("seed") == 0 ||
      !(args->seconds > 0.0) || args->trace < 0) {
    *error =
        "usage: perfbench_run --workload NAME --seed N --seconds S "
        "--trace 0|1 [--source-digest HEX] [--trace-out PATH]";
    return false;
  }
  return true;
}

/// True when one more repetition, as long as the one that started at
/// `last`, still ends within --seconds of `begin`.
bool TimeForAnother(Clock::time_point begin, Clock::time_point last,
                    const Args& args) {
  const Clock::time_point now = Clock::now();
  return SecondsBetween(begin, now) + SecondsBetween(last, now) <=
         args.seconds;
}

/// Nearest-rank percentile (the library's Histogram rule), 0 when empty.
double Percentile(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(percentile / 100.0 *
                                static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double Ratio(uint64_t numerator, uint64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

/// All significant digits of a double, for the JSON output.
std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("# %-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// One RunReallocatedStream call on a prepared set-up, checked.
struct LiveRun {
  PipelineResult result;
  double wall_s = 0.0;
  unsigned engine_workers = 0;
  Fingerprint fingerprint;
  std::vector<std::string> failures;
};

LiveRun RunLive(Setup& setup, TimedAllocator* allocator) {
  LiveRun run;
  run.engine_workers = setup.engine->num_workers();
  const Clock::time_point start = Clock::now();
  txallo::Result<PipelineResult> result = txallo::engine::RunReallocatedStream(
      setup.ledger, allocator, setup.engine.get(), setup.pipeline);
  run.wall_s = SecondsBetween(start, Clock::now());
  if (!result.ok()) {
    run.failures.push_back("RunReallocatedStream: " +
                           result.status().ToString());
    return run;
  }
  run.result = std::move(result.value());
  CheckRun(setup.ledger, setup.scenario->registry(), run.result,
           setup.engine.get(), &run.failures);
  run.fingerprint = FingerprintOf(run.result, setup.engine.get());
  return run;
}

void ReportFailures(const char* what, const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what, line.c_str());
  }
}

ThreadBudget BudgetOf(const Workload& workload, unsigned engine_workers) {
  ThreadBudget budget;
  budget.engine_workers = engine_workers;
  budget.background_allocator = workload.mode == AllocatorMode::kBackground;
  budget.mempool_cleaner = workload.open_loop.cleaner;
  return budget;
}

txallo::Result<Setup> SetUpOrReport(const Workload& workload, uint64_t seed) {
  txallo::Result<Setup> setup = SetUp(workload, seed);
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: set-up: %s\n",
                 setup.status().ToString().c_str());
  }
  return setup;
}

void PrintBanner(const Workload& workload, unsigned engine_workers,
                 const Args& args) {
  std::printf("# banner {%s}\n",
              BannerJson(BudgetOf(workload, engine_workers),
                         args.source_digest)
                  .c_str());
  const std::string warning = BuildTypeWarning();
  if (!warning.empty()) {
    std::printf("# %s\n", warning.c_str());
    std::fprintf(stderr, "perfbench: %s\n", warning.c_str());
  }
}

int RunEndToEnd(const Workload& workload, const Args& args) {
  std::vector<double> setup_s;
  std::vector<double> tps;
  std::vector<double> rebalance_ms;
  std::optional<Fingerprint> reference;
  PipelineResult first;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  unsigned engine_workers = 0;
  const Clock::time_point begin = Clock::now();
  Clock::time_point last = begin;
  int reps = 0;
  while (reps < kMinRepetitions ||
         (reps < kMaxRepetitions && TimeForAnother(begin, last, args))) {
    ++reps;
    last = Clock::now();
    txallo::Result<Setup> setup = SetUpOrReport(workload, args.seed);
    if (!setup.ok()) return 2;
    const uint64_t offered = setup->ledger.num_transactions();
    attempted += offered;
    TimedAllocator allocator(std::move(setup->allocator));
    LiveRun run = RunLive(*setup, &allocator);
    engine_workers = run.engine_workers;
    if (run.failures.empty() && reference.has_value() &&
        !(run.fingerprint == *reference)) {
      run.failures.push_back(
          "logical fingerprint differs from the first repetition");
    }
    if (!run.failures.empty()) {
      ReportFailures("repetition", run.failures);
      failed += offered;
      continue;
    }
    if (!reference.has_value()) {
      reference = run.fingerprint;
      first = run.result;
    }
    setup_s.push_back(setup->setup_seconds);
    tps.push_back(static_cast<double>(run.result.report.sim.committed) /
                  run.wall_s);
    const std::vector<double>& samples =
        workload.mode == AllocatorMode::kBackground
            ? allocator.timings().task_run_s
            : allocator.timings().rebalance_s;
    for (const double seconds : samples) rebalance_ms.push_back(seconds * 1e3);
  }

  PrintBanner(workload, engine_workers, args);
  if (failed != 0 || !reference.has_value()) {
    PrintResult(false, attempted, failed, {});
    return 0;
  }
  const txallo::sim::SimReport& sim = first.report.sim;
  const uint64_t offered = first.admission.submitted;
  const uint64_t lost = first.report.aborted + DroppedOf(first.admission) +
                        first.admission.expired;
  std::printf("# committed_tps per repetition:");
  for (const double value : tps) std::printf(" %.1f", value);
  std::printf("\n# setup_s per repetition:");
  for (const double value : setup_s) std::printf(" %.4f", value);
  std::printf("\n");
  std::printf(
      "# workload %s seed %llu: %d repetitions, %zu rebalance samples "
      "(p90 needs >= 100), failed_pct %.6f\n",
      workload.name.c_str(), static_cast<unsigned long long>(args.seed), reps,
      rebalance_ms.size(), 100.0 * Ratio(lost, offered));
  PrintResult(
      true, attempted, failed,
      {{"committed_tps", Median(tps), "tx/s"},
       {"rebalance_p50_ms", Percentile(rebalance_ms, 50.0), "ms"},
       {"rebalance_p90_ms", Percentile(rebalance_ms, 90.0), "ms"},
       {"latency_p50_ticks",
        static_cast<double>(first.e2e_latency_ticks.Percentile(50.0)),
        "ticks"},
       {"latency_p99_ticks",
        static_cast<double>(first.e2e_latency_ticks.Percentile(99.0)),
        "ticks"},
       {"committed_per_tick", Ratio(sim.committed, sim.blocks_elapsed),
        "tx/tick"},
       {"cross_shard_pct", 100.0 * Ratio(sim.cross_shard_submitted,
                                         sim.submitted),
        "%"},
       {"committed_pct", 100.0 * Ratio(sim.committed, offered), "%"},
       {"setup_s", Median(setup_s), "s"},
       {"peak_rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

/// An untraced run with the duration-only decorator.
bool RunUntraced(const Workload& workload, uint64_t seed, LiveRun* run,
                 uint64_t* attempted) {
  txallo::Result<Setup> setup = SetUpOrReport(workload, seed);
  if (!setup.ok()) return false;
  *attempted += setup->ledger.num_transactions();
  TimedAllocator allocator(std::move(setup->allocator));
  *run = RunLive(*setup, &allocator);
  return true;
}

/// One traced cycle: a capturing run, the layer drives replaying it (each
/// checked against it), and an untraced baseline run for the overhead.
/// Appends the cycle's per-layer metrics, in a fixed order, to `metrics`
/// and its spans to `log`; check failures go to `failures`. Returns false
/// on a set-up error.
bool RunTraceCycle(const Workload& workload, uint64_t seed,
                   const Fingerprint& reference, SpanLog* log,
                   std::vector<Metric>* metrics, uint64_t* attempted,
                   std::vector<std::string>* failures) {
  txallo::Result<Setup> setup_result = SetUpOrReport(workload, seed);
  if (!setup_result.ok()) return false;
  Setup& setup = *setup_result;
  *attempted += setup.ledger.num_transactions();
  const txallo::engine::EngineConfig engine_config = setup.engine->config();
  TimedAllocator allocator(std::move(setup.allocator), setup.engine.get());
  const txallo::alloc::Allocation bootstrap = allocator.CurrentAllocation();
  LiveRun live = RunLive(setup, &allocator);
  failures->insert(failures->end(), live.failures.begin(),
                   live.failures.end());
  if (!live.failures.empty()) return true;
  if (!(live.fingerprint == reference)) {
    failures->push_back("traced run's logical fingerprint differs from the "
                        "untraced run's");
  }
  setup.engine.reset();  // The drives build their own engines.
  const PipelineResult& result = live.result;
  log->Append(allocator.spans());
  std::vector<Span> drive_spans;

  const uint32_t epoch_ticks = setup.pipeline.blocks_per_epoch;
  MempoolDrive mempool = DriveMempool(setup.ledger, setup.pipeline.open_loop,
                                      epoch_ticks, &drive_spans);
  if (!(mempool.stats == result.admission)) {
    failures->push_back("mempool drive: AdmissionStats differ from the live "
                        "run's");
  }
  txallo::Result<EngineDrive> engine_on =
      DriveEngine(engine_config, mempool.batches, bootstrap,
                  allocator.installs(), epoch_ticks, &drive_spans);
  txallo::engine::EngineConfig stateless = engine_config;
  stateless.state.enabled = false;
  txallo::Result<EngineDrive> engine_off =
      DriveEngine(stateless, mempool.batches, bootstrap, allocator.installs(),
                  epoch_ticks, nullptr);
  if (!engine_on.ok() || !engine_off.ok()) {
    failures->push_back(
        "engine drive: " +
        (engine_on.ok() ? engine_off : engine_on).status().ToString());
    return true;
  }
  if (engine_on->root != live.fingerprint.root ||
      engine_on->report.sim.committed != result.report.sim.committed) {
    failures->push_back("engine drive: final Merkle root or committed count "
                        "differs from the live run's");
  }

  CoreDrive core;
  const std::optional<uint32_t> global_every =
      TxAlloGlobalEvery(workload.allocator);
  if (global_every.has_value()) {
    txallo::Result<CoreDrive> driven =
        DriveCore(&setup.scenario->registry(), allocator.online_params(),
                  *global_every, mempool.batches,
                  allocator.rebalance_points(), &drive_spans);
    if (!driven.ok()) {
      failures->push_back("core drive: " + driven.status().ToString());
    } else if (!(driven->final_mapping == allocator.CurrentAllocation())) {
      failures->push_back("core drive: final mapping differs from the "
                          "allocator's CurrentAllocation()");
    } else {
      core = std::move(driven.value());
    }
  }
  log->Append(drive_spans);
  mempool.batches = {};

  LiveRun baseline;
  if (!RunUntraced(workload, seed, &baseline, attempted)) return false;
  failures->insert(failures->end(), baseline.failures.begin(),
                   baseline.failures.end());
  if (!failures->empty()) return true;

  const AllocatorTimings& timings = allocator.timings();
  const bool background = workload.mode == AllocatorMode::kBackground;
  double rebalance_s = 0.0;
  for (const double seconds : timings.rebalance_s) rebalance_s += seconds;
  double task_run_s = 0.0;
  for (const double seconds : timings.task_run_s) task_run_s += seconds;
  // What the driver thread was blocked on inside the allocator layer.
  const double allocator_blocking =
      timings.apply_block_s + timings.snapshot_s + timings.commit_s +
      (background ? result.alloc_wait_seconds : rebalance_s);
  const double mempool_s = mempool.submit_s + mempool.seal_s + mempool.take_s;
  const double engine_s = engine_on->submit_s + engine_on->tick_s;
  const double covered = mempool_s + engine_s + allocator_blocking;
  const double traced_tps =
      static_cast<double>(result.report.sim.committed) / live.wall_s;
  const double baseline_tps =
      static_cast<double>(baseline.result.report.sim.committed) /
      baseline.wall_s;
  uint64_t max_queue_depth = 0;
  for (const uint64_t depth : result.report.max_queue_depth) {
    max_queue_depth = std::max(max_queue_depth, depth);
  }
  const auto count = [](uint64_t value) { return static_cast<double>(value); };
  *metrics = {
      {"workload.generate_s", setup.generate_seconds, "s"},
      {"workload.txs", count(setup.ledger.num_transactions()), "count"},
      {"allocator.rebalance_s", rebalance_s, "s"},
      {"allocator.rebalance_calls", count(timings.rebalance_s.size()),
       "count"},
      {"allocator.apply_block_s", timings.apply_block_s, "s"},
      {"allocator.apply_block_calls", count(timings.apply_block_calls),
       "count"},
      {"allocator.snapshot_s", timings.snapshot_s, "s"},
      {"allocator.commit_s", timings.commit_s, "s"},
      {"allocator.wait_s", result.alloc_wait_seconds, "s"},
      {"allocator.overlap_ratio", result.alloc_overlap_ratio, "ratio"},
      {"allocator.task_run_s", task_run_s, "s"},
      {"allocator.accounts_moved", count(result.accounts_moved), "count"},
      {"core.global_calls", count(core.global_calls), "count"},
      {"core.louvain_s", core.louvain_s, "s"},
      {"core.init_s", core.init_s, "s"},
      {"core.optimize_s", core.optimize_s, "s"},
      {"core.global_sweeps", count(core.global_sweeps), "count"},
      {"core.louvain_communities", count(core.louvain_communities), "count"},
      {"core.adaptive_calls", count(core.adaptive_calls), "count"},
      {"core.adaptive_s", core.adaptive_s, "s"},
      {"core.adaptive_sweeps", count(core.adaptive_sweeps), "count"},
      {"core.touched_nodes", count(core.touched_nodes), "count"},
      {"mempool.submit_s", mempool.submit_s, "s"},
      {"mempool.seal_s", mempool.seal_s, "s"},
      {"mempool.take_s", mempool.take_s, "s"},
      {"mempool.admitted", count(result.admission.admitted), "count"},
      {"mempool.dropped", count(DroppedOf(result.admission)), "count"},
      {"mempool.expired", count(result.admission.expired), "count"},
      {"mempool.peak_depth", count(result.admission.peak_depth), "count"},
      {"engine.submit_s", engine_on->submit_s, "s"},
      {"engine.tick_s", engine_on->tick_s, "s"},
      {"engine.tick_p99_us", Percentile(engine_on->tick_us, 99.0), "us"},
      {"engine.install_tick_s", engine_on->install_tick_s, "s"},
      {"engine.worker_stall_s", result.report.worker_stall_seconds, "s"},
      {"engine.ticks", count(result.report.sim.blocks_elapsed), "count"},
      {"engine.prepares", count(result.report.prepares_received), "count"},
      {"engine.max_queue_depth", count(max_queue_depth), "count"},
      {"state.cost_s", engine_on->tick_s - engine_off->tick_s, "s"},
      {"state.accounts_migrated", count(result.report.accounts_migrated),
       "count"},
      {"state.aborted", count(result.report.aborted), "count"},
      {"pipeline.wall_s", live.wall_s, "s"},
      {"pipeline.self_s", live.wall_s - covered, "s"},
      {"trace.coverage_pct", 100.0 * covered / live.wall_s, "%"},
      {"trace.overhead_pct",
       100.0 * (baseline_tps - traced_tps) / baseline_tps, "%"},
  };
  return true;
}

// Repeats trace cycles while another fits in --seconds (at least one) and
// reports each per-layer metric as its median over cycles. The first
// untraced run warms the process (first-touch page faults, allocator
// pools) and fixes the fingerprint every traced run must match.
int RunTraced(const Workload& workload, const Args& args) {
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  LiveRun reference;
  if (!RunUntraced(workload, args.seed, &reference, &attempted)) return 2;
  failures = reference.failures;

  SpanLog log;
  std::vector<std::vector<Metric>> cycles;
  const Clock::time_point begin = Clock::now();
  Clock::time_point last = begin;
  while (failures.empty() &&
         (cycles.empty() || (cycles.size() < kMaxRepetitions &&
                             TimeForAnother(begin, last, args)))) {
    last = Clock::now();
    std::vector<Metric> metrics;
    // Only the first cycle's spans go to the trace file.
    SpanLog cycle_log;
    if (!RunTraceCycle(workload, args.seed, reference.fingerprint,
                       cycles.empty() ? &log : &cycle_log, &metrics,
                       &attempted, &failures)) {
      return 2;
    }
    if (failures.empty()) cycles.push_back(std::move(metrics));
  }

  const unsigned engine_workers = reference.engine_workers;
  PrintBanner(workload, engine_workers, args);
  if (!failures.empty()) {
    ReportFailures("traced run", failures);
    PrintResult(false, attempted, attempted, {});
    return 0;
  }
  std::vector<Metric> medians = cycles.front();
  for (size_t i = 0; i < medians.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& cycle : cycles) {
      values.push_back(cycle[i].value);
    }
    medians[i].value = Median(values);
  }
  std::printf("# workload %s seed %llu: %zu trace cycles\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              cycles.size());

  if (!args.trace_out.empty()) {
    std::string metadata =
        "\"workload\":\"" + workload.name +
        "\",\"seed\":" + std::to_string(args.seed) + ",\"banner\":{" +
        BannerJson(BudgetOf(workload, engine_workers), args.source_digest) +
        "},\"metrics\":{";
    for (size_t i = 0; i < medians.size(); ++i) {
      metadata += (i == 0 ? "\"" : ",\"") + medians[i].name +
                  "\":" + Number(medians[i].value);
    }
    metadata += "}";
    if (log.WriteChromeTrace(args.trace_out, metadata)) {
      std::printf("# chrome trace (%zu spans): %s\n", log.spans().size(),
                  args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  PrintResult(true, attempted, 0, medians);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:",
                 args.workload.c_str());
    for (const perfbench::Workload& known : perfbench::Workloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  return args.trace == 1 ? perfbench::RunTraced(*workload, args)
                         : perfbench::RunEndToEnd(*workload, args);
}
