// Parallel-backend join benchmark: one workload per invocation.
//
//   perf_parallel --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--commit=ID]
//
// --trace=0 runs the timed arms (firehose and paced, no telemetry) and
// prints the end-to-end metrics. --trace=1 runs a separate traced
// repetition plus the isolated per-layer drives and prints the per-layer
// metrics and the reconciliation line. Every engine run is checked
// against the ReferenceJoin oracle. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, where attempted
// counts expected results over all checked runs and failed the results
// they got wrong. The exit code is 0 only when every run was exact.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "arms.h"
#include "common/config.h"
#include "common/logging.h"
#include "layers.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace bistream;             // NOLINT(build/namespaces)
using namespace bistream::perfbench;  // NOLINT(build/namespaces)

namespace {

/// Short checked firehose run before timing: warms allocator arenas,
/// code and the page cache; not reported.
constexpr uint64_t kWarmupTuples = 100000;
/// Firehose repetitions per timed run, at least; more while time remains.
constexpr size_t kMinFirehoseReps = 3;
/// Share of a timed run given to paced repetitions (at least one), and
/// their cap.
constexpr double kPacedShare = 0.45;
constexpr size_t kMaxPacedReps = 5;
/// Set-up-only engine builds per timed run (median reported).
constexpr size_t kSetupSamples = 21;
/// Tuples fed to each isolated layer drive.
constexpr uint64_t kLayerTuples = 200000;
/// The overload self-check offers this multiple of firehose capacity.
constexpr double kOverloadFactor = 1.5;

/// Refuses builds whose timings would mislead: assertions on, or a
/// sanitizer compiled in.
const char* RefusedBuild() {
#if !defined(NDEBUG)
  return "debug (assertions on)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer";
#endif
#endif
  return nullptr;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Named metrics in print order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    BISTREAM_CHECK(std::isfinite(value)) << name << " is not finite";
    metrics_.push_back(Metric{name, value, unit});
  }

  void Print(const std::string& workload) const {
    for (const Metric& m : metrics_) {
      std::printf("%-16s %-32s %14.6g %s\n", workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Oracle verdicts over every checked run.
class Ledger {
 public:
  void Add(const char* arm, uint64_t expected, uint64_t wrong) {
    ++runs_;
    expected_ += expected;
    wrong_ += wrong;
    if (wrong > 0) {
      std::printf("MISMATCH %s: %llu of %llu expected results wrong\n", arm,
                  static_cast<unsigned long long>(wrong),
                  static_cast<unsigned long long>(expected));
    }
  }

  uint64_t expected() const { return expected_; }
  uint64_t wrong() const { return wrong_; }

  /// result_error_frac: wrong results over expected results.
  void Print() const {
    std::printf(
        "result_error_frac = %.6g ratio (%llu wrong of %llu expected "
        "results, %llu checked runs)\n",
        expected_ == 0 ? 0.0
                       : static_cast<double>(wrong_) /
                             static_cast<double>(expected_),
        static_cast<unsigned long long>(wrong_),
        static_cast<unsigned long long>(expected_),
        static_cast<unsigned long long>(runs_));
  }

 private:
  uint64_t runs_ = 0;
  uint64_t expected_ = 0;
  uint64_t wrong_ = 0;
};

double SetupOnly(const Workload& w) {
  CheckingSink sink;
  ParallelEngine pe;
  double setup = BuildEngine(EngineOptions(w), &sink, &pe);
  pe.engine->FlushAndStop();
  pe.exec->RunUntilIdle();
  return setup;
}

/// Mean of `values[begin, end)`.
double MeanOf(const std::vector<SimTime>& values, size_t begin, size_t end) {
  double sum = 0;
  for (size_t i = begin; i < end; ++i) sum += static_cast<double>(values[i]);
  return end > begin ? sum / static_cast<double>(end - begin) : 0;
}

void PrintPaced(const char* arm, PacedRun* run) {
  double p50 = LatencyQuantile(*run, 0.50) / 1e6;
  double p99 = LatencyQuantile(*run, 0.99) / 1e6;
  double lag99 = Quantile(&run->lags, 0.99) / 1e6;
  std::printf("  %s: %llu tuples in %.3f s, %zu results, latency p50 %.3f ms "
              "p99 %.3f ms, driver lag p99 %.3f ms\n",
              arm, static_cast<unsigned long long>(run->tuples), run->wall_s,
              run->latencies.size(), p50, p99, lag99);
}

void PrintFirehose(const char* arm, const FirehoseRun& run) {
  std::printf("  %s: %llu tuples in %.3f s = %.0f tuples/s, %.3f us CPU per "
              "tuple, setup %.3f ms\n",
              arm, static_cast<unsigned long long>(run.tuples), run.wall_s,
              static_cast<double>(run.tuples) / run.wall_s,
              run.cpu_s * 1e6 / static_cast<double>(run.tuples),
              run.setup_s * 1e3);
  if (run.inject_ns > 0) {
    std::printf("    driver-timed InjectNow: mean %.0f ns (includes waits on "
                "the router's full inbox)\n",
                static_cast<double>(run.inject_ns) /
                    static_cast<double>(run.tuples));
  }
}

/// Timed arms: warm-up, set-up samples, then paced and firehose
/// repetitions in alternation until `seconds` have passed, paced ones
/// within kPacedShare of it. Alternation spreads both arms over the whole
/// run, so a disturbance of a few seconds lands on few repetitions of
/// either. Firehose figures are medians over repetitions and latency
/// figures medians over kLatencyWindow windows.
void RunTimed(const Workload& w, const std::vector<TimedTuple>& stream,
              double seconds, Ledger* ledger, Report* report) {
  const uint64_t n = w.firehose_tuples, m = w.paced_tuples;
  std::vector<Expected> expected =
      ComputeExpected(stream, w, {n, m, kWarmupTuples});
  const double start = WallSeconds();
  const double deadline = start + seconds;

  FirehoseRun warmup = RunFirehose(w, stream, kWarmupTuples, expected[2],
                                   /*time_inject=*/false);
  ledger->Add("warm-up", warmup.expected, warmup.wrong);

  std::vector<double> setup_s;
  for (size_t i = 0; i < kSetupSamples; ++i) setup_s.push_back(SetupOnly(w));

  std::vector<double> p50_ms, p99_ms;  // One per latency window.
  std::vector<double> tps, cpu_us, peak_mb;
  size_t paced_reps = 0;
  double paced_s = 0, paced_rep_s = 0, firehose_rep_s = 0;
  for (;;) {
    const double now = WallSeconds();
    const bool paced_ok =
        paced_reps == 0 ||
        (paced_reps < kMaxPacedReps &&
         paced_s + paced_rep_s <= kPacedShare * seconds &&
         now + paced_rep_s <= deadline);
    const bool firehose_ok = tps.size() < kMinFirehoseReps ||
                             now + firehose_rep_s <= deadline;
    if (!paced_ok && !firehose_ok) break;
    if (paced_ok && (paced_reps <= tps.size() || !firehose_ok)) {
      PacedRun paced = RunPaced(w, stream, m, expected[1], 1.0,
                                /*time_inject=*/false);
      paced_rep_s = WallSeconds() - now;
      paced_s += paced_rep_s;
      ++paced_reps;
      ledger->Add("paced", paced.expected, paced.wrong);
      PrintPaced("paced", &paced);
      for (double ns : WindowLatencyQuantiles(paced, 0.50)) {
        p50_ms.push_back(ns / 1e6);
      }
      for (double ns : WindowLatencyQuantiles(paced, 0.99)) {
        p99_ms.push_back(ns / 1e6);
      }
    } else {
      FirehoseRun run = RunFirehose(w, stream, n, expected[0],
                                    /*time_inject=*/false);
      firehose_rep_s = WallSeconds() - now;
      ledger->Add("firehose", run.expected, run.wrong);
      PrintFirehose("firehose", run);
      tps.push_back(static_cast<double>(n) / run.wall_s);
      cpu_us.push_back(run.cpu_s * 1e6 / static_cast<double>(n));
      peak_mb.push_back(
          static_cast<double>(run.counters.stats.peak_state_bytes) / 1e6);
    }
  }

  report->Add("throughput_tps", Median(tps), "tuples/s");
  report->Add("cpu_us_per_tuple", Median(cpu_us), "us");
  report->Add("latency_p50_ms", Median(p50_ms), "ms");
  report->Add("latency_p99_ms", Median(p99_ms), "ms");
  report->Add("peak_state_mb", Median(peak_mb), "MB");
  report->Add("setup_s", Median(setup_s), "s");
  std::printf("  medians over %zu firehose repetitions, %zu latency windows "
              "of %.1f s from %zu paced repetitions, and %zu set-up "
              "samples\n",
              tps.size(), p99_ms.size(), SimTimeToSeconds(kLatencyWindow),
              paced_reps, setup_s.size());
}

/// Traced repetition: firehose with and without driver spans, a traced
/// paced run, the isolated layer drives, the sim baseline, and the
/// overload self-check. Returns false when the self-check fails.
bool RunTraced(const Workload& w, const std::vector<TimedTuple>& stream,
               Ledger* ledger, Report* report) {
  const uint64_t n = w.firehose_tuples, m = w.paced_tuples;
  std::vector<Expected> expected =
      ComputeExpected(stream, w, {n, m, kWarmupTuples});

  FirehoseRun warmup = RunFirehose(w, stream, kWarmupTuples, expected[2],
                                   /*time_inject=*/false);
  ledger->Add("warm-up", warmup.expected, warmup.wrong);
  FirehoseRun timed = RunFirehose(w, stream, n, expected[0], false);
  ledger->Add("firehose", timed.expected, timed.wrong);
  PrintFirehose("firehose (untraced)", timed);
  FirehoseRun traced = RunFirehose(w, stream, n, expected[0], true);
  ledger->Add("firehose traced", traced.expected, traced.wrong);
  PrintFirehose("firehose (traced)", traced);

  PacedRun paced = RunPaced(w, stream, m, expected[1], 1.0, true);
  ledger->Add("paced traced", paced.expected, paced.wrong);
  PrintPaced("paced (traced)", &paced);

  const double overhead_ns = TimerOverheadNs();
  LayerCosts layers =
      MeasureLayers(w, stream, std::min<uint64_t>(kLayerTuples, n));

  SimRun sim = RunSim(w, stream, m, expected[1]);
  ledger->Add("sim baseline", sim.expected, sim.wrong);

  // Overload self-check: offered load above firehose capacity must show
  // growing driver lag and higher latency, never a flattering figure.
  const double capacity = static_cast<double>(n) / timed.wall_s;
  const double compression =
      std::max(kOverloadFactor,
               kOverloadFactor * capacity / (2 * w.rate_per_relation));
  PacedRun overload = RunPaced(w, stream, m, expected[1], compression, false);
  ledger->Add("paced overload", overload.expected, overload.wrong);
  const size_t tail = overload.lags.size() / 20;
  const double lag_growth_ms =
      (MeanOf(overload.lags, overload.lags.size() - tail,
              overload.lags.size()) -
       MeanOf(overload.lags, 0, tail)) /
      1e6;
  const double paced_p50 = LatencyQuantile(paced, 0.50);
  const double overload_p50 = LatencyQuantile(overload, 0.50);
  const bool self_check_ok =
      lag_growth_ms > 0.1 * overload.wall_s * 1e3 && overload_p50 > paced_p50;
  std::printf("  overload self-check (%.2fx event rate, %.0f tuples/s "
              "offered): lag grew %.1f ms over %.2f s, latency p50 %.2f ms "
              "vs %.2f ms paced: %s\n",
              compression, compression * 2 * w.rate_per_relation,
              lag_growth_ms, overload.wall_s, overload_p50 / 1e6,
              paced_p50 / 1e6, self_check_ok ? "PASS" : "FAIL");

  const RunCounters& c = traced.counters;
  const double tuples = static_cast<double>(n);
  const double wall_ns = traced.wall_s * 1e9;
  const double msgs_per_tuple = static_cast<double>(c.messages) / tuples;
  const double copies_per_tuple = static_cast<double>(c.router_copies) /
                                  static_cast<double>(c.router_tuples);
  const double stores_per_tuple = static_cast<double>(c.stats.stored) / tuples;
  const double probes_per_tuple = static_cast<double>(c.stats.probes) / tuples;
  const double results_per_tuple =
      static_cast<double>(c.stats.results) / tuples;
  const double cpu_us_per_tuple = timed.cpu_s * 1e6 / tuples;
  const double sim_us_per_tuple =
      sim.wall_s * 1e6 / static_cast<double>(m);

  // Reconciliation: each isolated layer cost weighted by its measured
  // per-tuple multiplicity.
  const double explained_ns =
      layers.handoff_ns * msgs_per_tuple + layers.route_ns +
      layers.order_buffer_ns * copies_per_tuple +
      layers.index_insert_ns * stores_per_tuple +
      layers.index_probe_ns * probes_per_tuple +
      layers.sink_emit_ns * results_per_tuple;
  const double explained_us = explained_ns / 1e3;
  const double unexplained = 1.0 - explained_us / cpu_us_per_tuple;
  std::printf(
      "  reconcile: handoff %.0f ns x %.3f msgs + route %.0f ns + order "
      "buffer %.0f ns x %.2f copies + insert %.0f ns x %.2f + probe %.0f ns "
      "x %.2f + emit %.0f ns x %.2f results = %.3f us/tuple vs "
      "cpu_us_per_tuple %.3f us (sim baseline %.3f us/tuple): unexplained "
      "%.1f%%\n",
      layers.handoff_ns, msgs_per_tuple, layers.route_ns,
      layers.order_buffer_ns, copies_per_tuple, layers.index_insert_ns,
      stores_per_tuple, layers.index_probe_ns, probes_per_tuple,
      layers.sink_emit_ns, results_per_tuple, explained_us, cpu_us_per_tuple,
      sim_us_per_tuple, unexplained * 100);

  std::vector<SimTime> inject = paced.inject_ns;
  report->Add("engine.inject_ns", MeanOf(inject, 0, inject.size()) - overhead_ns,
              "ns");
  report->Add("engine.inject_ns_p99", Quantile(&inject, 0.99), "ns");
  report->Add("driver.lag_p99_ms", Quantile(&paced.lags, 0.99) / 1e6, "ms");
  report->Add("driver.overload_lag_growth_ms", lag_growth_ms, "ms");
  report->Add("runtime.handoff_ns", layers.handoff_ns, "ns");
  report->Add("runtime.handoff_ns_contended", layers.handoff_ns_contended,
              "ns");
  report->Add("runtime.msgs_per_tuple", msgs_per_tuple, "count");
  report->Add("runtime.queue_wait_us",
              static_cast<double>(c.dequeue_wait_ns) / 1e3 /
                  static_cast<double>(c.messages_processed),
              "us");
  report->Add("runtime.send_blocked_frac",
              static_cast<double>(c.blocked_ns) / wall_ns, "ratio");
  report->Add("router.route_ns", layers.route_ns, "ns");
  report->Add("router.route_ns_rand4", layers.route_ns_rand4, "ns");
  report->Add("router.copies_per_tuple", copies_per_tuple, "count");
  report->Add("router.busy_frac",
              static_cast<double>(c.router_busy_ns) / wall_ns, "ratio");
  report->Add("order_buffer.ns_per_tuple", layers.order_buffer_ns, "ns");
  report->Add("joiner.handle_ns", layers.joiner_handle_ns, "ns");
  report->Add("joiner.busy_frac",
              static_cast<double>(c.joiner_busy_ns) /
                  static_cast<double>(std::max(c.joiners, 1u)) / wall_ns,
              "ratio");
  report->Add("index.insert_ns", layers.index_insert_ns, "ns");
  report->Add("index.probe_ns", layers.index_probe_ns, "ns");
  report->Add("index.candidates_per_probe",
              static_cast<double>(c.stats.probe_candidates) /
                  static_cast<double>(c.stats.probes),
              "count");
  report->Add("index.match_ratio",
              static_cast<double>(c.stats.results) /
                  static_cast<double>(c.stats.probe_candidates),
              "ratio");
  report->Add("sink.emit_ns", layers.sink_emit_ns, "ns");
  report->Add("sink.emit_ns_contended", layers.sink_emit_ns_contended, "ns");
  report->Add("sink.results_per_tuple", results_per_tuple, "count");
  report->Add("baseline.sim_us_per_tuple", sim_us_per_tuple, "us");
  report->Add("reconcile.explained_us_per_tuple", explained_us, "us");
  report->Add("reconcile.unexplained_frac", unexplained, "ratio");
  report->Add("trace.overhead_pct", (traced.cpu_s / timed.cpu_s - 1) * 100,
              "%");
  return self_check_ok;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (const char* refused = RefusedBuild()) {
    std::fprintf(stderr, "perf_parallel: refusing to measure a %s build\n",
                 refused);
    return 2;
  }
  auto parsed = Config::FromArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perf_parallel: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const Config config = std::move(parsed).ValueOrDie();
  const std::string name = config.GetString("workload", "");
  const int64_t seed = config.GetInt("seed", 1);
  const int64_t seconds = config.GetInt("seconds", 30);
  const int64_t trace = config.GetInt("trace", 0);
  const std::string commit = config.GetString("commit", "unknown");

  std::vector<Workload> all = AllWorkloads();
  auto it = std::find_if(all.begin(), all.end(),
                         [&name](const Workload& w) { return w.name == name; });
  if (it == all.end() || seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perf_parallel --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 [--commit=ID]\nworkloads:");
    for (const Workload& w : all) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *it;

  std::printf("machine: nproc=%ld build=%s compiler=\"%s\" commit=%s "
              "seed=%lld workload=%s trace=%lld\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              Compiler().c_str(), commit.c_str(),
              static_cast<long long>(seed), w.name.c_str(),
              static_cast<long long>(trace));
  std::printf("workload %s: %s\n", w.name.c_str(), w.why.c_str());
  std::fflush(stdout);

  std::vector<TimedTuple> stream =
      MakeStream(w, static_cast<uint64_t>(seed), w.firehose_tuples);
  Ledger ledger;
  Report report;
  bool self_check_ok = true;
  if (trace == 0) {
    RunTimed(w, stream, static_cast<double>(seconds), &ledger, &report);
  } else {
    self_check_ok = RunTraced(w, stream, &ledger, &report);
  }

  report.Print(w.name);
  ledger.Print();
  const bool correct = ledger.wrong() == 0 && self_check_ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.expected()),
              static_cast<unsigned long long>(ledger.wrong()),
              report.Json().c_str());
  return correct ? 0 : 1;
}
