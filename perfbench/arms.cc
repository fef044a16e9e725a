#include "arms.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "sim/event_loop.h"
#include "workload/reference_join.h"

namespace bistream {
namespace perfbench {

std::vector<TimedTuple> MakeStream(const Workload& w, uint64_t seed,
                                   uint64_t tuples) {
  SyntheticWorkloadOptions options;
  options.key_domain = w.key_domain;
  options.rate_r = RateSchedule::Constant(w.rate_per_relation);
  options.rate_s = RateSchedule::Constant(w.rate_per_relation);
  options.total_tuples = tuples;
  options.seed = seed;
  SyntheticSource source(options);
  std::vector<TimedTuple> stream = DrainSource(&source);
  for (size_t i = 0; i < stream.size(); ++i) {
    BISTREAM_CHECK_EQ(stream[i].tuple.id, i + 1) << "ids must follow arrival";
  }
  return stream;
}

std::vector<Expected> ComputeExpected(const std::vector<TimedTuple>& stream,
                                      const Workload& w,
                                      const std::vector<uint64_t>& prefixes) {
  std::vector<Expected> out(prefixes.size());
  for (const auto& [pair, count] :
       ComputeExpectedPairs(stream, w.predicate, w.window)) {
    uint64_t r_id = pair >> 32;
    uint64_t s_id = pair & 0xFFFFFFFFULL;
    uint64_t last = std::max(r_id, s_id);
    uint64_t print = PairFingerprint(r_id, s_id) * count;
    for (size_t i = 0; i < prefixes.size(); ++i) {
      if (last > prefixes[i]) continue;
      out[i].results += count;
      out[i].fingerprint += print;
    }
  }
  return out;
}

uint64_t WrongResults(const Expected& expected, const CheckingSink& sink) {
  if (sink.count() == expected.results &&
      sink.fingerprint() == expected.fingerprint) {
    return 0;
  }
  uint64_t diff = sink.count() > expected.results
                      ? sink.count() - expected.results
                      : expected.results - sink.count();
  return std::max<uint64_t>(diff, 1);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BicliqueOptions EngineOptions(const Workload& w, double dilation) {
  BicliqueOptions options;
  options.backend = runtime::BackendKind::kParallel;
  options.num_routers = 1;
  options.joiners_r = 1;
  options.joiners_s = 1;
  options.subgroups_r = 1;
  options.subgroups_s = 1;
  options.predicate = w.predicate;
  options.window = w.window;
  options.archive_period = w.window / 8;
  options.batch_size = w.batch_size;
  options.event_time_dilation = dilation;
  // Timed arms run bare: no sampler, no tracer, no timeline.
  options.telemetry.sample_period = 0;
  options.telemetry.trace_every = 0;
  options.telemetry.timeline = false;
  return options;
}

double BuildEngine(const BicliqueOptions& options, ResultSink* sink,
                   ParallelEngine* out) {
  double start = WallSeconds();
  runtime::ParallelExecutorOptions exec_options;
  exec_options.queue_capacity = options.queue_capacity;
  out->exec = std::make_unique<runtime::ParallelExecutor>(options.cost,
                                                          exec_options);
  out->engine =
      std::make_unique<BicliqueEngine>(out->exec.get(), options, sink);
  out->engine->Start();
  double setup = WallSeconds() - start;
  const BicliqueEngine& engine = *out->engine;
  BISTREAM_CHECK(!engine.tracer().enabled()) << "timed arm with tracer on";
  BISTREAM_CHECK_EQ(engine.options().telemetry.sample_period, 0ULL)
      << "timed arm with sampler on";
  BISTREAM_CHECK(engine.timeline_recorder() == nullptr)
      << "timed arm with timeline on";
  return setup;
}

namespace {

RunCounters CollectCounters(ParallelEngine& pe) {
  RunCounters c;
  c.stats = pe.engine->Stats();
  c.messages = pe.exec->total_messages();
  pe.exec->ForEachUnit([&c](runtime::Unit& unit) {
    const NodeStats& s = unit.stats();
    c.dequeue_wait_ns += s.dequeue_wait_ns;
    c.blocked_ns += s.blocked_ns;
    c.messages_processed += s.messages_processed;
    if (unit.label().rfind("router", 0) == 0) {
      c.router_busy_ns += s.busy_ns;
    } else {
      c.joiner_busy_ns += s.busy_ns;
      ++c.joiners;
    }
  });
  for (const auto& router : pe.engine->routers()) {
    c.router_tuples += router->stats().tuples_routed;
    c.router_copies +=
        router->stats().store_messages + router->stats().join_messages;
  }
  return c;
}

}  // namespace

FirehoseRun RunFirehose(const Workload& w,
                        const std::vector<TimedTuple>& stream, uint64_t tuples,
                        const Expected& expected, bool time_inject) {
  BISTREAM_CHECK_LE(tuples, stream.size());
  FirehoseRun run;
  run.tuples = tuples;
  CheckingSink sink;
  ParallelEngine pe;
  run.setup_s = BuildEngine(EngineOptions(w), &sink, &pe);
  double cpu0 = ProcessCpuSeconds();
  double wall0 = WallSeconds();
  for (uint64_t i = 0; i < tuples; ++i) {
    if (time_inject) {
      SimTime before = pe.exec->NowNs();
      pe.engine->InjectNow(stream[i].tuple);
      run.inject_ns += pe.exec->NowNs() - before;
    } else {
      pe.engine->InjectNow(stream[i].tuple);
    }
  }
  pe.engine->FlushAndStop();
  pe.exec->RunUntilIdle();
  run.wall_s = WallSeconds() - wall0;
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  run.counters = CollectCounters(pe);
  run.expected = expected.results;
  run.wrong = WrongResults(expected, sink);
  return run;
}

PacedRun RunPaced(const Workload& w, const std::vector<TimedTuple>& stream,
                  uint64_t tuples, const Expected& expected,
                  double compression, bool time_inject) {
  BISTREAM_CHECK_LE(tuples, stream.size());
  BISTREAM_CHECK_GE(compression, 1.0);
  PacedRun run;
  run.tuples = tuples;
  std::vector<SimTime> due(tuples + 1, 0);
  CheckingSink sink(&due);
  sink.latencies().reserve(expected.results + 1024);
  run.lags.reserve(tuples);
  if (time_inject) run.inject_ns.reserve(tuples);
  ParallelEngine pe;
  BuildEngine(EngineOptions(w, compression), &sink, &pe);
  runtime::ParallelExecutor& exec = *pe.exec;

  // Due times are fixed before the first injection (the queue mutexes
  // publish them to the joiner threads that read them in the sink).
  const SimTime lead = 2 * kMillisecond;
  const SimTime t0 = exec.NowNs() + lead;
  for (uint64_t i = 0; i < tuples; ++i) {
    due[i + 1] = t0 + static_cast<SimTime>(
                          static_cast<double>(stream[i].arrival) / compression);
  }
  run.t0 = t0;
  run.span_ns = due[tuples] - t0;
  run.warm_ns = static_cast<SimTime>(
      static_cast<double>(w.window * kMicrosecond) / compression);
  double wall0 = WallSeconds();
  for (uint64_t i = 0; i < tuples; ++i) {
    const SimTime due_ns = due[i + 1];
    SimTime now = exec.NowNs();
    while (now < due_ns) {
      // Sleep rather than spin, so the driver leaves its core to the
      // workers between injections; a sleep overshoot shows as lag and,
      // through the due-time clock, as latency. Driver-clock timers (the
      // batched source flush tick) are serviced on every wake-up.
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
      exec.RunUntil(due_ns);
      now = exec.NowNs();
    }
    run.lags.push_back(now - due_ns);
    if (time_inject) {
      SimTime before = exec.NowNs();
      pe.engine->InjectNow(stream[i].tuple);
      run.inject_ns.push_back(exec.NowNs() - before);
    } else {
      pe.engine->InjectNow(stream[i].tuple);
    }
  }
  pe.engine->FlushAndStop();
  exec.RunUntilIdle();
  run.wall_s = WallSeconds() - wall0;
  run.expected = expected.results;
  run.wrong = WrongResults(expected, sink);
  run.latencies = std::move(sink.latencies());
  return run;
}

SimRun RunSim(const Workload& w, const std::vector<TimedTuple>& stream,
              uint64_t tuples, const Expected& expected) {
  BISTREAM_CHECK_LE(tuples, stream.size());
  SimRun run;
  BicliqueOptions options = EngineOptions(w);
  options.backend = runtime::BackendKind::kSim;
  CheckingSink sink;
  double wall0 = WallSeconds();
  {
    EventLoop loop;
    BicliqueEngine engine(&loop, options, &sink);
    engine.Start();
    for (uint64_t i = 0; i < tuples; ++i) {
      engine.executor().RunUntil(stream[i].arrival);
      engine.InjectNow(stream[i].tuple);
    }
    engine.FlushAndStop();
    engine.executor().RunUntilIdle();
  }
  run.wall_s = WallSeconds() - wall0;
  run.expected = expected.results;
  run.wrong = WrongResults(expected, sink);
  return run;
}

double LatencyQuantile(const PacedRun& run, double q) {
  std::vector<SimTime> values;
  values.reserve(run.latencies.size());
  for (const LatencySample& s : run.latencies) values.push_back(s.latency);
  return Quantile(&values, q);
}

std::vector<double> WindowLatencyQuantiles(const PacedRun& run, double q) {
  std::vector<std::vector<SimTime>> by_window(run.span_ns / kLatencyWindow);
  for (const LatencySample& s : run.latencies) {
    size_t k = (s.due - run.t0) / kLatencyWindow;
    if (k < by_window.size()) by_window[k].push_back(s.latency);
  }
  std::vector<double> out;
  const size_t first = (run.warm_ns + kLatencyWindow - 1) / kLatencyWindow;
  for (size_t k = first; k < by_window.size(); ++k) {
    if (!by_window[k].empty()) out.push_back(Quantile(&by_window[k], q));
  }
  return out;
}

double Quantile(std::vector<SimTime>* values, double q) {
  BISTREAM_CHECK(!values->empty());
  size_t k = static_cast<size_t>(q * static_cast<double>(values->size() - 1));
  std::nth_element(values->begin(), values->begin() + static_cast<long>(k),
                   values->end());
  return static_cast<double>((*values)[k]);
}

double Median(std::vector<double> values) {
  BISTREAM_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
}  // namespace bistream
