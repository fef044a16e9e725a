/// \file arms.h
/// \brief Oracle check and the engine-driving arms of the benchmark.
///
/// Every arm builds its own ParallelExecutor + BicliqueEngine from the
/// workload, drives it from one driver thread over a pre-materialised
/// stream, and checks the output against the ReferenceJoin oracle through
/// an order-independent fingerprint.

#ifndef BISTREAM_PERFBENCH_ARMS_H_
#define BISTREAM_PERFBENCH_ARMS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "core/engine.h"
#include "runtime/parallel/parallel_executor.h"
#include "workload/generator.h"
#include "workloads.h"

namespace bistream {
namespace perfbench {

/// \brief Materialises the workload's stream for `seed`. Tuple ids run 1..n
/// in arrival order, so the first k tuples are exactly ids 1..k.
std::vector<TimedTuple> MakeStream(const Workload& w, uint64_t seed,
                                   uint64_t tuples);

/// \brief Expected output of one stream prefix: the result count and the
/// wrapping sum of PairFingerprint over every expected pair.
struct Expected {
  uint64_t results = 0;
  uint64_t fingerprint = 0;
};

inline uint64_t PairFingerprint(uint64_t r_id, uint64_t s_id) {
  return HashMix64((r_id << 32) | s_id);
}

/// \brief Runs ComputeExpectedPairs once over the whole stream and folds
/// it into one Expected per prefix length in `prefixes`.
std::vector<Expected> ComputeExpected(const std::vector<TimedTuple>& stream,
                                      const Workload& w,
                                      const std::vector<uint64_t>& prefixes);

/// \brief One result's latency from the due time of the later tuple of its
/// pair, and that due time (both ns on the executor clock).
struct LatencySample {
  SimTime due = 0;
  SimTime latency = 0;
};

/// \brief Paced latency is summarised per window of due time this long;
/// the reported figure is the median over windows, so that a disturbance
/// shorter than half the paced arm does not move it.
inline constexpr SimTime kLatencyWindow = 500 * kMillisecond;

/// \brief Counts and fingerprints results; optionally records each
/// result's latency from the due time of the later tuple of its pair.
/// Sits behind the engine's LockingResultSink, so it runs serialised.
class CheckingSink final : public ResultSink {
 public:
  /// \param due per-id due time on the executor clock (indexed by tuple
  ///   id), or null to skip latency capture (the firehose arm)
  explicit CheckingSink(const std::vector<SimTime>* due = nullptr)
      : due_(due) {}

  void OnResult(const JoinResult& result) override {
    ++count_;
    fingerprint_ += PairFingerprint(result.r_id, result.s_id);
    if (due_ != nullptr) {
      SimTime due = std::max((*due_)[result.r_id], (*due_)[result.s_id]);
      latencies_.push_back(LatencySample{
          due, result.emit_time > due ? result.emit_time - due : 0});
    }
  }

  uint64_t count() const { return count_; }
  uint64_t fingerprint() const { return fingerprint_; }
  std::vector<LatencySample>& latencies() { return latencies_; }

 private:
  const std::vector<SimTime>* due_;
  uint64_t count_ = 0;
  uint64_t fingerprint_ = 0;
  std::vector<LatencySample> latencies_;
};

/// \brief Results a run got wrong: 0 when count and fingerprint match;
/// otherwise the count difference, at least 1 (a lower bound, since equal
/// counts with a different fingerprint cannot say how many pairs differ).
uint64_t WrongResults(const Expected& expected, const CheckingSink& sink);

/// \brief Process CPU time (user + sys, all threads) from getrusage, in s.
double ProcessCpuSeconds();

/// \brief Wall seconds on the steady clock (arbitrary epoch).
double WallSeconds();

/// \brief The workload's engine configuration on the parallel backend.
/// `dilation` is event_time_dilation (1 unless the arm compresses time).
BicliqueOptions EngineOptions(const Workload& w, double dilation = 1.0);

/// \brief An executor and the engine on it. The engine is declared second
/// so it is destroyed first, while the executor's workers still exist.
struct ParallelEngine {
  std::unique_ptr<runtime::ParallelExecutor> exec;
  std::unique_ptr<BicliqueEngine> engine;
};

/// \brief Builds and starts an engine; returns the wall seconds spent in
/// ParallelExecutor + BicliqueEngine construction + Start(). Aborts when
/// a tracer, sampler or timeline recorder is on: timed arms run bare.
double BuildEngine(const BicliqueOptions& options, ResultSink* sink,
                   ParallelEngine* out);

/// \brief Post-run public counters of a parallel run.
struct RunCounters {
  EngineStats stats;
  uint64_t messages = 0;
  /// Sums over all units (router + joiners).
  SimTime dequeue_wait_ns = 0;
  SimTime blocked_ns = 0;
  uint64_t messages_processed = 0;
  SimTime router_busy_ns = 0;
  SimTime joiner_busy_ns = 0;  // Summed over joiners.
  uint32_t joiners = 0;
  uint64_t router_tuples = 0;
  uint64_t router_copies = 0;  // Store + join copies.
};

/// \brief Closed-loop arm: InjectNow as fast as the inboxes accept.
struct FirehoseRun {
  double setup_s = 0;
  /// First InjectNow until RunUntilIdle returns.
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t tuples = 0;
  uint64_t wrong = 0;
  uint64_t expected = 0;
  /// Sum of driver-timed InjectNow calls (ns) when `time_inject`.
  SimTime inject_ns = 0;
  RunCounters counters;
};

/// `time_inject` wraps every InjectNow in a driver span (two clock reads),
/// which is what the traced repetition's overhead figure compares against.
FirehoseRun RunFirehose(const Workload& w,
                        const std::vector<TimedTuple>& stream, uint64_t tuples,
                        const Expected& expected, bool time_inject);

/// \brief Open-loop arm: each tuple is injected at its due time, t0 +
/// arrival / compression. A stall delays every later injection, and
/// latency is measured from the due time, so no coordinated omission.
struct PacedRun {
  double wall_s = 0;
  uint64_t tuples = 0;
  uint64_t wrong = 0;
  uint64_t expected = 0;
  /// First due time, and the due time of the last tuple after it (ns).
  SimTime t0 = 0;
  SimTime span_ns = 0;
  /// Due time after t0 at which the join window is first full (ns).
  SimTime warm_ns = 0;
  /// One per result.
  std::vector<LatencySample> latencies;
  /// Injection lateness, actual - due (ns), one per tuple.
  std::vector<SimTime> lags;
  /// Driver-timed InjectNow (ns), one per tuple when `time_inject`.
  std::vector<SimTime> inject_ns;
};

PacedRun RunPaced(const Workload& w, const std::vector<TimedTuple>& stream,
                  uint64_t tuples, const Expected& expected,
                  double compression, bool time_inject);

/// \brief Latency quantile q (0..1) over all of a paced run's results, ns.
double LatencyQuantile(const PacedRun& run, double q);

/// \brief Latency quantile q of each whole kLatencyWindow of due time in
/// the run after the join window has filled (ns, in window order). Earlier
/// windows hold less state and fewer results per probe, so they are not
/// the steady state the figure describes.
std::vector<double> WindowLatencyQuantiles(const PacedRun& run, double q);

/// \brief The same stream on the single-threaded sim backend; returns
/// wall seconds and checks the output.
struct SimRun {
  double wall_s = 0;
  uint64_t wrong = 0;
  uint64_t expected = 0;
};

SimRun RunSim(const Workload& w, const std::vector<TimedTuple>& stream,
              uint64_t tuples, const Expected& expected);

/// \brief The q-quantile (0..1) of `values` by nth_element (reorders).
double Quantile(std::vector<SimTime>* values, double q);

/// \brief Median of a small sample (copies).
double Median(std::vector<double> values);

}  // namespace perfbench
}  // namespace bistream

#endif  // BISTREAM_PERFBENCH_ARMS_H_
