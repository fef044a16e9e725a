/// \file layers.h
/// \brief Per-layer costs measured from outside, by timing calls into each
/// layer's public functions on the workload's own tuples.
///
/// Each drive isolates one layer: no other thread competes with it except
/// where the drive says "contended". Times are nanoseconds per unit of the
/// layer's work (message, tuple, copy, insert, probe, result), so that
/// weighting them by the run's per-tuple multiplicities reconstructs an
/// uncontended CPU cost per tuple.

#ifndef BISTREAM_PERFBENCH_LAYERS_H_
#define BISTREAM_PERFBENCH_LAYERS_H_

#include <vector>

#include "workload/generator.h"
#include "workloads.h"

namespace bistream {
namespace perfbench {

struct LayerCosts {
  /// Process CPU ns per message: one producer thread -> Transport::Send ->
  /// ParallelUnit::Deliver -> a counting handler on the unit's worker.
  double handoff_ns = 0;
  /// The same with three producer threads into one unit.
  double handoff_ns_contended = 0;
  /// Router::Handle per input tuple, workload config, 1+1 joiners, with a
  /// vector-appending UnitSendFn (no handoff).
  double route_ns = 0;
  /// Router::Handle per tuple under ContRand with 4+4 joiners, unbatched.
  double route_ns_rand4 = 0;
  /// OrderBuffer::AddTuple plus amortised AddPunctuation, per copy, at the
  /// workload's tuples per punctuation round.
  double order_buffer_ns = 0;
  /// Joiner::Handle per copy, fed the router's per-joiner output
  /// (batched as the workload batches), into a counting sink.
  double joiner_handle_ns = 0;
  /// ChainedIndex::Insert and ExpireAndProbe per call, net of the timer.
  double index_insert_ns = 0;
  double index_probe_ns = 0;
  /// LockingResultSink::OnResult process CPU ns per result, 1 and 2
  /// calling threads.
  double sink_emit_ns = 0;
  double sink_emit_ns_contended = 0;
};

/// \brief Runs every isolated drive on the first `tuples` of `stream`.
LayerCosts MeasureLayers(const Workload& w,
                         const std::vector<TimedTuple>& stream,
                         uint64_t tuples);

/// \brief Mean cost of one steady_clock::now() pair, subtracted from
/// per-call timings.
double TimerOverheadNs();

}  // namespace perfbench
}  // namespace bistream

#endif  // BISTREAM_PERFBENCH_LAYERS_H_
