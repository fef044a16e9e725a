#include "layers.h"

#include <chrono>
#include <thread>

#include "arms.h"
#include "common/logging.h"
#include "core/joiner.h"
#include "core/order_buffer.h"
#include "core/router.h"
#include "core/topology.h"
#include "index/chained_index.h"
#include "runtime/parallel/parallel_executor.h"
#include "sim/event_loop.h"

namespace bistream {
namespace perfbench {
namespace {

SimTime NowNs() {
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall clock for routers and joiners driven outside an executor. The
/// drives never call Router::Start, so nothing is ever scheduled.
class DriveClock final : public runtime::Clock {
 public:
  SimTime now() const override { return NowNs(); }
  void ScheduleAt(SimTime /*when*/, std::function<void()> /*fn*/) override {}
};

class CountingSink final : public ResultSink {
 public:
  void OnResult(const JoinResult& /*result*/) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Runs `fn(i)` for i in [0, threads) on that many threads (the caller's
/// own thread when threads == 1).
template <typename Fn>
void RunOnThreads(int threads, Fn fn) {
  if (threads == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) workers.emplace_back(fn, i);
  for (std::thread& t : workers) t.join();
}

double HandoffCpuNs(const std::vector<TimedTuple>& stream, uint64_t tuples,
                    int producers) {
  runtime::ParallelExecutor exec(CostModel::Default());
  runtime::Unit* unit = exec.AddUnit("drive");
  uint64_t handled = 0;  // Written only by the unit's worker.
  unit->SetHandler([&handled](const Message& /*msg*/) {
    ++handled;
    return SimTime{0};
  });
  std::vector<runtime::Transport*> channels;
  for (int p = 0; p < producers; ++p) channels.push_back(exec.Connect(unit));
  double cpu0 = ProcessCpuSeconds();
  RunOnThreads(producers, [&](int p) {
    for (uint64_t i = static_cast<uint64_t>(p); i < tuples;
         i += static_cast<uint64_t>(producers)) {
      channels[static_cast<size_t>(p)]->Send(MakeTupleMessage(
          stream[i].tuple, StreamKind::kStore, 0, i + 1, 0));
    }
  });
  exec.RunUntilIdle();
  double cpu = ProcessCpuSeconds() - cpu0;
  BISTREAM_CHECK_EQ(handled, tuples);
  return cpu * 1e9 / static_cast<double>(tuples);
}

/// The messages the engine's source edge hands a router: one kTuple per
/// tuple, or kBatch messages of `batch` tuples.
std::vector<Message> SourceMessages(const std::vector<TimedTuple>& stream,
                                    uint64_t tuples, uint32_t batch) {
  std::vector<Message> out;
  std::vector<BatchEntry> pending;
  for (uint64_t i = 0; i < tuples; ++i) {
    if (batch <= 1) {
      out.push_back(
          MakeTupleMessage(stream[i].tuple, StreamKind::kStore, 0, 0, 0));
      continue;
    }
    pending.push_back(BatchEntry{stream[i].tuple, StreamKind::kStore, 0, 0});
    if (pending.size() >= batch) {
      out.push_back(MakeBatch(std::move(pending), 0));
      pending.clear();
    }
  }
  if (!pending.empty()) out.push_back(MakeBatch(std::move(pending), 0));
  return out;
}

double RouteNs(const std::vector<TimedTuple>& stream, uint64_t tuples,
               uint32_t joiners_per_side, uint32_t batch) {
  TopologyManager topology(1, 1);
  for (uint32_t j = 0; j < joiners_per_side; ++j) {
    topology.AddUnit(kRelationR);
    topology.AddUnit(kRelationS);
  }
  RouterOptions options;
  options.batch_size = batch;
  options.cost = CostModel::Default();
  std::vector<Message> sent;
  DriveClock clock;
  Router router(options, &clock, [&sent](uint32_t /*unit*/, Message msg) {
    sent.push_back(std::move(msg));
  });
  router.ScheduleEpoch(0, topology.Snapshot());
  std::vector<Message> input = SourceMessages(stream, tuples, batch);
  // Chunks bound the captured output; clearing it stays outside the timer.
  constexpr size_t kChunk = 2048;
  sent.reserve(kChunk * (2 * joiners_per_side + 2) * std::max(batch, 1u));
  SimTime total = 0;
  for (size_t begin = 0; begin < input.size(); begin += kChunk) {
    size_t end = std::min(input.size(), begin + kChunk);
    SimTime start = NowNs();
    for (size_t i = begin; i < end; ++i) router.Handle(input[i]);
    total += NowNs() - start;
    sent.clear();
  }
  BISTREAM_CHECK_EQ(static_cast<uint64_t>(router.stats().tuples_routed),
                    tuples);
  return static_cast<double>(total) / static_cast<double>(tuples);
}

/// The message sequence the single router sends the joiner of `side`
/// under 1+1 joiners: every tuple once (own relation on the store stream,
/// the other on the join stream), rounds following arrival time at the
/// default punctuation interval, batched per destination like the router
/// (flush when full and before each punctuation).
std::vector<Message> JoinerInput(const std::vector<TimedTuple>& stream,
                                 uint64_t tuples, RelationId side,
                                 uint32_t batch) {
  const SimTime interval = BicliqueOptions().punct_interval;
  std::vector<Message> out;
  std::vector<BatchEntry> pending;
  uint64_t round = 0;
  auto flush = [&] {
    if (pending.empty()) return;
    out.push_back(MakeBatch(std::move(pending), 0));
    pending.clear();
  };
  auto close_round = [&](uint64_t seq) {
    flush();
    out.push_back(MakePunctuation(0, seq, round));
    ++round;
  };
  for (uint64_t i = 0; i < tuples; ++i) {
    while (round < stream[i].arrival / interval) close_round(i);
    const Tuple& tuple = stream[i].tuple;
    StreamKind kind =
        tuple.relation == side ? StreamKind::kStore : StreamKind::kJoin;
    if (batch <= 1) {
      out.push_back(MakeTupleMessage(tuple, kind, 0, i + 1, round));
      continue;
    }
    pending.push_back(BatchEntry{tuple, kind, i + 1, round});
    if (pending.size() >= batch) flush();
  }
  close_round(tuples);
  return out;
}

double OrderBufferNs(const std::vector<TimedTuple>& stream, uint64_t tuples) {
  SimTime total = 0;
  for (RelationId side : {kRelationR, kRelationS}) {
    std::vector<Message> input = JoinerInput(stream, tuples, side, 1);
    OrderBuffer buffer(1, 0);
    std::vector<Message> released;
    uint64_t released_total = 0;
    SimTime start = NowNs();
    for (Message& msg : input) {
      if (msg.kind == Message::Kind::kTuple) {
        buffer.AddTuple(std::move(msg));
      } else {
        buffer.AddPunctuation(msg, &released);
        released_total += released.size();
        released.clear();
      }
    }
    total += NowNs() - start;
    BISTREAM_CHECK_EQ(released_total, tuples);
  }
  return static_cast<double>(total) / static_cast<double>(2 * tuples);
}

/// The chained-index configuration the engine gives the workload's
/// joiners, read back from a (sim) engine rather than re-derived.
ChainedIndexOptions EngineIndexOptions(const Workload& w) {
  BicliqueOptions options = EngineOptions(w);
  options.backend = runtime::BackendKind::kSim;
  CountingSink sink;
  EventLoop loop;
  BicliqueEngine engine(&loop, options, &sink);
  ChainedIndexOptions out;
  engine.ForEachLiveJoiner(kRelationR, [&out](Joiner& joiner,
                                              runtime::Unit& /*unit*/) {
    out = joiner.index().options();
  });
  out.tracker = nullptr;
  return out;
}

double JoinerHandleNs(const Workload& w, const std::vector<TimedTuple>& stream,
                      uint64_t tuples, const ChainedIndexOptions& index) {
  SimTime total = 0;
  for (RelationId side : {kRelationR, kRelationS}) {
    std::vector<Message> input =
        JoinerInput(stream, tuples, side, w.batch_size);
    JoinerOptions options;
    options.unit_id = side;
    options.relation = side;
    options.predicate = w.predicate;
    options.index_kind = index.kind;
    options.window = index.window;
    options.archive_period = index.archive_period;
    options.expiry_slack = index.expiry_slack;
    options.cost = CostModel::Default();
    options.num_routers = 1;
    options.measure_wall_stages = true;  // As on the parallel backend.
    DriveClock clock;
    CountingSink sink;
    MemoryTracker tracker("drive");
    Joiner joiner(options, &clock, &sink, &tracker);
    SimTime start = NowNs();
    for (const Message& msg : input) joiner.Handle(msg);
    total += NowNs() - start;
    BISTREAM_CHECK_EQ(static_cast<uint64_t>(joiner.stats().stored) +
                          joiner.stats().probes,
                      tuples);
  }
  return static_cast<double>(total) / static_cast<double>(2 * tuples);
}

void IndexNs(const Workload& w, const std::vector<TimedTuple>& stream,
             uint64_t tuples, const ChainedIndexOptions& base,
             double* insert_ns, double* probe_ns) {
  const double overhead = TimerOverheadNs();
  SimTime insert_total = 0, probe_total = 0;
  uint64_t inserts = 0, probes = 0, matches = 0;
  MatchSink count = [&matches](const Tuple& /*stored*/) { ++matches; };
  for (RelationId side : {kRelationR, kRelationS}) {
    MemoryTracker tracker("drive");
    ChainedIndexOptions options = base;
    options.tracker = &tracker;
    ChainedIndex index(options);
    for (uint64_t i = 0; i < tuples; ++i) {
      const Tuple& tuple = stream[i].tuple;
      SimTime start = NowNs();
      if (tuple.relation == side) {
        index.Insert(tuple);
        insert_total += NowNs() - start;
        ++inserts;
      } else {
        index.ExpireAndProbe(tuple, w.predicate, count);
        probe_total += NowNs() - start;
        ++probes;
      }
    }
  }
  *insert_ns = static_cast<double>(insert_total) /
                   static_cast<double>(inserts) -
               overhead;
  *probe_ns =
      static_cast<double>(probe_total) / static_cast<double>(probes) -
      overhead;
}

double SinkEmitNs(uint64_t results, int threads) {
  CountingSink inner;
  LockingResultSink sink(&inner);
  JoinResult result;
  result.r_id = 1;
  result.s_id = 2;
  const uint64_t per_thread = results / static_cast<uint64_t>(threads);
  double cpu0 = ProcessCpuSeconds();
  RunOnThreads(threads, [&](int /*thread*/) {
    for (uint64_t i = 0; i < per_thread; ++i) sink.OnResult(result);
  });
  double cpu = ProcessCpuSeconds() - cpu0;
  BISTREAM_CHECK_EQ(inner.count(), per_thread * threads);
  return cpu * 1e9 / static_cast<double>(per_thread * threads);
}

}  // namespace

double TimerOverheadNs() {
  constexpr int kPairs = 200000;
  SimTime total = 0;
  for (int i = 0; i < kPairs; ++i) {
    SimTime a = NowNs();
    total += NowNs() - a;
  }
  return static_cast<double>(total) / kPairs;
}

LayerCosts MeasureLayers(const Workload& w,
                         const std::vector<TimedTuple>& stream,
                         uint64_t tuples) {
  BISTREAM_CHECK_LE(tuples, stream.size());
  LayerCosts c;
  c.handoff_ns = HandoffCpuNs(stream, tuples, 1);
  c.handoff_ns_contended = HandoffCpuNs(stream, tuples, 3);
  c.route_ns = RouteNs(stream, tuples, 1, w.batch_size);
  c.route_ns_rand4 = RouteNs(stream, tuples, 4, 1);
  c.order_buffer_ns = OrderBufferNs(stream, tuples);
  ChainedIndexOptions index = EngineIndexOptions(w);
  c.joiner_handle_ns = JoinerHandleNs(w, stream, tuples, index);
  IndexNs(w, stream, tuples, index, &c.index_insert_ns, &c.index_probe_ns);
  c.sink_emit_ns = SinkEmitNs(2 * tuples, 1);
  c.sink_emit_ns_contended = SinkEmitNs(2 * tuples, 2);
  return c;
}

}  // namespace perfbench
}  // namespace bistream
