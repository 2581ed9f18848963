#pragma once
// The traced run: a benchmark-owned `check::UnitObserver` on every unit
// records per-lane task spans (on_task_begin / on_task_end), per-call
// backend time (Device::wall_ns deltas read in on_gemm) and the epoch
// markers `join_epoch()` enqueues while an observer is attached. The
// benchmark adds its own spans around every op and every public call. Spans
// stay in memory; `write_trace` emits the first ops as Chrome trace-event JSON
// and `write_self_times` the self-time table.
//
// Threading: each observer writes only its own LaneLog, on the thread that
// owns the unit (the pool's worker, or the caller for a serial device).
// `record_op` reads the logs on the submitting thread after the op's
// public calls returned, i.e. after their strict joins, when every worker
// is idle.

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "core/observer.hpp"
#include "harness.hpp"

namespace perfbench {

struct TaskSpan {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t backend_ns = 0;  ///< backend time of the task's calls
};

struct GemmSpan {
  std::int64_t t0 = 0;  ///< end minus the backend time of the call
  std::int64_t t1 = 0;  ///< when the device notified its observer
  std::int64_t task = -1;  ///< index into the lane's tasks, -1 outside tasks
};

/// What one unit's observer recorded since the last `record_op`.
struct LaneLog {
  std::string name;
  std::size_t group = 0;  ///< lanes of one pool share a group
  std::vector<TaskSpan> tasks;
  std::vector<GemmSpan> gemms;
  std::uint64_t markers = 0;
  bool in_task = false;
};

template <typename T>
class LaneObserver final : public tcu::check::UnitObserver {
 public:
  LaneObserver(const tcu::Device<T>& unit, LaneLog& log)
      : unit_(unit), log_(log), last_wall_(unit.wall_ns()) {}

  void on_gemm(std::uint64_t, bool, const tcu::Counters&,
               const std::vector<std::uint64_t>&) override {
    const std::int64_t t = now_ns();
    const std::uint64_t wall = unit_.wall_ns();
    const auto d = static_cast<std::int64_t>(wall - last_wall_);
    last_wall_ = wall;
    const auto task = log_.in_task
                          ? static_cast<std::int64_t>(log_.tasks.size()) - 1
                          : std::int64_t{-1};
    log_.gemms.push_back({t - d, t, task});
    if (log_.in_task) log_.tasks.back().backend_ns += d;
  }
  void on_reset() override { last_wall_ = 0; }
  void on_task_begin(const std::vector<std::uint64_t>*, std::uint64_t, bool,
                     bool) override {
    log_.tasks.push_back({now_ns(), 0, 0});
    log_.in_task = true;
  }
  void on_task_end(bool) override {
    log_.tasks.back().t1 = now_ns();
    log_.in_task = false;
  }
  void on_epoch(const std::vector<std::uint64_t>&, std::uint64_t) override {
    ++log_.markers;
  }

 private:
  const tcu::Device<T>& unit_;
  LaneLog& log_;
  std::uint64_t last_wall_;
};

/// Per-layer totals over every traced op.
struct TraceStats {
  std::uint64_t ops = 0;
  std::int64_t op_ns = 0;        ///< sum of op spans
  std::int64_t op_self_ns = 0;   ///< op spans minus their call spans
  std::int64_t capacity_ns = 0;  ///< sum over calls of span x lanes
  std::int64_t pooled_capacity_ns = 0;  ///< the same, pooled calls only
  std::int64_t backend_ns = 0;
  std::int64_t backend_in_tasks_ns = 0;
  std::uint64_t gemms = 0;
  std::uint64_t tasks = 0;
  std::int64_t task_ns = 0;
  std::vector<std::int64_t> task_durations;
  std::int64_t call_gap_ns = 0;  ///< between consecutive calls of a task
  std::uint64_t call_gaps = 0;
  double imbalance_sum = 0;
  std::uint64_t imbalance_calls = 0;
  std::uint64_t markers = 0;
  std::map<std::string, std::int64_t> call_ns;       ///< per public call
  std::map<std::string, std::int64_t> call_self_ns;  ///< minus lane work
};

class Tracer {
 public:
  explicit Tracer(std::size_t keep_ops) : keep_ops_(keep_ops) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Attach a recording observer to `unit`. The caller detaches it
  /// (set_observer(nullptr)) before this tracer is destroyed.
  template <typename T>
  void attach(tcu::Device<T>& unit, std::string name, std::size_t group) {
    auto log = std::make_unique<LaneLog>();
    log->name = std::move(name);
    log->group = group;
    auto obs = std::make_unique<LaneObserver<T>>(unit, *log);
    unit.set_observer(obs.get());
    lanes_.push_back(std::move(log));
    observers_.push_back(std::move(obs));
  }

  /// Consume the spans the lanes recorded during `op` and fold them into
  /// the totals. Returns false unless every lane's task spans lie inside
  /// the op's call spans without overlapping, every task's backend time
  /// fits inside it — so per lane, task self time + backend time + gaps
  /// add up to exactly the op span.
  bool record_op(const OpSample& op);

  const TraceStats& stats() const { return stats_; }

  /// Chrome trace-event JSON of the kept ops, and the self-time table.
  void write_trace(const std::string& path) const;
  void write_self_times(std::ostream& out) const;

 private:
  struct Event {
    std::string name;
    int tid = 0;  ///< 0 = the submitting thread; lanes from 1
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
  };

  std::size_t keep_ops_;
  std::vector<std::unique_ptr<LaneLog>> lanes_;
  std::vector<std::unique_ptr<tcu::check::UnitObserver>> observers_;
  TraceStats stats_;
  std::vector<Event> events_;
};

}  // namespace perfbench
