#pragma once
// Shared vocabulary of the repository benchmark: the clock, counter
// arithmetic, per-call samples, and the interface every workload
// implements. A workload drives the tcu library only through its public
// entry points; main.cpp owns the closed loop, the
// calibration kernel, the oracle bookkeeping and the metrics.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/device.hpp"
#include "core/pool.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The configuration printed with every result.
struct WorkloadConfig {
  std::string backend;
  std::size_t p = 1;
  std::size_t m = 0;
  std::uint64_t latency = 0;
  std::size_t resident_tiles = 1;
};

/// One public library call inside an op: its wall span on the submitting
/// thread, the model makespan it added, and the aggregate counter delta
/// over every unit it could touch (shared CPU included).
struct CallSample {
  std::string name;  ///< "<module>.<call>"
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t sim = 0;
  tcu::Counters delta;
};

struct OpSample {
  std::vector<CallSample> calls;

  /// Wall time of the op: the library calls only, never the untimed input
  /// copies or counter snapshots between them.
  std::int64_t wall_ns() const {
    std::int64_t total = 0;
    for (const auto& c : calls) total += c.t1 - c.t0;
    return total;
  }
  std::uint64_t sim_cost() const {
    std::uint64_t total = 0;
    for (const auto& c : calls) total += c.sim;
    return total;
  }
  tcu::Counters delta() const {
    tcu::Counters total;
    for (const auto& c : calls) total += c.delta;
    return total;
  }
};

/// What one set-up cycle spent, and on what.
struct SetupSample {
  double total_s = 0;      ///< construction + packing + warm-up op
  double spawn_s = 0;      ///< PoolExecutor construction (worker spawn)
  double pack_s = 0;       ///< TiledMatrix packing
  std::uint64_t pack_bytes = 0;  ///< bytes read + written by packing
  std::int64_t calib_ns = 0;  ///< calibration kernel around the cycle
};

/// Per-unit counter snapshot of one pool (or one serial device).
struct Snapshot {
  std::vector<tcu::Counters> units;
  tcu::Counters shared;
};

template <typename T>
Snapshot snapshot(const tcu::DevicePool<T>& pool) {
  Snapshot s;
  s.units.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    s.units.push_back(pool.unit(i).counters());
  }
  s.shared = pool.cpu();
  return s;
}

template <typename T>
Snapshot snapshot(const tcu::Device<T>& dev) {
  return Snapshot{{dev.counters()}, {}};
}

/// Model makespan between two snapshots: the busiest unit's added tensor
/// and CPU time plus the added shared CPU time (DevicePool::makespan
/// applied to the deltas).
std::uint64_t makespan_delta(const Snapshot& before, const Snapshot& after);
tcu::Counters aggregate_delta(const Snapshot& before, const Snapshot& after);

/// Time one public library call on `target` (a DevicePool or a Device).
template <typename Target, typename F>
CallSample timed_call(std::string name, const Target& target, F&& call) {
  const Snapshot before = snapshot(target);
  CallSample c;
  c.name = std::move(name);
  c.t0 = now_ns();
  call();
  c.t1 = now_ns();
  const Snapshot after = snapshot(target);
  c.sim = makespan_delta(before, after);
  c.delta = aggregate_delta(before, after);
  return c;
}

class Tracer;

/// One set-up of a workload: the devices, pools, executors and packed
/// operands that serve its ops. Destroying it is the tear-down.
class Instance {
 public:
  virtual ~Instance() = default;

  /// Run op `i` (input variant i mod V); untimed input copies first.
  virtual OpSample run_op(std::size_t i) = 0;

  /// Oracle check of op `i`: outputs bitwise against the serial kSim
  /// oracle, counters against the documented pool-vs-serial relations.
  virtual bool check(std::size_t i, const OpSample& op) const = 0;

  /// Flip one element of the last op's output (self-test of `check`).
  virtual void corrupt_output() = 0;

  /// Attach (tracer) or detach (nullptr) an observer on every unit.
  virtual void attach(Tracer* tracer) = 0;
};

/// One named workload. The constructor generates the seeded inputs and
/// computes the serial oracle (untimed); `setup` builds an Instance and is
/// what setup_s measures.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual WorkloadConfig config() const = 0;

  /// Construct devices, pools and executors, pack operands and weights,
  /// and run one warm-up op; `out` receives the timings.
  virtual std::unique_ptr<Instance> setup(SetupSample& out) const = 0;

  /// Serial oracle model time of one op (the sim_speedup base).
  virtual std::uint64_t serial_time() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
std::vector<std::string> workload_names();

/// Every public call any workload makes (per-layer metric names).
std::vector<std::string> all_call_names();

}  // namespace perfbench
