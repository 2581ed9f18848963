#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `iv` clipped to [lo, hi].
std::int64_t covered_length(std::vector<Interval> iv, std::int64_t lo,
                            std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t end = lo;
  for (const auto& [a, b] : iv) {
    const std::int64_t s = std::max(a, end);
    const std::int64_t e = std::min(b, hi);
    if (e > s) {
      total += e - s;
      end = e;
    }
  }
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::record_op(const OpSample& op) {
  if (op.calls.empty()) return true;
  const std::int64_t op_t0 = op.calls.front().t0;
  const std::int64_t op_t1 = op.calls.back().t1;
  const bool keep = stats_.ops < keep_ops_;
  bool ok = true;

  const std::size_t nc = op.calls.size();
  auto call_of = [&op, nc](std::int64_t t0, std::int64_t t1) -> long {
    for (std::size_t c = 0; c < nc; ++c) {
      if (op.calls[c].t0 <= t0 && t1 <= op.calls[c].t1) {
        return static_cast<long>(c);
      }
    }
    return -1;
  };
  // Per call: the child spans covering it, and each lane's busy time.
  std::vector<std::vector<Interval>> children(nc);
  std::vector<std::vector<std::int64_t>> busy(
      nc, std::vector<std::int64_t>(lanes_.size(), 0));

  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    LaneLog& lane = *lanes_[li];
    const int tid = static_cast<int>(li) + 1;
    std::int64_t prev_end = op_t0;
    std::int64_t lane_task_ns = 0;
    for (const TaskSpan& t : lane.tasks) {
      const std::int64_t dur = t.t1 - t.t0;
      if (t.t0 < prev_end || dur < 0 || t.t1 > op_t1 || t.backend_ns > dur) {
        ok = false;
      }
      prev_end = std::max(prev_end, t.t1);
      const long c = call_of(t.t0, t.t1);
      if (c < 0) {
        ok = false;
      } else {
        children[static_cast<std::size_t>(c)].push_back({t.t0, t.t1});
        busy[static_cast<std::size_t>(c)][li] += dur;
      }
      ++stats_.tasks;
      stats_.task_ns += dur;
      stats_.backend_in_tasks_ns += t.backend_ns;
      stats_.task_durations.push_back(dur);
      lane_task_ns += dur;
      if (keep) events_.push_back({"task", tid, t.t0, t.t1});
    }
    std::int64_t lane_backend_outside = 0;
    std::int64_t prev_task = -2;
    std::int64_t prev_t1 = 0;
    long prev_call = -1;
    for (const GemmSpan& g : lane.gemms) {
      const std::int64_t d = g.t1 - g.t0;
      if (g.t0 < op_t0 || g.t1 > op_t1) ok = false;
      stats_.backend_ns += d;
      ++stats_.gemms;
      const long c = call_of(g.t0, g.t1);
      if (g.task >= 0) {
        const TaskSpan& t = lane.tasks[static_cast<std::size_t>(g.task)];
        if (g.t0 < t.t0 || g.t1 > t.t1) ok = false;
      } else if (c < 0) {
        ok = false;
      } else {
        children[static_cast<std::size_t>(c)].push_back({g.t0, g.t1});
        lane_backend_outside += d;
      }
      // Consecutive tensor calls of one task (or, outside tasks, of one
      // public call): the gap is the device's issue path plus the
      // caller's loop around it.
      const bool consecutive =
          g.task >= 0 ? g.task == prev_task
                      : (prev_task == -1 && c >= 0 && c == prev_call);
      if (consecutive) {
        stats_.call_gap_ns += g.t0 - prev_t1;
        ++stats_.call_gaps;
      }
      prev_task = g.task;
      prev_t1 = g.t1;
      prev_call = c;
      if (keep) events_.push_back({"backend", tid, g.t0, g.t1});
    }
    // The lane's op span = task self + backend + gaps; gaps must be >= 0.
    if (lane_task_ns + lane_backend_outside > op_t1 - op_t0) ok = false;
    stats_.markers += lane.markers;
    lane.tasks.clear();
    lane.gemms.clear();
    lane.markers = 0;
  }

  std::int64_t calls_ns = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    const CallSample& call = op.calls[c];
    const std::int64_t span = call.t1 - call.t0;
    calls_ns += span;
    stats_.call_ns[call.name] += span;
    stats_.call_self_ns[call.name] +=
        span - covered_length(children[c], call.t0, call.t1);
    // The pool this call ran on: the group of its busiest lane.
    std::size_t busiest = lanes_.size();
    for (std::size_t li = 0; li < lanes_.size(); ++li) {
      if (busy[c][li] > 0 &&
          (busiest == lanes_.size() || busy[c][li] > busy[c][busiest])) {
        busiest = li;
      }
    }
    if (busiest == lanes_.size()) {
      stats_.capacity_ns += span;  // a serial call: one lane
    } else {
      const std::size_t group = lanes_[busiest]->group;
      std::int64_t sum = 0;
      std::int64_t mx = 0;
      std::size_t n = 0;
      for (std::size_t li = 0; li < lanes_.size(); ++li) {
        if (lanes_[li]->group != group) continue;
        sum += busy[c][li];
        mx = std::max(mx, busy[c][li]);
        ++n;
      }
      const double mean = static_cast<double>(sum) / static_cast<double>(n);
      stats_.imbalance_sum += static_cast<double>(mx) / mean;
      ++stats_.imbalance_calls;
      stats_.capacity_ns += span * static_cast<std::int64_t>(n);
      stats_.pooled_capacity_ns += span * static_cast<std::int64_t>(n);
    }
    if (keep) events_.push_back({call.name, 0, call.t0, call.t1});
  }
  stats_.op_ns += op_t1 - op_t0;
  stats_.op_self_ns += (op_t1 - op_t0) - calls_ns;
  if (keep) events_.push_back({"op", 0, op_t0, op_t1});
  ++stats_.ops;
  return ok;
}

void Tracer::write_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t base = 0;
  for (const Event& e : events_) {
    if (base == 0 || e.t0 < base) base = e.t0;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"submitter\"}}";
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    out << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << li + 1
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(lanes_[li]->name) << "\"}}";
  }
  out << std::fixed << std::setprecision(3);
  for (const Event& e : events_) {
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"name\":\""
        << json_escape(e.name) << "\",\"ts\":"
        << static_cast<double>(e.t0 - base) / 1e3
        << ",\"dur\":" << static_cast<double>(e.t1 - e.t0) / 1e3 << "}";
  }
  out << "\n]}\n";
}

void Tracer::write_self_times(std::ostream& out) const {
  const double ops = static_cast<double>(std::max<std::uint64_t>(stats_.ops, 1));
  const double op_ms = static_cast<double>(stats_.op_ns) / 1e6 / ops;
  char line[160];
  auto row = [&](const std::string& layer, std::int64_t total,
                 std::int64_t self) {
    const double t = static_cast<double>(total) / 1e6 / ops;
    const double s = static_cast<double>(self) / 1e6 / ops;
    std::snprintf(line, sizeof line, "%-36s %12.4f %12.4f %9.3f\n",
                  layer.c_str(), t, s, op_ms > 0 ? s / op_ms : 0.0);
    out << line;
  };
  std::snprintf(line, sizeof line, "%-36s %12s %12s %9s\n", "layer",
                "total ms/op", "self ms/op", "self/op");
  out << line;
  row("op (benchmark)", stats_.op_ns, stats_.op_self_ns);
  for (const auto& [name, ns] : stats_.call_ns) {
    row("call " + name, ns, stats_.call_self_ns.at(name));
  }
  row("lane tasks (pool, lane-summed)", stats_.task_ns,
      stats_.task_ns - stats_.backend_in_tasks_ns);
  row("backend (lane-summed)", stats_.backend_ns, stats_.backend_ns);
}

}  // namespace perfbench
