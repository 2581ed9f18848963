// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Runs one named workload as a closed loop with one client: each op starts
// when the previous one returns. The frozen calibration kernel is timed
// between ops, so that each op has a kernel time just before and just
// after it. Every op's outputs and counters are checked
// against a serial kSim oracle. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from an observer-traced run. The line before it is the
// configuration the result was measured under.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hpp"
#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Set-up cycles per run; setup_s is their median. The first builds the
/// instance that serves the ops; the others are spread evenly over the
/// untraced measurement, between ops, so that setup_s samples the same
/// stretch of machine time as the ops do.
constexpr std::size_t kSetupCycles = 11;
/// Untraced runs measure at least this many ops, so that op_cal_p90 has
/// at least ten samples beyond it.
constexpr std::size_t kMinOps = 120;
/// Ops per window of op_cal_p50 and op_cal_p90 (see windowed_quantile);
/// each window's p90 has at least ten samples beyond it.
constexpr std::size_t kWindowOps = 100;
/// Each half of a traced run (untraced, then traced) measures at least
/// this many ops.
constexpr std::size_t kMinTraceOps = 30;
/// sim_cost is the mean model makespan of the first this-many measured
/// ops (every run measures at least kMinTraceOps).
constexpr std::size_t kSimWindowOps = kMinTraceOps;
/// Nominal time of the calibration kernel, in seconds. setup_s is reported
/// at this kernel speed (see `run`).
constexpr double kCalibNominalS = 0.004;
/// Ops written to the Chrome trace file.
constexpr std::size_t kTraceFileOps = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;
};

int usage() {
  std::cerr << "usage: perfbench --workload <";
  const auto names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i ? "|" : "") << names[i];
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = a.seconds > 0;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
      } else if (key == "--trace-dir") {
        a.trace_dir = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/// Refuse configurations whose numbers would not describe the library as
/// built for use: an overridden backend, or an unoptimized or checked
/// build.
bool config_guard() {
  bool ok = true;
  if (std::getenv("TCU_BACKEND") != nullptr) {
    std::cerr << "perfbench: TCU_BACKEND is set; unset it to measure the "
                 "default backend\n";
    ok = false;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "perfbench: unoptimized build; configure with "
               "-DCMAKE_BUILD_TYPE=Release\n";
  ok = false;
#endif
#ifdef TCU_CHECK
  std::cerr << "perfbench: TCU_CHECK build; the contract checker would be "
               "timed\n";
  ok = false;
#endif
  return ok;
}

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// The median, over consecutive windows of kWindowOps samples (the last
/// one takes the remainder), of each window's q-quantile. On a shared host
/// a stretch of heavy contention slows the ops more than the calibration
/// kernel; the quantile over all ops moves with the stretch's share of the
/// run, this one only when the stretch covers half the windows.
double windowed_quantile(const std::vector<double>& v, double q) {
  const std::size_t windows = std::max<std::size_t>(v.size() / kWindowOps, 1);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * kWindowOps);
    const auto last = w + 1 == windows ? v.end() : first + kWindowOps;
    per_window.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(per_window);
}

/// Samples strictly after the nearest-rank q-quantile position.
std::size_t beyond(std::size_t n, double q) {
  return n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
}

struct Phase {
  std::vector<double> op_ms;
  std::vector<double> cal;       ///< op time / calibration time around it
  std::vector<double> calib_ms;  ///< kernel time just before each op
  std::vector<std::uint64_t> sim;
  std::map<std::string, std::vector<double>> call_ms;
  std::map<std::string, std::vector<std::uint64_t>> call_sim;
  tcu::Counters delta;  ///< summed over the phase's ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t op_ns = 0;
  bool accounting_ok = true;
  std::size_t next_op = 0;
  /// Peak RSS before the first interleaved set-up cycle, in MiB.
  double peak_rss_mb = 0;
};

/// Peak resident memory of the process so far, in MiB.
double read_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One set-up cycle, bracketed by the calibration kernel: the sample's
/// calib_ns is the mean of the kernel times just before and just after it.
std::unique_ptr<Instance> setup_cycle(const Workload& wl, Calibrator& calib,
                                      SetupSample& s) {
  const std::int64_t before = calib.run();
  auto inst = wl.setup(s);
  s.calib_ns = (before + calib.run()) / 2;
  return inst;
}

/// The closed loop: calibrate, run one op, check it; repeat for `seconds`
/// and at least `min_ops` ops. When `setups` is given, set-up cycles of a
/// throwaway instance are interleaved until it holds kSetupCycles samples;
/// the peak RSS is read before the first of them, so that it is the served
/// program's and not that of the served and a throwaway instance together.
Phase run_phase(const Workload& wl, Instance& inst, Calibrator& calib,
                double seconds, std::size_t min_ops, Tracer* tracer,
                std::size_t first_op, std::vector<SetupSample>* setups) {
  Phase ph;
  const std::size_t setups_before = setups ? setups->size() : 0;
  // A hard stop, so that a run ends in bounded time even when the ops are
  // far slower than expected.
  const double cap = std::max(2.0 * seconds, seconds + 30.0);
  const std::int64_t start = now_ns();
  std::vector<std::int64_t> op_ns, cal_ns;  // cal_ns[k]: just before op k
  std::size_t i = first_op;
  for (;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if ((elapsed >= seconds && ph.attempted >= min_ops) || elapsed >= cap) {
      break;
    }
    if (setups && setups->size() < kSetupCycles) {
      const double due = seconds *
                         static_cast<double>(setups->size() - setups_before + 1) /
                         static_cast<double>(kSetupCycles - setups_before + 1);
      if (elapsed >= due) {
        if (ph.peak_rss_mb == 0) ph.peak_rss_mb = read_peak_rss_mb();
        SetupSample s;
        setup_cycle(wl, calib, s);  // the instance is torn down right away
        setups->push_back(s);
      }
    }
    cal_ns.push_back(calib.run());
    const OpSample op = inst.run_op(i);
    const bool ok = inst.check(i, op);
    if (tracer && !tracer->record_op(op)) ph.accounting_ok = false;
    const std::int64_t ns = op.wall_ns();
    ++ph.attempted;
    if (!ok) ++ph.failed;
    ph.op_ns += ns;
    op_ns.push_back(ns);
    ph.op_ms.push_back(static_cast<double>(ns) * 1e-6);
    ph.calib_ms.push_back(static_cast<double>(cal_ns.back()) * 1e-6);
    ph.sim.push_back(op.sim_cost());
    ph.delta += op.delta();
    for (const CallSample& c : op.calls) {
      ph.call_ms[c.name].push_back(static_cast<double>(c.t1 - c.t0) * 1e-6);
      ph.call_sim[c.name].push_back(c.sim);
    }
  }
  ph.next_op = i;
  // Each op is divided by the mean of the kernel times just before and
  // just after it, so that a change of machine speed during the op counts
  // half on each side. On gemm_serial this halves the run-to-run spread
  // of op_cal_p90 against dividing by the kernel before the op alone.
  cal_ns.push_back(calib.run());
  for (std::size_t k = 0; k < op_ns.size(); ++k) {
    ph.cal.push_back(static_cast<double>(op_ns[k]) /
                     (0.5 * static_cast<double>(cal_ns[k] + cal_ns[k + 1])));
  }
  if (ph.peak_rss_mb == 0) ph.peak_rss_mb = read_peak_rss_mb();
  return ph;
}

/// Mean over the first kSimWindowOps model costs.
double window_mean(const std::vector<std::uint64_t>& sims) {
  const std::size_t n = std::min(sims.size(), kSimWindowOps);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) total += static_cast<double>(sims[k]);
  return per(total, static_cast<double>(n));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::ostringstream s;
    s << static_cast<long long>(v);
    return s.str();
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << format_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Args& args) {
  // Input generation and the serial oracle: untimed.
  auto wl = make_workload(args.workload, args.seed);
  const WorkloadConfig cfg = wl->config();
  Calibrator calib(cfg.p);
  for (int i = 0; i < 3; ++i) calib.run();

  std::vector<SetupSample> setups(1);
  const std::unique_ptr<Instance> inst =
      setup_cycle(*wl, calib, setups.front());

  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t min_ops = args.trace ? kMinTraceOps : kMinOps;
  Phase plain =
      run_phase(*wl, *inst, calib, phase_s, min_ops, nullptr, 1, &setups);
  std::size_t next_op = plain.next_op;

  Tracer tracer(kTraceFileOps);
  Phase traced;
  if (args.trace) {
    inst->attach(&tracer);
    traced = run_phase(*wl, *inst, calib, phase_s, min_ops, &tracer, next_op,
                       nullptr);
    inst->attach(nullptr);
    next_op = traced.next_op;
  }

  // Self-test of the oracle: a clean op must pass, the same op with one
  // corrupted output element must fail.
  const OpSample probe = inst->run_op(next_op);
  const bool probe_ok = inst->check(next_op, probe);
  inst->corrupt_output();
  const bool corruption_caught = !inst->check(next_op, probe);

  // A persistent executor deals each op against the lanes' cumulative
  // load, so one op's makespan depends on the ops before it. The ops of a
  // fixed window right after set-up are the same in every run.
  const double sim_cost = window_mean(plain.sim);

  const double calib_ms = median(plain.calib_ms);
  // Absolute wall times of the untraced ops. A single-threaded op on a
  // shared host drifts by tens of percent over minutes while its ratio to
  // the calibration kernel holds to a few percent, so these are reported
  // but gated only through op_cal_*.
  const double op_ms_p50 = median(plain.op_ms);
  const double ops_per_s = per(static_cast<double>(plain.attempted),
                               static_cast<double>(plain.op_ns) * 1e-9);
  const std::uint64_t attempted = plain.attempted + traced.attempted;
  const std::uint64_t failed = plain.failed + traced.failed;
  bool correct = failed == 0 && probe_ok && corruption_caught;
  if (!probe_ok || !corruption_caught) {
    std::cerr << "perfbench: oracle self-test failed (clean op "
              << (probe_ok ? "passed" : "failed") << ", corrupted op "
              << (corruption_caught ? "caught" : "not caught") << ")\n";
  }
  if (!args.trace && beyond(plain.cal.size(), 0.9) < 10) {
    std::cerr << "perfbench: fewer than 10 samples beyond op_cal_p90\n";
  }

  // setup_s is the set-up time at the calibration kernel's nominal speed:
  // the median over cycles of (cycle time / kernel time around it),
  // times kCalibNominalS. Raw set-up seconds drift with the host exactly
  // as op times do (20% and more between runs minutes apart).
  std::vector<double> setup_cal, setup_wall_s, spawn_ms, pack_ms, pack_gbps;
  for (const SetupSample& s : setups) {
    setup_wall_s.push_back(s.total_s);
    setup_cal.push_back(s.total_s / (static_cast<double>(s.calib_ns) * 1e-9));
    spawn_ms.push_back(s.spawn_s * 1e3);
    pack_ms.push_back(s.pack_s * 1e3);
    pack_gbps.push_back(s.pack_s > 0 ? static_cast<double>(s.pack_bytes) /
                                           s.pack_s * 1e-9
                                     : 0.0);
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "{\"config\": {\"workload\": \"" << args.workload
            << "\", \"backend\": \"" << cfg.backend << "\", \"p\": " << cfg.p
            << ", \"m\": " << cfg.m << ", \"latency\": " << cfg.latency
            << ", \"resident_tiles\": " << cfg.resident_tiles
            << ", \"seed\": " << args.seed << ", \"nproc\": " << nproc
            << ", \"calib_ms\": " << format_number(calib_ms)
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}, \"wall\": {"
            << "\"op_ms_p50\": " << format_number(op_ms_p50)
            << ", \"ops_per_s\": " << format_number(ops_per_s)
            << ", \"setup_s\": " << format_number(median(setup_wall_s)) << "}}"
            << std::endl;

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double n = static_cast<double>(plain.attempted);
    metrics = {
        {"op_cal_p50", windowed_quantile(plain.cal, 0.5), "cal"},
        {"op_cal_p90", windowed_quantile(plain.cal, 0.9), "cal"},
        {"sim_cost", sim_cost, "model_units"},
        {"pass_rate", per(n - static_cast<double>(plain.failed), n), "ratio"},
        {"setup_s", median(setup_cal) * kCalibNominalS, "s"},
        {"peak_rss_mb", plain.peak_rss_mb, "MiB"},
    };
  } else {
    correct = correct && traced.accounting_ok;
    if (!traced.accounting_ok) {
      std::cerr << "perfbench: lane spans do not partition the op span\n";
    }
    const TraceStats& st = tracer.stats();
    const double ops = static_cast<double>(st.ops);
    const tcu::Counters& d = traced.delta;
    std::vector<double> task_us;
    for (const std::int64_t t : st.task_durations) {
      task_us.push_back(static_cast<double>(t) * 1e-3);
    }
    const double backend_ns = static_cast<double>(st.backend_ns);
    const double task_ns = static_cast<double>(st.task_ns);
    const double pooled = static_cast<double>(st.pooled_capacity_ns);
    metrics = {
        {"op.ms_p50", op_ms_p50, "ms"},
        {"op.ops_per_s", ops_per_s, "1/s"},
        {"setup.wall_s", median(setup_wall_s), "s"},
        {"backend.busy_ms", per(backend_ns * 1e-6, ops), "ms"},
        {"backend.gflops",
         per(2.0 * static_cast<double>(d.tensor_macs), backend_ns), "GF/s"},
        {"backend.share",
         per(backend_ns, static_cast<double>(st.capacity_ns)), "ratio"},
        {"device.calls", per(static_cast<double>(st.gemms), ops), "count"},
        {"device.overhead_us_per_call",
         per(static_cast<double>(st.call_gap_ns) * 1e-3,
             static_cast<double>(st.call_gaps)),
         "us"},
        {"cache.hits", per(static_cast<double>(d.resident_hits), ops),
         "count"},
        {"cache.evictions", per(static_cast<double>(d.evictions), ops),
         "count"},
        {"cache.latency_saved", per(static_cast<double>(d.latency_saved), ops),
         "model_units"},
        {"cache.hit_rate",
         per(static_cast<double>(d.resident_hits),
             static_cast<double>(d.tagged_calls)),
         "ratio"},
        {"matrix.pack_ms", median(pack_ms), "ms"},
        {"matrix.pack_gbps", median(pack_gbps), "GB/s"},
        {"pool.spawn_ms", median(spawn_ms), "ms"},
        {"pool.tasks", per(static_cast<double>(st.tasks), ops), "count"},
        {"pool.task_us_p50", median(task_us), "us"},
        {"pool.lane_busy_frac", per(task_ns, pooled), "ratio"},
        {"pool.lane_imbalance",
         per(st.imbalance_sum, static_cast<double>(st.imbalance_calls)),
         "ratio"},
        {"pool.gap_us_per_task",
         per((pooled - task_ns) * 1e-3, static_cast<double>(st.tasks)), "us"},
        {"model.tensor_time", per(static_cast<double>(d.tensor_time), ops),
         "model_units"},
        {"model.latency_time", per(static_cast<double>(d.latency_time), ops),
         "model_units"},
        {"model.cpu_ops", per(static_cast<double>(d.cpu_ops), ops),
         "model_units"},
        {"model.sim_speedup",
         per(static_cast<double>(wl->serial_time()), sim_cost), "ratio"},
    };
    for (const std::string& call : all_call_names()) {
      const auto ms = plain.call_ms.find(call);
      const auto sim = plain.call_sim.find(call);
      metrics.push_back({call + "_ms",
                         ms == plain.call_ms.end() ? 0.0 : median(ms->second),
                         "ms"});
      metrics.push_back(
          {call + "_sim",
           sim == plain.call_sim.end() ? 0.0 : window_mean(sim->second),
           "model_units"});
    }
    metrics.push_back({"calib.ms", calib_ms, "ms"});
    metrics.push_back({"trace.overhead",
                       per(median(traced.op_ms), op_ms_p50),
                       "ratio"});
    metrics.push_back({"trace.markers", per(static_cast<double>(st.markers), ops),
                       "count"});

    tracer.write_self_times(std::cerr);
    if (!args.trace_dir.empty()) {
      const std::string stem = args.trace_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed);
      tracer.write_trace(stem + ".trace.json");
      std::ofstream table(stem + ".selftime.txt");
      tracer.write_self_times(table);
    }
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) return perfbench::usage();
  if (!perfbench::config_guard()) return 3;
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
