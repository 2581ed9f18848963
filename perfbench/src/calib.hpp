#pragma once
// The calibration kernel: a frozen, benchmark-owned copy of the reference
// GEMM triple loop. It is timed between ops, and each op's time is
// reported as a multiple of it (unit `cal`), which cancels the slow,
// machine-wide speed drift a shared host shows. The kernel never calls
// the library, so library changes cannot move it.
//
// The kernel runs at once on as many threads as the workload has lanes,
// and its time is the wall time until the last copy ends. A pooled op
// waits for its slowest lane, so it slows when any one of the cores it
// runs on is contended; a single-threaded kernel does not see that.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  /// `threads` copies of the kernel: one on the calling thread, the others
  /// on helper threads that sleep between runs.
  explicit Calibrator(std::size_t threads);
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Run every copy once; returns the wall time until the last one ends,
  /// in nanoseconds.
  std::int64_t run();

 private:
  class Kernel;

  void helper(std::size_t t);
  void stop();

  std::vector<std::unique_ptr<Kernel>> kernels_;  ///< [0]: calling thread
  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable start_cv_, done_cv_;
  std::uint64_t round_ = 0;
  std::size_t done_ = 0;
  bool stopping_ = false;
};

}  // namespace perfbench
