#include "calib.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace perfbench {

namespace {

// An n x s by s x s product: about 4.2 M multiply-adds.
constexpr std::size_t kRows = 1024;
constexpr std::size_t kDim = 64;
// a, b and c each start on a page of one block, so their offsets from one
// another, and with them any 4K aliasing, are the same in every run.
constexpr std::size_t kPage = 4096;

// Kept out of line so the compiler cannot fold it into the timing code,
// and aligned so that its loops sit at the same offset within a cache line
// in every build: the speed of a loop this tight depends on where its
// branches fall in the instruction fetch windows, and without the
// alignment an unrelated change elsewhere in the binary moved the kernel's
// time by up to 2x.
__attribute__((noinline, aligned(64))) void reference_gemm(const double* a,
                                                           const double* b,
                                                           double* c) {
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < kDim; ++k) {
        acc += a[i * kDim + k] * b[k * kDim + j];
      }
      c[i * kDim + j] = acc;
    }
  }
}

}  // namespace

/// One copy of the kernel with its own arrays.
class Calibrator::Kernel {
 public:
  Kernel()
      : block_(static_cast<double*>(
            std::aligned_alloc(kPage, (2 * kRows * kDim + kDim * kDim) *
                                          sizeof(double)))),
        a_(block_.get()),
        b_(a_ + kRows * kDim),
        c_(b_ + kDim * kDim) {
    if (!block_) throw std::bad_alloc();
    // Fixed inputs, independent of the workload seed.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5;
    };
    for (std::size_t i = 0; i < kRows * kDim; ++i) a_[i] = next();
    for (std::size_t i = 0; i < kDim * kDim; ++i) b_[i] = next();
  }

  void run() {
    reference_gemm(a_, b_, c_);
    sink_ += c_[(static_cast<std::size_t>(now_ns()) % kRows) * kDim];
    // Publish the sink so the product is observable.
    asm volatile("" : : "r"(&sink_) : "memory");
  }

 private:
  struct Free {
    void operator()(double* p) const { std::free(p); }
  };
  std::unique_ptr<double, Free> block_;
  double* a_;
  double* b_;
  double* c_;
  double sink_ = 0;
};

Calibrator::Calibrator(std::size_t threads) {
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    kernels_.push_back(std::make_unique<Kernel>());
  }
  try {
    for (std::size_t t = 1; t < kernels_.size(); ++t) {
      helpers_.emplace_back([this, t] { helper(t); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

Calibrator::~Calibrator() { stop(); }

void Calibrator::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& h : helpers_) h.join();
}

void Calibrator::helper(std::size_t t) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stopping_ || round_ != seen; });
    if (stopping_) return;
    seen = round_;
    lock.unlock();
    kernels_[t]->run();
    lock.lock();
    if (++done_ == kernels_.size() - 1) done_cv_.notify_one();
  }
}

std::int64_t Calibrator::run() {
  const std::int64_t t0 = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = 0;
    ++round_;
  }
  start_cv_.notify_all();
  kernels_[0]->run();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_ == kernels_.size() - 1; });
  return now_ns() - t0;
}

}  // namespace perfbench
