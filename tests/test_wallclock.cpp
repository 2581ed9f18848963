// Wall-clock measurement layer: Device::wall_ns() and the multicore
// speedup smoke. The simulated counters are the scientific output; the
// wall-clock numbers corroborate them — the backend seam means the same
// accounting choke point now times real GEMM execution, and a pool of p
// workers must finish the same schedule in less real time than one
// device whenever the machine actually has more than one core.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/device.hpp"
#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;

Matrix<double> random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  return m;
}

TEST(WallClock, DeviceAccumulatesAndResets) {
  Device<double> dev({.m = 16, .latency = 3});
  EXPECT_EQ(dev.wall_ns(), 0u);
  auto a = random_matrix(16, 16, 41);
  auto b = random_matrix(16, 16, 42);
  auto c = tcu::linalg::matmul_tcu(dev, a.view(), b.view());
  // steady_clock around the backend run: some time must have passed.
  EXPECT_GT(dev.wall_ns(), 0u);
  const auto first = dev.wall_ns();
  (void)tcu::linalg::matmul_tcu(dev, a.view(), b.view());
  EXPECT_GT(dev.wall_ns(), first);  // accumulates across calls
  dev.reset();
  EXPECT_EQ(dev.wall_ns(), 0u);  // wall lives outside Counters but
                                 // follows the same reset discipline
}

TEST(WallClock, WallIsNotPartOfTheSimulatedCost) {
  // Two devices running the same schedule report identical Counters
  // regardless of how long the backend actually took — wall_ns is a
  // side channel, never an input to the model.
  Device<double> d1({.m = 16, .latency = 5});
  Device<double> d2({.m = 16, .latency = 5});
  auto a = random_matrix(32, 32, 43);
  auto b = random_matrix(32, 32, 44);
  (void)tcu::linalg::matmul_tcu(d1, a.view(), b.view());
  (void)tcu::linalg::matmul_tcu(d2, a.view(), b.view());
  EXPECT_EQ(d1.counters().time(), d2.counters().time());
  EXPECT_EQ(d1.counters().tensor_macs, d2.counters().tensor_macs);
}

TEST(WallClock, MulticorePoolBeatsSerialWall) {
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores <= 1) {
    GTEST_SKIP() << "single-core runner: no wall-clock speedup to measure";
  }
  const std::size_t p = cores < 4 ? cores : 4;
  const std::size_t d = 512;
  const std::size_t m = 4096;  // sqrt(m) = 64 -> 8 output strips
  auto a = random_matrix(d, d, 45);
  auto b = random_matrix(d, d, 46);

  // Best-of-5 each way, alternating serial and pooled runs so both see
  // the same host load: the comparison is a smoke, not a benchmark, and
  // min-of-k is the standard defence against scheduler noise.
  Device<double> dev({.m = m, .latency = 64});
  DevicePool<double> pool(p, {.m = m, .latency = 64});
  double serial_best = 1e18;
  double pool_best = 1e18;
  for (int r = 0; r < 5; ++r) {
    dev.reset();
    const auto t0 = std::chrono::steady_clock::now();
    auto c = tcu::linalg::matmul_tcu(dev, a.view(), b.view());
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_NE(c.data(), nullptr);
    serial_best =
        std::min(serial_best, std::chrono::duration<double>(t1 - t0).count());

    pool.reset();
    const auto t2 = std::chrono::steady_clock::now();
    PoolExecutor<double> exec(pool);
    auto pc = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    const auto t3 = std::chrono::steady_clock::now();
    ASSERT_NE(pc.data(), nullptr);
    pool_best =
        std::min(pool_best, std::chrono::duration<double>(t3 - t2).count());
  }

  EXPECT_LT(pool_best, serial_best)
      << "pool of " << p << " workers took " << pool_best
      << "s vs serial " << serial_best << "s on " << cores << " cores";

  // The per-unit wall accounting saw the same run: every worker that
  // executed strips accumulated backend time.
  std::uint64_t units_with_wall = 0;
  for (std::size_t u = 0; u < pool.size(); ++u) {
    if (pool.unit(u).wall_ns() > 0) ++units_with_wall;
  }
  EXPECT_GT(units_with_wall, 0u);
}

}  // namespace
