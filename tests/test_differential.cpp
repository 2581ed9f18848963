// Randomized differential test of the one Theorem 2 core (dense.hpp's
// detail::Theorem2, dealt by parallel.hpp's matmul_tcu_pool_strips).
//
// A fixed-seed slice: every case draws a shape (ragged, one row, one
// column or skinny), a layout per operand (row-major view or
// TiledMatrix), a unit count p in 1..4, the tall or weak model, and the
// dealing options (affinity, row_chunks, split_chains). Operands are
// integer-valued doubles or int64, so the split combine's reassociation
// stays exact. Each case checks, with a contract checker attached to the
// pool:
//   * pool == serial on outputs and on the counters_match_serial fields
//     (tensor calls/rows/time/MACs, latency, cpu_ops), up to the exact
//     relations row chunks and the split combine define;
//   * row-major == tiled on serial outputs and tensor counters;
//   * a pooled product whose input is still being written by the
//     previous product's tasks (ticket mode) equals the serial chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"
#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::DevicePool;
using tcu::Matrix;
using tcu::PoolExecutor;
using tcu::TiledMatrix;
using tcu::linalg::InOperand;
using tcu::linalg::OutOperand;
using tcu::util::Xoshiro256;

struct Case {
  std::size_t s = 0, p = 0, q = 0, r = 0, units = 0, cache = 0;
  std::uint64_t ell = 0;
  bool tall = true, a_tiled = false, b_tiled = false, c_tiled = false;
  tcu::linalg::PoolMatmulOptions opts;

  std::string describe() const {
    std::ostringstream os;
    os << p << "x" << q << " * " << q << "x" << r << " s=" << s
       << " l=" << ell << (tall ? " tall" : " weak") << " units=" << units
       << " c=" << cache << " layout=" << (a_tiled ? 'T' : 'R')
       << (b_tiled ? 'T' : 'R') << (c_tiled ? 'T' : 'R')
       << " affinity=" << opts.affinity << " chunks=" << opts.row_chunks
       << " split=" << opts.split_chains;
    return os.str();
  }
};

Case draw_case(Xoshiro256& rng) {
  Case c;
  c.s = static_cast<std::size_t>(rng.uniform_int(2, 4));
  const auto dim = [&](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  c.p = dim(1, 4 * c.s);
  c.q = dim(1, 4 * c.s);
  c.r = dim(1, 4 * c.s);
  switch (rng.uniform_int(0, 3)) {
    case 0: break;                                   // ragged
    case 1: c.p = 1; break;                          // one row
    case 2: c.r = 1; break;                          // one column
    default: c.q = dim(1, c.s); c.p = dim(3 * c.s, 6 * c.s);  // skinny
  }
  c.units = dim(1, 4);
  c.cache = dim(1, 3);
  c.ell = static_cast<std::uint64_t>(rng.uniform_int(1, 40));
  c.tall = rng.uniform_int(0, 1) == 1;
  c.a_tiled = rng.uniform_int(0, 1) == 1;
  c.b_tiled = rng.uniform_int(0, 1) == 1;
  c.c_tiled = rng.uniform_int(0, 1) == 1;
  c.opts.affinity = rng.uniform_int(0, 1) == 1;
  c.opts.row_chunks = dim(0, 3);
  c.opts.split_chains = c.opts.affinity && rng.uniform_int(0, 1) == 1;
  return c;
}

template <typename T>
Matrix<T> int_matrix(std::size_t rows, std::size_t cols, Xoshiro256& rng) {
  Matrix<T> m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = static_cast<T>(rng.uniform_int(-9, 9));
    }
  }
  return m;
}

void expect_tensor_equal(const Counters& got, const Counters& want,
                         const std::string& what) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls) << what;
  EXPECT_EQ(got.tensor_rows, want.tensor_rows) << what;
  EXPECT_EQ(got.tensor_time, want.tensor_time) << what;
  EXPECT_EQ(got.tensor_macs, want.tensor_macs) << what;
  EXPECT_EQ(got.latency_time, want.latency_time) << what;
  EXPECT_EQ(got.resident_hits, want.resident_hits) << what;
}

/// The product C = A * B on `dev` with each operand in the drawn layout;
/// returns C row-major.
template <typename T, typename Run>
Matrix<T> in_layout(const Case& c, const Matrix<T>& a, const Matrix<T>& b,
                    Run&& run) {
  const TiledMatrix<T> ta = TiledMatrix<T>::pack(a.view(), c.s);
  const TiledMatrix<T> tb = TiledMatrix<T>::pack(b.view(), c.s);
  TiledMatrix<T> tc(c.p, c.r, c.s);
  Matrix<T> out(c.p, c.r, T{});
  run(c.a_tiled ? InOperand<T>(ta) : InOperand<T>(a.view()),
      c.b_tiled ? InOperand<T>(tb) : InOperand<T>(b.view()),
      c.c_tiled ? OutOperand<T>(tc) : OutOperand<T>(out.view()));
  return c.c_tiled ? tc.unpack() : out;
}

template <typename T>
void run_case(const Case& c, Xoshiro256& rng) {
  const std::string what = c.describe();
  const Matrix<T> a = int_matrix<T>(c.p, c.q, rng);
  const Matrix<T> b = int_matrix<T>(c.q, c.r, rng);
  const typename Device<T>::Config cfg{.m = c.s * c.s,
                                       .latency = c.ell,
                                       .allow_tall = c.tall,
                                       .resident_tiles = c.cache};
  const auto serial = [&](Device<T>& dev, InOperand<T> x, InOperand<T> y,
                          OutOperand<T> z) {
    if (c.opts.affinity) {
      tcu::linalg::matmul_tcu_resident_into(dev, x, y, z);
    } else {
      tcu::linalg::matmul_tcu_into(dev, x, y, z);
    }
  };

  // Row-major == tiled on serial outputs and tensor counters.
  Device<T> row_dev(cfg);
  Matrix<T> expect(c.p, c.r, T{});
  serial(row_dev, a.view(), b.view(), expect.view());
  Device<T> dev(cfg);
  const Matrix<T> got_serial = in_layout<T>(
      c, a, b, [&](auto x, auto y, auto z) { serial(dev, x, y, z); });
  EXPECT_EQ(got_serial, expect) << what;
  expect_tensor_equal(dev.counters(), row_dev.counters(), what);

  // Pool == serial, same layouts.
  DevicePool<T> pool(c.units, cfg);
  tcu::check::ScopedCheck<T> check(pool);
  PoolExecutor<T> exec(pool);
  const Matrix<T> got_pool =
      in_layout<T>(c, a, b, [&](auto x, auto y, auto z) {
        tcu::linalg::matmul_tcu_pool_into(exec, x, y, z, c.opts);
      });
  EXPECT_EQ(got_pool, expect) << what;
  check.verify();

  // Ticket mode: a second product reads the first one's output while its
  // tasks may still be in flight, ordered only by the epoch fence, so a
  // padded operand must be packed by a task, not at submit time.
  {
    const Matrix<T> b2 = int_matrix<T>(c.r, c.q, rng);
    Device<T> ref2(cfg);
    Matrix<T> expect2(c.p, c.q, T{});
    serial(ref2, expect.view(), b2.view(), expect2.view());
    DevicePool<T> pool2(c.units, cfg);
    PoolExecutor<T> exec2(pool2);
    Matrix<T> x(c.p, c.r, T{}), y(c.p, c.q, T{});
    (void)tcu::linalg::matmul_tcu_pool_strips(exec2, a.view(), b.view(),
                                              x.view(), c.opts);
    exec2.join_epoch();
    (void)tcu::linalg::matmul_tcu_pool_strips(exec2, x.view(), b2.view(),
                                              y.view(), c.opts);
    exec2.join();
    EXPECT_EQ(y, expect2) << "chained, " << what;
  }

  const Counters agg = pool.aggregate();
  const Counters& ref = dev.counters();
  const std::uint64_t k_tiles = (c.q + c.s - 1) / c.s;
  const std::uint64_t strips = (c.r + c.s - 1) / c.s;
  EXPECT_EQ(agg.tensor_macs, ref.tensor_macs) << what;
  EXPECT_EQ(agg.tensor_rows, ref.tensor_rows) << what;
  EXPECT_EQ(agg.tensor_time - agg.latency_time,
            ref.tensor_time - ref.latency_time)
      << what;
  if (c.opts.split_chains && k_tiles > 1) {
    // One call per tile, as serial; the combine sums k_tiles partials of
    // every output element instead of unpadding a ragged row-major C.
    expect_tensor_equal(agg, ref, what);
    const bool serial_unpads = !c.c_tiled && c.r % c.s != 0;
    EXPECT_EQ(agg.cpu_ops, ref.cpu_ops - (serial_unpads ? c.p * c.r : 0) +
                               k_tiles * c.p * c.r)
        << what;
    return;
  }
  EXPECT_EQ(agg.cpu_ops, ref.cpu_ops) << what;
  const std::uint64_t chunks = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(std::max<std::size_t>(c.opts.row_chunks, 1),
                                 c.p / c.s));
  // Every call pays its load or saves it on a resident hit. On tall units
  // each extra chunk re-runs every chain as extra calls; on weak units
  // the chunks only regroup the same square calls.
  const std::uint64_t extra_loads =
      c.tall ? (chunks - 1) * k_tiles * strips : 0;
  EXPECT_EQ(agg.latency_time + agg.latency_saved,
            ref.latency_time + ref.latency_saved + extra_loads * c.ell)
      << what;
  EXPECT_EQ(agg.tensor_calls, ref.tensor_calls + extra_loads) << what;
  if (chunks == 1) expect_tensor_equal(agg, ref, what);
}

TEST(DenseDifferential, PoolMatchesSerialAndLayoutsAgree) {
  Xoshiro256 rng(0x5eed2b);
  for (int i = 0; i < 500; ++i) {
    const Case c = draw_case(rng);
    if (rng.uniform_int(0, 1) == 1) {
      run_case<double>(c, rng);
    } else {
      run_case<std::int64_t>(c, rng);
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing case " << i << ": " << c.describe();
      return;
    }
  }
}

}  // namespace
