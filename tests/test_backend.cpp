// Backend equivalence: the GemmBackend seam must be invisible to the
// model. Every backend runs beneath the same Device::issue() accounting,
// so swapping sim -> micro (-> blas when compiled in) changes only the
// wall clock: integral and — because every micro ISA tier keeps the
// reference k-summation order with no FMA — floating outputs are
// bit-identical, and every Counters field matches exactly. BLAS
// reassociates, so its float/double outputs are bounded-ulp instead.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/contract.hpp"
#include "core/backend.hpp"
#include "core/device.hpp"
#include "core/pool.hpp"
#include "linalg/dense.hpp"
#include "linalg/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tcu::BackendKind;
using tcu::backend_detail::MicroTier;
using tcu::Counters;
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

Matrix<std::int64_t> random_int_matrix(std::size_t r, std::size_t c,
                                       std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<std::int64_t> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform_int(-9, 9);
  }
  return m;
}

void expect_counters_equal(const Counters& got, const Counters& want,
                           const std::string& what) {
  EXPECT_EQ(got.tensor_calls, want.tensor_calls) << what;
  EXPECT_EQ(got.tensor_rows, want.tensor_rows) << what;
  EXPECT_EQ(got.tensor_time, want.tensor_time) << what;
  EXPECT_EQ(got.tensor_macs, want.tensor_macs) << what;
  EXPECT_EQ(got.latency_time, want.latency_time) << what;
  EXPECT_EQ(got.cpu_ops, want.cpu_ops) << what;
  EXPECT_EQ(got.resident_hits, want.resident_hits) << what;
  EXPECT_EQ(got.latency_saved, want.latency_saved) << what;
  EXPECT_EQ(got.evictions, want.evictions) << what;
  EXPECT_EQ(got.tagged_calls, want.tagged_calls) << what;
}

// ------------------------------------------------------------- selection

TEST(BackendSelect, ParserAndNamesRoundTrip) {
  EXPECT_EQ(tcu::parse_backend_kind("sim"), BackendKind::kSim);
  EXPECT_EQ(tcu::parse_backend_kind("micro"), BackendKind::kMicro);
  EXPECT_EQ(tcu::parse_backend_kind("blas"), BackendKind::kBlas);
  EXPECT_THROW(tcu::parse_backend_kind("cuda"), std::invalid_argument);
  EXPECT_THROW(tcu::parse_backend_kind(""), std::invalid_argument);
  EXPECT_STREQ(tcu::backend_kind_name(BackendKind::kSim), "sim");
  EXPECT_STREQ(tcu::backend_kind_name(BackendKind::kMicro), "micro");
  EXPECT_STREQ(tcu::backend_kind_name(BackendKind::kBlas), "blas");
}

TEST(BackendSelect, DefaultIsMicroAndEnvOverrides) {
  // Restored at the end: a suite rerun under TCU_BACKEND=sim keeps it
  // for the tests after this one.
  const char* outer = std::getenv("TCU_BACKEND");
  const bool had_outer = outer != nullptr;
  const std::string saved = had_outer ? outer : "";
  unsetenv("TCU_BACKEND");
  {
    Device<double> dev({.m = 16});
    EXPECT_STREQ(dev.backend_name(), "micro");
  }
  setenv("TCU_BACKEND", "sim", 1);
  {
    Device<double> dev({.m = 16});
    EXPECT_STREQ(dev.backend_name(), "sim");
  }
  // An explicit kind wins over the env.
  {
    Device<double> dev({.m = 16, .backend = BackendKind::kMicro});
    EXPECT_STREQ(dev.backend_name(), "micro");
  }
  setenv("TCU_BACKEND", "warp9", 1);
  EXPECT_THROW(Device<double>({.m = 16}), std::invalid_argument);
  if (had_outer) {
    setenv("TCU_BACKEND", saved.c_str(), 1);
  } else {
    unsetenv("TCU_BACKEND");
  }
}

TEST(BackendSelect, MicroIsaNamesATier) {
  const std::string isa = tcu::micro_isa();
  EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "scalar") << isa;
  // The tier is fixed per process; element types without a SIMD kernel
  // always run the reference loop.
  EXPECT_STREQ(tcu::MicroBackend<double>().isa(), tcu::micro_isa());
  EXPECT_STREQ(tcu::MicroBackend<float>().isa(), tcu::micro_isa());
  EXPECT_STREQ(tcu::MicroBackend<std::int64_t>().isa(), tcu::micro_isa());
  EXPECT_STREQ(tcu::MicroBackend<std::complex<double>>().isa(),
               tcu::micro_isa());
  EXPECT_STREQ(tcu::MicroBackend<std::int32_t>().isa(), "scalar");
  EXPECT_EQ(tcu::backend_detail::micro_kernel<double>(MicroTier::kScalar),
            nullptr);
}

TEST(BackendSelect, UnavailableBlasFailsLoudly) {
  if (tcu::backend_available(BackendKind::kBlas)) {
    GTEST_SKIP() << "built with TCU_BLAS; unavailability path not reachable";
  }
  EXPECT_THROW(Device<double>({.m = 16, .backend = BackendKind::kBlas}),
               std::invalid_argument);
}

TEST(BackendSelect, EngineCtorStaysOnTheSeam) {
  Device<double> dev({.m = 16},
                     [](tcu::ConstMatrixView<double> a,
                        tcu::ConstMatrixView<double> b,
                        tcu::MatrixView<double> c, bool accumulate,
                        Counters&) {
                       tcu::reference_gemm(a, b, c, accumulate);
                     });
  EXPECT_STREQ(dev.backend_name(), "engine");
  EXPECT_THROW(Device<double>({.m = 16}, tcu::Device<double>::Engine{}),
               std::invalid_argument);
}

// ------------------------------------------------- serial bit-identity

template <typename T>
void serial_identity_case(const Matrix<T>& a, const Matrix<T>& b) {
  Device<T> sim({.m = 64, .latency = 5, .backend = BackendKind::kSim});
  Device<T> micro({.m = 64, .latency = 5, .backend = BackendKind::kMicro});
  auto c_sim = tcu::linalg::matmul_tcu_resident(sim, a.view(), b.view());
  auto c_micro = tcu::linalg::matmul_tcu_resident(micro, a.view(), b.view());
  EXPECT_EQ(c_sim, c_micro);  // bitwise: micro keeps the k order, no FMA
  expect_counters_equal(micro.counters(), sim.counters(), "serial micro");
}

TEST(BackendEquivalence, MicroMatchesSimSerial) {
  // Aligned and ragged shapes: the ragged path exercises the micro
  // kernel's row and column tails (n, s off the 4-row x 2-vector tile).
  serial_identity_case(random_matrix(32, 32, 501), random_matrix(32, 32, 502));
  serial_identity_case(random_matrix(40, 24, 503), random_matrix(24, 40, 504));
  serial_identity_case(random_int_matrix(32, 32, 505),
                       random_int_matrix(32, 32, 506));
  serial_identity_case(random_int_matrix(27, 19, 507),
                       random_int_matrix(19, 33, 508));
}

// ------------------------------------------------- kernel exactness

// Shapes off every register grid: n around the 4-row tile, s around the
// AVX2 and AVX-512 vector widths (4/8 doubles, int64s and complexes, 8/16
// floats) and their 2-vector tiles.
constexpr std::size_t kTierRows[] = {1, 3, 4, 5, 13, 37};
constexpr std::size_t kTierCols[] = {1,  4,  7,  8,  9,  15, 16,
                                     17, 25, 31, 32, 33, 64};

template <typename T>
T random_value(tcu::util::Xoshiro256& rng) {
  if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(rng.uniform_int(-9, 9));
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(rng.uniform(-1, 1));
  } else {
    return T{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
}

/// Operands whose products need all 64 bits of the multiply: A up to
/// 2^40 and B up to 2^15 in magnitude (so the high 32-bit halves of A,
/// and of every negative value, are nonzero), C up to 2^40. A sum of 64
/// such products stays below 2^62, so the reference never overflows.
std::int64_t wide_value(tcu::util::Xoshiro256& rng, char operand) {
  const std::int64_t bound = operand == 'b' ? 1LL << 15 : 1LL << 40;
  return rng.uniform_int(-bound, bound);
}

/// rows x cols values at a row stride of cols + pad; the pad columns are
/// filled too, so a kernel writing outside its view shows up as a
/// mismatch against the reference buffer.
template <typename T>
struct Strided {
  std::size_t rows, cols, stride;
  std::vector<T> buf;

  template <typename Value>
  Strided(std::size_t r, std::size_t c, std::size_t pad, Value value)
      : rows(r), cols(c), stride(c + pad), buf(r * (c + pad)) {
    for (auto& x : buf) x = value();
  }
  tcu::MatrixView<T> view() {
    return tcu::MatrixView<T>(buf.data(), rows, cols, stride);
  }
  tcu::ConstMatrixView<T> cview() const {
    return tcu::ConstMatrixView<T>(buf.data(), rows, cols, stride);
  }
  bool bits_equal(const Strided& o) const {
    return std::memcmp(buf.data(), o.buf.data(), buf.size() * sizeof(T)) == 0;
  }
};

/// Runs `product(A, B, C, accumulate)` against reference_gemm over the
/// whole shape grid, contiguous and strided, overwrite and accumulate,
/// and compares every byte of C's storage. `value(rng, operand)` draws
/// the entries of operand 'a', 'b' or 'c' (C's old values).
template <typename T, typename Product>
void expect_matches_reference(Product product,
                              T (*value)(tcu::util::Xoshiro256&, char) =
                                  [](tcu::util::Xoshiro256& rng, char) {
                                    return random_value<T>(rng);
                                  }) {
  tcu::util::Xoshiro256 rng(4242);
  const auto draw = [&](char operand) {
    return [&, operand] { return value(rng, operand); };
  };
  for (const std::size_t n : kTierRows) {
    for (const std::size_t s : kTierCols) {
      for (const std::size_t pad : {0u, 3u}) {
        for (const bool accumulate : {false, true}) {
          const Strided<T> a(n, s, pad, draw('a'));
          const Strided<T> b(s, s, 2 * pad, draw('b'));
          Strided<T> want(n, s, pad + 1, draw('c'));
          Strided<T> got = want;
          tcu::reference_gemm(a.cview(), b.cview(), want.view(), accumulate);
          product(a.cview(), b.cview(), got.view(), accumulate);
          EXPECT_TRUE(got.bits_equal(want))
              << "n=" << n << " s=" << s << " pad=" << pad
              << " accumulate=" << accumulate;
        }
      }
    }
  }
}

/// The raw kernel of `tier` as a product; callers skip a missing tier.
template <typename T>
auto tier_product(MicroTier tier) {
  const auto kernel = tcu::backend_detail::micro_kernel<T>(tier);
  return [kernel](tcu::ConstMatrixView<T> a, tcu::ConstMatrixView<T> b,
                  tcu::MatrixView<T> c, bool acc) {
    kernel(a.data, a.stride, b.data, b.stride, c.data, c.stride, a.rows,
           b.rows, acc);
  };
}

template <typename T>
void expect_tier_exact(MicroTier tier) {
  if (tcu::backend_detail::micro_kernel<T>(tier) == nullptr) {
    GTEST_SKIP() << "tier not supported by this CPU";
  }
  expect_matches_reference<T>(tier_product<T>(tier));
  if constexpr (std::is_same_v<T, std::int64_t>) {
    expect_matches_reference<T>(tier_product<T>(tier), &wide_value);
  }
}

/// Plants `x` at A(i, k) and `y` at B(k, j), so they meet in one product
/// of C(i, j), and sets C(i, j) = `c` as its old value. The plant sits in
/// a 2-vector tile, a 1-vector tile or the scalar column tail depending
/// on the shape and spot; the rest of each operand is random. Every byte
/// of C must match reference_gemm, overwrite and accumulate.
template <typename T, typename Product>
void expect_planted_matches_reference(Product product, T x, T y, T c) {
  tcu::util::Xoshiro256 rng(977);
  const auto random = [&] { return random_value<T>(rng); };
  for (const std::size_t n : {1u, 5u, 13u}) {
    for (const std::size_t s : {4u, 9u, 17u, 33u, 64u}) {
      const std::size_t spots[][3] = {
          {0, 0, 0}, {n / 2, s / 2, 1 % s}, {n - 1, s - 1, s - 1}};
      for (const auto& [i, j, k] : spots) {
        for (const bool accumulate : {false, true}) {
          Strided<T> a(n, s, 1, random);
          Strided<T> b(s, s, 0, random);
          Strided<T> want(n, s, 2, random);
          a.buf[i * a.stride + k] = x;
          b.buf[k * b.stride + j] = y;
          want.buf[i * want.stride + j] = c;
          Strided<T> got = want;
          tcu::reference_gemm(a.cview(), b.cview(), want.view(), accumulate);
          product(a.cview(), b.cview(), got.view(), accumulate);
          EXPECT_TRUE(got.bits_equal(want))
              << "n=" << n << " s=" << s << " spot=(" << i << ", " << j
              << ", " << k << ") accumulate=" << accumulate;
        }
      }
    }
  }
}

/// A's NaN payload times B's sign-flipped NaN payload: x86 keeps the
/// first operand's, so only the reference's own operand order gives its
/// bits. Also a NaN old C value.
template <typename T, typename Product>
void expect_nan_payloads_match_reference(Product product) {
  const auto nan = [](bool negative, std::uint32_t payload) {
    if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<T>((negative ? 0xfff8000000000000ULL
                                        : 0x7ff8000000000000ULL) |
                              payload);
    } else {
      return std::bit_cast<T>((negative ? 0xffc00000U : 0x7fc00000U) |
                              payload);
    }
  };
  const T x = nan(false, 0x111);
  const T y = nan(true, 0x222);
  expect_planted_matches_reference<T>(product, x, y, T(1));
  expect_planted_matches_reference<T>(product, T(2), T(3), y);
}

/// Products where libstdc++'s complex multiply differs from the plain
/// re/im formula (Annex G recovers an infinity from NaN parts) or where
/// NaN payloads and signed zeros decide the bits.
template <typename Product>
void expect_complex_specials_match_reference(Product product) {
  using C = std::complex<double>;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const C one(1, 0);
  // (inf, 0) x (inf, inf): both parts NaN, Annex G gives an infinity.
  expect_planted_matches_reference<C>(product, C(inf, 0), C(inf, inf), one);
  expect_planted_matches_reference<C>(product, C(nan, 1), C(2, -3), one);
  // 1e308 squared overflows, and inf - inf gives NaN in the real part.
  expect_planted_matches_reference<C>(product, C(1e308, 1e308),
                                      C(1e308, -1e308), one);
  expect_planted_matches_reference<C>(product, C(-0.0, -0.0), C(-0.0, 1),
                                      C(-0.0, -0.0));
  // A NaN old value of C, seen only with accumulate on.
  expect_planted_matches_reference<C>(product, one, one, C(nan, -0.0));
}

/// Inputs whose bits expose a product that rounds differently from the
/// reference loop: row i of A is [1, x, 0, ...] and B's first two rows
/// are -1 and y, with x*y = 1 - d^2 just below 1. Separate mul and add
/// give -1 + round(x*y) = -1 + 1 = +0; a fused multiply-add gives -d^2.
/// Then A = -0 against B = 1 into C = -0, which only keeps its sign if
/// the product broadcasts A's -0 as -0.
template <typename T, typename Product>
void expect_rounds_unfused(Product product) {
  const T d = std::is_same_v<T, double> ? T(0x1p-30) : T(0x1p-15);
  const T x = 1 + d;
  const T y = 1 - d;
  ASSERT_NE(std::fma(x, y, T(-1)), T(0)) << "input does not expose FMA";
  for (const std::size_t n : {1u, 5u, 13u}) {
    for (const std::size_t s : {2u, 17u, 33u}) {
      Matrix<T> a(n, s), b(s, s), c(n, s, T(7));
      for (std::size_t i = 0; i < n; ++i) {
        a(i, 0) = 1;
        a(i, 1) = x;
      }
      for (std::size_t j = 0; j < s; ++j) {
        b(0, j) = -1;
        b(1, j) = y;
      }
      product(std::as_const(a).view(), std::as_const(b).view(), c.view(),
              false);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          ASSERT_EQ(c(i, j), T(0)) << "contracted at n=" << n << " s=" << s;
          ASSERT_FALSE(std::signbit(c(i, j)));
        }
      }
      a.fill(T(-0.0));
      b.fill(T(1));
      c.fill(T(-0.0));
      product(std::as_const(a).view(), std::as_const(b).view(), c.view(),
              true);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          ASSERT_TRUE(std::signbit(c(i, j)))
              << "-0 lost at n=" << n << " s=" << s;
        }
      }
    }
  }
}

template <typename T>
void expect_tier_rounds_like_reference(MicroTier tier) {
  const auto kernel = tcu::backend_detail::micro_kernel<T>(tier);
  if (kernel == nullptr) GTEST_SKIP() << "tier not supported by this CPU";
  expect_rounds_unfused<T>([kernel](tcu::ConstMatrixView<T> a,
                                    tcu::ConstMatrixView<T> b,
                                    tcu::MatrixView<T> c, bool acc) {
    kernel(a.data, a.stride, b.data, b.stride, c.data, c.stride, a.rows,
           b.rows, acc);
  });
}

TEST(MicroKernelExactness, ReferenceLoopRoundsUnfused) {
  // The oracle itself: its float/double instances are compiled without
  // contraction whatever flags the includer uses.
  expect_rounds_unfused<double>(&tcu::reference_gemm<double>);
  expect_rounds_unfused<float>(&tcu::reference_gemm<float>);
}

TEST(MicroKernelExactness, Avx512DoubleMatchesReference) {
  expect_tier_exact<double>(MicroTier::kAvx512);
}
TEST(MicroKernelExactness, Avx512FloatMatchesReference) {
  expect_tier_exact<float>(MicroTier::kAvx512);
}
TEST(MicroKernelExactness, Avx2DoubleMatchesReference) {
  expect_tier_exact<double>(MicroTier::kAvx2);
}
TEST(MicroKernelExactness, Avx2FloatMatchesReference) {
  expect_tier_exact<float>(MicroTier::kAvx2);
}
TEST(MicroKernelExactness, Avx512Int64MatchesReference) {
  expect_tier_exact<std::int64_t>(MicroTier::kAvx512);
}
TEST(MicroKernelExactness, Avx512ComplexMatchesReference) {
  expect_tier_exact<std::complex<double>>(MicroTier::kAvx512);
}
TEST(MicroKernelExactness, Avx2Int64MatchesReference) {
  expect_tier_exact<std::int64_t>(MicroTier::kAvx2);
}
TEST(MicroKernelExactness, Avx2ComplexMatchesReference) {
  expect_tier_exact<std::complex<double>>(MicroTier::kAvx2);
}

template <typename T>
void expect_tier_nan_payloads_exact(MicroTier tier) {
  if (tcu::backend_detail::micro_kernel<T>(tier) == nullptr) {
    GTEST_SKIP() << "tier not supported by this CPU";
  }
  expect_nan_payloads_match_reference<T>(tier_product<T>(tier));
}

TEST(MicroKernelExactness, Avx512NanPayloadsMatchReference) {
  expect_tier_nan_payloads_exact<double>(MicroTier::kAvx512);
  expect_tier_nan_payloads_exact<float>(MicroTier::kAvx512);
}
TEST(MicroKernelExactness, Avx2NanPayloadsMatchReference) {
  expect_tier_nan_payloads_exact<double>(MicroTier::kAvx2);
  expect_tier_nan_payloads_exact<float>(MicroTier::kAvx2);
}

void expect_tier_complex_specials_exact(MicroTier tier) {
  using C = std::complex<double>;
  if (tcu::backend_detail::micro_kernel<C>(tier) == nullptr) {
    GTEST_SKIP() << "tier not supported by this CPU";
  }
  expect_complex_specials_match_reference(tier_product<C>(tier));
}

TEST(MicroKernelExactness, Avx512ComplexSpecialsMatchReference) {
  expect_tier_complex_specials_exact(MicroTier::kAvx512);
}
TEST(MicroKernelExactness, Avx2ComplexSpecialsMatchReference) {
  expect_tier_complex_specials_exact(MicroTier::kAvx2);
}
TEST(MicroKernelExactness, Avx512RoundsLikeReference) {
  expect_tier_rounds_like_reference<double>(MicroTier::kAvx512);
  expect_tier_rounds_like_reference<float>(MicroTier::kAvx512);
}
TEST(MicroKernelExactness, Avx2RoundsLikeReference) {
  expect_tier_rounds_like_reference<double>(MicroTier::kAvx2);
  expect_tier_rounds_like_reference<float>(MicroTier::kAvx2);
}

template <typename T>
void expect_micro_backend_exact() {
  tcu::MicroBackend<T> micro;
  Counters unused;
  expect_matches_reference<T>(
      [&](tcu::ConstMatrixView<T> a, tcu::ConstMatrixView<T> b,
          tcu::MatrixView<T> c, bool acc) { micro.run(a, b, c, acc, unused); });
}

TEST(MicroKernelExactness, MicroBackendMatchesReferenceForEveryType) {
  expect_micro_backend_exact<double>();
  expect_micro_backend_exact<float>();
  expect_micro_backend_exact<std::int64_t>();
  expect_micro_backend_exact<std::complex<double>>();
}

TEST(MicroKernelExactness, MicroBackendMatchesReferenceOnNanAndInf) {
  // The backend as Device runs it, on the NaN/inf plants above, so a CPU
  // without AVX2 (reference_gemm throughout) runs them too.
  const auto run = [](auto& micro) {
    return [&micro](auto a, auto b, auto c, bool acc) {
      Counters unused;
      micro.run(a, b, c, acc, unused);
    };
  };
  tcu::MicroBackend<double> micro_d;
  tcu::MicroBackend<float> micro_f;
  tcu::MicroBackend<std::complex<double>> micro_c;
  expect_nan_payloads_match_reference<double>(run(micro_d));
  expect_nan_payloads_match_reference<float>(run(micro_f));
  expect_complex_specials_match_reference(run(micro_c));
}

// --------------------------------------------------- pooled bit-identity

TEST(BackendEquivalence, MicroMatchesSimAcrossPoolSizes) {
  const auto a = random_matrix(64, 64, 801);
  const auto b = random_matrix(64, 64, 802);
  Device<double> serial({.m = 64, .latency = 7, .backend = BackendKind::kSim});
  // Untagged serial schedule: the pool's default dealing is untagged too,
  // so every Counters field (residency included) must match bitwise.
  const auto expect = tcu::linalg::matmul_tcu(serial, a.view(), b.view());

  for (const std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<double> pool(
        p, {.m = 64, .latency = 7, .backend = BackendKind::kMicro});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    const auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    EXPECT_EQ(got, expect) << "p=" << p;
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "micro pool p=" + std::to_string(p));
    check.verify();
  }
}

// ------------------------------------------------------------------ blas

#ifdef TCU_BLAS
TEST(BackendEquivalence, BlasBoundedUlpWithIdenticalCounters) {
  const auto a = random_matrix(48, 48, 901);
  const auto b = random_matrix(48, 48, 902);
  Device<double> sim({.m = 64, .latency = 5, .backend = BackendKind::kSim});
  Device<double> blas({.m = 64, .latency = 5, .backend = BackendKind::kBlas});
  const auto c_sim = tcu::linalg::matmul_tcu_resident(sim, a.view(), b.view());
  const auto c_blas =
      tcu::linalg::matmul_tcu_resident(blas, a.view(), b.view());
  ASSERT_EQ(c_sim.rows(), c_blas.rows());
  ASSERT_EQ(c_sim.cols(), c_blas.cols());
  for (std::size_t i = 0; i < c_sim.rows(); ++i) {
    for (std::size_t j = 0; j < c_sim.cols(); ++j) {
      // Reassociated dot products of length 48 over values in [-1, 1]:
      // a few ulps of 48; 1e-12 absolute is orders of magnitude of slack.
      EXPECT_NEAR(c_sim(i, j), c_blas(i, j), 1e-12) << i << "," << j;
    }
  }
  expect_counters_equal(blas.counters(), sim.counters(), "serial blas");
}

TEST(BackendEquivalence, BlasPoolCountersMatchAcrossP) {
  const auto a = random_matrix(64, 64, 903);
  const auto b = random_matrix(64, 64, 904);
  Device<double> serial({.m = 64, .latency = 7, .backend = BackendKind::kSim});
  const auto expect = tcu::linalg::matmul_tcu(serial, a.view(), b.view());
  for (const std::size_t p : {1u, 2u, 4u, 8u}) {
    DevicePool<double> pool(
        p, {.m = 64, .latency = 7, .backend = BackendKind::kBlas});
    tcu::check::ScopedCheck<double> check(pool);
    PoolExecutor<double> exec(pool);
    const auto got = tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
    ASSERT_EQ(got.rows(), expect.rows());
    for (std::size_t i = 0; i < got.rows(); ++i) {
      for (std::size_t j = 0; j < got.cols(); ++j) {
        EXPECT_NEAR(got(i, j), expect(i, j), 1e-12);
      }
    }
    expect_counters_equal(pool.aggregate(), serial.counters(),
                          "blas pool p=" + std::to_string(p));
    check.verify();
  }
}
#endif  // TCU_BLAS

}  // namespace
