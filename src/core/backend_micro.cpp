// Register-tiled float/double kernels for the micro backend
// (core/backend.hpp).
//
// Correctness contract: results are bit-identical to reference_gemm for
// every input. Vector lanes hold *different output columns*, so each
// element's sum still runs k-sequentially from C's old value (or +0),
// one rounded multiply and one rounded add per step. That holds only if
// the compiler never fuses them into an FMA: target("avx512f") enables
// FMA and GCC contracts across statements by default, so this file is
// compiled with -ffp-contract=off (CMakeLists.txt). The float/double
// reference_gemm instances are compiled here for the same reason.
//
// Shape: one register tile is 4 rows x 2 vectors — 4x16 doubles or 4x32
// floats under AVX-512F, 4x8 doubles or 4x16 floats under AVX2 — i.e. 8
// vector accumulators fed by 2 B loads and 4 A broadcasts per k. Column
// tails take a 4 x 1-vector tile and then a scalar tile; row tails take
// the same tiles with fewer rows. The body is written once with GCC
// vector extensions and inlined into one target-attributed entry point
// per ISA tier; the tier is read once (cpuid) and MicroBackend keeps the
// chosen kernel. Off x86-64 gcc/clang every tier is scalar and
// MicroBackend runs reference_gemm.

#include "core/backend.hpp"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCU_MICRO_X86 1
#endif

namespace tcu {

template void reference_gemm<float>(ConstMatrixView<float>,
                                    ConstMatrixView<float>, MatrixView<float>,
                                    bool);
template void reference_gemm<double>(ConstMatrixView<double>,
                                     ConstMatrixView<double>,
                                     MatrixView<double>, bool);

namespace backend_detail {

MicroTier micro_tier() {
#ifdef TCU_MICRO_X86
  static const MicroTier tier =
      __builtin_cpu_supports("avx512f") != 0 ? MicroTier::kAvx512
      : __builtin_cpu_supports("avx2") != 0  ? MicroTier::kAvx2
                                             : MicroTier::kScalar;
  return tier;
#else
  return MicroTier::kScalar;
#endif
}

namespace {

#ifdef TCU_MICRO_X86

using f64x4 = double __attribute__((vector_size(32)));
using f64x8 = double __attribute__((vector_size(64)));
using f32x8 = float __attribute__((vector_size(32)));
using f32x16 = float __attribute__((vector_size(64)));

constexpr std::size_t kRows = 4;  ///< rows of a full register tile

// The helpers below carry no target attribute: they are always inlined
// into the target-attributed entry points and take that target's ISA.
// Vectors never cross a call boundary, so no vector ABI is involved.

/// C[R x NV*W] (+)= A[R x s] * B[s x NV*W] with R*NV vector accumulators.
template <typename T, typename V, std::size_t R, std::size_t NV>
[[gnu::always_inline]] inline void vector_tile(const T* a, std::size_t lda,
                                               const T* b, std::size_t ldb,
                                               T* c, std::size_t ldc,
                                               std::size_t s,
                                               bool accumulate) {
  constexpr std::size_t kW = sizeof(V) / sizeof(T);
  V acc[R][NV];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < NV; ++v) {
      if (accumulate) {
        std::memcpy(&acc[r][v], c + r * ldc + v * kW, sizeof(V));
      } else {
        acc[r][v] = V{};
      }
    }
  }
  for (std::size_t k = 0; k < s; ++k) {
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&bv[v], b + k * ldb + v * kW, sizeof(V));
    }
    for (std::size_t r = 0; r < R; ++r) {
      // x - (+0) == x for every x, -0 included (x + 0 would not be).
      const V av = a[r * lda + k] - V{};
      for (std::size_t v = 0; v < NV; ++v) {
        const V prod = av * bv[v];
        acc[r][v] = acc[r][v] + prod;
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(c + r * ldc + v * kW, &acc[r][v], sizeof(V));
    }
  }
}

/// The < W columns left of an R-row block, in the reference order.
template <typename T, std::size_t R>
[[gnu::always_inline]] inline void scalar_tile(const T* a, std::size_t lda,
                                               const T* b, std::size_t ldb,
                                               T* c, std::size_t ldc,
                                               std::size_t cols,
                                               std::size_t s,
                                               bool accumulate) {
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      T acc = accumulate ? c[r * ldc + j] : T{};
      for (std::size_t k = 0; k < s; ++k) {
        acc += a[r * lda + k] * b[k * ldb + j];
      }
      c[r * ldc + j] = acc;
    }
  }
}

/// One R-row block across all s columns: 2-vector tiles, then a
/// 1-vector tile, then the scalar tail.
template <typename T, typename V, std::size_t R>
[[gnu::always_inline]] inline void row_block(const T* a, std::size_t lda,
                                             const T* b, std::size_t ldb,
                                             T* c, std::size_t ldc,
                                             std::size_t s, bool accumulate) {
  constexpr std::size_t kW = sizeof(V) / sizeof(T);
  std::size_t j = 0;
  for (; j + 2 * kW <= s; j += 2 * kW) {
    vector_tile<T, V, R, 2>(a, lda, b + j, ldb, c + j, ldc, s, accumulate);
  }
  if (j + kW <= s) {
    vector_tile<T, V, R, 1>(a, lda, b + j, ldb, c + j, ldc, s, accumulate);
    j += kW;
  }
  if (j < s) {
    scalar_tile<T, R>(a, lda, b + j, ldb, c + j, ldc, s - j, s, accumulate);
  }
}

template <typename T, typename V>
[[gnu::always_inline]] inline void tiled_gemm(const T* a, std::size_t lda,
                                              const T* b, std::size_t ldb,
                                              T* c, std::size_t ldc,
                                              std::size_t n, std::size_t s,
                                              bool accumulate) {
  std::size_t i = 0;
  for (; i + kRows <= n; i += kRows) {
    row_block<T, V, kRows>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, s,
                           accumulate);
  }
  a += i * lda;
  c += i * ldc;
  switch (n - i) {
    case 3:
      row_block<T, V, 3>(a, lda, b, ldb, c, ldc, s, accumulate);
      break;
    case 2:
      row_block<T, V, 2>(a, lda, b, ldb, c, ldc, s, accumulate);
      break;
    case 1:
      row_block<T, V, 1>(a, lda, b, ldb, c, ldc, s, accumulate);
      break;
    default:
      break;
  }
}

__attribute__((target("avx512f"))) void gemm_avx512(
    const double* a, std::size_t lda, const double* b, std::size_t ldb,
    double* c, std::size_t ldc, std::size_t n, std::size_t s,
    bool accumulate) {
  tiled_gemm<double, f64x8>(a, lda, b, ldb, c, ldc, n, s, accumulate);
}

__attribute__((target("avx512f"))) void gemm_avx512(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    float* c, std::size_t ldc, std::size_t n, std::size_t s,
    bool accumulate) {
  tiled_gemm<float, f32x16>(a, lda, b, ldb, c, ldc, n, s, accumulate);
}

__attribute__((target("avx2"))) void gemm_avx2(
    const double* a, std::size_t lda, const double* b, std::size_t ldb,
    double* c, std::size_t ldc, std::size_t n, std::size_t s,
    bool accumulate) {
  tiled_gemm<double, f64x4>(a, lda, b, ldb, c, ldc, n, s, accumulate);
}

__attribute__((target("avx2"))) void gemm_avx2(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    float* c, std::size_t ldc, std::size_t n, std::size_t s,
    bool accumulate) {
  tiled_gemm<float, f32x8>(a, lda, b, ldb, c, ldc, n, s, accumulate);
}

#endif  // TCU_MICRO_X86

/// `avx512` / `avx2` if the tier is compiled and supported, else nullptr.
template <typename T>
MicroKernel<T> pick(MicroTier tier, MicroKernel<T> avx512,
                    MicroKernel<T> avx2) {
  if (tier > micro_tier()) return nullptr;
  switch (tier) {
    case MicroTier::kAvx512:
      return avx512;
    case MicroTier::kAvx2:
      return avx2;
    case MicroTier::kScalar:
      break;
  }
  return nullptr;
}

}  // namespace

template <>
MicroKernel<double> micro_kernel<double>(MicroTier tier) {
#ifdef TCU_MICRO_X86
  return pick<double>(tier, gemm_avx512, gemm_avx2);
#else
  return pick<double>(tier, nullptr, nullptr);
#endif
}

template <>
MicroKernel<float> micro_kernel<float>(MicroTier tier) {
#ifdef TCU_MICRO_X86
  return pick<float>(tier, gemm_avx512, gemm_avx2);
#else
  return pick<float>(tier, nullptr, nullptr);
#endif
}

}  // namespace backend_detail

const char* micro_isa() {
  switch (backend_detail::micro_tier()) {
    case backend_detail::MicroTier::kAvx512:
      return "avx512";
    case backend_detail::MicroTier::kAvx2:
      return "avx2";
    case backend_detail::MicroTier::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace tcu
