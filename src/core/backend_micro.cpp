// Register-tiled kernels for the micro backend (core/backend.hpp): float,
// double, int64 and complex<double>.
//
// Correctness contract: results are bit-identical to reference_gemm for
// every input. Vector lanes hold *different output columns*, so each
// element's sum still runs k-sequentially from C's old value (or +0),
// one rounded multiply and one rounded add per step (complex: GCC's
// lowering of the reference's a * b, re = ar*br - ai*bi and
// im = ar*bi + ai*br, then one add per part). That holds only if the
// compiler never fuses them into an FMA: target("avx512f") enables FMA
// and GCC contracts across statements by default, so this file is
// compiled with -ffp-contract=off (CMakeLists.txt). The float, double
// and complex<double> reference_gemm instances are compiled here for
// the same reason. int64 wraps, so its order is free anyway.
//
// Operand order and NaN: a kernel multiplies in its own operand order
// and skips the Annex G recovery (__muldc3) of the reference's complex
// product. Both matter only when a result is NaN — x86 returns the first
// operand's NaN payload, and Annex G only runs when both parts of a
// product are NaN. A NaN in an accumulator never goes away, so one rule
// covers every floating type: at the end of each register tile, before C
// is written, a tile whose accumulators sum to NaN (any NaN one does) is
// recomputed by reference_gemm on its sub-views. A tile with no NaN
// accumulator had no NaN product, and then its bits are the reference's.
//
// Shape: one register tile is 4 rows x 2 vectors — 4x16 doubles, int64s
// or complex<double>s, or 4x32 floats under AVX-512F; half that under
// AVX2, where complex takes 4 x 1 vector — i.e. 8 vector accumulators
// (complex: one re and one im vector each) fed by 2 B loads and 4 A
// broadcasts per k. Complex B is split into re/im planes once per call.
// Column tails take a 4 x 1-vector tile and then reference_gemm over the
// columns left; row tails take the same tiles with fewer rows. The body
// is written once with GCC vector extensions and inlined into one
// target-attributed entry point per ISA tier and type; the tier is read
// once (cpuid) and MicroBackend keeps the chosen kernel. Off x86-64
// gcc/clang every tier is scalar and MicroBackend runs reference_gemm.

#include "core/backend.hpp"

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <type_traits>
#include <utility>
#include <vector>

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
template void reference_gemm<std::complex<double>>(
    ConstMatrixView<std::complex<double>>,
    ConstMatrixView<std::complex<double>>, MatrixView<std::complex<double>>,
    bool);

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

/// `Bytes` wide GCC vector of E.
template <typename E, std::size_t Bytes>
using Vec [[gnu::vector_size(Bytes)]] = E;

constexpr std::size_t kRows = 4;  ///< rows of a full register tile

// The helpers below carry no target attribute: they are always inlined
// into the target-attributed entry points and take that target's ISA.
// They pass vectors by reference only, never by value or as a result:
// no vector ABI is involved, and GCC built a broadcast returned from
// such a helper one lane at a time.

/// Lane access for float/double/int64: an element is one part, one
/// vector V holds kW adjacent columns of a row of B or C, and the kernel
/// reads B in place.
template <typename T, std::size_t Bytes>
struct RealLanes {
  using Elem = T;
  using V = Vec<T, Bytes>;
  static constexpr std::size_t kW = Bytes / sizeof(T);
  static constexpr std::size_t kParts = 1;
  static constexpr std::size_t kTile = 2;  ///< vectors per tile row
  static constexpr bool kFloating = std::is_floating_point_v<T>;
  /// B as the kernel reads it: in place.
  struct Panel {
    Panel(const T* data, std::size_t stride, std::size_t /*s*/)
        : b(data), ldb(stride) {}
    const T* b;
    std::size_t ldb;
  };

  [[gnu::always_inline]] static void load_c(const T* c, V (&acc)[1]) {
    std::memcpy(&acc[0], c, sizeof(V));
  }
  [[gnu::always_inline]] static void store_c(T* c, const V (&acc)[1]) {
    std::memcpy(c, &acc[0], sizeof(V));
  }
  [[gnu::always_inline]] static void load_b(const Panel& p, std::size_t k,
                                            std::size_t j, V (&b)[1]) {
    std::memcpy(&b[0], p.b + k * p.ldb + j, sizeof(V));
  }
  [[gnu::always_inline]] static void madd(V (&acc)[1], T a,
                                          const V (&b)[1]) {
    // x - (+0) == x for every x, -0 included (x + 0 would not be).
    const V av = a - V{};
    const V prod = av * b[0];
    acc[0] = acc[0] + prod;
  }
};

/// Lane access for complex<double>: an element is two parts, re and im,
/// each a vector of kW adjacent columns. C's tile is split on load and
/// merged on store; B is split into re/im planes once per call.
template <std::size_t Bytes>
struct ComplexLanes {
  using Elem = std::complex<double>;
  using V = Vec<double, Bytes>;
  static constexpr std::size_t kW = Bytes / sizeof(double);
  static constexpr std::size_t kParts = 2;
  // AVX2 has 16 vector registers, which a 4 x 2-vector tile's 16
  // accumulators would fill: the 4 x 1 tile ran twice as fast.
  static constexpr std::size_t kTile = Bytes == 64 ? 2 : 1;
  static constexpr bool kFloating = true;
  /// B split into re/im planes. They live on the stack up to s = 32: a
  /// heap buffer gave each worker thread its own malloc arena, about
  /// 0.9 MiB of peak RSS in perfbench's dag_pool for 4 KiB of planes.
  class Panel {
   public:
    Panel(const Elem* b, std::size_t ldb, std::size_t s)
        : ld(s), planes_(2 * s * s, &arena_) {
      re = planes_.data();
      im = re + s * s;
      for (std::size_t k = 0; k < s; ++k) {
        for (std::size_t j = 0; j < s; ++j) {
          planes_[k * s + j] = b[k * ldb + j].real();
          planes_[s * s + k * s + j] = b[k * ldb + j].imag();
        }
      }
    }
    Panel(const Panel&) = delete;
    Panel& operator=(const Panel&) = delete;

    const double* re = nullptr;
    const double* im = nullptr;
    std::size_t ld;

   private:
    alignas(64) std::array<std::byte, 2 * 32 * 32 * sizeof(double)> stack_;
    std::pmr::monotonic_buffer_resource arena_{stack_.data(), stack_.size()};
    std::pmr::vector<double> planes_;
  };

  // complex<double> is array-compatible with double[2] ([complex.numbers]),
  // so a row of kW elements is the vectors lo, hi of interleaved re, im.
  [[gnu::always_inline]] static void load_c(const Elem* c, V (&acc)[2]) {
    const auto* d = reinterpret_cast<const double*>(c);
    V lo;
    V hi;
    std::memcpy(&lo, d, sizeof(V));
    std::memcpy(&hi, d + kW, sizeof(V));
    deinterleave(lo, hi, acc, std::make_index_sequence<kW>{});
  }
  [[gnu::always_inline]] static void store_c(Elem* c, const V (&acc)[2]) {
    auto* d = reinterpret_cast<double*>(c);
    V lo;
    V hi;
    interleave(acc, lo, hi, std::make_index_sequence<kW>{});
    std::memcpy(d, &lo, sizeof(V));
    std::memcpy(d + kW, &hi, sizeof(V));
  }
  [[gnu::always_inline]] static void load_b(const Panel& p, std::size_t k,
                                            std::size_t j, V (&b)[2]) {
    std::memcpy(&b[0], p.re + k * p.ld + j, sizeof(V));
    std::memcpy(&b[1], p.im + k * p.ld + j, sizeof(V));
  }
  /// GCC's lowering of the reference's a * b without its Annex G branch
  /// (see the file comment), then one add per part.
  [[gnu::always_inline]] static void madd(V (&acc)[2], Elem a,
                                          const V (&b)[2]) {
    const V ar = a.real() - V{};
    const V ai = a.imag() - V{};
    const V re = ar * b[0] - ai * b[1];
    const V im = ar * b[1] + ai * b[0];
    acc[0] = acc[0] + re;
    acc[1] = acc[1] + im;
  }

 private:
  template <std::size_t... I>
  [[gnu::always_inline]] static void deinterleave(
      const V& lo, const V& hi, V (&parts)[2],
      std::index_sequence<I...> /*lanes*/) {
    parts[0] = __builtin_shufflevector(lo, hi, (2 * I)...);
    parts[1] = __builtin_shufflevector(lo, hi, (2 * I + 1)...);
  }
  template <std::size_t... I>
  [[gnu::always_inline]] static void interleave(
      const V (&parts)[2], V& lo, V& hi,
      std::index_sequence<I...> /*lanes*/) {
    lo = __builtin_shufflevector(parts[0], parts[1], (I / 2 + I % 2 * kW)...);
    hi = __builtin_shufflevector(parts[0], parts[1],
                                 (kW / 2 + I / 2 + I % 2 * kW)...);
  }
};

template <typename T, std::size_t Bytes>
struct LanesOf {
  using type = RealLanes<T, Bytes>;
};
template <std::size_t Bytes>
struct LanesOf<std::complex<double>, Bytes> {
  using type = ComplexLanes<Bytes>;
};

/// Lane 0 of v (+)= every other lane, by halving: H = half the lanes.
template <std::size_t H, typename V, std::size_t... I>
[[gnu::always_inline]] inline void fold_lanes(V& v,
                                              std::index_sequence<I...> lanes) {
  if constexpr (H > 0) {
    v = v + __builtin_shufflevector(v, v, ((I + H) % sizeof...(I))...);
    fold_lanes<H / 2>(v, lanes);
  }
}

/// Rows [i, i+R) x columns [j, j + NV*kW) of C (+)= A * B with R*NV
/// vector accumulators per part, or reference_gemm on that tile if any
/// is NaN.
template <typename L, std::size_t R, std::size_t NV>
[[gnu::always_inline]] inline void vector_tile(
    ConstMatrixView<typename L::Elem> A, ConstMatrixView<typename L::Elem> B,
    MatrixView<typename L::Elem> C, const typename L::Panel& panel,
    std::size_t i, std::size_t j, bool accumulate) {
  using V = typename L::V;
  constexpr std::size_t kW = L::kW;
  constexpr std::size_t kP = L::kParts;
  const std::size_t s = B.rows;
  const auto* a = A.data + i * A.stride;
  auto* c = C.data + i * C.stride + j;
  V acc[R][NV][kP];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < NV; ++v) {
      if (accumulate) {
        L::load_c(c + r * C.stride + v * kW, acc[r][v]);
      } else {
        for (std::size_t p = 0; p < kP; ++p) acc[r][v][p] = V{};
      }
    }
  }
  for (std::size_t k = 0; k < s; ++k) {
    V bv[NV][kP];
    for (std::size_t v = 0; v < NV; ++v) {
      L::load_b(panel, k, j + v * kW, bv[v]);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const auto x = a[r * A.stride + k];
      for (std::size_t v = 0; v < NV; ++v) L::madd(acc[r][v], x, bv[v]);
    }
  }
  if constexpr (L::kFloating) {
    // A NaN accumulator makes the tile's sum NaN, and so do opposite
    // infinities (a harmless extra fallback). Comparing each accumulator
    // would need AVX-512DQ to give a vector; GCC splits it per lane.
    V total{};
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < NV; ++v) {
        for (std::size_t p = 0; p < kP; ++p) total = total + acc[r][v][p];
      }
    }
    fold_lanes<kW / 2>(total, std::make_index_sequence<kW>{});
    if (total[0] != total[0]) {
      reference_gemm(A.subview(i, 0, R, s), B.subview(0, j, s, NV * kW),
                     C.subview(i, j, R, NV * kW), accumulate);
      return;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < NV; ++v) {
      L::store_c(c + r * C.stride + v * kW, acc[r][v]);
    }
  }
}

/// Rows [i, i+R) across columns [0, cols): kTile-vector tiles, then a
/// 1-vector tile. `cols` is a multiple of kW.
template <typename L, std::size_t R>
[[gnu::always_inline]] inline void row_block(
    ConstMatrixView<typename L::Elem> A, ConstMatrixView<typename L::Elem> B,
    MatrixView<typename L::Elem> C, const typename L::Panel& panel,
    std::size_t i, std::size_t cols, bool accumulate) {
  constexpr std::size_t kW = L::kW;
  std::size_t j = 0;
  for (; j + L::kTile * kW <= cols; j += L::kTile * kW) {
    vector_tile<L, R, L::kTile>(A, B, C, panel, i, j, accumulate);
  }
  if (j < cols) vector_tile<L, R, 1>(A, B, C, panel, i, j, accumulate);
}

template <typename L>
[[gnu::always_inline]] inline void tiled_gemm(
    const typename L::Elem* a, std::size_t lda, const typename L::Elem* b,
    std::size_t ldb, typename L::Elem* c, std::size_t ldc, std::size_t n,
    std::size_t s, bool accumulate) {
  using T = typename L::Elem;
  const ConstMatrixView<T> A(a, n, s, lda);
  const ConstMatrixView<T> B(b, s, s, ldb);
  const MatrixView<T> C(c, n, s, ldc);
  const std::size_t cols = s / L::kW * L::kW;  // the vector tiles' columns
  if (cols > 0) {
    const typename L::Panel panel(b, ldb, s);
    std::size_t i = 0;
    for (; i + kRows <= n; i += kRows) {
      row_block<L, kRows>(A, B, C, panel, i, cols, accumulate);
    }
    switch (n - i) {
      case 3:
        row_block<L, 3>(A, B, C, panel, i, cols, accumulate);
        break;
      case 2:
        row_block<L, 2>(A, B, C, panel, i, cols, accumulate);
        break;
      case 1:
        row_block<L, 1>(A, B, C, panel, i, cols, accumulate);
        break;
      default:
        break;
    }
  }
  if (cols < s) {
    reference_gemm(A, B.subview(0, cols, s, s - cols),
                   C.subview(0, cols, n, s - cols), accumulate);
  }
}

template <typename T>
__attribute__((target("avx512f"))) void gemm_avx512(
    const T* a, std::size_t lda, const T* b, std::size_t ldb, T* c,
    std::size_t ldc, std::size_t n, std::size_t s, bool accumulate) {
  tiled_gemm<typename LanesOf<T, 64>::type>(a, lda, b, ldb, c, ldc, n, s,
                                            accumulate);
}

template <typename T>
__attribute__((target("avx2"))) void gemm_avx2(
    const T* a, std::size_t lda, const T* b, std::size_t ldb, T* c,
    std::size_t ldc, std::size_t n, std::size_t s, bool accumulate) {
  tiled_gemm<typename LanesOf<T, 32>::type>(a, lda, b, ldb, c, ldc, n, s,
                                            accumulate);
}

#endif  // TCU_MICRO_X86

}  // namespace

template <typename T>
MicroKernel<T> micro_kernel(MicroTier tier) {
  if (tier > micro_tier()) return nullptr;
#ifdef TCU_MICRO_X86
  switch (tier) {
    case MicroTier::kAvx512:
      return gemm_avx512<T>;
    case MicroTier::kAvx2:
      return gemm_avx2<T>;
    case MicroTier::kScalar:
      break;
  }
#endif
  return nullptr;
}

template MicroKernel<float> micro_kernel<float>(MicroTier);
template MicroKernel<double> micro_kernel<double>(MicroTier);
template MicroKernel<std::int64_t> micro_kernel<std::int64_t>(MicroTier);
template MicroKernel<std::complex<double>> micro_kernel<std::complex<double>>(
    MicroTier);

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
