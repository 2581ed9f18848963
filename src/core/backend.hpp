#pragma once
// Pluggable numeric GEMM backends beneath the (m, l)-TCU cost model.
//
// `Device::issue()` charges simulated time and drives the observer /
// fault-injection seams; the *numeric* work — C = A * B for an n x s left
// operand and s x s right operand — is delegated to a `GemmBackend`. Every
// backend computes the same product through the same accounting path, so
// the checker, lint, and fault layers are backend-agnostic; only the
// wall-clock time (Device::wall_ns) and, for blas, the floating-point
// rounding may differ:
//
//   * micro — the default. float, double, int64 and complex<double> run
//             a register-tiled kernel of 4 rows x 2 SIMD vectors (double,
//             int64, complex: 4x16 with AVX-512F, 4x8 with AVX2, where
//             complex takes 4x4; float twice as wide; complex in re/im
//             planes), picked once per backend from the running CPU
//             (`micro_isa()`). Each output
//             element's k-summation keeps the reference order with
//             separate mul/add, so the results are bit-identical to sim.
//             backend_micro.cpp must be compiled with -ffp-contract=off
//             (CMakeLists.txt does so): avx512f implies FMA, and GCC
//             would otherwise fuse the mul/add and round differently.
//             A register tile whose accumulators hold any NaN is
//             recomputed by `reference_gemm` before C is written, so NaN
//             payloads and complex Annex G results match sim too. Other
//             element types, and CPUs without AVX2, run `reference_gemm`;
//   * sim   — `reference_gemm`, the plain triple loop: the oracle that
//             tests and benchmarks name explicitly;
//   * blas  — vendor [sd]gemm behind -DTCU_BLAS=ON (float/double only);
//             reassociates sums, so outputs are bounded-ulp, not
//             bit-identical.
//
// A fourth, internal kind wraps a legacy `Device::Engine` std::function so
// custom engines (systolic, limited precision) keep working unchanged.
//
// Backends must NOT charge model time or mutate counters beyond
// engine-detail fields (the systolic engine's cycle counts); the device
// owns the charges.

#include <complex>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/counters.hpp"
#include "core/matrix.hpp"

namespace tcu {

/// Numeric engine signature shared by the backend seam and the legacy
/// `Device::Engine` alias: computes C = A*B (or C += A*B) and may add
/// engine detail (e.g. systolic cycles) to the counters.
template <typename T>
using GemmFn = std::function<void(ConstMatrixView<T>, ConstMatrixView<T>,
                                  MatrixView<T>, bool, Counters&)>;

enum class BackendKind {
  kDefault,  ///< resolve via TCU_BACKEND env, falling back to kMicro
  kSim,      ///< reference triple loop, the explicit oracle
  kMicro,    ///< 4-row register-tiled AVX-512/AVX2 kernel, same bits as kSim
  kBlas,     ///< vendor BLAS, float/double, requires -DTCU_BLAS=ON
  kEngine,   ///< adapter around a caller-supplied GemmFn
};

/// "sim" / "micro" / "blas" -> kind; throws std::invalid_argument on
/// anything else (the CLI and TCU_BACKEND env share this parser).
BackendKind parse_backend_kind(const std::string& name);

/// Canonical name of a kind ("sim", "micro", "blas", "engine").
const char* backend_kind_name(BackendKind kind);

/// kDefault resolved: TCU_BACKEND if set (throwing on unparsable or
/// unavailable values), else kMicro. Other kinds pass through.
BackendKind resolve_backend_kind(BackendKind kind);

/// True when the build can construct this kind for float/double (kBlas is
/// only compiled in under -DTCU_BLAS=ON).
bool backend_available(BackendKind kind);

/// ISA tier the micro backend runs its SIMD types (float, double, int64,
/// complex<double>) on, detected once per process: "avx512" (AVX-512F),
/// "avx2" or "scalar" (reference_gemm).
const char* micro_isa();

/// The reference product: C = A*B (or C += A*B) for A n x s and B s x w
/// (w = s on the seam), with each element's sum taken k-sequentially from
/// C's old value (or zero). SimBackend runs it for every T; MicroBackend
/// runs it for T without a SIMD kernel, for column tails narrower than a
/// vector, and for register tiles that hit a NaN. The micro kernels
/// reproduce its rounding exactly. Kept out of line and aligned so both
/// backends run one copy whose loops sit at a fixed offset in the cache
/// line: inlined into each backend, the same loop ran 1.8x slower in one
/// of them than in the other (int64, s = 64, bench_kernel).
template <typename T>
[[gnu::noinline, gnu::aligned(64)]] void reference_gemm(
    ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
    bool accumulate) {
  const std::size_t n = A.rows;
  const std::size_t s = B.rows;
  const std::size_t w = B.cols;  // s, except on the micro kernels' tails
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      T acc = accumulate ? C(i, j) : T{};
      for (std::size_t k = 0; k < s; ++k) acc += A(i, k) * B(k, j);
      C(i, j) = acc;
    }
  }
}

// The float, double and complex<double> instances live in
// backend_micro.cpp, compiled with -ffp-contract=off, so an includer built
// with FMA enabled (say -march=native) cannot fuse the reference loop's
// mul/add, or the ac - bd of its complex product, either.
extern template void reference_gemm<float>(ConstMatrixView<float>,
                                           ConstMatrixView<float>,
                                           MatrixView<float>, bool);
extern template void reference_gemm<double>(ConstMatrixView<double>,
                                            ConstMatrixView<double>,
                                            MatrixView<double>, bool);
extern template void reference_gemm<std::complex<double>>(
    ConstMatrixView<std::complex<double>>,
    ConstMatrixView<std::complex<double>>, MatrixView<std::complex<double>>,
    bool);

namespace backend_detail {

/// Raw micro kernel over row-major operands: `lda`/`ldb`/`ldc` are
/// row strides in elements, A is n x s, B is s x s, C is n x s.
template <typename T>
using MicroKernel = void (*)(const T* a, std::size_t lda, const T* b,
                             std::size_t ldb, T* c, std::size_t ldc,
                             std::size_t n, std::size_t s, bool accumulate);

enum class MicroTier { kScalar, kAvx2, kAvx512 };

/// The best tier the running CPU supports (cpuid, read once).
MicroTier micro_tier();

/// Kernel of `tier` (backend_micro.cpp, instantiated for float, double,
/// int64 and complex<double>); nullptr for kScalar, or when the target or
/// the running CPU lacks the tier.
template <typename T>
MicroKernel<T> micro_kernel(MicroTier tier);

#ifdef TCU_BLAS
// Row-major [sd]gemm wrappers (backend_blas.cpp): C = A*B or C += A*B.
void blas_gemm(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t n,
               std::size_t s, bool accumulate);
void blas_gemm(const double* a, std::size_t lda, const double* b,
               std::size_t ldb, double* c, std::size_t ldc, std::size_t n,
               std::size_t s, bool accumulate);
#endif

}  // namespace backend_detail

/// Abstract numeric backend. `run` computes the product; it must not
/// charge model time (the device does, identically for every backend).
template <typename T>
class GemmBackend {
 public:
  GemmBackend() = default;
  GemmBackend(const GemmBackend&) = delete;
  GemmBackend& operator=(const GemmBackend&) = delete;
  virtual ~GemmBackend() = default;

  virtual BackendKind kind() const = 0;
  virtual const char* name() const { return backend_kind_name(kind()); }
  virtual void run(ConstMatrixView<T> A, ConstMatrixView<T> B,
                   MatrixView<T> C, bool accumulate, Counters& counters) = 0;
};

/// The reference loop: the oracle every other exact backend must match.
template <typename T>
class SimBackend final : public GemmBackend<T> {
 public:
  BackendKind kind() const override { return BackendKind::kSim; }
  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters&) override {
    reference_gemm(A, B, C, accumulate);
  }
};

/// The default backend: float, double, int64 and complex<double> run the
/// SIMD kernel of the tier chosen when the backend is built; every other
/// T (and a CPU without AVX2) runs reference_gemm. Either way each
/// element's result matches SimBackend bit for bit — register tiles that
/// hit a NaN are recomputed by reference_gemm — and only the wall clock
/// changes.
template <typename T>
class MicroBackend final : public GemmBackend<T> {
  static constexpr bool kSimd =
      std::is_same_v<T, float> || std::is_same_v<T, double> ||
      std::is_same_v<T, std::int64_t> ||
      std::is_same_v<T, std::complex<double>>;

 public:
  MicroBackend() {
    if constexpr (kSimd) {
      kernel_ = backend_detail::micro_kernel<T>(backend_detail::micro_tier());
    }
  }

  BackendKind kind() const override { return BackendKind::kMicro; }

  /// The tier this backend runs: micro_isa() for float, double, int64
  /// and complex<double>, "scalar" (reference_gemm) otherwise.
  const char* isa() const {
    return kernel_ != nullptr ? micro_isa() : "scalar";
  }

  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters&) override {
    if constexpr (kSimd) {
      if (kernel_ != nullptr) {
        kernel_(A.data, A.stride, B.data, B.stride, C.data, C.stride, A.rows,
                B.rows, accumulate);
        return;
      }
    }
    reference_gemm(A, B, C, accumulate);
  }

 private:
  backend_detail::MicroKernel<T> kernel_ = nullptr;
};

#ifdef TCU_BLAS
/// Vendor BLAS [sd]gemm. Only instantiable for float/double; sums are
/// reassociated, so outputs are bounded-ulp rather than bit-identical.
template <typename T>
class BlasBackend final : public GemmBackend<T> {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                "BlasBackend supports float and double only");

 public:
  BackendKind kind() const override { return BackendKind::kBlas; }
  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters&) override {
    backend_detail::blas_gemm(A.data, A.stride, B.data, B.stride, C.data,
                              C.stride, A.rows, B.rows, accumulate);
  }
};
#endif

/// Adapter keeping the legacy `Device(Config, Engine)` constructor (and
/// with it the systolic and limited-precision engines) on the seam.
template <typename T>
class EngineBackend final : public GemmBackend<T> {
 public:
  explicit EngineBackend(GemmFn<T> fn) : fn_(std::move(fn)) {
    if (!fn_) throw std::invalid_argument("Device: null engine");
  }
  BackendKind kind() const override { return BackendKind::kEngine; }
  void run(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
           bool accumulate, Counters& counters) override {
    fn_(A, B, C, accumulate, counters);
  }

 private:
  GemmFn<T> fn_;
};

/// Construct the backend for `kind` (kDefault resolves via TCU_BACKEND).
/// Throws std::invalid_argument for kBlas when the build lacks TCU_BLAS
/// or T is not float/double — missing deps fail loudly, never silently
/// fall back.
template <typename T>
std::shared_ptr<GemmBackend<T>> make_backend(BackendKind kind) {
  switch (resolve_backend_kind(kind)) {
    case BackendKind::kSim:
      return std::make_shared<SimBackend<T>>();
    case BackendKind::kMicro:
      return std::make_shared<MicroBackend<T>>();
    case BackendKind::kBlas:
#ifdef TCU_BLAS
      if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
        return std::make_shared<BlasBackend<T>>();
      } else {
        throw std::invalid_argument(
            "blas backend supports float/double only");
      }
#else
      throw std::invalid_argument(
          "blas backend requires building with -DTCU_BLAS=ON");
#endif
    default:
      throw std::invalid_argument("make_backend: unresolvable backend kind");
  }
}

}  // namespace tcu
