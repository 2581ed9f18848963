// Kernel ceiling: GF/s of each GEMM backend on its own, outside Device.
//
// One run() of an n x s by s x s product, the (m, l)-TCU primitive with
// s = sqrt(m), over contiguous operands. Swept over backend (sim, micro,
// and blas when built with -DTCU_BLAS=ON) x element type (double, float,
// int64, complex<double>) x s in {16, 64} x n in {s, 256}. `gflops`
// (GF/s) counts one multiply and one add of T per multiply-accumulate
// (2 n s^2 per call, a complex op counting once). micro rows carry the
// ISA tier they ran as their label (`micro_isa()`: every type here has a
// SIMD kernel, so "scalar" only on a CPU without AVX2). This is the
// in-repo kernel peak the per-layer numbers are read against; it is
// machine-dependent and not gated. One run on a shared 4-core AVX-512
// Xeon, s = 16 and n = 256: micro int64 10.0 GF/s against 3.2 for sim,
// micro complex 8.9 against 1.0, double 31 against 4.6, float 49
// against 3.9.

#include <benchmark/benchmark.h>

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "util/rng.hpp"

namespace {

using tcu::BackendKind;

template <typename T>
std::vector<T> random_values(std::size_t count, std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  std::vector<T> v(count);
  for (auto& x : v) {
    if constexpr (std::is_integral_v<T>) {
      x = static_cast<T>(rng.uniform_int(-9, 9));
    } else if constexpr (std::is_floating_point_v<T>) {
      x = static_cast<T>(rng.uniform(-1, 1));
    } else {
      x = T{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  return v;
}

template <typename T>
void BM_Kernel(benchmark::State& state, BackendKind kind) {
  const auto s = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto backend = tcu::make_backend<T>(kind);
  const auto a = random_values<T>(n * s, 11);
  const auto b = random_values<T>(s * s, 12);
  std::vector<T> c(n * s);
  const tcu::ConstMatrixView<T> av(a.data(), n, s, s);
  const tcu::ConstMatrixView<T> bv(b.data(), s, s, s);
  const tcu::MatrixView<T> cv(c.data(), n, s, s);
  tcu::Counters unused;
  for (auto _ : state) {
    backend->run(av, bv, cv, false, unused);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["gflops"] = benchmark::Counter(
      2e-9 * static_cast<double>(n * s * s),
      benchmark::Counter::kIsIterationInvariantRate);
  if (const auto* micro =
          dynamic_cast<const tcu::MicroBackend<T>*>(backend.get())) {
    state.SetLabel(micro->isa());
  }
}

template <typename T>
void register_type(const char* dtype, BackendKind kind) {
  const std::string name = std::string("BM_Kernel/") +
                           tcu::backend_kind_name(kind) + "/" + dtype;
  for (const long s : {16L, 64L}) {
    for (const long n : {s, 256L}) {
      benchmark::RegisterBenchmark(name.c_str(), BM_Kernel<T>, kind)
          ->Args({s, n})
          ->ArgNames({"s", "n"});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const BackendKind kind : {BackendKind::kSim, BackendKind::kMicro}) {
    register_type<double>("double", kind);
    register_type<float>("float", kind);
    register_type<std::int64_t>("int64", kind);
    register_type<std::complex<double>>("complex", kind);
  }
  if (tcu::backend_available(BackendKind::kBlas)) {
    register_type<double>("double", BackendKind::kBlas);
    register_type<float>("float", BackendKind::kBlas);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
