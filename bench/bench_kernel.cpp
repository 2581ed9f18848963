// Kernel ceiling: GF/s of each GEMM backend on its own, outside Device.
//
// One run() of an n x s by s x s product, the (m, l)-TCU primitive with
// s = sqrt(m), over contiguous operands. One benchmark per element type
// (double, float, int64, complex<double>) x s in {16, 64} x n in {s, 256}
// times every backend (sim, micro, and blas when built with
// -DTCU_BLAS=ON) in the same loop: each iteration runs a batch of calls
// on each backend in turn, so all of them see the same host load, and
// `micro_per_sim` is a ratio from one run, never from two binaries or two
// runs (sim rows alone moved 2x between builds). `<backend>_gflops`
// counts one multiply and one add of T per multiply-accumulate (2 n s^2
// per call, a complex op counting once). The label is micro's ISA tier
// (`micro_isa()`: every type here has a SIMD kernel, so "scalar" only on
// a CPU without AVX2). This is the in-repo kernel peak the per-layer
// numbers are read against; it is machine-dependent and not gated. One
// run on a shared 4-core AVX-512 Xeon, s = 16 and n = 256, micro against
// sim: double 17.3 against 2.2 GF/s (8.0x), float 25.3 against 2.3
// (10.9x), int64 7.8 against 2.3 (3.4x), complex 6.8 against 0.62
// (10.9x).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdint>
#include <memory>
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
void BM_Kernel(benchmark::State& state, std::vector<BackendKind> kinds) {
  const auto s = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<std::shared_ptr<tcu::GemmBackend<T>>> backends;
  for (const BackendKind kind : kinds) {
    backends.push_back(tcu::make_backend<T>(kind));
  }
  const auto a = random_values<T>(n * s, 11);
  const auto b = random_values<T>(s * s, 12);
  std::vector<T> c(n * s);
  const tcu::ConstMatrixView<T> av(a.data(), n, s, s);
  const tcu::ConstMatrixView<T> bv(b.data(), s, s, s);
  const tcu::MatrixView<T> cv(c.data(), n, s, s);
  tcu::Counters unused;
  // Calls per timed batch: about 64k multiply-accumulates, so the clock
  // reads stay a small share of the smallest shapes' batches.
  const std::size_t reps = std::max<std::size_t>(1, 65536 / (n * s * s));
  std::vector<double> seconds(backends.size(), 0.0);
  for (auto _ : state) {
    for (std::size_t k = 0; k < backends.size(); ++k) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < reps; ++r) {
        backends[k]->run(av, bv, cv, false, unused);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
      }
      seconds[k] += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    }
  }
  const double flops = 2.0 * static_cast<double>(n * s * s) *
                       static_cast<double>(reps) *
                       static_cast<double>(state.iterations());
  std::vector<double> gflops(backends.size());
  for (std::size_t k = 0; k < backends.size(); ++k) {
    gflops[k] = seconds[k] > 0 ? 1e-9 * flops / seconds[k] : 0.0;
    state.counters[std::string(tcu::backend_kind_name(kinds[k])) +
                   "_gflops"] = gflops[k];
  }
  // kinds[0] is sim, kinds[1] micro.
  state.counters["micro_per_sim"] =
      gflops[0] > 0 ? gflops[1] / gflops[0] : 0.0;
  if (const auto* micro =
          dynamic_cast<const tcu::MicroBackend<T>*>(backends[1].get())) {
    state.SetLabel(micro->isa());
  }
}

template <typename T>
void register_type(const char* dtype, bool with_blas) {
  std::vector<BackendKind> kinds = {BackendKind::kSim, BackendKind::kMicro};
  if (with_blas) kinds.push_back(BackendKind::kBlas);
  const std::string name = std::string("BM_Kernel/") + dtype;
  for (const long s : {16L, 64L}) {
    for (const long n : {s, 256L}) {
      benchmark::RegisterBenchmark(name.c_str(), BM_Kernel<T>, kinds)
          ->Args({s, n})
          ->ArgNames({"s", "n"});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool blas = tcu::backend_available(BackendKind::kBlas);
  register_type<double>("double", blas);
  register_type<float>("float", blas);
  register_type<std::int64_t>("int64", false);
  register_type<std::complex<double>>("complex", false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
