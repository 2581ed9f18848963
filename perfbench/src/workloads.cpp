// The three benchmark workloads. Each loads one layer of the library
// heavily and bypasses another (see BENCHMARK.json for why each exists):
//
//   gemm_serial  one serial Device, tile-major resident GEMM: the backend
//                does almost all the work, the pool none.
//   dag_pool     closure, GE forward, batched DFT and stencil on three
//                persistent p = 3 executors: small, dependency-heavy calls
//                where dealing, dep-waits and joins dominate.
//   mlp_serve    an Mlp served request after request on one persistent
//                p = 3 executor: many short strip tasks, per-call issue
//                overhead, and an LRU tile cache smaller than each lane's
//                weight working set.
//
// Devices are configured with Config{m, latency, resident_tiles} only and
// the default backend; every pooled call goes through its PoolExecutor&
// overload with default options. Oracles run once, serially, on explicit
// kSim devices, outside all timing.

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/backend.hpp"
#include "dft/dft.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "linalg/dense.hpp"
#include "linalg/gauss.hpp"
#include "nn/layers.hpp"
#include "stencil/stencil.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Field-wise `after - before` of monotone counters.
tcu::Counters counters_delta(const tcu::Counters& after,
                             const tcu::Counters& before) {
  tcu::Counters d;
  d.tensor_calls = after.tensor_calls - before.tensor_calls;
  d.tensor_rows = after.tensor_rows - before.tensor_rows;
  d.tensor_time = after.tensor_time - before.tensor_time;
  d.tensor_macs = after.tensor_macs - before.tensor_macs;
  d.latency_time = after.latency_time - before.latency_time;
  d.resident_hits = after.resident_hits - before.resident_hits;
  d.latency_saved = after.latency_saved - before.latency_saved;
  d.evictions = after.evictions - before.evictions;
  d.tagged_calls = after.tagged_calls - before.tagged_calls;
  d.cpu_ops = after.cpu_ops - before.cpu_ops;
  d.systolic_cycles = after.systolic_cycles - before.systolic_cycles;
  return d;
}

/// Every counter field a pooled result must share with its serial oracle
/// (bench/bench_common.hpp's `counters_match_serial`).
bool counters_match_serial(const tcu::Counters& got,
                           const tcu::Counters& ref) {
  return got.tensor_calls == ref.tensor_calls &&
         got.tensor_rows == ref.tensor_rows &&
         got.tensor_time == ref.tensor_time &&
         got.tensor_macs == ref.tensor_macs &&
         got.latency_time == ref.latency_time && got.cpu_ops == ref.cpu_ops;
}

/// The relation a tagged (residency-aware) result keeps with its serial
/// oracle under any tile-cache policy: the same work, and every load
/// either paid or saved (bench/bench_residency.cpp's conservation). How
/// the latency splits between paid and saved is the policy's business.
bool counters_conserve_serial(const tcu::Counters& got,
                              const tcu::Counters& ref) {
  return got.tensor_calls == ref.tensor_calls &&
         got.tensor_rows == ref.tensor_rows &&
         got.tensor_macs == ref.tensor_macs && got.cpu_ops == ref.cpu_ops &&
         got.tensor_time - got.latency_time ==
             ref.tensor_time - ref.latency_time &&
         got.latency_time + got.latency_saved ==
             ref.latency_time + ref.latency_saved;
}

}  // namespace

std::uint64_t makespan_delta(const Snapshot& before, const Snapshot& after) {
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < after.units.size(); ++i) {
    const tcu::Counters d = counters_delta(after.units[i], before.units[i]);
    worst = std::max(worst, d.time());
  }
  return worst + (after.shared.cpu_ops - before.shared.cpu_ops);
}

tcu::Counters aggregate_delta(const Snapshot& before, const Snapshot& after) {
  tcu::Counters total = counters_delta(after.shared, before.shared);
  for (std::size_t i = 0; i < after.units.size(); ++i) {
    total += counters_delta(after.units[i], before.units[i]);
  }
  return total;
}

namespace {

template <typename T>
bool same_bits(const tcu::Matrix<T>& a, const tcu::Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

tcu::Matrix<double> random_matrix(std::size_t r, std::size_t c,
                                  tcu::util::Xoshiro256& rng,
                                  double scale = 1.0) {
  tcu::Matrix<double> out(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out(i, j) = scale * rng.uniform(-1, 1);
  }
  return out;
}

/// Seconds between two now_ns() readings.
double seconds(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

template <typename T>
typename tcu::Device<T>::Config unit_config(std::size_t m,
                                            std::uint64_t latency,
                                            std::size_t resident_tiles) {
  return {.m = m, .latency = latency, .resident_tiles = resident_tiles};
}

template <typename T>
typename tcu::Device<T>::Config oracle_config(std::size_t m,
                                              std::uint64_t latency) {
  return {.m = m, .latency = latency, .backend = tcu::BackendKind::kSim};
}

template <typename T>
std::string default_backend_name(std::size_t m) {
  return tcu::Device<T>(unit_config<T>(m, 0, 1)).backend_name();
}

template <typename T>
void attach_pool(tcu::DevicePool<T>& pool, Tracer* tracer,
                 const std::string& prefix, std::size_t group) {
  for (std::size_t u = 0; u < pool.size(); ++u) {
    if (tracer) {
      tracer->attach(pool.unit(u), prefix + "#" + std::to_string(u), group);
    } else {
      pool.unit(u).set_observer(nullptr);
    }
  }
}

// ------------------------------------------------------------ gemm_serial

class GemmSerial final : public Workload {
 public:
  static constexpr std::size_t kM = 4096;
  static constexpr std::uint64_t kEll = 4096;
  static constexpr std::size_t kRows = 256;   // n
  static constexpr std::size_t kInner = 512;  // q
  static constexpr std::size_t kCols = 512;   // r
  static constexpr std::size_t kVariants = 2;
  static constexpr const char* kCall = "linalg.matmul_tcu_resident_into";

  explicit GemmSerial(std::uint64_t seed) {
    tcu::util::Xoshiro256 rng(seed);
    for (std::size_t v = 0; v < kVariants; ++v) {
      a_rows_.push_back(random_matrix(kRows, kInner, rng));
    }
    b_rows_ = random_matrix(kInner, kCols, rng);
    const std::size_t s = tcu::exact_sqrt(kM);
    const auto b = tcu::TiledMatrix<double>::pack(b_rows_.view(), s);
    for (std::size_t v = 0; v < kVariants; ++v) {
      tcu::Device<double> ref(oracle_config<double>(kM, kEll));
      const auto a = tcu::TiledMatrix<double>::pack(a_rows_[v].view(), s);
      tcu::TiledMatrix<double> c(kRows, kCols, s);
      tcu::linalg::matmul_tcu_resident_into(ref, a, b, c);
      expect_.push_back(c.unpack());
      ref_ = ref.counters();
    }
  }

  WorkloadConfig config() const override {
    return {default_backend_name<double>(kM), 1, kM, kEll, 1};
  }

  /// The closed form of one op: (q/s)(r/s) calls of n*s + l each.
  static std::uint64_t closed_form() {
    const std::uint64_t s = tcu::exact_sqrt(kM);
    return (kInner / s) * (kCols / s) * (kRows * s + kEll);
  }

  std::unique_ptr<Instance> setup(SetupSample& out) const override {
    const std::int64_t t0 = now_ns();
    auto inst = std::make_unique<Served>(*this);
    const std::int64_t p0 = now_ns();
    inst->pack();
    const std::int64_t p1 = now_ns();
    inst->run_op(0);
    const std::int64_t t1 = now_ns();
    out.total_s = seconds(t0, t1);
    out.pack_s = seconds(p0, p1);
    out.pack_bytes = 2 * sizeof(double) *
                     (kVariants * kRows * kInner + kInner * kCols);
    return inst;
  }

  std::uint64_t serial_time() const override { return ref_.time(); }

 private:
  class Served final : public Instance {
   public:
    explicit Served(const GemmSerial& w)
        : w_(w), dev_(unit_config<double>(kM, kEll, 1)) {}

    void pack() {
      const std::size_t s = dev_.tile_dim();
      for (const auto& a : w_.a_rows_) {
        a_.push_back(tcu::TiledMatrix<double>::pack(a.view(), s));
      }
      b_ = tcu::TiledMatrix<double>::pack(w_.b_rows_.view(), s);
      c_ = tcu::TiledMatrix<double>(kRows, kCols, s);
    }

    OpSample run_op(std::size_t i) override {
      const std::size_t v = i % kVariants;
      for (std::size_t jt = 0; jt < c_.tile_cols(); ++jt) {
        c_.strip_view(jt).fill(std::numeric_limits<double>::quiet_NaN());
      }
      OpSample op;
      op.calls.push_back(timed_call(kCall, dev_, [&] {
        tcu::linalg::matmul_tcu_resident_into(dev_, a_[v], b_, c_);
      }));
      return op;
    }

    bool check(std::size_t i, const OpSample& op) const override {
      const tcu::Counters d = op.delta();
      const tcu::Counters& ref = w_.ref_;
      // Evictions are excluded, as in every match predicate: the oracle
      // starts with an empty cache, the served device with a full one.
      return same_bits(c_.unpack(), w_.expect_[i % kVariants]) &&
             counters_match_serial(d, ref) &&
             d.resident_hits == ref.resident_hits &&
             d.latency_saved == ref.latency_saved &&
             d.tensor_time == closed_form() && op.sim_cost() == closed_form();
    }

    void corrupt_output() override { c_.at(0, 0) += 1.0; }

    void attach(Tracer* tracer) override {
      if (tracer) {
        tracer->attach(dev_, "serial", 0);
      } else {
        dev_.set_observer(nullptr);
      }
    }

   private:
    const GemmSerial& w_;
    tcu::Device<double> dev_;
    std::vector<tcu::TiledMatrix<double>> a_;
    tcu::TiledMatrix<double> b_;
    tcu::TiledMatrix<double> c_;
  };

  std::vector<tcu::Matrix<double>> a_rows_;
  tcu::Matrix<double> b_rows_;
  std::vector<tcu::Matrix<double>> expect_;
  tcu::Counters ref_;
};

// --------------------------------------------------------------- dag_pool

class DagPool final : public Workload {
 public:
  using Vert = tcu::graph::Vert;
  using Complex = tcu::dft::Complex;
  static constexpr std::size_t kP = 3;
  static constexpr std::size_t kM = 256;
  static constexpr std::uint64_t kEll = 256;
  static constexpr std::size_t kClosureN = 192;
  static constexpr std::size_t kGeR = 256;
  static constexpr std::size_t kDftBatch = 32;
  static constexpr std::size_t kDftLen = 1024;
  static constexpr std::size_t kStencilDim = 24;
  static constexpr std::size_t kStencilK = 8;
  static constexpr std::size_t kVariants = 2;

  explicit DagPool(std::uint64_t seed)
      : w_(tcu::stencil::heat_kernel(0.1, 0.05)) {
    tcu::util::Xoshiro256 rng(seed);
    for (std::size_t v = 0; v < kVariants; ++v) {
      Inputs in;
      in.adj = tcu::graph::random_digraph(
          kClosureN, 3.0 / static_cast<double>(kClosureN), rng());
      const std::size_t d = kGeR - 1;
      tcu::Matrix<double> a = random_matrix(d, d, rng);
      std::vector<double> b(d);
      for (std::size_t i = 0; i < d; ++i) {
        a(i, i) += 4.0;  // diagonally dominant: no pivoting needed
        b[i] = rng.uniform(-1, 1);
      }
      in.ge = tcu::linalg::make_augmented<double>(a.view(), b, kGeR);
      in.dft = tcu::Matrix<Complex>(kDftBatch, kDftLen);
      for (std::size_t r = 0; r < kDftBatch; ++r) {
        for (std::size_t j = 0; j < kDftLen; ++j) {
          in.dft(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
        }
      }
      in.grid = random_matrix(kStencilDim, kStencilDim, rng);
      inputs_.push_back(std::move(in));
    }
    for (const Inputs& in : inputs_) expects_.push_back(serial_oracle(in));
  }

  WorkloadConfig config() const override {
    return {default_backend_name<double>(kM), kP, kM, kEll, 1};
  }

  std::unique_ptr<Instance> setup(SetupSample& out) const override {
    const std::int64_t t0 = now_ns();
    auto inst = std::make_unique<Served>(*this);
    const std::int64_t s0 = now_ns();
    inst->spawn();
    const std::int64_t s1 = now_ns();
    inst->run_op(0);
    const std::int64_t t1 = now_ns();
    out.total_s = seconds(t0, t1);
    out.spawn_s = seconds(s0, s1);
    return inst;
  }

  std::uint64_t serial_time() const override {
    const Expect& e = expects_[0];
    return e.closure_ref.time() + e.ge_ref.time() + e.dft_ref.time() +
           e.stencil_ref.time();
  }

 private:
  struct Inputs {
    tcu::Matrix<Vert> adj;
    tcu::Matrix<double> ge;
    tcu::Matrix<Complex> dft;
    tcu::Matrix<double> grid;
  };
  struct Expect {
    tcu::Matrix<Vert> closure;
    tcu::Matrix<double> ge;
    tcu::Matrix<Complex> dft;
    tcu::Matrix<double> stencil;
    tcu::Counters closure_ref, ge_ref, dft_ref, stencil_ref;
  };

  class Served final : public Instance {
   public:
    explicit Served(const DagPool& w)
        : w_(w),
          pool_i_(kP, unit_config<Vert>(kM, kEll, 1)),
          pool_d_(kP, unit_config<double>(kM, kEll, 1)),
          pool_c_(kP, unit_config<Complex>(kM, kEll, 1)) {}

    /// One persistent executor per element type; only one is busy at a
    /// time.
    void spawn() {
      exec_i_ = std::make_unique<tcu::PoolExecutor<Vert>>(pool_i_);
      exec_d_ = std::make_unique<tcu::PoolExecutor<double>>(pool_d_);
      exec_c_ = std::make_unique<tcu::PoolExecutor<Complex>>(pool_c_);
    }

    OpSample run_op(std::size_t i) override {
      const Inputs& in = w_.inputs_[i % kVariants];
      closure_ = in.adj;
      ge_ = in.ge;
      dft_ = in.dft;
      OpSample op;
      op.calls.push_back(timed_call("graph.closure_tcu", pool_i_, [&] {
        tcu::graph::closure_tcu(*exec_i_, closure_.view());
      }));
      op.calls.push_back(timed_call("linalg.ge_forward_tcu_pool", pool_d_, [&] {
        tcu::linalg::ge_forward_tcu_pool(*exec_d_, ge_.view());
      }));
      op.calls.push_back(timed_call("dft.dft_batch_tcu", pool_c_, [&] {
        tcu::dft::dft_batch_tcu(*exec_c_, dft_.view());
      }));
      op.calls.push_back(timed_call("stencil.stencil_tcu_pool", pool_c_, [&] {
        stencil_ = tcu::stencil::stencil_tcu_pool(*exec_c_, in.grid.view(),
                                                  w_.w_, kStencilK);
      }));
      return op;
    }

    bool check(std::size_t i, const OpSample& op) const override {
      const Expect& e = w_.expects_[i % kVariants];
      if (op.calls.size() != 4) return false;
      const tcu::Counters& closure = op.calls[0].delta;
      const tcu::Counters& ge = op.calls[1].delta;
      const tcu::Counters& dft = op.calls[2].delta;
      const tcu::Counters& stencil = op.calls[3].delta;
      // Closure matches the serial schedule in every compared field; GE
      // does the same work and conserves its latency under any cache
      // policy; the DFT matches up to one Fourier tile reload per extra
      // chunked call; the residency-tagged stencil obeys the chunked-call
      // relation (bench/bench_pool_algos.cpp).
      const bool closure_ok = same_bits(closure_, e.closure) &&
                              counters_match_serial(closure, e.closure_ref);
      const bool ge_ok =
          same_bits(ge_, e.ge) && counters_conserve_serial(ge, e.ge_ref);
      const tcu::Counters& dr = e.dft_ref;
      const bool dft_ok =
          same_bits(dft_, e.dft) && dft.tensor_macs == dr.tensor_macs &&
          dft.tensor_rows == dr.tensor_rows && dft.cpu_ops == dr.cpu_ops &&
          dft.tensor_time - dft.latency_time ==
              dr.tensor_time - dr.latency_time &&
          dft.tensor_calls >= dr.tensor_calls &&
          dft.latency_time - dr.latency_time ==
              (dft.tensor_calls - dr.tensor_calls) * kEll;
      const tcu::Counters& sr = e.stencil_ref;
      const bool stencil_ok =
          same_bits(stencil_, e.stencil) &&
          stencil.tensor_macs == sr.tensor_macs &&
          stencil.tensor_rows == sr.tensor_rows &&
          stencil.cpu_ops == sr.cpu_ops &&
          stencil.tensor_time - stencil.latency_time ==
              sr.tensor_time - sr.latency_time &&
          stencil.tensor_calls >= sr.tensor_calls &&
          stencil.latency_time + stencil.latency_saved ==
              sr.latency_time + sr.latency_saved +
                  (stencil.tensor_calls - sr.tensor_calls) * kEll &&
          stencil.resident_hits > 0;
      return closure_ok && ge_ok && dft_ok && stencil_ok;
    }

    void corrupt_output() override { stencil_(0, 0) += 1.0; }

    void attach(Tracer* tracer) override {
      attach_pool(pool_i_, tracer, "int64", 0);
      attach_pool(pool_d_, tracer, "double", 1);
      attach_pool(pool_c_, tracer, "complex", 2);
    }

   private:
    const DagPool& w_;
    tcu::DevicePool<Vert> pool_i_;
    tcu::DevicePool<double> pool_d_;
    tcu::DevicePool<Complex> pool_c_;
    // Declared after the pools they run on, so they are destroyed first.
    std::unique_ptr<tcu::PoolExecutor<Vert>> exec_i_;
    std::unique_ptr<tcu::PoolExecutor<double>> exec_d_;
    std::unique_ptr<tcu::PoolExecutor<Complex>> exec_c_;
    tcu::Matrix<Vert> closure_;
    tcu::Matrix<double> ge_;
    tcu::Matrix<Complex> dft_;
    tcu::Matrix<double> stencil_;
  };

  Expect serial_oracle(const Inputs& in) const {
    Expect e;
    {
      tcu::Device<Vert> dev(oracle_config<Vert>(kM, kEll));
      e.closure = in.adj;
      tcu::graph::closure_tcu(dev, e.closure.view());
      e.closure_ref = dev.counters();
    }
    {
      tcu::Device<double> dev(oracle_config<double>(kM, kEll));
      e.ge = in.ge;
      tcu::linalg::ge_forward_tcu(dev, e.ge.view());
      e.ge_ref = dev.counters();
    }
    {
      tcu::Device<Complex> dev(oracle_config<Complex>(kM, kEll));
      e.dft = in.dft;
      tcu::dft::dft_batch_tcu(dev, e.dft.view());
      e.dft_ref = dev.counters();
    }
    {
      tcu::Device<Complex> dev(oracle_config<Complex>(kM, kEll));
      e.stencil = tcu::stencil::stencil_tcu(dev, in.grid.view(), w_, kStencilK);
      e.stencil_ref = dev.counters();
    }
    return e;
  }

  tcu::stencil::Kernel3 w_;
  std::vector<Inputs> inputs_;
  std::vector<Expect> expects_;
};

// -------------------------------------------------------------- mlp_serve

class MlpServe final : public Workload {
 public:
  static constexpr std::size_t kP = 3;
  static constexpr std::size_t kM = 256;
  static constexpr std::uint64_t kEll = 256;
  /// Below each strip's chain of in/sqrt(m) = 16 weight tiles, so LRU
  /// thrashes and no request hits a tile a previous one loaded; a policy
  /// that beats LRU shows here as a lower sim_cost.
  static constexpr std::size_t kResidentTiles = 4;
  static constexpr std::size_t kBatch = 128;
  static constexpr std::size_t kWidths[] = {256, 256, 256, 256};
  static constexpr std::size_t kLayers = std::size(kWidths) - 1;
  static constexpr std::size_t kRequests = 4;

  explicit MlpServe(std::uint64_t seed) {
    tcu::util::Xoshiro256 rng(seed);
    for (std::size_t l = 0; l < kLayers; ++l) {
      const double scale = 2.0 / std::sqrt(static_cast<double>(kWidths[l]));
      weights_.push_back(
          random_matrix(kWidths[l], kWidths[l + 1], rng, scale));
      std::vector<double> bias(kWidths[l + 1]);
      for (auto& b : bias) b = 0.1 * rng.uniform(-1, 1);
      biases_.push_back(std::move(bias));
    }
    for (std::size_t r = 0; r < kRequests; ++r) {
      requests_.push_back(random_matrix(kBatch, kWidths[0], rng));
    }
    tcu::nn::Mlp oracle;
    for (std::size_t l = 0; l < kLayers; ++l) {
      oracle.add_layer(tcu::nn::DenseLayer(weights_[l], biases_[l]));
    }
    for (const auto& req : requests_) {
      tcu::Device<double> dev(oracle_config<double>(kM, kEll));
      expect_.push_back(oracle.forward(dev, req.view()));
      ref_.push_back(dev.counters());
    }
  }

  WorkloadConfig config() const override {
    return {default_backend_name<double>(kM), kP, kM, kEll, kResidentTiles};
  }

  std::unique_ptr<Instance> setup(SetupSample& out) const override {
    const std::int64_t t0 = now_ns();
    auto inst = std::make_unique<Served>(*this);
    const std::int64_t s0 = now_ns();
    inst->spawn();
    const std::int64_t s1 = now_ns();
    inst->load_model(out);
    inst->run_op(0);
    const std::int64_t t1 = now_ns();
    out.total_s = seconds(t0, t1);
    out.spawn_s = seconds(s0, s1);
    return inst;
  }

  std::uint64_t serial_time() const override { return ref_[0].time(); }

 private:
  class Served final : public Instance {
   public:
    explicit Served(const MlpServe& w)
        : w_(w), pool_(kP, unit_config<double>(kM, kEll, kResidentTiles)) {}

    void spawn() { exec_ = std::make_unique<tcu::PoolExecutor<double>>(pool_); }

    /// Build the layers and pack their weights tile-major. A layer packs
    /// lazily on first use; asking for the packed weights here times the
    /// packing as its own layer, and the packed copy moves into the Mlp
    /// with the layer.
    void load_model(SetupSample& out) {
      const std::size_t s = pool_.unit(0).tile_dim();
      std::int64_t pack_ns = 0;
      for (std::size_t l = 0; l < kLayers; ++l) {
        tcu::nn::DenseLayer layer(w_.weights_[l], w_.biases_[l]);
        const std::int64_t p0 = now_ns();
        (void)layer.tiled_weights(s);
        pack_ns += now_ns() - p0;
        mlp_.add_layer(std::move(layer));
        out.pack_bytes += 2 * sizeof(double) * kWidths[l] * kWidths[l + 1];
      }
      out.pack_s = static_cast<double>(pack_ns) * 1e-9;
    }

    OpSample run_op(std::size_t i) override {
      const tcu::Matrix<double>& req = w_.requests_[i % kRequests];
      OpSample op;
      op.calls.push_back(timed_call("nn.mlp_forward", pool_, [&] {
        out_ = mlp_.forward(*exec_, req.view());
      }));
      return op;
    }

    bool check(std::size_t i, const OpSample& op) const override {
      const tcu::Counters d = op.delta();
      const tcu::Counters& ref = w_.ref_[i % kRequests];
      // Only what holds under any cache policy: a policy that gets hits
      // here lowers sim_cost, which is what this workload measures.
      return same_bits(out_, w_.expect_[i % kRequests]) &&
             counters_conserve_serial(d, ref);
    }

    void corrupt_output() override { out_(0, 0) += 1.0; }

    void attach(Tracer* tracer) override {
      attach_pool(pool_, tracer, "double", 0);
    }

   private:
    const MlpServe& w_;
    tcu::DevicePool<double> pool_;
    std::unique_ptr<tcu::PoolExecutor<double>> exec_;  ///< after pool_
    tcu::nn::Mlp mlp_;
    tcu::Matrix<double> out_;
  };

  std::vector<tcu::Matrix<double>> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<tcu::Matrix<double>> requests_;
  std::vector<tcu::Matrix<double>> expect_;
  std::vector<tcu::Counters> ref_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"gemm_serial", "dag_pool", "mlp_serve"};
}

std::vector<std::string> all_call_names() {
  return {"linalg.matmul_tcu_resident_into", "graph.closure_tcu",
          "linalg.ge_forward_tcu_pool",      "dft.dft_batch_tcu",
          "stencil.stencil_tcu_pool",        "nn.mlp_forward"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "gemm_serial") return std::make_unique<GemmSerial>(seed);
  if (name == "dag_pool") return std::make_unique<DagPool>(seed);
  if (name == "mlp_serve") return std::make_unique<MlpServe>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
