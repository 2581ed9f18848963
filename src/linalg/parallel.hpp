#pragma once
// Dense multiplication on multiple tensor units (the §3.1/§6 extension).
//
// The Theorem 2 blocked algorithm parallelizes naturally: each output
// column strip (one weight tile column) is an independent chain of tall
// calls, so strips are dealt to units greedily by load. With p units and
// at least p strips the tensor term drops from n^{3/2}/sqrt(m) to
// n^{3/2}/(p sqrt(m)) while each unit still pays l per resident tile —
// measured by the ABL4 ablation bench.
//
// Execution is genuinely parallel: strips are enqueued on a
// `PoolExecutor` (one worker thread per unit) and write disjoint column
// strips of C, so workers never touch the same memory. Dealing happens on
// the calling thread against *projected* loads equal to the exact
// simulated cost each strip will charge, so the assignment — and with it
// every unit's `Counters` — is bit-identical to the historical serial
// execute-then-pick loop regardless of thread interleaving.
//
// Every pooled dense product runs through one dealer,
// `matmul_tcu_pool_strips`, over the same Theorem 2 plan and strip body as
// the serial products (detail::Theorem2 in dense.hpp):
//   * any layout and shape — each operand may be row-major or a
//     TiledMatrix; a ragged one is packed once into a zero-padded
//     TiledMatrix owned by the tasks that read it, so pooled outputs and
//     charge totals equal the serial product's;
//   * tile affinity — with `PoolMatmulOptions::affinity`, every B tile
//     carries a resident-operand key; the dealer routes a strip to the
//     lane already holding its tiles and the device skips the re-load
//     latency (`gemm_resident`), which is what makes repeated products
//     against the same weights (batches, nn forwards) cheaper than a
//     reload-every-call schedule;
//   * row chunks and tile-split chains for products with fewer strips
//     than units or chains deeper than the tile cache.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/pool.hpp"
#include "linalg/dense.hpp"

namespace tcu::linalg {

struct PoolMatmulOptions {
  /// Tag B tiles with resident-operand keys (their storage address) and
  /// deal strips with tile affinity: every strip declares its full chain
  /// of B-tile keys and the dealer scores lanes by predicted LRU hits.
  /// Off by default: untagged dealing is the pure least-loaded schedule.
  ///
  /// The key is an *identity token*, not a content hash: a resident hit
  /// is only meaningful when the same storage still holds the same tile.
  /// That holds for the intended workloads — long-lived weight matrices
  /// (nn layers, a shared batch B) multiplied repeatedly. A caller that
  /// frees B and reuses the allocation for different data between
  /// affinity calls would inherit stale residency and undercount load
  /// latency; use untagged calls (or fresh pools) for such churn.
  bool affinity = false;

  /// Split each strip's chain at tile granularity: one task per B tile,
  /// each computing a partial product, and one CPU continuation per
  /// strip that sums the strip's partials once its tile tasks retire
  /// (charged to the shared CPU, so the dealing follows the tiles alone).
  /// This lets a deep B (chain k > 1) both parallelize across lanes and
  /// fit each lane's share of the tiles in a cache with c < k, so
  /// repeated products pay each tile's load once per owning lane instead
  /// of once per strip visit. Opt-in because the partial-sum combine
  /// reassociates the floating-point accumulation: outputs are run- and
  /// p-deterministic (and exact for integral T), but may differ from the
  /// fused chain by rounding. The partials hold k_tiles copies of C until
  /// the combines run — size the cache (or keep fused chains) for very
  /// deep B instead. Requires `affinity`; ignored for single-tile chains.
  bool split_chains = false;

  /// Optional identity override for B's tiles (element origin (kb, jb) ->
  /// key): empty means "key by storage address", the right default for a
  /// long-lived B. Callers whose B is a transient repack of long-lived
  /// weights (conv2d's filter bank) key on the underlying storage so
  /// residency survives the repack being rebuilt between calls. Symbolic
  /// keys (`make_tile_key`) must honor the same contract: equal keys,
  /// equal tile content.
  TileKeyFn tile_key = {};

  /// Split the tall dimension into up to this many row chunks per output
  /// strip, each (chunk, strip) pair its own task declaring the strip's
  /// full chain — the schedule conv2d's im2col strips use to parallelize
  /// products with fewer strips than units (the DFT levels run the
  /// analogous split over raw device calls and keep their own dealer in
  /// dft.cpp). Chunks cover whole tile-rows (the last one also the ragged
  /// remainder) and each re-runs the whole chain, so outputs stay
  /// bit-identical while the latency split changes by exactly l per extra
  /// call (paid on first touch or saved on a resident hit; the
  /// counters_match relation of the pool benches). Clamped to the
  /// available full tile-rows; 1 is the classic one-task-per-strip
  /// dealing, and 0 (the default) means "auto" — no split here, the unit
  /// count in conv2d_tcu_pool — so an explicit 1 stays reachable through
  /// wrappers that auto-split. Ignored in split_chains mode.
  std::size_t row_chunks = 0;
};

namespace detail {

/// Exact tensor time of one tile of a strip chain (left operand rows x s).
/// Untagged chains charge exactly what Device::gemm will
/// (projected_gemm_cost); with affinity the weak-model split shares its
/// resident tile, so the load latency is paid once per tile instead of
/// once per square call — mirroring Device::gemm_resident's charging.
template <typename T>
std::uint64_t strip_tile_cost(const Device<T>& unit, std::uint64_t rows,
                              bool affinity) {
  const auto s = static_cast<std::uint64_t>(unit.tile_dim());
  if (!affinity || unit.allows_tall() || rows <= s) {
    return projected_gemm_cost(unit, rows);
  }
  const std::uint64_t calls = (rows + s - 1) / s;
  return calls * unit.m() + unit.latency();
}

/// split_chains: one task per (B tile, output strip) pair, submitted
/// tile-major and each declaring its single-tile chain, so the dealer
/// routes every visit to the lane whose cache holds (or will hold) that
/// tile. Each task writes its own partial product; one CPU continuation
/// per strip, gated on that strip's tile tickets, sums the partials in
/// ascending tile order into C — a deterministic, p-independent summation
/// (bit-identical to the same mode on one unit; exact for integral T).
/// The combines are charged to the shared CPU and declare no lane cost,
/// like the pack task: a single strip's combine would otherwise add
/// k_tiles * rows * w ops to one lane's projection, which outbids the hit
/// credit (l per tile) of the next split product and deals its tiles away
/// from the lanes that hold them.
template <typename T>
void deal_split(PoolExecutor<T>& exec, const Theorem2<T>& pr,
                const std::vector<std::vector<std::uint64_t>>& chains,
                const TaskDeps& packed, std::vector<TaskDeps>& done) {
  const std::uint64_t tile_cost =
      strip_tile_cost(exec.pool().unit(0), pr.rows, /*affinity=*/true);
  auto partials = std::make_shared<std::vector<Matrix<T>>>(
      pr.k_tiles * pr.strips, Matrix<T>(pr.rows, pr.s, T{}));
  for (std::size_t kt = 0; kt < pr.k_tiles; ++kt) {
    for (std::size_t jt = 0; jt < pr.strips; ++jt) {
      Matrix<T>* part = &(*partials)[kt * pr.strips + jt];
      const std::uint64_t key = chains[jt][kt];
      auto task = [pr, partials, part, kt, jt, key](Device<T>& unit) {
        pr.chain(unit, part->view(), jt, 0, kt, kt + 1, &key);
      };
      done[jt].after.push_back(
          exec.submit_affine(tile_cost, {key}, packed, std::move(task))
              .serial);
    }
  }
  for (std::size_t jt = 0; jt < pr.strips; ++jt) {
    const std::size_t w = pr.width(jt);
    const std::uint64_t cost =
        static_cast<std::uint64_t>(pr.k_tiles) * pr.rows * w;
    exec.pool().charge_cpu(cost);
    const TaskTicket combine = exec.submit_cpu(
        0, std::move(done[jt]), [pr, partials, jt, w](Device<T>&) {
          const MatrixView<T> out = pr.c.block(0, pr.rows, jt, pr.s, w);
          for (std::size_t kt = 0; kt < pr.k_tiles; ++kt) {
            const Matrix<T>& part = (*partials)[kt * pr.strips + jt];
            for (std::size_t i = 0; i < pr.rows; ++i) {
              for (std::size_t j = 0; j < w; ++j) {
                out(i, j) = kt == 0 ? part(i, j) : out(i, j) + part(i, j);
              }
            }
          }
        });
    done[jt] = TaskDeps{{combine.serial}};
  }
}

}  // namespace detail

/// C = A * B dealt across the executor's units without joining: the one
/// pooled dense product. Each of A, B, C may be a row-major view or a
/// TiledMatrix, any shapes (ragged operands are padded once, see
/// detail::Theorem2). One task per (row chunk, output strip) runs the
/// strip body; `opts` selects untagged or affinity dealing, row chunks,
/// tile-split chains and tile keys. Placement depends only on shapes,
/// costs and chains, never on timing.
///
/// Padded inputs are packed by one task that every product task depends
/// on, so A and B may themselves be outputs of tasks still in flight
/// (fence-ordered by join_epoch). Its pack_cost is charged to the shared
/// CPU, as a serial product charges it to its device, and the task
/// declares no cost, so the products are dealt exactly as their own
/// costs place them. Packed temporaries are owned by the tasks.
///
/// Returns, per output strip jt, the tickets after which C's columns
/// [jt*s, jt*s+s) are final — a per-strip epilogue can depend on them
/// instead of a barrier. The caller owes the executor a join() (or a
/// join_epoch() fence) before the submit thread reads C, and keeps its
/// own A, B and C alive until then.
template <typename T>
std::vector<TaskDeps> matmul_tcu_pool_strips(
    PoolExecutor<T>& exec, std::type_identity_t<InOperand<T>> A,
    std::type_identity_t<InOperand<T>> B,
    std::type_identity_t<OutOperand<T>> C, PoolMatmulOptions opts = {}) {
  DevicePool<T>& pool = exec.pool();
  const Device<T>& unit0 = pool.unit(0);
  const std::size_t s = unit0.tile_dim();
  const bool split = opts.affinity && opts.split_chains && A.cols() > s;
  // Each task copies the plan (sharing only packed temporaries) and its
  // strip's keys, so no object or reference count is shared by the lanes.
  const detail::Theorem2<T> pr(s, A, B, C, /*pad_c=*/!split);
  TaskDeps packed;
  if (pr.pack_ops != 0) {
    pool.charge_cpu(pr.pack_ops);
    packed.after.push_back(
        exec.submit_cpu(0, TaskDeps{},
                        [pr](Device<T>&) { pr.pack_inputs(); })
            .serial);
  }
  std::vector<std::vector<std::uint64_t>> chains;
  if (opts.affinity) {
    for (std::size_t jt = 0; jt < pr.strips; ++jt) {
      chains.push_back(pr.keys(jt, opts.tile_key));
    }
  }
  std::vector<TaskDeps> done(pr.strips);
  if (split) {
    detail::deal_split(exec, pr, chains, packed, done);
    return done;
  }

  // Tall-dimension split: chunk c covers whole tile-rows (the last one
  // also the ragged remainder) and re-runs every strip's chain over them.
  const std::size_t row_tiles = pr.rows / s;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(std::max<std::size_t>(opts.row_chunks, 1), row_tiles));
  std::size_t r0 = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t nr =
        chunks == 1 ? pr.rows
                    : (row_tiles / chunks + (c < row_tiles % chunks)) * s +
                          (c + 1 == chunks ? pr.rows % s : 0);
    const std::uint64_t cost =
        pr.k_tiles * detail::strip_tile_cost(unit0, nr, opts.affinity);
    for (std::size_t jt = 0; jt < pr.strips; ++jt) {
      auto task = [pr, keys = opts.affinity ? chains[jt]
                                            : std::vector<std::uint64_t>{},
                   jt, r0, nr](Device<T>& unit) {
        pr.strip(unit, jt, r0, nr, keys.empty() ? nullptr : keys.data());
      };
      done[jt].after.push_back(
          (opts.affinity ? exec.submit_affine(cost, chains[jt], packed,
                                              std::move(task))
                         : exec.submit(cost, packed, std::move(task)))
              .serial);
    }
    r0 += nr;
  }
  return done;
}

/// `matmul_tcu_pool_strips` followed by the executor's join(): C is final
/// on return, and the executor is ready for the next round.
template <typename T>
void matmul_tcu_pool_into(PoolExecutor<T>& exec,
                          std::type_identity_t<InOperand<T>> A,
                          std::type_identity_t<InOperand<T>> B,
                          std::type_identity_t<OutOperand<T>> C,
                          PoolMatmulOptions opts = {}) {
  (void)matmul_tcu_pool_strips(exec, A, B, C, std::move(opts));
  exec.join();
}

/// Allocating wrapper over the persistent-executor path.
template <typename T>
Matrix<T> matmul_tcu_pool(PoolExecutor<T>& exec,
                          std::type_identity_t<ConstMatrixView<T>> A,
                          std::type_identity_t<ConstMatrixView<T>> B,
                          PoolMatmulOptions opts = {}) {
  Matrix<T> C(A.rows, B.cols, T{});
  matmul_tcu_pool_into(exec, A, B, C.view(), std::move(opts));
  return C;
}

}  // namespace tcu::linalg
