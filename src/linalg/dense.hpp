#pragma once
// Dense matrix multiplication in the (m, l)-TCU model.
//
// `matmul_tcu` is the blocked algorithm of Theorem 2: the right operand is
// cut into sqrt(m) x sqrt(m) tiles; for each tile the full left column
// strip is streamed through the tensor unit as one tall call, so the
// latency l is paid once per tile — Theta(n^{3/2}/sqrt(m) + (n/m) l) for
// square sqrt(n) x sqrt(n) inputs, and Corollary 1's bound for rectangular
// shapes. `matmul_naive` is the RAM baseline the paper compares against
// (semiring lower-bound discussion in Theorem 2's proof).

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "check/contract.hpp"
#include "core/device.hpp"
#include "core/matrix.hpp"

namespace tcu::linalg {

/// Identity of B's tile at element origin (kb, jb) for residency tagging.
/// An empty function means "key each tile by its storage address" — valid
/// while B is long-lived and unchanged between calls. Callers whose B is a
/// transient repack of long-lived weights (conv2d's im2col filter bank)
/// supply a key derived from the underlying storage instead, so repeated
/// calls keep hitting across rebuilds of the repack.
using TileKeyFn = std::function<std::uint64_t(std::size_t kb, std::size_t jb)>;

/// RAM baseline: definition-based multiplication, charges one unit per
/// multiply-accumulate to `counters`. Works for any p x q times q x r.
template <typename T>
Matrix<T> matmul_naive(ConstMatrixView<T> A, ConstMatrixView<T> B,
                       Counters& counters) {
  if (A.cols != B.rows) {
    throw std::invalid_argument("matmul_naive: inner dimensions differ");
  }
  Matrix<T> C(A.rows, B.cols);
  for (std::size_t i = 0; i < A.rows; ++i) {
    for (std::size_t j = 0; j < B.cols; ++j) {
      T acc{};
      for (std::size_t k = 0; k < A.cols; ++k) acc += A(i, k) * B(k, j);
      C(i, j) = acc;
    }
  }
  counters.charge_cpu(static_cast<std::uint64_t>(A.rows) * B.cols * A.cols);
  return C;
}

/// An operand of the dense products in either layout: a row-major view
/// or a TiledMatrix (`InOperand` reads, `OutOperand` writes). Products cut
/// it into sqrt(m)-wide column strips through `block` alone: a view
/// yields subviews of the caller's storage, a TiledMatrix its strip views
/// (a tile is an s-row slice of its strip, i.e. `tile_view`), truncated to
/// the logical rows. A row-major operand whose strips would run past its
/// edge gets the zero-padded TiledMatrix `packed`, owned by the operand
/// and by every pool task holding a copy of it.
template <typename View, typename Tiled>
struct Operand {
  template <typename V>
    requires std::convertible_to<V, View>
  Operand(V v) : view(v) {}  // NOLINT: implicit by design
  Operand(Tiled& m) : tiled(&m) {}  // NOLINT: implicit by design

  std::size_t rows() const { return tiled ? tiled->rows() : view.rows; }
  std::size_t cols() const { return tiled ? tiled->cols() : view.cols; }

  /// Rows [r0, r0 + nr) of column strip t, w <= s columns wide.
  View block(std::size_t r0, std::size_t nr, std::size_t t, std::size_t s,
             std::size_t w) const {
    return tiled ? tiled->strip_view(t).subview(r0, 0, nr, w)
                 : view.subview(r0, t * s, nr, w);
  }

  View view{};             ///< the caller's row-major storage, if any
  Tiled* tiled = nullptr;  ///< tile-major storage: the caller's or `packed`
  std::shared_ptr<std::remove_const_t<Tiled>> packed;
};

template <typename T>
using InOperand = Operand<ConstMatrixView<T>, const TiledMatrix<T>>;
template <typename T>
using OutOperand = Operand<MatrixView<T>, TiledMatrix<T>>;

namespace detail {

/// Give a row-major operand zero-padded tile-major storage when its
/// strips need padding (an input's is filled by Theorem2::pack_inputs).
/// A caller's TiledMatrix must match the tile dimension and is used as
/// is.
template <typename View, typename Tiled>
void pad(Operand<View, Tiled>& op, bool ragged, std::size_t s) {
  if (op.tiled) {
    if (op.tiled->tile_dim() != s) {
      throw std::invalid_argument(
          "matmul_tcu: TiledMatrix tile_dim must equal the device's sqrt(m)");
    }
    return;
  }
  if (!ragged) return;
  op.packed = std::make_shared<std::remove_const_t<Tiled>>(op.view.rows,
                                                           op.view.cols, s);
  op.tiled = op.packed.get();
}

/// The Theorem 2 / Corollary 1 schedule of one product C = A * B, for
/// every layout, serial or pooled: output strip jt is the chain of tall
/// calls A-strip(kt) x B-tile(kt, jt) over kt. Only operands whose strips
/// run past a ragged edge are padded — A when q % s != 0, B when q or r
/// is ragged, C when r % s != 0 — each once, into a zero-padded
/// TiledMatrix: inputs are packed (`pack_inputs`, pack_cost each) and a
/// padded C is copied back row range by row range as its strips finish.
/// Rows never are: every call streams any number of rows. The plan is a
/// small value — geometry and the three operands; a pool task carries its
/// own copy (sharing only the packed temporaries) plus its strip's keys.
template <typename T>
struct Theorem2 {
  Theorem2(std::size_t tile, InOperand<T> a_, InOperand<T> b_,
           OutOperand<T> c_, bool pad_c)
      : s(tile),
        rows(a_.rows()),
        cols(b_.cols()),
        k_tiles((a_.cols() + tile - 1) / tile),
        strips((b_.cols() + tile - 1) / tile),
        a(std::move(a_)),
        b(std::move(b_)),
        c(std::move(c_)) {
    if (a.cols() != b.rows() || c.rows() != rows || c.cols() != cols) {
      throw std::invalid_argument("matmul_tcu: shape mismatch");
    }
    const bool ragged_q = a.cols() % s != 0, ragged_r = cols % s != 0;
    pad(a, ragged_q, s);
    pad(b, ragged_q || ragged_r, s);
    pad(c, pad_c && ragged_r, s);
    for (const InOperand<T>* in : {&a, &b}) {
      if (in->packed) pack_ops += in->packed->pack_cost();
    }
  }

  /// The resident keys of strip jt's chain, one per tile. They name the
  /// caller's B: a packed temporary never lends its own addresses as
  /// residency identities.
  std::vector<std::uint64_t> keys(std::size_t jt,
                                  const TileKeyFn& tile_key) const {
    std::vector<std::uint64_t> chain(k_tiles);
    for (std::size_t kt = 0; kt < k_tiles; ++kt) {
      chain[kt] = tile_key ? tile_key(kt * s, jt * s)
                           : reinterpret_cast<std::uintptr_t>(
                                 b.packed || !b.tiled
                                     ? &b.view(kt * s, jt * s)
                                     : b.tiled->tile_data(kt, jt));
    }
    return chain;
  }

  /// Fill the padded inputs from the caller's views: `pack_ops` of CPU
  /// work, for the caller to charge.
  void pack_inputs() const {
    for (const InOperand<T>* in : {&a, &b}) {
      if (in->packed) in->packed->pack_from(in->view);
    }
  }

  /// Tiles [kt0, kt1) of strip jt's chain over rows [r0, r0 + out.rows)
  /// of A, accumulated into `out` from scratch; `keys[kt - kt0]` tags
  /// tile kt (null: untagged calls).
  void chain(Device<T>& dev, MatrixView<T> out, std::size_t jt,
             std::size_t r0, std::size_t kt0, std::size_t kt1,
             const std::uint64_t* keys) const {
    for (std::size_t kt = kt0; kt < kt1; ++kt) {
      const ConstMatrixView<T> x = a.block(r0, out.rows, kt, s, s);
      const ConstMatrixView<T> w = b.block(kt * s, s, jt, s, s);
      if (keys) {
        dev.gemm_resident(keys[kt - kt0], x, w, out, kt != kt0);
      } else {
        // tcu-lint: untagged-ok(untagged product: matmul_tcu_into's cold-stream baseline, or a pool task dealt by plain submit)
        dev.gemm(x, w, out, kt != kt0);
      }
    }
  }

  /// The one strip body: rows [r0, r0 + nr) of output strip jt — its
  /// whole chain, then, for a padded C, those rows copied back to the
  /// caller's C one contiguous segment at a time (charged to `dev`).
  void strip(Device<T>& dev, std::size_t jt, std::size_t r0,
             std::size_t nr, const std::uint64_t* keys) const {
    const MatrixView<T> out = c.block(r0, nr, jt, s, s);
    chain(dev, out, jt, r0, 0, k_tiles, keys);
    if (!c.packed) return;
    const std::size_t w = width(jt);
    for (std::size_t i = 0; i < nr; ++i) {
      const T* row = &out(i, 0);
      std::copy(row, row + w, &c.view(r0 + i, jt * s));
    }
    dev.charge_cpu(static_cast<std::uint64_t>(nr) * w);
  }

  /// Logical width of output strip jt.
  std::size_t width(std::size_t jt) const {
    return std::min(s, cols - jt * s);
  }

  std::size_t s, rows, cols, k_tiles, strips;
  InOperand<T> a, b;
  OutOperand<T> c;
  std::uint64_t pack_ops = 0;  ///< CPU work of pack_inputs
};

/// Run a planned product strip by strip on one device: untagged calls,
/// or every tile keyed (`Theorem2::keys`).
template <typename T>
void run_serial(Device<T>& dev, const Theorem2<T>& plan, bool keyed,
                const TileKeyFn& tile_key = {}) {
  plan.pack_inputs();
  dev.charge_cpu(plan.pack_ops);
  for (std::size_t jt = 0; jt < plan.strips; ++jt) {
    const std::vector<std::uint64_t> keys =
        keyed ? plan.keys(jt, tile_key) : std::vector<std::uint64_t>{};
    plan.strip(dev, jt, 0, plan.rows, keyed ? keys.data() : nullptr);
  }
}

}  // namespace detail

/// Theorem 2 (and Corollary 1 for rectangular shapes): C = A * B computed
/// by tiling B into sqrt(m) x sqrt(m) blocks and streaming the matching
/// tall strip of A through the unit once per block. Each operand may be a
/// row-major view or a TiledMatrix. Ragged edges are zero-padded by
/// packing the affected operand once (the paper assumes divisibility;
/// padding only adds lower-order CPU work, charged as one pack_cost per
/// packed operand).
template <typename T>
void matmul_tcu_into(Device<T>& dev, std::type_identity_t<InOperand<T>> A,
                     std::type_identity_t<InOperand<T>> B,
                     std::type_identity_t<OutOperand<T>> C) {
  // The untagged Theorem 2 baseline by definition streams every tile
  // cold; benches compare it against the resident-tagged variant, so it
  // must not borrow residency from earlier work either.
  check::AllowUntaggedClobber allow_clobber;
  detail::run_serial(dev, detail::Theorem2<T>(dev.tile_dim(), A, B, C,
                                              /*pad_c=*/true),
                     /*keyed=*/false);
}

/// Allocating wrapper for `matmul_tcu_into`.
template <typename T>
Matrix<T> matmul_tcu(Device<T>& dev, std::type_identity_t<ConstMatrixView<T>> A,
                     std::type_identity_t<ConstMatrixView<T>> B) {
  Matrix<T> C(A.rows, B.cols, T{});
  matmul_tcu_into(dev, A, B, C.view());
  return C;
}

/// Theorem 2 with residency-tagged weight tiles: identical call structure
/// and charges to `matmul_tcu_into`, but every B tile carries its identity
/// key, so the device's TileCache can serve repeated products against the
/// same weights without re-paying the load latency — one load per tile
/// while it stays resident (`Counters::resident_hits` records the reuse),
/// and in the weak model the square calls of one tall split share their
/// tile's single load. This is the serial half of the §3 asymmetry
/// property the pool's affinity dealer realizes across lanes.
///
/// Keys default to B's storage: `&B(kb, jb)` for a row-major B (even when
/// a ragged B is packed for the call), the tile's address for a
/// TiledMatrix — stable while B lives unchanged; callers that repack or
/// recycle B must evict_all. A TileKeyFn receives element origins
/// (kt*s, jt*s) and overrides both.
template <typename T>
void matmul_tcu_resident_into(Device<T>& dev,
                              std::type_identity_t<InOperand<T>> A,
                              std::type_identity_t<InOperand<T>> B,
                              std::type_identity_t<OutOperand<T>> C,
                              const TileKeyFn& tile_key = {}) {
  detail::run_serial(dev, detail::Theorem2<T>(dev.tile_dim(), A, B, C,
                                              /*pad_c=*/true),
                     /*keyed=*/true, tile_key);
}

/// Allocating wrapper for `matmul_tcu_resident_into`.
template <typename T>
Matrix<T> matmul_tcu_resident(Device<T>& dev,
                              std::type_identity_t<ConstMatrixView<T>> A,
                              std::type_identity_t<ConstMatrixView<T>> B,
                              const TileKeyFn& tile_key = {}) {
  Matrix<T> C(A.rows, B.cols, T{});
  matmul_tcu_resident_into(dev, A, B, C.view(), tile_key);
  return C;
}

/// Allocating wrapper for the fully tile-major product.
template <typename T>
TiledMatrix<T> matmul_tcu_resident(Device<T>& dev, const TiledMatrix<T>& A,
                                   const TiledMatrix<T>& B,
                                   const TileKeyFn& tile_key = {}) {
  TiledMatrix<T> C(A.rows(), B.cols(), B.tile_dim());
  matmul_tcu_resident_into(dev, A, B, C, tile_key);
  return C;
}

}  // namespace tcu::linalg
