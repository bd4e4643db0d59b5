// Tiled, copy-on-write substrate of incremental epoch publication: a
// frame (and its summed-area plane) is stored as a grid of fixed-size
// tile blocks held by shared_ptr, so consecutive generations alias every
// tile that did not change and staging a low-churn epoch copies only the
// dirty fraction of the data.
//
// The summed-area side is a two-level decomposition. Each tile keeps its
// local inclusive prefix sums; three small aggregate arrays (tile-corner
// plane + per-tile-row column carries + per-tile-column row carries)
// stitch the locals back into global prefixes, so a global prefix is
// still four reads:
//
//   P(r, c) = Corner[i][j] + Top[i][c] + Left[r][j] + Local_ij(r%, c%)
//
// with (i, j) = (r, c) / kSatTileSize. A dirty tile costs O(tile) to
// rebuild its local; the aggregates are recomputed in one deterministic
// O(cells / tile) sweep over the tile margins (the "carry fixup").
// Because aggregates are a pure function of the locals and clean locals
// are aliased bit-for-bit, an incremental rebuild is bit-identical to a
// full rebuild of the same frame — which is what lets the parity tests
// pin incremental staging against a flat reference prefix-sum plane.
#ifndef ONE4ALL_TENSOR_TILED_SAT_H_
#define ONE4ALL_TENSOR_TILED_SAT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/logging.h"
#include "tensor/tensor.h"

namespace one4all {

/// \brief Tile edge in cells. A power of two, so the hot four-read path
/// divides by shifting. 32 keeps a tile's local prefix (8 KiB of
/// doubles) L1-resident during rebuild while the aggregate arrays stay
/// ~2/32 of the plane.
constexpr int64_t kSatTileSize = 32;

/// \brief Which tiles of one [h, w] frame changed relative to some
/// baseline (the previous timestep's frame, for staging). A default-
/// constructed set is "unknown" (empty()): consumers must treat every
/// tile as dirty then.
class TileDirtySet {
 public:
  TileDirtySet() = default;
  /// \brief All-clean set for an `h` x `w` frame.
  TileDirtySet(int64_t h, int64_t w);

  static TileDirtySet AllDirty(int64_t h, int64_t w);

  /// \brief True for the default-constructed "unknown" set.
  bool empty() const { return tiles_h_ == 0 || tiles_w_ == 0; }
  int64_t height() const { return h_; }
  int64_t width() const { return w_; }
  int64_t tiles_h() const { return tiles_h_; }
  int64_t tiles_w() const { return tiles_w_; }
  int64_t num_tiles() const { return tiles_h_ * tiles_w_; }

  bool dirty(int64_t i, int64_t j) const {
    return bits_[static_cast<size_t>(i * tiles_w_ + j)] != 0;
  }
  void MarkTile(int64_t i, int64_t j) {
    bits_[static_cast<size_t>(i * tiles_w_ + j)] = 1;
  }
  void MarkCell(int64_t r, int64_t c) {
    MarkTile(r / kSatTileSize, c / kSatTileSize);
  }
  /// \brief Marks every tile intersecting the half-open cell rect
  /// [r0, r1) x [c0, c1); clamped to the frame.
  void MarkRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1);

  int64_t CountDirty() const;
  bool AnyDirty() const { return CountDirty() > 0; }

  /// \brief True when the half-open cell rect [r0, r1) x [c0, c1)
  /// touches any dirty tile. An unknown set intersects everything
  /// (callers must then assume change).
  bool IntersectsRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) const;

  /// \brief Dirty set of the row band [row0, row1) viewed as its own
  /// frame (the shard slice): a band tile is dirty when any full-frame
  /// tile overlapping its global rows/cols is. Conservative when the
  /// band is not tile-aligned — over-marking only costs copies, never
  /// correctness. Unknown stays unknown.
  TileDirtySet SliceRows(int64_t row0, int64_t row1) const;

 private:
  int64_t h_ = 0, w_ = 0;
  int64_t tiles_h_ = 0, tiles_w_ = 0;
  std::vector<uint8_t> bits_;
};

/// \brief Per-layer dirty sets of one staged timestep, indexed [layer-1]
/// like the frame vector the ingestor hands to the epoch sink. An empty
/// vector (or an empty element) means "unknown — stage everything".
using DirtyTileSets = std::vector<TileDirtySet>;

/// \brief Where one cell lives in the tiled frame layout.
struct TileAddress {
  int64_t tile = 0;    ///< i * tiles_w + j for tile (i, j) = (r, c) / T
  int64_t offset = 0;  ///< row-major offset inside the tile's block
};

/// \brief Locates cell (r, c) of a frame `width` cells wide: tile
/// (r / T, c / T), in-tile offset (r % T) * tile_cols + c % T, where
/// tile_cols is T except in a ragged last tile column. The one
/// definition of the layout — TiledFrame::at and the gather compiler's
/// residue reads both go through it.
inline TileAddress LocateCell(int64_t width, int64_t r, int64_t c) {
  // All operands are non-negative; unsigned division compiles to shifts.
  const uint64_t t = static_cast<uint64_t>(kSatTileSize);
  const uint64_t tiles_w = (static_cast<uint64_t>(width) + t - 1) / t;
  const uint64_t i = static_cast<uint64_t>(r) / t;
  const uint64_t j = static_cast<uint64_t>(c) / t;
  const uint64_t tile_cols =
      j + 1 < tiles_w ? t : static_cast<uint64_t>(width) - j * t;
  TileAddress address;
  address.tile = static_cast<int64_t>(i * tiles_w + j);
  address.offset = static_cast<int64_t>(
      (static_cast<uint64_t>(r) - i * t) * tile_cols +
      (static_cast<uint64_t>(c) - j * t));
  return address;
}

/// \brief One [h, w] float frame stored as shared tile blocks. Copying a
/// TiledFrame copies tiles_h x tiles_w shared_ptrs, never cell data —
/// that is the copy-on-write carry-forward. Immutable once built.
///
/// This is also the query path's read primitive: readers hold the
/// store's shared_ptr and read cells in place (at(), or tile_table() plus
/// an in-tile offset), so a read costs what it touches, never the frame
/// area. Tile (i, j) is row-major inside its block with row stride
/// tile_cols(j).
class TiledFrame {
 public:
  TiledFrame() = default;

  /// \brief Fresh frame: every tile block newly allocated from `frame`.
  static TiledFrame FromTensor(const Tensor& frame);

  /// \brief Copy-on-write frame: tiles marked dirty are copied from
  /// `frame`, clean tiles alias `base`'s blocks (the caller guarantees
  /// `frame` equals the base frame on clean tiles — staging derives
  /// `dirty` by diffing exactly these two frames). Falls back to
  /// FromTensor when geometry differs or `dirty` is unknown.
  /// `shared_tiles` (nullable) receives the number of aliased blocks.
  static TiledFrame FromDelta(const Tensor& frame, const TiledFrame& base,
                              const TileDirtySet& dirty,
                              int64_t* shared_tiles);

  bool empty() const { return h_ == 0 || w_ == 0; }
  int64_t height() const { return h_; }
  int64_t width() const { return w_; }
  int64_t tiles_h() const { return tiles_h_; }
  int64_t tiles_w() const { return tiles_w_; }

  /// \brief Rows/cols of tile (i, j) (edge tiles may be short).
  int64_t tile_rows(int64_t i) const {
    return i + 1 < tiles_h_ ? kSatTileSize : h_ - i * kSatTileSize;
  }
  int64_t tile_cols(int64_t j) const {
    return j + 1 < tiles_w_ ? kSatTileSize : w_ - j * kSatTileSize;
  }

  const float* block(int64_t i, int64_t j) const {
    return block_data_[static_cast<size_t>(i * tiles_w_ + j)];
  }
  /// \brief Dense raw-pointer table of tile cells: entry k = i *
  /// tiles_w() + j is tile (i, j)'s block (one load, no shared_ptr +
  /// vector chase). Valid while this frame (or a copy) is alive.
  const float* const* tile_table() const { return block_data_.data(); }
  /// \brief Whether tile (i, j) aliases the same block as `other`'s.
  bool SharesBlockWith(const TiledFrame& other, int64_t i,
                       int64_t j) const {
    return blocks_[static_cast<size_t>(i * tiles_w_ + j)] ==
           other.blocks_[static_cast<size_t>(i * tiles_w_ + j)];
  }

  float at(int64_t r, int64_t c) const {
    O4A_DCHECK(r >= 0 && r < h_ && c >= 0 && c < w_);
    const TileAddress address = LocateCell(w_, r, c);
    return block_data_[static_cast<size_t>(address.tile)][address.offset];
  }

  /// \brief Sum of the cells of the half-open rect [r0, r1) x [c0, c1),
  /// accumulated in double row by row, left to right — the order a
  /// contiguous row-major sweep takes — over in-place tile row
  /// segments. O(rect area), no copy.
  double RectSum(int64_t r0, int64_t c0, int64_t r1, int64_t c1) const;

  /// \brief Contiguous [h, w] copy: O(cells). For tests, tools and
  /// probes that want a plain Tensor; the query path reads in place.
  Tensor Materialize() const;

 private:
  using Block = std::shared_ptr<const std::vector<float>>;

  /// \brief Refills block_data_ from blocks_. Must run once the blocks
  /// are final (end of FromTensor/FromDelta).
  void RefreshBlockPointers();

  int64_t h_ = 0, w_ = 0;
  int64_t tiles_h_ = 0, tiles_w_ = 0;
  std::vector<Block> blocks_;
  /// blocks_[k]->data(), the twin of TiledSatPlane::local_data_. Valid as
  /// long as blocks_ holds the blocks; copies stay correct because they
  /// share those blocks.
  std::vector<const float*> block_data_;
};

/// \brief Two-level summed-area plane over a TiledFrame. The query
/// contract of a flat (H+1) x (W+1) double prefix-sum table (PrefixAt =
/// sum over [0, r) x [0, c); RectSum = four corner reads of the half-open
/// rect), different storage: local per-tile prefixes held by shared_ptr +
/// small aggregate carries. Double precision is load-bearing: four-corner
/// rect sums subtract near-equal partial sums, and float planes would
/// lose the 1e-9 relative agreement with the exact per-cell loop.
/// Immutable once built; copying aliases every local block.
class TiledSatPlane {
 public:
  TiledSatPlane() = default;

  /// \brief Full build: every tile's local prefix freshly computed, then
  /// one aggregate sweep. The independent tile builds fan out through
  /// ParallelFor from 2^15 cells' worth of tiles.
  static TiledSatPlane Build(const TiledFrame& frame);

  /// \brief Incremental build: clean tiles alias `base`'s local blocks,
  /// dirty tiles rebuild from `frame`, aggregates recomputed in the same
  /// deterministic sweep as Build — so the result is bit-identical to
  /// Build(frame) whenever `base` matches `frame` on clean tiles. Falls
  /// back to Build on geometry mismatch or an unknown dirty set.
  /// `reused_tiles` (nullable) receives the aliased-local count.
  static TiledSatPlane BuildDelta(const TiledFrame& frame,
                                  const TiledSatPlane& base,
                                  const TileDirtySet& dirty,
                                  int64_t* reused_tiles);

  bool empty() const { return h_ == 0 || w_ == 0; }
  int64_t height() const { return h_; }
  int64_t width() const { return w_; }
  int64_t tiles_h() const { return tiles_h_; }
  int64_t tiles_w() const { return tiles_w_; }

  /// \brief Global prefix: sum of the frame over [0, r) x [0, c).
  /// Four reads: corner + column carry + row carry + tile local.
  double PrefixAt(int64_t r, int64_t c) const {
    O4A_DCHECK(r >= 0 && r <= h_ && c >= 0 && c <= w_);
    // r, c are non-negative; unsigned division compiles to a shift.
    const int64_t i =
        static_cast<int64_t>(static_cast<uint64_t>(r) / kSatTileSize);
    const int64_t j =
        static_cast<int64_t>(static_cast<uint64_t>(c) / kSatTileSize);
    const int64_t r_in = r - i * kSatTileSize;
    const int64_t c_in = c - j * kSatTileSize;
    double p = corner_[static_cast<size_t>(i * (tiles_w_ + 1) + j)] +
               top_[static_cast<size_t>(i * (w_ + 1) + c)] +
               left_[static_cast<size_t>(r * (tiles_w_ + 1) + j)];
    if (r_in > 0 && c_in > 0) {
      // Inclusive local prefix: L[r_in-1][c_in-1] covers the tile's
      // [0, r_in) x [0, c_in) corner. Read through the dense raw-pointer
      // table, not the shared_ptr blocks — one dependent load fewer on
      // the query fast path.
      const int64_t tw = tile_cols(j);
      p += local_data_[static_cast<size_t>(i * tiles_w_ + j)]
                      [(r_in - 1) * tw + (c_in - 1)];
    }
    return p;
  }

  /// \brief Sum over the half-open rect [r0, r1) x [c0, c1): four
  /// corner reads, grouped (bottom-right - bottom-left) - (top-right -
  /// top-left) like a flat prefix table.
  double RectSum(int64_t r0, int64_t c0, int64_t r1, int64_t c1) const {
    O4A_DCHECK(r0 >= 0 && c0 >= 0 && r1 <= h_ && c1 <= w_);
    O4A_DCHECK(r0 <= r1 && c0 <= c1);
    return (PrefixAt(r1, c1) - PrefixAt(r1, c0)) -
           (PrefixAt(r0, c1) - PrefixAt(r0, c0));
  }

  int64_t tile_rows(int64_t i) const {
    return i + 1 < tiles_h_ ? kSatTileSize : h_ - i * kSatTileSize;
  }
  int64_t tile_cols(int64_t j) const {
    return j + 1 < tiles_w_ ? kSatTileSize : w_ - j * kSatTileSize;
  }

  /// \brief Whether tile (i, j)'s local block aliases `other`'s.
  bool SharesLocalWith(const TiledSatPlane& other, int64_t i,
                       int64_t j) const {
    return local_[static_cast<size_t>(i * tiles_w_ + j)] ==
           other.local_[static_cast<size_t>(i * tiles_w_ + j)];
  }

 private:
  using LocalBlock = std::shared_ptr<const std::vector<double>>;

  /// \brief Refills local_data_ from local_. Must run after the local
  /// blocks are final (end of Build/BuildDelta).
  void RefreshLocalPointers();

  /// \brief Rebuilds corner_ as the 2-D prefix of the dense totals_;
  /// O(tiles).
  void RebuildCorner();

  /// \brief Rebuilds totals_/corner_/top_/left_ from the locals — one
  /// fixed-order sweep over tile margins, O(cells / kSatTileSize) +
  /// O(tiles).
  void RebuildAggregates();

  /// \brief Incremental aggregate rebuild: the carry planes are strip-
  /// separable (a top_ column strip reads only tiles in its tile column;
  /// a left_ row strip only tiles in its tile row), so clean strips copy
  /// from `base` and only strips touching a dirty tile recompute — in
  /// RebuildAggregates' exact arithmetic order, keeping the result
  /// bit-identical to a full sweep. corner_ is O(tiles) and rebuilt
  /// outright. Caller guarantees `base` matches this plane's geometry
  /// and `dirty` is a known (non-empty) set of the same extent.
  void RebuildAggregatesDelta(const TiledSatPlane& base,
                              const TileDirtySet& dirty);

  int64_t h_ = 0, w_ = 0;
  int64_t tiles_h_ = 0, tiles_w_ = 0;
  /// Tile (i, j)'s inclusive local prefix, tile_rows x tile_cols:
  /// L[r][c] = sum of the tile over [0, r] x [0, c].
  std::vector<LocalBlock> local_;
  /// local_[k]->data() flattened into a dense 8-byte-per-tile table so
  /// PrefixAt reaches tile data in one load instead of chasing the
  /// shared_ptr + vector object. Valid as long as local_ holds the
  /// blocks; the copy constructor stays correct because copies share
  /// those blocks.
  std::vector<const double*> local_data_;
  /// Dense copy of each tile's total (its local's last entry), tiles_h x
  /// tiles_w. Kept so the corner-plane rebuild reads a contiguous 8 KB
  /// array instead of chasing one cache line per tile block, and so the
  /// delta path can carry clean tiles' totals without touching them.
  std::vector<double> totals_;
  /// corner_[i][j] = frame sum over rows [0, i*T) x cols [0, j*T);
  /// (tiles_h + 1) x (tiles_w + 1).
  std::vector<double> corner_;
  /// top_[i][c] = frame sum over rows [0, i*T) x cols [jT, c) where
  /// j = c / T (the column carry above tile row i); (tiles_h+1) x (w+1).
  std::vector<double> top_;
  /// left_[r][j] = frame sum over rows [iT, r) x cols [0, j*T) where
  /// i = r / T (the row carry left of tile column j); (h+1) x (tiles_w+1).
  std::vector<double> left_;
};

/// \brief Diffs `frame` against `base` tile-by-tile (memcmp per tile
/// row, early-exit per tile): the ingestor's dirty-tile tracking.
/// Returns AllDirty on geometry mismatch.
TileDirtySet DiffFrames(const Tensor& frame, const Tensor& base);

}  // namespace one4all

#endif  // ONE4ALL_TENSOR_TILED_SAT_H_
