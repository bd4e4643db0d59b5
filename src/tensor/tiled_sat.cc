#include "tensor/tiled_sat.h"

#include <algorithm>
#include <cstring>

#include "core/thread_pool.h"

namespace one4all {

namespace {

// Below this many cells, per-tile builds run sequentially — the frames
// are too small to pay pool overhead. As a grain over whole tiles:
constexpr int64_t kParallelThresholdCells = 1 << 15;
constexpr int64_t kParallelTiles =
    kParallelThresholdCells / (kSatTileSize * kSatTileSize);

int64_t TilesFor(int64_t n) {
  return (n + kSatTileSize - 1) / kSatTileSize;
}

}  // namespace

// ---------------------------------------------------------------------
// TileDirtySet

TileDirtySet::TileDirtySet(int64_t h, int64_t w)
    : h_(h), w_(w), tiles_h_(TilesFor(h)), tiles_w_(TilesFor(w)),
      bits_(static_cast<size_t>(tiles_h_ * tiles_w_), 0) {}

TileDirtySet TileDirtySet::AllDirty(int64_t h, int64_t w) {
  TileDirtySet set(h, w);
  std::fill(set.bits_.begin(), set.bits_.end(), 1);
  return set;
}

void TileDirtySet::MarkRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) {
  r0 = std::max<int64_t>(r0, 0);
  c0 = std::max<int64_t>(c0, 0);
  r1 = std::min(r1, h_);
  c1 = std::min(c1, w_);
  if (r0 >= r1 || c0 >= c1) return;
  const int64_t i1 = (r1 - 1) / kSatTileSize;
  const int64_t j1 = (c1 - 1) / kSatTileSize;
  for (int64_t i = r0 / kSatTileSize; i <= i1; ++i) {
    for (int64_t j = c0 / kSatTileSize; j <= j1; ++j) MarkTile(i, j);
  }
}

int64_t TileDirtySet::CountDirty() const {
  int64_t n = 0;
  for (uint8_t b : bits_) n += b;
  return n;
}

bool TileDirtySet::IntersectsRect(int64_t r0, int64_t c0, int64_t r1,
                                  int64_t c1) const {
  if (empty()) return true;  // unknown: assume change
  r0 = std::max<int64_t>(r0, 0);
  c0 = std::max<int64_t>(c0, 0);
  r1 = std::min(r1, h_);
  c1 = std::min(c1, w_);
  if (r0 >= r1 || c0 >= c1) return false;
  const int64_t i1 = (r1 - 1) / kSatTileSize;
  const int64_t j1 = (c1 - 1) / kSatTileSize;
  for (int64_t i = r0 / kSatTileSize; i <= i1; ++i) {
    for (int64_t j = c0 / kSatTileSize; j <= j1; ++j) {
      if (dirty(i, j)) return true;
    }
  }
  return false;
}

TileDirtySet TileDirtySet::SliceRows(int64_t row0, int64_t row1) const {
  if (empty()) return TileDirtySet();
  row0 = std::max<int64_t>(row0, 0);
  row1 = std::min(row1, h_);
  if (row0 >= row1) return TileDirtySet();
  TileDirtySet band(row1 - row0, w_);
  for (int64_t bi = 0; bi < band.tiles_h_; ++bi) {
    // Global rows covered by band tile row bi (band rows are full-width,
    // so tile columns line up one-to-one).
    const int64_t g0 = row0 + bi * kSatTileSize;
    const int64_t g1 = row0 + std::min((bi + 1) * kSatTileSize, band.h_);
    const int64_t i1 = (g1 - 1) / kSatTileSize;
    for (int64_t j = 0; j < tiles_w_; ++j) {
      for (int64_t i = g0 / kSatTileSize; i <= i1; ++i) {
        if (dirty(i, j)) {
          band.MarkTile(bi, j);
          break;
        }
      }
    }
  }
  return band;
}

// ---------------------------------------------------------------------
// TiledFrame

TiledFrame TiledFrame::FromTensor(const Tensor& frame) {
  O4A_CHECK_EQ(frame.ndim(), 2u);
  TiledFrame out;
  out.h_ = frame.dim(0);
  out.w_ = frame.dim(1);
  out.tiles_h_ = TilesFor(out.h_);
  out.tiles_w_ = TilesFor(out.w_);
  out.blocks_.resize(static_cast<size_t>(out.tiles_h_ * out.tiles_w_));
  const float* src = frame.data();
  for (int64_t i = 0; i < out.tiles_h_; ++i) {
    const int64_t th = out.tile_rows(i);
    for (int64_t j = 0; j < out.tiles_w_; ++j) {
      const int64_t tw = out.tile_cols(j);
      auto block = std::make_shared<std::vector<float>>(
          static_cast<size_t>(th * tw));
      for (int64_t r = 0; r < th; ++r) {
        std::memcpy(block->data() + r * tw,
                    src + (i * kSatTileSize + r) * out.w_ + j * kSatTileSize,
                    static_cast<size_t>(tw) * sizeof(float));
      }
      out.blocks_[static_cast<size_t>(i * out.tiles_w_ + j)] =
          std::move(block);
    }
  }
  out.RefreshBlockPointers();
  return out;
}

TiledFrame TiledFrame::FromDelta(const Tensor& frame, const TiledFrame& base,
                                 const TileDirtySet& dirty,
                                 int64_t* shared_tiles) {
  if (shared_tiles != nullptr) *shared_tiles = 0;
  O4A_CHECK_EQ(frame.ndim(), 2u);
  const int64_t h = frame.dim(0), w = frame.dim(1);
  if (base.h_ != h || base.w_ != w || dirty.empty() ||
      dirty.height() != h || dirty.width() != w) {
    return FromTensor(frame);
  }
  TiledFrame out;
  out.h_ = h;
  out.w_ = w;
  out.tiles_h_ = base.tiles_h_;
  out.tiles_w_ = base.tiles_w_;
  out.blocks_.resize(base.blocks_.size());
  const float* src = frame.data();
  int64_t shared = 0;
  for (int64_t i = 0; i < out.tiles_h_; ++i) {
    const int64_t th = out.tile_rows(i);
    for (int64_t j = 0; j < out.tiles_w_; ++j) {
      const size_t k = static_cast<size_t>(i * out.tiles_w_ + j);
      if (!dirty.dirty(i, j)) {
        out.blocks_[k] = base.blocks_[k];
        ++shared;
        continue;
      }
      const int64_t tw = out.tile_cols(j);
      auto block = std::make_shared<std::vector<float>>(
          static_cast<size_t>(th * tw));
      for (int64_t r = 0; r < th; ++r) {
        std::memcpy(block->data() + r * tw,
                    src + (i * kSatTileSize + r) * w + j * kSatTileSize,
                    static_cast<size_t>(tw) * sizeof(float));
      }
      out.blocks_[k] = std::move(block);
    }
  }
  out.RefreshBlockPointers();
  if (shared_tiles != nullptr) *shared_tiles = shared;
  return out;
}

void TiledFrame::RefreshBlockPointers() {
  block_data_.resize(blocks_.size());
  for (size_t k = 0; k < blocks_.size(); ++k) {
    block_data_[k] = blocks_[k]->data();
  }
}

double TiledFrame::RectSum(int64_t r0, int64_t c0, int64_t r1,
                           int64_t c1) const {
  O4A_DCHECK(r0 >= 0 && c0 >= 0 && r1 <= h_ && c1 <= w_);
  double acc = 0.0;
  if (r0 >= r1 || c0 >= c1) return acc;
  const int64_t j0 = c0 / kSatTileSize;
  const int64_t j1 = (c1 - 1) / kSatTileSize;
  for (int64_t r = r0; r < r1; ++r) {
    const int64_t i = r / kSatTileSize;
    const int64_t r_in = r - i * kSatTileSize;
    for (int64_t j = j0; j <= j1; ++j) {
      const int64_t tile_c0 = j * kSatTileSize;
      const int64_t tw = tile_cols(j);
      const float* row = block(i, j) + r_in * tw;
      const int64_t end = std::min(c1, tile_c0 + tw) - tile_c0;
      for (int64_t c = std::max(c0, tile_c0) - tile_c0; c < end; ++c) {
        acc += static_cast<double>(row[c]);
      }
    }
  }
  return acc;
}

Tensor TiledFrame::Materialize() const {
  Tensor out({h_, w_});
  float* dst = out.data();
  for (int64_t i = 0; i < tiles_h_; ++i) {
    const int64_t th = tile_rows(i);
    for (int64_t j = 0; j < tiles_w_; ++j) {
      const int64_t tw = tile_cols(j);
      const float* src = block(i, j);
      for (int64_t r = 0; r < th; ++r) {
        std::memcpy(dst + (i * kSatTileSize + r) * w_ + j * kSatTileSize,
                    src + r * tw, static_cast<size_t>(tw) * sizeof(float));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// TiledSatPlane

namespace {

// Inclusive 2-D prefix of one tile: row-wise running sum, then add the
// cell above. Shared by the full and incremental builders so the two
// produce bit-identical locals from identical tile data.
std::shared_ptr<const std::vector<double>> BuildLocal(const TiledFrame& frame,
                                                      int64_t i, int64_t j) {
  const int64_t th = frame.tile_rows(i);
  const int64_t tw = frame.tile_cols(j);
  auto local =
      std::make_shared<std::vector<double>>(static_cast<size_t>(th * tw));
  const float* src = frame.block(i, j);
  double* dst = local->data();
  for (int64_t r = 0; r < th; ++r) {
    double running = 0.0;
    for (int64_t c = 0; c < tw; ++c) {
      running += static_cast<double>(src[r * tw + c]);
      dst[r * tw + c] = running + (r > 0 ? dst[(r - 1) * tw + c] : 0.0);
    }
  }
  return local;
}

}  // namespace

TiledSatPlane TiledSatPlane::Build(const TiledFrame& frame) {
  TiledSatPlane out;
  out.h_ = frame.height();
  out.w_ = frame.width();
  out.tiles_h_ = frame.tiles_h();
  out.tiles_w_ = frame.tiles_w();
  const int64_t num_tiles = out.tiles_h_ * out.tiles_w_;
  out.local_.resize(static_cast<size_t>(num_tiles));
  const auto build_tiles = [&](int64_t begin, int64_t end) {
    for (int64_t k = begin; k < end; ++k) {
      out.local_[static_cast<size_t>(k)] =
          BuildLocal(frame, k / out.tiles_w_, k % out.tiles_w_);
    }
  };
  ParallelFor(num_tiles, kParallelTiles, build_tiles);
  out.RebuildAggregates();
  out.RefreshLocalPointers();
  return out;
}

TiledSatPlane TiledSatPlane::BuildDelta(const TiledFrame& frame,
                                        const TiledSatPlane& base,
                                        const TileDirtySet& dirty,
                                        int64_t* reused_tiles) {
  if (reused_tiles != nullptr) *reused_tiles = 0;
  if (base.h_ != frame.height() || base.w_ != frame.width() ||
      dirty.empty() || dirty.height() != frame.height() ||
      dirty.width() != frame.width()) {
    return Build(frame);
  }
  TiledSatPlane out;
  out.h_ = frame.height();
  out.w_ = frame.width();
  out.tiles_h_ = frame.tiles_h();
  out.tiles_w_ = frame.tiles_w();
  out.local_.resize(base.local_.size());
  std::vector<int64_t> dirty_tiles;
  int64_t reused = 0;
  for (int64_t i = 0; i < out.tiles_h_; ++i) {
    for (int64_t j = 0; j < out.tiles_w_; ++j) {
      const size_t k = static_cast<size_t>(i * out.tiles_w_ + j);
      if (dirty.dirty(i, j)) {
        dirty_tiles.push_back(static_cast<int64_t>(k));
      } else {
        out.local_[k] = base.local_[k];
        ++reused;
      }
    }
  }
  const auto rebuild = [&](int64_t begin, int64_t end) {
    for (int64_t d = begin; d < end; ++d) {
      const int64_t k = dirty_tiles[static_cast<size_t>(d)];
      out.local_[static_cast<size_t>(k)] =
          BuildLocal(frame, k / out.tiles_w_, k % out.tiles_w_);
    }
  };
  const int64_t num_dirty = static_cast<int64_t>(dirty_tiles.size());
  ParallelFor(num_dirty, kParallelTiles, rebuild);
  out.RebuildAggregatesDelta(base, dirty);
  out.RefreshLocalPointers();
  if (reused_tiles != nullptr) *reused_tiles = reused;
  return out;
}

void TiledSatPlane::RefreshLocalPointers() {
  local_data_.resize(local_.size());
  for (size_t k = 0; k < local_.size(); ++k) {
    local_data_[k] = local_[k]->data();
  }
}

void TiledSatPlane::RebuildCorner() {
  // Corner plane: 2-D prefix over whole-tile totals.
  corner_.assign(static_cast<size_t>((tiles_h_ + 1) * (tiles_w_ + 1)), 0.0);
  for (int64_t i = 1; i <= tiles_h_; ++i) {
    double* row = corner_.data() + i * (tiles_w_ + 1);
    const double* above = corner_.data() + (i - 1) * (tiles_w_ + 1);
    const double* totals = totals_.data() + (i - 1) * tiles_w_;
    for (int64_t j = 1; j <= tiles_w_; ++j) {
      row[j] = above[j] + row[j - 1] - above[j - 1] + totals[j - 1];
    }
  }
}

void TiledSatPlane::RebuildAggregates() {
  corner_.assign(static_cast<size_t>((tiles_h_ + 1) * (tiles_w_ + 1)), 0.0);
  top_.assign(static_cast<size_t>((tiles_h_ + 1) * (w_ + 1)), 0.0);
  left_.assign(static_cast<size_t>((h_ + 1) * (tiles_w_ + 1)), 0.0);
  totals_.assign(static_cast<size_t>(tiles_h_ * tiles_w_), 0.0);
  if (h_ == 0 || w_ == 0) return;

  const auto local_at = [&](int64_t i, int64_t j) -> const double* {
    return local_[static_cast<size_t>(i * tiles_w_ + j)]->data();
  };

  // Tile totals: the last entry of each inclusive local, densified so
  // the corner sweep (and future delta rebuilds) read contiguously.
  for (int64_t i = 0; i < tiles_h_; ++i) {
    const int64_t th = tile_rows(i);
    for (int64_t j = 0; j < tiles_w_; ++j) {
      const int64_t tw = tile_cols(j);
      totals_[static_cast<size_t>(i * tiles_w_ + j)] =
          local_at(i, j)[th * tw - 1];
    }
  }

  RebuildCorner();

  // Column carries: colpref[c] accumulates full-column sums down tile
  // rows (read off each tile's bottom local row); top_[i][c] is then the
  // within-tile-strip running sum, reset at every tile column boundary.
  std::vector<double> colpref(static_cast<size_t>(w_), 0.0);
  for (int64_t i = 1; i <= tiles_h_; ++i) {
    const int64_t th = tile_rows(i - 1);
    for (int64_t j = 0; j < tiles_w_; ++j) {
      const int64_t tw = tile_cols(j);
      const double* last = local_at(i - 1, j) + (th - 1) * tw;
      double* cp = colpref.data() + j * kSatTileSize;
      for (int64_t c = 0; c < tw; ++c) {
        cp[c] += last[c] - (c > 0 ? last[c - 1] : 0.0);
      }
    }
    double* row = top_.data() + i * (w_ + 1);
    double run = 0.0;
    for (int64_t c = 0; c <= w_; ++c) {
      if (c % kSatTileSize == 0) run = 0.0;
      row[c] = run;
      if (c < w_) run += colpref[static_cast<size_t>(c)];
    }
  }

  // Row carries: within each tile row, left_[r+1][j] extends left_[r][j]
  // by row r's sum over the tile columns left of j (read off each tile's
  // rightmost local column). Rows at tile boundaries stay zero — they
  // open the next tile row's empty carry.
  for (int64_t i = 0; i < tiles_h_; ++i) {
    const int64_t th = tile_rows(i);
    for (int64_t r_in = 0; r_in < th; ++r_in) {
      const int64_t g = i * kSatTileSize + r_in;
      if ((g + 1) % kSatTileSize == 0) continue;
      const double* prev = left_.data() + g * (tiles_w_ + 1);
      double* next = left_.data() + (g + 1) * (tiles_w_ + 1);
      next[0] = 0.0;
      double run = 0.0;
      for (int64_t j = 0; j < tiles_w_; ++j) {
        const int64_t tw = tile_cols(j);
        const double* right = local_at(i, j) + tw - 1;
        run += right[r_in * tw] - (r_in > 0 ? right[(r_in - 1) * tw] : 0.0);
        next[j + 1] = prev[j + 1] + run;
      }
    }
  }
}

void TiledSatPlane::RebuildAggregatesDelta(const TiledSatPlane& base,
                                           const TileDirtySet& dirty) {
  // The loop bodies below must mirror RebuildAggregates exactly: clean
  // strips are copied from `base` and dirty strips recomputed, and bit-
  // identity with a full sweep holds only if the recomputation performs
  // the same additions in the same order.
  if (h_ == 0 || w_ == 0) {
    RebuildAggregates();
    return;
  }

  const auto local_at = [&](int64_t i, int64_t j) -> const double* {
    return local_[static_cast<size_t>(i * tiles_w_ + j)]->data();
  };

  // Which tile columns / tile rows contain a dirty tile; refresh dirty
  // tiles' dense totals along the way (clean totals carry from base).
  std::vector<uint8_t> col_dirty(static_cast<size_t>(tiles_w_), 0);
  std::vector<uint8_t> row_dirty(static_cast<size_t>(tiles_h_), 0);
  totals_ = base.totals_;
  for (int64_t i = 0; i < tiles_h_; ++i) {
    for (int64_t j = 0; j < tiles_w_; ++j) {
      if (dirty.dirty(i, j)) {
        row_dirty[static_cast<size_t>(i)] = 1;
        col_dirty[static_cast<size_t>(j)] = 1;
        const int64_t th = tile_rows(i), tw = tile_cols(j);
        totals_[static_cast<size_t>(i * tiles_w_ + j)] =
            local_at(i, j)[th * tw - 1];
      }
    }
  }

  // Corner plane is O(tiles) over the dense totals: recompute outright,
  // same order as the full sweep.
  RebuildCorner();

  // Carry planes start as the base's values; clean strips keep them.
  top_ = base.top_;
  left_ = base.left_;

  // Column carries, dirty tile columns only. colpref is per-column and
  // the running sum resets at every strip boundary, so each strip's
  // recomputation is self-contained.
  std::vector<double> colpref(static_cast<size_t>(kSatTileSize), 0.0);
  for (int64_t j = 0; j < tiles_w_; ++j) {
    if (col_dirty[static_cast<size_t>(j)] == 0) continue;
    const int64_t tw = tile_cols(j);
    std::fill(colpref.begin(), colpref.begin() + tw, 0.0);
    // The full sweep writes top_[i][w_] as the last strip's closing run
    // (it stays zero when w_ lands on a tile boundary).
    const bool closes_grid =
        j * kSatTileSize + tw == w_ && w_ % kSatTileSize != 0;
    for (int64_t i = 1; i <= tiles_h_; ++i) {
      const int64_t th = tile_rows(i - 1);
      const double* last = local_at(i - 1, j) + (th - 1) * tw;
      for (int64_t c = 0; c < tw; ++c) {
        colpref[static_cast<size_t>(c)] += last[c] - (c > 0 ? last[c - 1]
                                                            : 0.0);
      }
      double* row = top_.data() + i * (w_ + 1) + j * kSatTileSize;
      double run = 0.0;
      for (int64_t c = 0; c < tw; ++c) {
        row[c] = run;
        run += colpref[static_cast<size_t>(c)];
      }
      if (closes_grid) row[tw] = run;
    }
  }

  // Row carries, dirty tile rows only. A strip's rows chain from its
  // tile-boundary opener row, which is always zero, so clean strips'
  // copied values are exact and dirty strips rebuild independently.
  for (int64_t i = 0; i < tiles_h_; ++i) {
    if (row_dirty[static_cast<size_t>(i)] == 0) continue;
    const int64_t th = tile_rows(i);
    for (int64_t r_in = 0; r_in < th; ++r_in) {
      const int64_t g = i * kSatTileSize + r_in;
      if ((g + 1) % kSatTileSize == 0) continue;
      const double* prev = left_.data() + g * (tiles_w_ + 1);
      double* next = left_.data() + (g + 1) * (tiles_w_ + 1);
      next[0] = 0.0;
      double run = 0.0;
      for (int64_t j = 0; j < tiles_w_; ++j) {
        const int64_t tw = tile_cols(j);
        const double* right = local_at(i, j) + tw - 1;
        run += right[r_in * tw] - (r_in > 0 ? right[(r_in - 1) * tw] : 0.0);
        next[j + 1] = prev[j + 1] + run;
      }
    }
  }
}

// ---------------------------------------------------------------------

TileDirtySet DiffFrames(const Tensor& frame, const Tensor& base) {
  if (frame.ndim() != 2 || base.ndim() != 2 ||
      frame.dim(0) != base.dim(0) || frame.dim(1) != base.dim(1)) {
    return TileDirtySet::AllDirty(frame.ndim() == 2 ? frame.dim(0) : 0,
                                  frame.ndim() == 2 ? frame.dim(1) : 0);
  }
  const int64_t h = frame.dim(0), w = frame.dim(1);
  TileDirtySet dirty(h, w);
  const float* a = frame.data();
  const float* b = base.data();
  const int64_t tiles_h = dirty.tiles_h(), tiles_w = dirty.tiles_w();
  for (int64_t i = 0; i < tiles_h; ++i) {
    const int64_t r0 = i * kSatTileSize;
    const int64_t r1 = std::min(r0 + kSatTileSize, h);
    for (int64_t j = 0; j < tiles_w; ++j) {
      const int64_t c0 = j * kSatTileSize;
      const size_t bytes = static_cast<size_t>(
          std::min(c0 + kSatTileSize, w) - c0) * sizeof(float);
      for (int64_t r = r0; r < r1; ++r) {
        if (std::memcmp(a + r * w + c0, b + r * w + c0, bytes) != 0) {
          dirty.MarkTile(i, j);
          break;
        }
      }
    }
  }
  return dirty;
}

}  // namespace one4all
