// Spatial partitioning of the hierarchical grid into N shards: the
// atomic raster is cut into contiguous row bands, and every cell of
// every layer is owned by exactly one shard — the shard whose band
// contains the cell's anchor (topmost) atomic row. Coarse-layer cells
// can span several bands; anchor-row ownership keeps each cell whole on
// one shard (a prediction value is never split), at the cost of some
// coarse-layer imbalance (the topmost 1-cell layer is wholly shard 0's).
// Per layer, each shard's cells form a contiguous — possibly empty —
// row slice, which is what makes band-sliced frame storage and
// O(1) ownership lookups possible.
#ifndef ONE4ALL_SHARD_SHARD_MAP_H_
#define ONE4ALL_SHARD_SHARD_MAP_H_

#include <string>
#include <vector>

#include "grid/hierarchy.h"
#include "tensor/tensor.h"

namespace one4all {

/// \brief Layer-l rows [row_begin, row_end) owned by one shard; empty
/// when row_begin == row_end (a narrow band owning no coarse cell).
struct ShardLayerSlice {
  int64_t row_begin = 0;
  int64_t row_end = 0;

  int64_t num_rows() const { return row_end - row_begin; }
  bool empty() const { return row_end <= row_begin; }
};

/// \brief Immutable partition geometry. Cheap to copy; the hierarchy
/// must outlive the map.
class ShardMap {
 public:
  ShardMap() = default;

  /// \brief Partitions `hierarchy`'s atomic raster into `num_shards`
  /// contiguous row bands (clamped to [1, atomic_height] so every shard
  /// owns at least one atomic row). Band k spans atomic rows
  /// [k*H/N, (k+1)*H/N).
  static ShardMap Create(const Hierarchy* hierarchy, int num_shards);

  int num_shards() const { return num_shards_; }
  const Hierarchy* hierarchy() const { return hierarchy_; }

  /// \brief First atomic row of shard k's band (band k ends where band
  /// k+1 begins; shard N-1 ends at atomic_height).
  int64_t AtomicRowBegin(int shard) const;

  /// \brief Shard owning atomic row `r`.
  int OwnerOfAtomicRow(int64_t r) const;

  /// \brief Shard owning a hierarchy cell: the shard whose band contains
  /// the cell's anchor atomic row (id.row * layer scale).
  int OwnerOf(const GridId& id) const;

  /// \brief The shard holding a region's cached resolution: the owner of
  /// the region's first set atomic row. Any deterministic choice works
  /// (resolution never reads frames); tying it to the region's top edge
  /// spreads cache capacity across shards for spread-out workloads.
  int HomeShard(const GridMask& region) const;

  /// \brief Layer-l row slice owned by shard k.
  const ShardLayerSlice& SliceOf(int shard, int layer) const;

  /// \brief Shard-local row of a cell (its owner's frames store only the
  /// owned slice, so global row r maps to r - slice.row_begin).
  int64_t LocalRow(int shard, const GridId& id) const {
    return id.row - SliceOf(shard, id.layer).row_begin;
  }

  /// \brief Copies shard k's rows of a full layer-l frame ([Hl, Wl])
  /// into a band-local tensor ([slice rows, Wl]); empty tensor for an
  /// empty slice.
  Tensor SliceFrame(int shard, int layer, const Tensor& frame) const;

  /// \brief Atomic cells of `region` falling inside each shard's band
  /// (index k = shard k's cell count). The router's region split: a rect
  /// straddling a band boundary contributes rows to both sides.
  std::vector<int64_t> SplitRegionCells(const GridMask& region) const;

  std::string ToString() const;

 private:
  const Hierarchy* hierarchy_ = nullptr;
  int num_shards_ = 1;
  std::vector<int64_t> band_begin_;  ///< size num_shards_ + 1
  /// slices_[shard * num_layers + (layer - 1)]
  std::vector<ShardLayerSlice> slices_;
};

}  // namespace one4all

#endif  // ONE4ALL_SHARD_SHARD_MAP_H_
