// Internal execution helpers of the QueryExecutor: the per-worker
// prediction-frame memo of the exact cell loop, which reads every term
// in place from its owner band's frame and sums terms in one
// accumulation order (RegionQueryServer::EvaluateTerms's) on any band
// count, and the chunked parallel-for policy (RunSharded).
#ifndef ONE4ALL_QUERY_FRAME_MEMO_H_
#define ONE4ALL_QUERY_FRAME_MEMO_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "kvstore/prediction_store.h"
#include "query/query_server.h"
#include "shard/shard_map.h"
#include "tensor/gemm.h"
#include "tensor/tiled_sat.h"

namespace one4all {
namespace query_internal {

/// \brief Per-worker memo of prediction frames: one View lookup per
/// (band, layer, t) instead of one per combination term.
///
/// Reads through the bands' Views of their pinned generations, taken
/// once per Execute: a miss is a lock-free table lookup that yields a
/// raw TiledFrame pointer, with no store lock and no refcount bump per
/// fetch, and term cells are read in place, so a gather costs its terms,
/// not the frame area. A flat key-sorted vector, not a map: the memo
/// holds a handful of frames (bands x layers x timesteps of one worker
/// chunk), so binary search over contiguous keys beats pointer-chasing
/// map nodes, and an insert shifts plain pointers.
class FrameMemo {
 public:
  /// \param views One per band; must outlive the memo.
  /// \param map Null when `views` holds one band covering the raster;
  /// otherwise band k holds `map`'s shard-k rows. Must outlive the memo.
  FrameMemo(const std::vector<PredictionStore::View>* views,
            const ShardMap* map)
      : views_(views),
        map_(map),
        term_reads_(map != nullptr ? views->size() : 0, 0) {}

  /// \brief Sums signed term predictions at `t`, left to right in term
  /// order (RegionQueryServer::EvaluateTerms's, so values match it
  /// exactly on any band count). Fails with the first missing term's
  /// status.
  Status Evaluate(const std::vector<CombinationTerm>& terms, int64_t t,
                  double* value) {
    return map_ == nullptr ? Fold<false>(terms, t, value)
                           : Fold<true>(terms, t, value);
  }

  /// \brief Term cells read from band k so far (multi-band memos count;
  /// a single band reads 0).
  int64_t term_reads(size_t band) const {
    return band < term_reads_.size() ? term_reads_[band] : 0;
  }

 private:
  /// (band << kBandShift | layer, t), so band 0's keys are plain
  /// (layer, t). A hierarchy halves the raster per layer, so its layer
  /// count stays far below 1 << kBandShift.
  using Key = std::pair<int, int64_t>;
  using Entry = std::pair<Key, const TiledFrame*>;
  static constexpr int kBandShift = 8;

  /// \brief The one exact-path term fold. A single band reads the
  /// term's global row with no owner lookup; several read it at the
  /// owner band's local row.
  template <bool kMultiBand>
  Status Fold(const std::vector<CombinationTerm>& terms, int64_t t,
              double* value) {
    double acc = 0.0;
    for (const CombinationTerm& term : terms) {
      int band = 0;
      int64_t row = term.grid.row;
      if constexpr (kMultiBand) {
        O4A_DCHECK(term.grid.layer < (1 << kBandShift));
        band = map_->OwnerOf(term.grid);
        row = map_->LocalRow(band, term.grid);
      }
      const Key key{band << kBandShift | term.grid.layer, t};
      auto it = LowerBound(key);
      if (it == frames_.end() || it->first != key) {
        O4A_RETURN_NOT_OK(Fetch(key, &it));
      }
      acc += static_cast<double>(term.sign) *
             static_cast<double>(it->second->at(row, term.grid.col));
      if constexpr (kMultiBand) ++term_reads_[static_cast<size_t>(band)];
    }
    *value = acc;
    return Status::OK();
  }

  std::vector<Entry>::iterator LowerBound(const Key& key) {
    return std::lower_bound(
        frames_.begin(), frames_.end(), key,
        [](const Entry& e, const Key& k) { return e.first < k; });
  }

  /// \brief Miss path: looks `key` up in its band's view and inserts it
  /// at `*it` (its lower bound), leaving `*it` on the new entry.
  Status Fetch(const Key& key, std::vector<Entry>::iterator* it) {
    const PredictionStore::View& view =
        (*views_)[static_cast<size_t>(key.first >> kBandShift)];
    Result<const TiledFrame*> frame =
        view.FrameAt(key.first & ((1 << kBandShift) - 1), key.second);
    O4A_RETURN_NOT_OK(frame.status());
    *it = frames_.insert(*it, Entry{key, *frame});
    return Status::OK();
  }

  const std::vector<PredictionStore::View>* views_;
  const ShardMap* map_;
  std::vector<Entry> frames_;        ///< key-ascending
  std::vector<int64_t> term_reads_;  ///< per band; empty for one band
};

/// \brief Runs `body(begin, end)` over [0, n) with the requested
/// parallelism; `pool` wins over `num_threads` (QueryExecutorOptions
/// semantics: 0 = ambient/shared pool, 1 = caller's thread, > 1 =
/// per-call pool).
inline void RunSharded(ThreadPool* pool, int num_threads, int64_t n,
                       const std::function<void(int64_t, int64_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
  } else if (num_threads == 0) {
    // Resolve through the central policy: Shared() by default, sequential
    // when issued from a pool worker (waiting on a pool from one of its
    // own workers would deadlock).
    if (ThreadPool* ambient = ResolveComputePool()) {
      ambient->ParallelFor(n, body);
    } else {
      body(0, n);
    }
  } else if (num_threads > 1) {
    ThreadPool local(num_threads);
    local.ParallelFor(n, body);
  } else {
    body(0, n);
  }
}

}  // namespace query_internal
}  // namespace one4all

#endif  // ONE4ALL_QUERY_FRAME_MEMO_H_
