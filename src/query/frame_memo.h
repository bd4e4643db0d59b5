// Internal execution helpers shared by the QueryExecutor and the
// ShardExecutor: the per-worker prediction-frame memo and the sharded
// parallel-for policy. Kept in one place so both executors read frames
// the same way and the exact cell loop sums terms in one accumulation
// order (RegionQueryServer::EvaluateTerms's).
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
#include "tensor/gemm.h"
#include "tensor/tiled_sat.h"

namespace one4all {
namespace query_internal {

/// \brief Per-worker memo of prediction frames: one View lookup per
/// (layer, t) instead of one per combination term.
///
/// Reads through the executor's View of the pinned generation, taken
/// once per Execute: a miss is a lock-free table lookup that yields a
/// raw TiledFrame pointer, with no store lock and no refcount bump per
/// fetch, and term cells are read in place, so a gather costs its terms,
/// not the frame area. A flat key-sorted vector, not a map: the memo
/// holds a handful of frames (layers x timesteps of one worker chunk),
/// so binary search over contiguous keys beats pointer-chasing map
/// nodes, and an insert shifts plain pointers.
class FrameMemo {
 public:
  /// \param view Must outlive the memo.
  explicit FrameMemo(const PredictionStore::View* view) : view_(view) {}

  /// \brief Sums signed term predictions at `t` (same term order as
  /// RegionQueryServer::EvaluateTerms, so values match it exactly).
  Status Evaluate(const std::vector<CombinationTerm>& terms, int64_t t,
                  double* value) {
    double acc = 0.0;
    for (const CombinationTerm& term : terms) {
      const Key key{term.grid.layer, t};
      auto it = LowerBound(key);
      if (it == frames_.end() || it->first != key) {
        O4A_RETURN_NOT_OK(Fetch(key, &it));
      }
      acc += static_cast<double>(term.sign) *
             static_cast<double>(it->second->at(term.grid.row, term.grid.col));
    }
    *value = acc;
    return Status::OK();
  }

  /// \brief The (layer, t) frame, fetched on first use, for callers that
  /// read individual cells instead of folding terms (the sharded scatter
  /// stage). Valid while the view lives.
  Result<const TiledFrame*> Get(int layer, int64_t t) {
    const Key key{layer, t};
    auto it = LowerBound(key);
    if (it == frames_.end() || it->first != key) {
      O4A_RETURN_NOT_OK(Fetch(key, &it));
    }
    return it->second;
  }

 private:
  using Key = std::pair<int, int64_t>;
  using Entry = std::pair<Key, const TiledFrame*>;

  std::vector<Entry>::iterator LowerBound(const Key& key) {
    return std::lower_bound(
        frames_.begin(), frames_.end(), key,
        [](const Entry& e, const Key& k) { return e.first < k; });
  }

  /// \brief Miss path: looks `key` up in the view and inserts it at
  /// `*it` (its lower bound), leaving `*it` on the new entry.
  Status Fetch(const Key& key, std::vector<Entry>::iterator* it) {
    Result<const TiledFrame*> frame = view_->FrameAt(key.first, key.second);
    O4A_RETURN_NOT_OK(frame.status());
    *it = frames_.insert(*it, Entry{key, *frame});
    return Status::OK();
  }

  const PredictionStore::View* view_;
  std::vector<Entry> frames_;  ///< key-ascending
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
