// Incremental top-k ranking across epochs. A subscribed top-k query is
// the same spec re-issued at each newly published timestep; between two
// issues only the tiles the ingestor marked dirty actually changed, so
// any region whose term footprint misses every intervening dirty set
// must rank with the exact value it had last time. The memo keeps the
// last evaluation of each distinct top-k spec plus a bounded history of
// per-publish dirty sets, and tells the serving runtime which rows it
// may carry over verbatim — the executor then re-gathers only the rows
// the churn could have moved, and the ranking is re-sorted locally.
//
// A spec is identified by its knobs and its regions' 128-bit
// fingerprints (the ones the resolve cache keys on, computed once per
// spec by the serving runtime), so a probe costs O(regions), never a
// pass over whole masks.
//
// Soundness over cleverness: a row is reused only when every publish
// since its memoized timestep is in the history window AND carries a
// known dirty set that misses the row's footprint at every layer. The
// footprint is the region's atomic bounding box rounded out to the
// coarsest layer's grid boundaries — a superset of every combination
// term the planner can choose for the region (union grids intersect the
// region, subtraction grids lie inside union grids), so over-marking
// only costs a re-evaluation, never a stale value.
#ifndef ONE4ALL_QUERY_TOPK_MEMO_H_
#define ONE4ALL_QUERY_TOPK_MEMO_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <vector>

#include "grid/hierarchy.h"
#include "query/query_executor.h"
#include "query/query_spec.h"
#include "query/resolved_query_cache.h"
#include "tensor/tiled_sat.h"

namespace one4all {

/// \brief Bounding box of a mask's set cells ({0, 0, 0, 0} when none is
/// set), computed word by word: the top-k footprint's atomic extent.
CellRect MaskBounds(const GridMask& mask);

struct TopKMemoOptions {
  /// Distinct memoized specs (LRU-evicted beyond this).
  size_t capacity = 64;
  /// Publish records retained; a memoized evaluation older than the
  /// oldest retained publish cannot prove any row clean and misses.
  size_t history = 64;
};

class TopKMemo {
 public:
  /// \param hierarchy Must outlive the memo (layer scales map atomic
  /// footprints onto each layer's dirty grid).
  explicit TopKMemo(const Hierarchy* hierarchy, TopKMemoOptions options = {});

  TopKMemo(const TopKMemo&) = delete;
  TopKMemo& operator=(const TopKMemo&) = delete;

  /// \brief Records one published epoch: timestep `t` changed `dirty`
  /// (per-layer, indexed [layer-1]) vs. t-1. Null — or any unknown /
  /// missing per-layer entry — is remembered as "everything changed".
  /// Thread-safe against concurrent Lookup/Store.
  void OnPublish(int64_t t, const DirtyTileSets* dirty);

  /// \brief Drops every memoized spec and the publish history (index
  /// swap: resolutions change, so carried values may too).
  void Invalidate();

  /// \brief What a probe proved about a spec about to execute.
  struct Probe {
    bool hit = false;    ///< entry found for this exact spec
    int64_t memo_t = -1; ///< timestep of the memoized evaluation
    /// Per region index: true when the memoized row provably still
    /// holds at the probed timestep. Sized spec.regions.size() on hit.
    std::vector<bool> clean;
    /// The memoized rows (aligned with `clean`); only entries whose
    /// clean flag is true may be carried into a merged result.
    std::vector<Result<QueryRow>> rows;
  };

  /// \brief Probes for `spec` (must be a point-selector kTopK; anything
  /// else misses). `region_fingerprints` holds FingerprintRegion of each
  /// spec region (aligned with spec.regions): entries match on those and
  /// the spec's knobs, never on whole masks. A hit proves, per row,
  /// whether the memoized value is still exact at spec.time.t0 given
  /// every publish since memo_t. Non-const: a hit refreshes the entry's
  /// LRU position.
  Probe Lookup(const QuerySpec& spec,
               const std::vector<RegionFingerprint>& region_fingerprints);

  /// \brief Memoizes `rows` as the evaluation of `spec` at its (point)
  /// timestep. Failed rows are stored too — they stay failed until
  /// their footprint churns. Non-top-k / non-point specs are ignored.
  void Store(const QuerySpec& spec,
             const std::vector<RegionFingerprint>& region_fingerprints,
             const std::vector<Result<QueryRow>>& rows);

  /// \brief RankTopK's exact ordering (value desc, ties toward the lower
  /// row index, failed rows skipped, clamped to k) over free rows —
  /// used to re-rank a merged memo+fresh row set.
  static std::vector<int> RankRows(const std::vector<Result<QueryRow>>& rows,
                                   int k);

  int64_t rows_reused() const {
    return rows_reused_.load(std::memory_order_relaxed);
  }
  int64_t rows_reevaluated() const {
    return rows_reevaluated_.load(std::memory_order_relaxed);
  }
  /// \brief Test/telemetry hook for the merge path in the runtime.
  void CountReuse(int64_t reused, int64_t reevaluated) {
    rows_reused_.fetch_add(reused, std::memory_order_relaxed);
    rows_reevaluated_.fetch_add(reevaluated, std::memory_order_relaxed);
  }

 private:
  struct PublishRecord {
    int64_t t = 0;
    bool all_dirty = false;  ///< no usable dirty info: assume everything
    DirtyTileSets dirty;     ///< per layer, [layer-1]; empty if all_dirty
  };

  /// \brief What identifies a memoized spec: every knob but the time
  /// selector, plus the per-region 128-bit fingerprints.
  struct SpecKey {
    QuerySpecKind kind = QuerySpecKind::kTopK;
    TimeAggregation aggregation = TimeAggregation::kSum;
    QueryStrategy strategy = QueryStrategy::kUnionSubtraction;
    EvalPath eval_path = EvalPath::kExactCellLoop;
    int top_k = 0;
    bool keep_series = false;
    std::vector<RegionFingerprint> regions;

    bool operator==(const SpecKey& other) const;
  };

  struct Entry {
    uint64_t fingerprint = 0;  ///< Fingerprint(key), checked before `key`
    SpecKey key;
    int64_t t = -1;  ///< timestep the rows were evaluated at
    std::vector<Result<QueryRow>> rows;
    /// Per region: atomic bbox rounded out to the coarsest scale (the
    /// term-footprint superset checked against dirty sets).
    std::vector<CellRect> footprints;
  };

  static SpecKey KeyOf(const QuerySpec& spec,
                       const std::vector<RegionFingerprint>& regions);
  /// \brief Folds a key into one 64-bit word: O(regions), never O(mask).
  static uint64_t Fingerprint(const SpecKey& key);
  CellRect FootprintOf(const GridMask& region) const;
  /// \brief True iff `record` cannot have changed any cell of `footprint`.
  bool FootprintClean(const CellRect& footprint,
                      const PublishRecord& record) const;

  const Hierarchy* hierarchy_;
  TopKMemoOptions options_;

  mutable std::mutex mu_;
  /// MRU-front LRU of memoized specs.
  std::list<Entry> entries_;
  /// Publish history, newest at the back; bounded by options_.history.
  std::deque<PublishRecord> publishes_;

  std::atomic<int64_t> rows_reused_{0};
  std::atomic<int64_t> rows_reevaluated_{0};
};

}  // namespace one4all

#endif  // ONE4ALL_QUERY_TOPK_MEMO_H_
