// Compiles a typed QuerySpec into an executable QueryPlan: which distinct
// regions to resolve (duplicates share one resolve-cache probe), which
// timesteps each result row gathers, and which aggregate/rank stage folds
// the gathered values. The plan is data, not behavior — the QueryExecutor
// (query/query_executor.h) interprets it on the shared thread pool.
#ifndef ONE4ALL_QUERY_QUERY_PLANNER_H_
#define ONE4ALL_QUERY_QUERY_PLANNER_H_

#include <string>
#include <vector>

#include "query/query_spec.h"
#include "query/resolved_query_cache.h"

namespace one4all {

/// \brief One result row of a plan: evaluate the resolution of
/// `region_slot` at every timestep of the inclusive interval [t0, t1]
/// (ascending), then fold with the spec's aggregation. An interval, not
/// a materialized list, so plan size stays O(rows) however long the
/// range is.
struct PlanRow {
  int region_slot = 0;  ///< index into QueryPlan::slot_regions
  int64_t t0 = 0;
  int64_t t1 = 0;

  int64_t num_steps() const { return t1 - t0 + 1; }
};

/// \brief Executable form of a QuerySpec. rows[i] produces result row i
/// (one per spec region).
struct QueryPlan {
  QuerySpec spec;
  /// Term-evaluation path the executor runs (the spec's eval_path).
  EvalPath path = EvalPath::kExactCellLoop;
  /// Distinct regions to resolve, as indices into spec.regions. Identical
  /// masks dedup into one slot, so a grouped query probes the resolve
  /// cache once per distinct region.
  std::vector<int> slot_regions;
  /// FingerprintRegion of each slot's region, aligned with slot_regions —
  /// computed once per region per spec and handed to the resolve cache,
  /// so no stage rehashes a mask.
  std::vector<RegionFingerprint> slot_fingerprints;
  std::vector<PlanRow> rows;
  double plan_micros = 0.0;  ///< time spent compiling this plan

  const GridMask& RegionForSlot(int slot) const {
    return spec.regions[static_cast<size_t>(
        slot_regions[static_cast<size_t>(slot)])];
  }

  const RegionFingerprint& FingerprintForSlot(int slot) const {
    return slot_fingerprints[static_cast<size_t>(slot)];
  }

  /// \brief Admission-control cost: total (region, t) gather points.
  int64_t num_point_queries() const {
    int64_t n = 0;
    for (const PlanRow& row : rows) n += row.num_steps();
    return n;
  }

  /// \brief Multi-line EXPLAIN-style rendering of the stage pipeline.
  std::string Describe() const;
};

/// \brief Stateless spec -> plan compiler. Validation happens here, so
/// the executor can assume a plan is structurally sound.
class QueryPlanner {
 public:
  /// \param hierarchy Must outlive the planner.
  explicit QueryPlanner(const Hierarchy* hierarchy);

  /// \brief Compiles a spec of any shape.
  Result<QueryPlan> Plan(QuerySpec spec) const;

  /// \brief Plan() with each region's FingerprintRegion(region,
  /// spec.strategy) already computed by the caller (aligned with
  /// spec.regions), so a spec is fingerprinted once however many stages
  /// key on it. InvalidArgument when the sizes disagree.
  Result<QueryPlan> Plan(
      QuerySpec spec,
      const std::vector<RegionFingerprint>& region_fingerprints) const;

 private:
  const Hierarchy* hierarchy_;
};

}  // namespace one4all

#endif  // ONE4ALL_QUERY_QUERY_PLANNER_H_
