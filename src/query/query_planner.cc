#include "query/query_planner.h"

#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/stopwatch.h"

namespace one4all {

std::string QueryPlan::Describe() const {
  std::ostringstream out;
  out << "plan: " << spec.ToString() << "\n";
  out << "  1. cache-probe/resolve: " << slot_regions.size()
      << (slot_regions.size() == 1 ? " distinct region"
                                   : " distinct regions")
      << " (decompose + index retrieval on miss)\n";
  out << "  2. gather: " << rows.size()
      << (rows.size() == 1 ? " row" : " rows") << ", "
      << num_point_queries()
      << (path == EvalPath::kSatFastPath
              ? " epoch-pinned gathers (SAT four-corner plane reads + "
                "columnar residues, frames fetched once per plan)\n"
              : " epoch-pinned frame gathers (per-chunk frame memo)\n");
  if (spec.kind == QuerySpecKind::kTopK) {
    out << "  3. aggregate+rank: " << TimeAggregationName(spec.aggregation)
        << " per row, top-" << spec.top_k << " by value desc\n";
  } else if (spec.kind == QuerySpecKind::kTimeRange) {
    out << "  3. aggregate: " << TimeAggregationName(spec.aggregation)
        << " over " << spec.time.num_steps() << " timesteps\n";
  } else {
    out << "  3. aggregate: identity (point values)\n";
  }
  return out.str();
}

QueryPlanner::QueryPlanner(const Hierarchy* hierarchy)
    : hierarchy_(hierarchy) {
  O4A_CHECK(hierarchy != nullptr);
}

Result<QueryPlan> QueryPlanner::Plan(QuerySpec spec) const {
  Stopwatch timer;
  std::vector<RegionFingerprint> fingerprints;
  fingerprints.reserve(spec.regions.size());
  for (const GridMask& region : spec.regions) {
    fingerprints.push_back(FingerprintRegion(region, spec.strategy));
  }
  Result<QueryPlan> plan = Plan(std::move(spec), fingerprints);
  if (plan.ok()) plan->plan_micros = timer.ElapsedMicros();
  return plan;
}

Result<QueryPlan> QueryPlanner::Plan(
    QuerySpec spec,
    const std::vector<RegionFingerprint>& region_fingerprints) const {
  Stopwatch timer;
  O4A_RETURN_NOT_OK(spec.Validate(*hierarchy_));
  if (region_fingerprints.size() != spec.regions.size()) {
    return Status::InvalidArgument(
        "region fingerprints do not match the spec's regions");
  }

  QueryPlan plan;
  plan.spec = std::move(spec);
  plan.path = plan.spec.eval_path;

  // Dedup identical region masks by content fingerprint so a grouped
  // query resolves (and probes the cache for) each distinct region once.
  std::unordered_map<RegionFingerprint, int, RegionFingerprintHash>
      slot_of;
  slot_of.reserve(plan.spec.regions.size());

  plan.rows.reserve(plan.spec.regions.size());
  for (size_t i = 0; i < plan.spec.regions.size(); ++i) {
    const RegionFingerprint& fp = region_fingerprints[i];
    auto inserted =
        slot_of.emplace(fp, static_cast<int>(plan.slot_regions.size()));
    if (inserted.second) {
      plan.slot_regions.push_back(static_cast<int>(i));
      plan.slot_fingerprints.push_back(fp);
    }
    PlanRow row;
    row.region_slot = inserted.first->second;
    row.t0 = plan.spec.time.t0;
    row.t1 = plan.spec.time.t1;
    plan.rows.push_back(row);
  }
  plan.plan_micros = timer.ElapsedMicros();
  return plan;
}

}  // namespace one4all
