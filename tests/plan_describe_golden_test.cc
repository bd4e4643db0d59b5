// Golden-file regression tests for QueryPlanner::Describe(): the
// EXPLAIN rendering of a compiled plan is operator-facing output, so its
// exact shape is pinned for all four client spec shapes. Regenerate
// after an intentional change with:
//
//   ONE4ALL_UPDATE_GOLDENS=1 ./build/plan_describe_golden_test
//
// and review the diff under tests/golden/ before committing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "query/query_planner.h"
#include "query/query_spec.h"
#include "shard/shard_map.h"

namespace one4all {
namespace {

namespace fs = std::filesystem;

fs::path GoldenPath(const std::string& name) {
  return fs::path(ONE4ALL_SOURCE_DIR) / "tests" / "golden" /
         ("describe_" + name + ".txt");
}

void ExpectMatchesGolden(const std::string& name, const std::string& got) {
  const fs::path path = GoldenPath(name);
  if (std::getenv("ONE4ALL_UPDATE_GOLDENS") != nullptr) {
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << "; regenerate with ONE4ALL_UPDATE_GOLDENS=1";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "EXPLAIN output drifted from " << path
      << "; regenerate with ONE4ALL_UPDATE_GOLDENS=1 if intentional";
}

GridMask Rect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) {
  GridMask mask(16, 16);
  mask.FillRect(r0, c0, r1, c1);
  return mask;
}

std::vector<GridMask> Group() {
  std::vector<GridMask> regions;
  regions.push_back(Rect(0, 0, 4, 4));
  regions.push_back(Rect(4, 4, 10, 12));
  regions.push_back(Rect(0, 0, 4, 4));  // duplicate: resolves once
  return regions;
}

std::string Explain(QuerySpec spec) {
  const Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  const QueryPlanner planner(&hierarchy);
  auto plan = planner.Plan(std::move(spec));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? plan->Describe() : std::string();
}

// EXPLAIN for a band-sharded deployment: the plan pipeline plus the
// router's scatter section (home shard + per-band cell split per slot).
std::string ExplainSharded(QuerySpec spec, int num_shards) {
  const Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  const QueryPlanner planner(&hierarchy);
  auto plan = planner.Plan(std::move(spec));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return std::string();
  const ShardMap map = ShardMap::Create(&hierarchy, num_shards);
  return plan->Describe() + map.DescribeSplit(*plan);
}

TEST(PlanDescribeGoldenTest, PointInTime) {
  ExpectMatchesGolden(
      "point", Explain(QuerySpec::PointInTime(
                   Rect(2, 2, 6, 6), 8, QueryStrategy::kUnionSubtraction)));
}

TEST(PlanDescribeGoldenTest, TimeRange) {
  ExpectMatchesGolden(
      "time_range",
      Explain(QuerySpec::TimeRange(Rect(2, 2, 6, 6), 8, 11,
                                   TimeAggregation::kMean,
                                   QueryStrategy::kUnionSubtraction)));
}

TEST(PlanDescribeGoldenTest, MultiRegion) {
  ExpectMatchesGolden(
      "multi_region",
      Explain(QuerySpec::MultiRegion(Group(), 8,
                                     QueryStrategy::kUnionSubtraction)));
}

TEST(PlanDescribeGoldenTest, TopK) {
  ExpectMatchesGolden(
      "top_k", Explain(QuerySpec::TopK(Group(), 8, 2,
                                       QueryStrategy::kUnionSubtraction)));
}

TEST(PlanDescribeGoldenTest, MultiRegionSharded) {
  // Group()'s second rect spans atomic rows [4, 10) — it straddles the
  // 4-shard band boundaries at rows 4 and 8, so its cells split across
  // shards 1 and 2 while its home shard (anchor cell) is shard 1.
  ExpectMatchesGolden(
      "multi_region_sharded4",
      ExplainSharded(QuerySpec::MultiRegion(
                         Group(), 8, QueryStrategy::kUnionSubtraction),
                     4));
}

TEST(PlanDescribeGoldenTest, TimeRangeSharded) {
  // A tall rect crossing both band boundaries of a 3-shard map: every
  // band contributes cells, home shard 0.
  ExpectMatchesGolden(
      "time_range_sharded3",
      ExplainSharded(QuerySpec::TimeRange(Rect(1, 2, 15, 6), 8, 11,
                                          TimeAggregation::kMean,
                                          QueryStrategy::kUnionSubtraction),
                     3));
}

}  // namespace
}  // namespace one4all
