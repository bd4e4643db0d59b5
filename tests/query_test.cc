// End-to-end tests of the online serving path: decomposition -> quad-tree
// retrieval -> prediction assembly, under all three query strategies.
#include <gtest/gtest.h>
#include <cmath>

#include "eval/task_eval.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::OraclePredictor;
using testing::RandomMask;
using testing::TinyDataset;

// Fixture wiring the full pipeline around an oracle with per-layer noise.
struct QueryFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;

  explicit QueryFixture(std::vector<double> noise = {0.0, 0.0, 0.0},
                        uint64_t seed = 41)
      : ds(TinyDataset(seed)) {
    OraclePredictor oracle(std::move(noise), seed + 1);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
  }

  /// \brief One uncached point spec, planned and run on this thread.
  Result<QueryRow> Point(const GridMask& region, int64_t t,
                         QueryStrategy strategy) const {
    auto plan = QueryPlanner(&ds.hierarchy())
                    .Plan(QuerySpec::PointInTime(region, t, strategy));
    if (!plan.ok()) return plan.status();
    return QueryExecutor(&pipeline->server()).Execute(*plan).rows[0];
  }
};

TEST(QueryServerTest, RejectsBadRegions) {
  QueryFixture fx;
  GridMask wrong_size(4, 4);
  wrong_size.Set(0, 0, true);
  EXPECT_FALSE(
      fx.pipeline->server().Resolve(wrong_size, QueryStrategy::kUnion).ok());
  GridMask empty(8, 8);
  EXPECT_FALSE(
      fx.pipeline->server().Resolve(empty, QueryStrategy::kUnion).ok());
}

TEST(QueryServerTest, PerfectPredictionsAnswerExactly) {
  // With a noise-free oracle every strategy must return the exact truth
  // for every region and time slot (the Eq. 5 coverage guarantee).
  QueryFixture fx({0.0, 0.0, 0.0});
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const GridMask region = RandomMask(8, 8, 100 + i, 300 + 60 * i);
    if (region.Empty()) continue;
    for (QueryStrategy strategy :
         {QueryStrategy::kDirect, QueryStrategy::kUnion,
          QueryStrategy::kUnionSubtraction}) {
      for (int64_t t : fx.pipeline->test_timesteps()) {
        auto response = fx.Point(region, t, strategy);
        ASSERT_TRUE(response.ok());
        EXPECT_NEAR(response->value, RegionTruth(fx.ds, region, t), 1e-2)
            << QueryStrategyName(strategy);
      }
    }
  }
}

TEST(QueryServerTest, ResolvedTermsCoverRegionExactly) {
  QueryFixture fx({2.0, 1.0, 0.5});
  for (int i = 0; i < 8; ++i) {
    const GridMask region = RandomMask(8, 8, 200 + i, 500);
    if (region.Empty()) continue;
    for (QueryStrategy strategy :
         {QueryStrategy::kDirect, QueryStrategy::kUnion,
          QueryStrategy::kUnionSubtraction}) {
      auto resolved = fx.pipeline->server().Resolve(region, strategy);
      ASSERT_TRUE(resolved.ok());
      Combination combo;
      combo.terms = resolved->terms;
      EXPECT_TRUE(combo.CoversExactly(fx.ds.hierarchy(), region))
          << QueryStrategyName(strategy) << " region seed " << (200 + i);
    }
  }
}

TEST(QueryServerTest, DirectStrategyUsesDecomposedGridsOnly) {
  QueryFixture fx;
  GridMask region(8, 8);
  region.FillRect(0, 0, 2, 2);  // exactly one layer-2 grid
  auto resolved =
      fx.pipeline->server().Resolve(region, QueryStrategy::kDirect);
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(resolved->terms.size(), 1u);
  EXPECT_EQ(resolved->terms[0].grid.layer, 2);
  EXPECT_EQ(resolved->terms[0].sign, 1);
}

TEST(QueryServerTest, ResponseCarriesTimingBreakdown) {
  QueryFixture fx;
  GridMask region(8, 8);
  region.FillRect(1, 1, 6, 7);
  auto response = fx.Point(region, fx.pipeline->test_timesteps()[0],
                           QueryStrategy::kUnion);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response->num_pieces, 0);
  EXPECT_GT(response->num_terms, 0);
  EXPECT_GE(response->decompose_micros, 0.0);
  EXPECT_GE(response->index_micros, 0.0);
  EXPECT_NEAR(response->response_micros,
              response->decompose_micros + response->index_micros, 1e-9);
}

TEST(QueryServerTest, UnionNotWorseThanDirectOnValidation) {
  // With noisy fine scales the union optimum should beat Direct in
  // aggregate over many queries (chosen on validation, evaluated on test;
  // allow a small slack for distribution shift).
  QueryFixture fx({8.0, 1.0, 0.1}, 55);
  RegionGeneratorOptions options;
  options.style = RegionStyle::kRoadGrid;
  options.mean_cells = 10.0;
  options.seed = 3;
  const auto regions = GenerateRegions(8, 8, options);
  const auto direct = fx.pipeline->Evaluate(regions, QueryStrategy::kDirect);
  const auto uni = fx.pipeline->Evaluate(regions, QueryStrategy::kUnion);
  const auto usub =
      fx.pipeline->Evaluate(regions, QueryStrategy::kUnionSubtraction);
  EXPECT_LE(uni.rmse, direct.rmse * 1.05);
  EXPECT_LE(usub.rmse, uni.rmse * 1.05);
}

TEST(QueryServerTest, EvaluateDetailedMatchesAggregate) {
  QueryFixture fx({3.0, 1.0, 0.2}, 56);
  RegionGeneratorOptions options;
  options.style = RegionStyle::kVoronoi;
  options.mean_cells = 8.0;
  const auto regions = GenerateRegions(8, 8, options);
  const auto detailed =
      fx.pipeline->EvaluateDetailed(regions, QueryStrategy::kUnion);
  EXPECT_EQ(detailed.size(), regions.size());
  // Per-query RMSEs aggregate to the overall RMSE (same sample counts per
  // query -> mean of squares).
  double acc = 0.0;
  for (const auto& pq : detailed) acc += pq.rmse * pq.rmse;
  const double combined = std::sqrt(acc / static_cast<double>(detailed.size()));
  const auto aggregate = fx.pipeline->Evaluate(regions, QueryStrategy::kUnion);
  EXPECT_NEAR(combined, aggregate.rmse, 1e-6 * (1.0 + combined));
}

TEST(TaskEvalTest, PaperTasksHaveFourScales) {
  const auto taxi_tasks = PaperTasks(/*hexagon_task1=*/false);
  ASSERT_EQ(taxi_tasks.size(), 4u);
  EXPECT_EQ(taxi_tasks[0].style, RegionStyle::kVoronoi);
  EXPECT_LT(taxi_tasks[0].mean_cells, taxi_tasks[3].mean_cells);
  const auto freight_tasks = PaperTasks(/*hexagon_task1=*/true);
  EXPECT_EQ(freight_tasks[0].style, RegionStyle::kHexagon);
}

TEST(TaskEvalTest, AtomicAggregationMatchesOracleTruth) {
  STDataset ds = TinyDataset(57);
  OraclePredictor oracle;  // exact
  RegionGeneratorOptions options;
  options.mean_cells = 6.0;
  const auto regions = GenerateRegions(8, 8, options);
  const auto result = EvaluateAtomicAggregation(&oracle, ds, regions,
                                                ds.test_indices());
  EXPECT_NEAR(result.rmse, 0.0, 1e-3);
  EXPECT_EQ(result.num_queries, static_cast<int>(regions.size()));
}

TEST(TaskEvalTest, ClusterPlusAtomicMatchesOracleTruth) {
  STDataset ds = TinyDataset(58);
  OraclePredictor oracle;
  RegionGeneratorOptions options;
  options.mean_cells = 10.0;
  const auto regions = GenerateRegions(8, 8, options);
  const auto result = EvaluateClusterPlusAtomic(&oracle, ds, 2, regions,
                                                ds.test_indices());
  EXPECT_NEAR(result.rmse, 0.0, 1e-3);
}

TEST(TaskEvalTest, RegionTruthSumsAtomicFlows) {
  STDataset ds = TinyDataset(59);
  GridMask region(8, 8);
  region.Set(0, 0, true);
  region.Set(4, 4, true);
  const int64_t t = ds.test_indices()[0];
  EXPECT_NEAR(RegionTruth(ds, region, t),
              ds.FrameAtLayer(t, 1).at(0, 0) + ds.FrameAtLayer(t, 1).at(4, 4),
              1e-4);
}

}  // namespace
}  // namespace one4all
