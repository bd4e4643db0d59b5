// Cross-module integration tests: non-divisible (3x3) hierarchies through
// the whole pipeline, training determinism, trained-network pipelines,
// and defensive-check death tests.
#include <gtest/gtest.h>

#include "eval/task_eval.h"
#include "model/one4all_net.h"
#include "model/trainer.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::OraclePredictor;
using testing::RandomMask;

// A 9x9 raster with a 3x3 window pyramid: P = {1,3,9}.
STDataset TernaryDataset(uint64_t seed = 91) {
  SyntheticDataOptions options;
  options.height = 9;
  options.width = 9;
  options.num_timesteps = 96;
  options.steps_per_day = 8;
  options.num_hotspots = 3;
  options.seed = seed;
  auto flows = GenerateSyntheticFlows(options);
  EXPECT_TRUE(flows.ok());
  Hierarchy hierarchy = Hierarchy::Uniform(9, 9, 3, 9);
  auto dataset = STDataset::Create(flows.MoveValueUnsafe(), hierarchy,
                                   testing::TinySpec());
  EXPECT_TRUE(dataset.ok());
  return dataset.MoveValueUnsafe();
}

TEST(TernaryHierarchyTest, PipelineAnswersExactlyWithOracle) {
  STDataset ds = TernaryDataset();
  EXPECT_EQ(ds.hierarchy().Scales(), (std::vector<int64_t>{1, 3, 9}));
  OraclePredictor oracle;
  auto pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
  for (int i = 0; i < 6; ++i) {
    const GridMask region = RandomMask(9, 9, 300 + i, 450);
    if (region.Empty()) continue;
    for (QueryStrategy strategy :
         {QueryStrategy::kDirect, QueryStrategy::kUnion,
          QueryStrategy::kUnionSubtraction}) {
      auto resolved = pipeline->server().Resolve(region, strategy);
      ASSERT_TRUE(resolved.ok());
      Combination combo;
      combo.terms = resolved->terms;
      EXPECT_TRUE(combo.CoversExactly(ds.hierarchy(), region));
      for (int64_t t : pipeline->test_timesteps()) {
        auto plan = QueryPlanner(&ds.hierarchy())
                        .Plan(QuerySpec::PointInTime(region, t, strategy));
        ASSERT_TRUE(plan.ok());
        const Result<QueryRow> response =
            QueryExecutor(&pipeline->server()).Execute(*plan).rows[0];
        ASSERT_TRUE(response.ok());
        EXPECT_NEAR(response->value, RegionTruth(ds, region, t), 1e-2);
      }
    }
  }
}

TEST(TernaryHierarchyTest, MultiGridsEnumeratedUpToEightMembers) {
  STDataset ds = TernaryDataset(92);
  OraclePredictor oracle({5.0, 1.0, 0.1}, 93);
  const auto preds =
      ScalePredictionSet::FromPredictor(&oracle, ds, ds.val_indices());
  const auto result =
      SearchOptimalCombinations(ds.hierarchy(), preds, SearchOptions{});
  // 3x3 windows allow connected subsets of size 2..8.
  EXPECT_GT(result.num_multi(), 0u);
  size_t max_members = 0;
  const Hierarchy& h = ds.hierarchy();
  for (uint32_t mask = 1; mask < (1u << 9); ++mask) {
    MultiGridKey key{1, 0, 0, mask};
    if (result.Multi(key)) {
      max_members = std::max(
          max_members, static_cast<size_t>(__builtin_popcount(mask)));
    }
  }
  (void)h;
  EXPECT_GE(max_members, 6u);
}

TEST(TernaryHierarchyTest, One4AllNetHandlesCeilPadding) {
  STDataset ds = TernaryDataset(94);
  One4AllNetOptions options;
  options.channels = 4;
  One4AllNet net(ds.hierarchy(), ds.spec(), options);
  const auto preds = net.Forward(ds.BuildInput({ds.test_indices()[0]}));
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_EQ(preds[0].value().dim(2), 9);
  EXPECT_EQ(preds[1].value().dim(2), 3);
  EXPECT_EQ(preds[2].value().dim(2), 1);
  // Gradients flow through the padded merges.
  Variable loss = net.Loss(ds, {ds.train_indices()[0]});
  loss.Backward();
  EXPECT_GT(net.Parameters()[0].grad().SquaredNorm(), 0.0f);
}

TEST(DeterminismTest, TrainingIsBitReproducible) {
  auto run = [] {
    STDataset ds = testing::TinyDataset(95);
    One4AllNetOptions options;
    options.channels = 4;
    options.seed = 9;
    One4AllNet net(ds.hierarchy(), ds.spec(), options);
    TrainOptions train;
    train.epochs = 2;
    train.max_batches_per_epoch = 4;
    train.seed = 11;
    return TrainModel(
               &net, ds,
               [&net](const STDataset& d, const std::vector<int64_t>& b) {
                 return net.Loss(d, b);
               },
               train)
        .train_losses;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(DeterminismTest, PipelineBuildIsReproducible) {
  STDataset ds = testing::TinyDataset(96);
  OraclePredictor oracle_a({2.0, 1.0, 0.2}, 97);
  OraclePredictor oracle_b({2.0, 1.0, 0.2}, 97);
  auto pa = MauPipeline::Build(&oracle_a, ds, SearchOptions{});
  auto pb = MauPipeline::Build(&oracle_b, ds, SearchOptions{});
  // Same seeds -> identical serialized indexes.
  EXPECT_EQ(pa->index().Serialize(), pb->index().Serialize());
}

TEST(TrainedPipelineTest, TrainedNetAnswersBetterThanUntrained) {
  STDataset ds = testing::TinyDataset(98, 8, 8, 24 * 8);
  One4AllNetOptions options;
  options.channels = 4;
  One4AllNet trained(ds.hierarchy(), ds.spec(), options);
  One4AllNet untrained(ds.hierarchy(), ds.spec(), options);
  TrainOptions train;
  train.epochs = 8;
  train.learning_rate = 3e-3f;
  TrainModel(
      &trained, ds,
      [&trained](const STDataset& d, const std::vector<int64_t>& b) {
        return trained.Loss(d, b);
      },
      train);
  RegionGeneratorOptions region_options;
  region_options.mean_cells = 8.0;
  const auto regions = GenerateRegions(8, 8, region_options);
  auto trained_pipeline = MauPipeline::Build(&trained, ds, SearchOptions{});
  auto untrained_pipeline =
      MauPipeline::Build(&untrained, ds, SearchOptions{});
  const auto trained_result =
      trained_pipeline->Evaluate(regions, QueryStrategy::kUnionSubtraction);
  const auto untrained_result = untrained_pipeline->Evaluate(
      regions, QueryStrategy::kUnionSubtraction);
  EXPECT_LT(trained_result.rmse, untrained_result.rmse);
}

TEST(DefensiveChecksDeathTest, ShapeMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  EXPECT_DEATH(a.Add(b), "shape mismatch");
}

TEST(DefensiveChecksDeathTest, HierarchyRejectsOutOfRangeGrid) {
  Hierarchy h = Hierarchy::Uniform(8, 8, 2, 8);
  EXPECT_DEATH(h.CellsOf(GridId{1, 8, 0}), "out of range");
}

TEST(DefensiveChecksDeathTest, PredictionStoreMissingFrameAborts) {
  PredictionStore store;
  EXPECT_DEATH(store.GetValue(1, 0, 0, 0), "missing prediction frame");
}

}  // namespace
}  // namespace one4all
