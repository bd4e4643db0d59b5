// Tests for the online serving runtime (src/serve): epoch-versioned
// frame publication, rolling-window ingestion, admission control,
// telemetry — and the concurrency hammer asserting that readers never
// observe torn epochs while a writer publishes in a loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "model/one4all_net.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/topk_memo.h"
#include "serve/serving_runtime.h"
#include "test_util.h"

namespace one4all {
namespace {

/// \brief One point spec through the runtime: the spec's own failure
/// (e.g. admission) or its single row.
Result<QueryRow> QueryPoint(ServingRuntime* runtime, const GridMask& region,
                            int64_t t) {
  auto result = runtime->ExecuteSpec(QuerySpec::PointInTime(region, t));
  if (!result.ok()) return result.status();
  return std::move(result->rows[0]);
}

// Small serving fixture: a 16x16 raster with a short temporal spec so
// history windows fit in a few dozen timesteps, plus an offline-built
// index (MauPipeline over the history-mean baseline).
struct ServeFixture {
  // Heap-held so MauPipeline's retained dataset pointer stays valid when
  // the fixture is returned by value.
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;

  static ServeFixture Make(uint64_t seed = 11) {
    SyntheticDataOptions data_options;
    data_options.height = 16;
    data_options.width = 16;
    data_options.num_timesteps = 88;
    data_options.seed = seed;
    auto flows = GenerateSyntheticFlows(data_options);
    EXPECT_TRUE(flows.ok());

    TemporalFeatureSpec spec;
    spec.closeness_len = 2;
    spec.period_len = 2;
    spec.trend_len = 1;
    spec.daily_interval = 4;
    spec.weekly_interval = 8;  // MinHistory = 8

    Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
    auto dataset =
        STDataset::Create(flows.MoveValueUnsafe(), hierarchy, spec);
    EXPECT_TRUE(dataset.ok());

    ServeFixture fixture;
    fixture.dataset =
        std::make_unique<STDataset>(dataset.MoveValueUnsafe());
    HistoryMeanPredictor hm;
    fixture.pipeline =
        MauPipeline::Build(&hm, *fixture.dataset, SearchOptions{});

    RegionGeneratorOptions region_options;
    region_options.style = RegionStyle::kVoronoi;
    region_options.mean_cells = 10.0;
    region_options.seed = 23;
    fixture.regions = GenerateRegions(16, 16, region_options);
    EXPECT_GE(fixture.regions.size(), 4u);
    return fixture;
  }

  ServingRuntimeOptions RuntimeOptions() const {
    ServingRuntimeOptions options;
    options.ingest.start_t = dataset->test_indices().front();
    options.ingest.num_timesteps =
        static_cast<int64_t>(dataset->test_indices().size());
    return options;
  }
};

// ---------------------------------------------------------------------------
// FrameEpochManager

TEST(FrameEpochManagerTest, PublishIsAtomicAndPinnedEpochsSurvive) {
  PredictionStore store;
  FrameEpochManager epochs(&store);
  EXPECT_EQ(epochs.published_generation(), 0);
  EXPECT_EQ(epochs.published_latest_t(), -1);

  auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
  const int64_t gen1 = staging.generation();
  staging.StageFrame(1, 0, Tensor::Full({4, 4}, 1.0f));
  // Staged but unpublished: invisible to the published generation.
  EXPECT_FALSE(store.HasFrameAt(epochs.published_generation(), 1, 0));
  epochs.Publish(std::move(staging));
  EXPECT_EQ(epochs.published_generation(), gen1);
  EXPECT_EQ(epochs.published_latest_t(), 0);

  EpochGuard pinned = epochs.Pin();
  EXPECT_EQ(pinned.generation(), gen1);

  // Publish a second epoch while the first is pinned.
  auto staging2 = epochs.BeginEpoch(/*carry_forward=*/false);
  const int64_t gen2 = staging2.generation();
  staging2.StageFrame(1, 1, Tensor::Full({4, 4}, 2.0f));
  epochs.Publish(std::move(staging2));
  EXPECT_EQ(epochs.published_generation(), gen2);

  // The pinned epoch's frames must survive its supersession...
  EXPECT_TRUE(store.HasFrameAt(gen1, 1, 0));
  EXPECT_EQ(epochs.live_epochs(), 2);
  // ...and be reclaimed once the last reader lets go.
  pinned.Release();
  EXPECT_FALSE(store.HasFrameAt(gen1, 1, 0));
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_TRUE(store.HasFrameAt(gen2, 1, 1));
}

TEST(FrameEpochManagerTest, CarryForwardExtendsTheServedWindow) {
  PredictionStore store;
  FrameEpochManager epochs(&store);

  auto first = epochs.BeginEpoch(false);
  first.StageFrame(1, 0, Tensor::Full({2, 2}, 10.0f));
  epochs.Publish(std::move(first));

  auto second = epochs.BeginEpoch(/*carry_forward=*/true);
  second.StageFrame(1, 1, Tensor::Full({2, 2}, 11.0f));
  epochs.Publish(std::move(second));

  const int64_t gen = epochs.published_generation();
  EXPECT_EQ(epochs.published_latest_t(), 1);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 0, 0, 0), 10.0f);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 1, 0, 0), 11.0f);
  // Only the published epoch holds frames; its predecessor was dropped.
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_EQ(store.NumFramesAt(gen), 2);
}

TEST(FrameEpochManagerTest, RetentionHorizonBoundsCarriedFrames) {
  PredictionStore store;
  FrameEpochManagerOptions options;
  options.retain_timesteps = 2;
  FrameEpochManager epochs(&store, nullptr, options);

  for (int64_t t = 0; t < 4; ++t) {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/true);
    staging.StageFrame(1, t, Tensor::Full({2, 2}, static_cast<float>(t)));
    epochs.Publish(std::move(staging));
  }

  const int64_t gen = epochs.published_generation();
  EXPECT_EQ(epochs.published_latest_t(), 3);
  // Only the horizon's 2 newest timesteps were carried forward.
  EXPECT_EQ(store.NumFramesAt(gen), 2);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 3, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 2, 0, 0), 2.0f);
  EXPECT_EQ(store.TryGetValueAt(gen, 1, 1, 0, 0).status().code(),
            StatusCode::kNotFound);

  // The horizon holds even when a writer stages several timesteps into
  // one epoch (enforced at publish, not just by the carry-forward trim).
  auto staging = epochs.BeginEpoch(/*carry_forward=*/true);
  staging.StageFrame(1, 4, Tensor::Full({2, 2}, 4.0f));
  staging.StageFrame(1, 5, Tensor::Full({2, 2}, 5.0f));
  epochs.Publish(std::move(staging));
  const int64_t gen2 = epochs.published_generation();
  EXPECT_EQ(epochs.published_latest_t(), 5);
  EXPECT_EQ(store.NumFramesAt(gen2), 2);
  EXPECT_EQ(store.TryGetValueAt(gen2, 1, 3, 0, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen2, 1, 4, 0, 0), 4.0f);
}

TEST(FrameEpochManagerTest, AbortedStagingLeavesNoFrames) {
  PredictionStore store;
  FrameEpochManager epochs(&store);
  int64_t gen = 0;
  {
    auto staging = epochs.BeginEpoch(false);
    gen = staging.generation();
    staging.StageFrame(1, 0, Tensor::Full({2, 2}, 5.0f));
    // Dropped without Publish: the destructor aborts it.
  }
  EXPECT_EQ(store.NumFramesAt(gen), 0);
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_EQ(epochs.published_generation(), 0);
}

// The epoch hammer: a writer re-publishes the full frame set in a loop
// with per-epoch marker values; concurrent readers pin an epoch, answer
// region queries through it, and verify every answer is consistent with
// exactly the pinned epoch (any torn read across generations breaks the
// arithmetic identity value == |region| * marker).
TEST(FrameEpochManagerTest, HammerReadersNeverObserveTornEpochs) {
  ServeFixture fixture = ServeFixture::Make();
  const Hierarchy& hierarchy = fixture.dataset->hierarchy();
  const int n_layers = hierarchy.num_layers();

  PredictionStore store;
  FrameEpochManager epochs(&store);
  RegionQueryServer server(&hierarchy, &fixture.pipeline->index(), &store);

  // Region cell counts for the identity check.
  std::vector<double> region_cells;
  for (const GridMask& region : fixture.regions) {
    region_cells.push_back(static_cast<double>(region.Count()));
  }

  const auto publish_marker_epoch = [&]() -> int64_t {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
    const float marker = static_cast<float>(staging.generation());
    Tensor atomic = Tensor::Full({16, 16}, marker);
    for (int l = 1; l <= n_layers; ++l) {
      staging.StageFrame(l, 0, hierarchy.AggregateToLayer(atomic, l));
    }
    const int64_t generation = staging.generation();
    epochs.Publish(std::move(staging));
    return generation;
  };
  publish_marker_epoch();

  constexpr int kEpochs = 120;
  constexpr int kReaders = 3;
  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> torn_reads{0};
  std::atomic<int64_t> reads_checked{0};

  std::thread writer([&] {
    for (int i = 0; i < kEpochs; ++i) publish_marker_epoch();
    writer_done.store(true);
  });

  auto plan = QueryPlanner(&hierarchy)
                  .Plan(QuerySpec::MultiRegion(fixture.regions, 0));
  ASSERT_TRUE(plan.ok());
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int rounds = 0;
      while (!writer_done.load() || rounds < 5) {
        ++rounds;
        EpochGuard guard = epochs.Pin();
        QueryExecutorOptions options;
        options.generation = guard.generation();
        const QueryResult result =
            QueryExecutor(&server).Execute(*plan, options);
        const double marker = static_cast<double>(guard.generation());
        for (size_t i = 0; i < result.rows.size(); ++i) {
          ASSERT_TRUE(result.rows[i].ok())
              << "reader " << r << ": "
              << result.rows[i].status().ToString();
          const double expected = region_cells[i] * marker;
          if (std::abs(result.rows[i]->value - expected) >
              1e-3 * (1.0 + std::abs(expected))) {
            torn_reads.fetch_add(1);
          }
          reads_checked.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_GT(reads_checked.load(), kReaders * 5);
  // Every superseded epoch is eventually reclaimed: only the published
  // one (plus nothing pinned) holds frames.
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_EQ(store.NumFramesAt(epochs.published_generation()),
            n_layers);
}

// ---------------------------------------------------------------------------
// RollingWindow / serving inference

TEST(RollingWindowTest, MatchesDatasetBuiltInput) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  RollingWindow window(dataset.spec(), dataset.StatsOfLayer(1));

  const int64_t t = dataset.test_indices().front();
  for (int64_t h = t - dataset.spec().MinHistory(); h <= t; ++h) {
    window.Push(h, dataset.FrameAtLayer(h, 1));
  }
  ASSERT_TRUE(window.Ready(t));
  auto input = window.AssembleInput(t);
  ASSERT_TRUE(input.ok());

  const TemporalInput expected = dataset.BuildInput({t});
  EXPECT_TRUE(input->closeness.AllClose(expected.closeness));
  EXPECT_TRUE(input->period.AllClose(expected.period));
  EXPECT_TRUE(input->trend.AllClose(expected.trend));
}

TEST(RollingWindowTest, EvictsFramesOutsideEveryWindow) {
  TemporalFeatureSpec spec;
  spec.closeness_len = 2;
  spec.period_len = 2;
  spec.trend_len = 1;
  spec.daily_interval = 4;
  spec.weekly_interval = 8;
  RollingWindow window(spec, ScaleStats{0.0f, 1.0f});
  for (int64_t t = 0; t < 40; ++t) {
    window.Push(t, Tensor::Full({2, 2}, static_cast<float>(t)));
  }
  // Only [t - MinHistory, t] = 9 frames may remain buffered.
  EXPECT_EQ(window.buffered_frames(), 9u);
  EXPECT_TRUE(window.Ready(39));
  EXPECT_FALSE(window.Ready(20));
  EXPECT_EQ(window.AssembleInput(20).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(One4AllNetTest, InferServingFramesMatchesPredictAllLayers) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  One4AllNetOptions net_options;
  net_options.channels = 4;
  One4AllNet net(dataset.hierarchy(), dataset.spec(), net_options);

  const int64_t t = dataset.test_indices().front();
  const std::vector<Tensor> batch_preds = net.PredictAllLayers(dataset, {t});
  const std::vector<Tensor> serving =
      net.InferServingFrames(dataset.BuildInput({t}), dataset);
  ASSERT_EQ(serving.size(), batch_preds.size());
  for (size_t l = 0; l < serving.size(); ++l) {
    ASSERT_EQ(serving[l].ndim(), 2u);
    EXPECT_EQ(serving[l].dim(0), batch_preds[l].dim(2));
    EXPECT_EQ(serving[l].dim(1), batch_preds[l].dim(3));
    EXPECT_TRUE(
        serving[l].AllClose(batch_preds[l].Reshape(
            {serving[l].dim(0), serving[l].dim(1)})));
  }
}

// ---------------------------------------------------------------------------
// StreamIngestor / ServingRuntime

TEST(StreamIngestorTest, PublishesEveryConfiguredTimestep) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 5;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().WaitUntilDone();
  EXPECT_TRUE(runtime.ingestor().status().ok());
  EXPECT_EQ(runtime.ingestor().steps_published(), 5);

  const int64_t start = options.ingest.start_t;
  EXPECT_EQ(runtime.epochs().published_latest_t(), start + 4);
  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.epochs_published, 5);
  EXPECT_EQ(snapshot.frames_staged,
            5 * fixture.dataset->hierarchy().num_layers());

  // Carry-forward keeps the whole published window queryable...
  auto early = QueryPoint(&runtime, fixture.regions[0], start);
  ASSERT_TRUE(early.ok());
  auto latest = QueryPoint(&runtime, fixture.regions[0], start + 4);
  ASSERT_TRUE(latest.ok());
  // ...while a timestep beyond the stream degrades to NotFound instead
  // of aborting the process.
  auto beyond = QueryPoint(&runtime, fixture.regions[0], start + 5);
  EXPECT_EQ(beyond.status().code(), StatusCode::kNotFound);
}

TEST(ServingRuntimeTest, AdmissionControlRejectsOverload) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.max_inflight_queries = 4;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);

  // Admission counts gather points, duplicate regions included.
  auto rejected = runtime.ExecuteSpec(QuerySpec::MultiRegion(
      std::vector<GridMask>(8, fixture.regions[0]), options.ingest.start_t));
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  auto accepted = runtime.ExecuteSpec(QuerySpec::MultiRegion(
      std::vector<GridMask>(2, fixture.regions[0]), options.ingest.start_t));
  EXPECT_TRUE(accepted.ok());

  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.batches_rejected, 1);
  EXPECT_EQ(snapshot.queries_rejected, 8);
  EXPECT_EQ(snapshot.batches_admitted, 1);
}

// The serving hammer: concurrent readers fire multi-region spec storms
// while the ingestor publishes epochs in a loop; every answered
// query must be internally consistent (with ground-truth inference and
// exact-cover combinations, value == region truth for that timestep),
// and the concurrent totals must match a sequential replay.
TEST(ServingRuntimeTest, HammerConcurrentQueriesDuringEpochRolls) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.max_inflight_queries = 1 << 20;
  // Pace the roll so the query storm genuinely overlaps epoch publishes.
  options.ingest.min_publish_interval_ms = 2;
  ServingRuntime runtime(&dataset.hierarchy(), &fixture.pipeline->index(),
                         &dataset, MakeGroundTruthInference(&dataset),
                         options);

  const int64_t start = options.ingest.start_t;
  const int64_t steps = options.ingest.num_timesteps;

  struct LoggedQuery {
    size_t region = 0;
    int64_t t = 0;
    double value = 0.0;
  };
  constexpr int kClients = 3;
  std::vector<std::vector<LoggedQuery>> logs(kClients);
  std::atomic<int64_t> inconsistent{0};

  runtime.Start();
  ASSERT_TRUE(runtime.ingestor().WaitUntilPublished(start));

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(1000 + c));
      int rounds = 0;
      while (!runtime.ingestor().done() || rounds < 20) {
        ++rounds;
        // Query any timestep the currently published epoch serves.
        const int64_t latest = runtime.epochs().published_latest_t();
        // 8 random (region, t) draws; each timestep's regions form one
        // multi-region spec.
        std::map<int64_t, std::vector<size_t>> picks_by_t;
        for (int i = 0; i < 8; ++i) {
          const size_t region = static_cast<size_t>(
              rng.UniformInt(fixture.regions.size()));
          const int64_t span = latest - start + 1;
          const int64_t t = start + static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(span)));
          picks_by_t[t].push_back(region);
        }
        for (const auto& [t, picks] : picks_by_t) {
          std::vector<GridMask> group;
          for (const size_t region : picks) {
            group.push_back(fixture.regions[region]);
          }
          auto result =
              runtime.ExecuteSpec(QuerySpec::MultiRegion(std::move(group), t));
          ASSERT_TRUE(result.ok());
          for (size_t i = 0; i < picks.size(); ++i) {
            const Result<QueryRow>& row = result->rows[i];
            ASSERT_TRUE(row.ok()) << row.status().ToString();
            const double truth =
                RegionTruth(dataset, fixture.regions[picks[i]], t);
            if (std::abs(row->value - truth) >
                1e-3 * (1.0 + std::abs(truth))) {
              inconsistent.fetch_add(1);
            }
            logs[static_cast<size_t>(c)].push_back(
                LoggedQuery{picks[i], t, row->value});
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  runtime.ingestor().WaitUntilDone();
  ASSERT_TRUE(runtime.ingestor().status().ok());
  EXPECT_EQ(runtime.ingestor().steps_published(), steps);

  EXPECT_EQ(inconsistent.load(), 0);

  // Sequential replay against the final epoch: every concurrently
  // answered query must reproduce bit-for-bit.
  int64_t replayed = 0;
  for (const auto& log : logs) {
    for (const LoggedQuery& q : log) {
      auto replay = QueryPoint(&runtime, fixture.regions[q.region], q.t);
      ASSERT_TRUE(replay.ok());
      EXPECT_NEAR(replay->value, q.value,
                  1e-9 * (1.0 + std::abs(q.value)));
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0);

  // Epoch rolls are time-only: the resolve cache must have survived all
  // of them (resolution is time-independent) and actually produced hits.
  const auto cache_stats = runtime.cache().Stats();
  EXPECT_EQ(cache_stats.invalidations, 0);
  EXPECT_GT(cache_stats.hits, 0);
  EXPECT_GT(cache_stats.size, 0u);
  EXPECT_GT(cache_stats.hit_rate(), 0.0);

  // A topology swap is the one event that clears it.
  runtime.SwapIndex(&fixture.pipeline->index());
  const auto after_swap = runtime.cache().Stats();
  EXPECT_EQ(after_swap.invalidations, 1);
  EXPECT_EQ(after_swap.size, 0u);

  // All superseded epochs were reclaimed once unpinned.
  EXPECT_EQ(runtime.epochs().live_epochs(), 1);
  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.epochs_published, steps);
  EXPECT_EQ(snapshot.epochs_reclaimed, steps - 1 + 1);  // + generation 0
  EXPECT_GT(snapshot.queries_served, 0);
  EXPECT_EQ(snapshot.queries_rejected, 0);
  EXPECT_GT(snapshot.query_p99_micros, 0.0);
}

// ---------------------------------------------------------------------------
// Fault paths: the injectable seams the scenario harness drives

// An over-budget spec is refused whole with ResourceExhausted — never a
// crash, never a partial result — and the runtime keeps serving
// correctly afterwards.
TEST(ServingRuntimeTest, SpecRejectionIsResourceExhaustedNotACrash) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.max_inflight_queries = 8;
  options.ingest.num_timesteps = 4;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().WaitUntilDone();
  const int64_t start = options.ingest.start_t;

  // 1 region x 9 timesteps = cost 9 > budget 8.
  auto rejected = runtime.ExecuteSpec(QuerySpec::TimeRange(
      fixture.regions[0], start, start + 8, TimeAggregation::kSum,
      QueryStrategy::kUnionSubtraction));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The rejection released nothing it didn't claim: a within-budget spec
  // still runs and still matches the oracle.
  auto accepted = runtime.ExecuteSpec(QuerySpec::PointInTime(
      fixture.regions[0], start, QueryStrategy::kUnionSubtraction));
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(accepted->rows.size(), 1u);
  ASSERT_TRUE(accepted->rows[0].ok());
  const double truth =
      RegionTruth(*fixture.dataset, fixture.regions[0], start);
  EXPECT_NEAR(accepted->rows[0].ValueOrDie().value, truth,
              1e-3 * (1.0 + std::abs(truth)));

  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.batches_rejected, 1);
  EXPECT_EQ(snapshot.queries_rejected, 1);  // rejected != crashed
}

// A slow reader pinning an old epoch keeps that generation's frames AND
// its SAT planes readable while newer epochs publish and the retention
// horizon reclaims everything unpinned.
TEST(ServingRuntimeTest, PinnedEpochSurvivesPublishesAndReclamation) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 6;
  options.ingest.manual_stepping = true;
  options.retain_timesteps = 2;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));

  // The slow reader pins the first published epoch...
  EpochGuard pinned = runtime.PinEpoch();
  ASSERT_TRUE(pinned.pinned());
  const int64_t start = options.ingest.start_t;
  EXPECT_EQ(pinned.latest_t(), start);

  // ...while the stream races five more epochs past it.
  runtime.ingestor().GrantSteps(5);
  runtime.ingestor().WaitUntilDone();
  EXPECT_EQ(runtime.epochs().published_latest_t(), start + 5);
  EXPECT_GE(runtime.Telemetry().epochs_reclaimed, 1);

  // The pinned generation stayed fully readable: frame and SAT plane at
  // its newest timestep, even though the live window has moved on.
  PredictionStore& store = runtime.store();
  EXPECT_TRUE(store.HasFrameAt(pinned.generation(), 1, start));
  EXPECT_TRUE(store.HasSatPlaneAt(pinned.generation(), 1, start));
  auto frame = store.GetFrameAt(pinned.generation(), 1, start);
  ASSERT_TRUE(frame.ok());

  // Released, the stale generation is reclaimed down to one live epoch.
  pinned.Release();
  runtime.Stop();
  EXPECT_FALSE(store.HasFrameAt(pinned.generation(), 1, start));
  EXPECT_EQ(runtime.epochs().live_epochs(), 1);
}

// Incremental top-k: a subscribed spec (same regions, advancing point
// timestep) goes through the memo — a same-timestep re-issue reuses
// every row, and the post-publish re-issue must rank bit-identically
// to a cold evaluation whatever mix of reuse and re-gather it took.
TEST(ServingRuntimeTest, TopKSubscriptionReusesRowsAndStaysExact) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 3;
  options.ingest.manual_stepping = true;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));
  const int64_t t0 = options.ingest.start_t;
  const int k = 3;

  auto first = runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0, k));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(), 0);

  // Same spec, same timestep, no publish in between: every row reuses.
  auto again = runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0, k));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(),
            static_cast<int64_t>(fixture.regions.size()));
  ASSERT_EQ(again->rows.size(), first->rows.size());
  EXPECT_EQ(again->top_k, first->top_k);
  for (size_t i = 0; i < first->rows.size(); ++i) {
    ASSERT_TRUE(first->rows[i].ok());
    ASSERT_TRUE(again->rows[i].ok());
    EXPECT_EQ(again->rows[i]->value, first->rows[i]->value);
  }

  // Advance the subscription one publish: the merged (reused + freshly
  // gathered) ranking must be bit-identical to a cold evaluation of the
  // same spec with the memo wiped.
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
  auto warm =
      runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0 + 1, k));
  ASSERT_TRUE(warm.ok());
  runtime.topk_memo().Invalidate();
  auto cold =
      runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0 + 1, k));
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm->rows.size(), cold->rows.size());
  EXPECT_EQ(warm->top_k, cold->top_k);
  for (size_t i = 0; i < cold->rows.size(); ++i) {
    ASSERT_TRUE(cold->rows[i].ok());
    ASSERT_TRUE(warm->rows[i].ok());
    EXPECT_EQ(warm->rows[i]->value, cold->rows[i]->value);
  }
  runtime.Stop();
}

// A memo hit that proves no row clean runs the original top-k spec, as
// a miss does (no sub-spec copying every region mask): rows and ranking
// match a memo-free execution, and every row counts as re-evaluated.
TEST(ServingRuntimeTest, TopKHitWithNoCleanRowRunsTheOriginalSpec) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 2;
  options.ingest.manual_stepping = true;
  // Shift every cell by a per-step offset, so each publish dirties every
  // tile of every layer (the 16x16 raster is one tile per layer).
  FrameInference truth = MakeGroundTruthInference(fixture.dataset.get());
  FrameInference shifted =
      [truth](int64_t t,
              const TemporalInput& input) -> Result<std::vector<Tensor>> {
    O4A_ASSIGN_OR_RETURN(std::vector<Tensor> frames, truth(t, input));
    for (Tensor& frame : frames) {
      for (int64_t i = 0; i < frame.numel(); ++i) {
        frame.data()[i] += 0.25f * static_cast<float>(t % 3);
      }
    }
    return frames;
  };
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         std::move(shifted), options);
  runtime.Start();
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));
  const int64_t t0 = options.ingest.start_t;
  const int k = 3;
  ASSERT_TRUE(runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0, k)).ok());

  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
  const int64_t reused = runtime.topk_memo().rows_reused();
  const int64_t reevaluated = runtime.topk_memo().rows_reevaluated();
  auto warm =
      runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0 + 1, k));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(), reused);
  EXPECT_EQ(runtime.topk_memo().rows_reevaluated(),
            reevaluated + static_cast<int64_t>(fixture.regions.size()));

  runtime.topk_memo().Invalidate();
  auto cold =
      runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0 + 1, k));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warm->kind, QuerySpecKind::kTopK);
  EXPECT_EQ(warm->top_k, cold->top_k);
  ASSERT_EQ(warm->rows.size(), cold->rows.size());
  for (size_t i = 0; i < cold->rows.size(); ++i) {
    ASSERT_EQ(warm->rows[i].ok(), cold->rows[i].ok());
    if (cold->rows[i].ok()) {
      EXPECT_EQ(warm->rows[i]->value, cold->rows[i]->value);
    }
  }
  runtime.Stop();
}

// The word-level bounding box behind every top-k footprint matches a
// per-cell scan on random masks: widths below, at and above one word and
// not a multiple of 64, regions touching the last row or column, single
// cells and empty masks.
TEST(TopKMemoTest, MaskBoundsMatchPerCellScan) {
  const auto reference = [](const GridMask& mask) {
    int64_t r0 = mask.height(), r1 = 0, c0 = mask.width(), c1 = 0;
    for (int64_t r = 0; r < mask.height(); ++r) {
      for (int64_t c = 0; c < mask.width(); ++c) {
        if (!mask.at(r, c)) continue;
        r0 = std::min(r0, r);
        r1 = std::max(r1, r + 1);
        c0 = std::min(c0, c);
        c1 = std::max(c1, c + 1);
      }
    }
    return r1 <= r0 ? CellRect{0, 0, 0, 0} : CellRect{r0, c0, r1, c1};
  };
  const auto expect_same = [&](const GridMask& mask) {
    const CellRect want = reference(mask);
    const CellRect got = MaskBounds(mask);
    EXPECT_EQ(got.r0, want.r0);
    EXPECT_EQ(got.c0, want.c0);
    EXPECT_EQ(got.r1, want.r1);
    EXPECT_EQ(got.c1, want.c1);
  };
  Rng rng(41);
  for (const int64_t w : {1, 3, 7, 31, 63, 64, 65, 100, 127, 128, 130, 200}) {
    for (const int64_t h : {1, 2, 5, 17, 64}) {
      SCOPED_TRACE(std::to_string(h) + "x" + std::to_string(w));
      GridMask empty(h, w);
      expect_same(empty);
      GridMask corner(h, w);  // the very last cell
      corner.Set(h - 1, w - 1, true);
      expect_same(corner);
      for (int trial = 0; trial < 8; ++trial) {
        GridMask mask(h, w);
        // A random rect, pinned to the last row and/or column half the
        // time, plus a few scattered cells.
        int64_t r0 = static_cast<int64_t>(rng.UniformInt(h));
        int64_t c0 = static_cast<int64_t>(rng.UniformInt(w));
        int64_t r1 = r0 + 1 + static_cast<int64_t>(rng.UniformInt(h - r0));
        int64_t c1 = c0 + 1 + static_cast<int64_t>(rng.UniformInt(w - c0));
        if (trial % 2 == 0) r1 = h;
        if (trial % 4 < 2) c1 = w;
        if (trial != 7) mask.FillRect(r0, c0, r1, c1);
        for (int i = 0; i < trial; ++i) {
          mask.Set(static_cast<int64_t>(rng.UniformInt(h)),
                   static_cast<int64_t>(rng.UniformInt(w)), true);
        }
        expect_same(mask);
      }
    }
  }
}

// The memo keys on the spec's knobs and per-region fingerprints: the
// same regions and knobs hit (rows proven clean or stale per footprint),
// anything else misses.
TEST(TopKMemoTest, HitsAndMissesFollowRegionsAndKnobs) {
  const Hierarchy hierarchy = Hierarchy::Uniform(64, 64, 2, 4);
  TopKMemo memo(&hierarchy);
  GridMask a(64, 64), b(64, 64);
  a.FillRect(2, 2, 8, 8);      // footprint inside layer-1 tile (0, 0)
  b.FillRect(40, 40, 48, 46);  // footprint inside layer-1 tile (1, 1)
  const auto fingerprints = [](const QuerySpec& spec) {
    std::vector<RegionFingerprint> fps;
    for (const GridMask& region : spec.regions) {
      fps.push_back(FingerprintRegion(region, spec.strategy));
    }
    return fps;
  };
  const QuerySpec spec = QuerySpec::TopK({a, b}, 5, 1);
  std::vector<Result<QueryRow>> rows(2, QueryRow{});
  rows[0]->value = 1.0;
  rows[1]->value = 2.0;
  memo.Store(spec, fingerprints(spec), rows);

  TopKMemo::Probe probe = memo.Lookup(spec, fingerprints(spec));
  ASSERT_TRUE(probe.hit);
  EXPECT_EQ(probe.clean, std::vector<bool>({true, true}));
  EXPECT_EQ(probe.rows[1]->value, 2.0);

  // One publish dirtying layer-1 tile (0, 0): a's row is stale, b's
  // still provably clean.
  DirtyTileSets dirty;
  for (int l = 1; l <= hierarchy.num_layers(); ++l) {
    dirty.emplace_back(hierarchy.layer(l).height, hierarchy.layer(l).width);
  }
  dirty[0].MarkTile(0, 0);
  memo.OnPublish(6, &dirty);
  QuerySpec next = spec;
  next.time = TimeSelector::At(6);
  probe = memo.Lookup(next, fingerprints(next));
  ASSERT_TRUE(probe.hit);
  EXPECT_EQ(probe.clean, std::vector<bool>({false, true}));

  // Misses: a changed region, other knobs, or an unseen publish gap.
  QuerySpec moved = next;
  moved.regions[1].Set(47, 47, true);
  EXPECT_FALSE(memo.Lookup(moved, fingerprints(moved)).hit);
  QuerySpec other_k = next;
  other_k.top_k = 2;
  EXPECT_FALSE(memo.Lookup(other_k, fingerprints(other_k)).hit);
  QuerySpec other_strategy = next;
  other_strategy.strategy = QueryStrategy::kUnion;
  EXPECT_FALSE(memo.Lookup(other_strategy, fingerprints(other_strategy)).hit);
  QuerySpec swapped = next;
  std::swap(swapped.regions[0], swapped.regions[1]);
  EXPECT_FALSE(memo.Lookup(swapped, fingerprints(swapped)).hit);
  QuerySpec gap = next;
  gap.time = TimeSelector::At(8);  // publish 7 was never recorded
  EXPECT_FALSE(memo.Lookup(gap, fingerprints(gap)).hit);
  // The original still hits after all those probes.
  EXPECT_TRUE(memo.Lookup(next, fingerprints(next)).hit);
}

// The copy-on-write hammer (raced under TSan in CI): a writer publishes
// carry-forward epochs in a loop, delta-staging each timestep so clean
// tiles alias the previous generation's blocks; readers pin epochs and
// sum whole frames through them while superseded generations reclaim
// underneath. Because reclamation is a refcount drop — never a free of
// a block some live generation still aliases — every pinned read must
// see exactly the deterministic frame its timestep was staged with.
TEST(FrameEpochManagerTest, HammerCowSharedTilesSurvivePinAndReclaim) {
  constexpr int64_t kH = 64, kW = 64;
  constexpr int kSteps = 60;
  constexpr int kReaders = 3;

  // Deterministic frame sequence: start all-ones, each step t stamps the
  // value t into one rotating 8x16 rect. Precompute every frame's total
  // so readers can verify sums without holding the writer's state.
  std::vector<double> expected_sum(kSteps + 1);
  std::vector<Tensor> frames;
  {
    Tensor frame = Tensor::Full({kH, kW}, 1.0f);
    for (int t = 0; t <= kSteps; ++t) {
      if (t > 0) {
        const int64_t r0 = (static_cast<int64_t>(t) * 8) % kH;
        const int64_t c0 = (static_cast<int64_t>(t) * 16) % kW;
        for (int64_t r = r0; r < r0 + 8; ++r) {
          for (int64_t c = c0; c < c0 + 16; ++c) {
            frame.data()[r * kW + c] = static_cast<float>(t);
          }
        }
      }
      double sum = 0.0;
      for (int64_t i = 0; i < frame.numel(); ++i) sum += frame.data()[i];
      expected_sum[t] = sum;
      frames.push_back(frame);
    }
  }

  PredictionStore store;
  ServingTelemetry telemetry;
  FrameEpochManagerOptions epoch_options;
  // 2 is the tightest horizon that still carries the t-1 CoW base into
  // each staging (1 would carry nothing and delta-stage fresh).
  epoch_options.retain_timesteps = 2;
  FrameEpochManager epochs(&store, &telemetry, epoch_options);

  // Seed t=0 fully fresh so every later step has a CoW base.
  {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
    staging.StageFrame(1, 0, frames[0]);
    epochs.Publish(std::move(staging));
  }

  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> bad_reads{0};
  std::atomic<int64_t> reads_checked{0};

  std::thread writer([&] {
    for (int t = 1; t <= kSteps; ++t) {
      const int64_t r0 = (static_cast<int64_t>(t) * 8) % kH;
      const int64_t c0 = (static_cast<int64_t>(t) * 16) % kW;
      TileDirtySet dirty(kH, kW);
      dirty.MarkRect(r0, c0, r0 + 8, c0 + 16);
      auto staging = epochs.BeginEpoch(/*carry_forward=*/true);
      ASSERT_TRUE(staging.TryStageFrame(1, t, frames[t], &dirty).ok());
      epochs.Publish(std::move(staging));
    }
    writer_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int rounds = 0;
      while (!writer_done.load() || rounds < 5) {
        ++rounds;
        EpochGuard guard = epochs.Pin();
        const int64_t t = guard.latest_t();
        auto frame = store.GetFrameAt(guard.generation(), 1, t);
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        double sum = 0.0;
        for (int64_t i = 0; i < frame->numel(); ++i) sum += frame->data()[i];
        if (sum != expected_sum[t]) bad_reads.fetch_add(1);
        reads_checked.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GE(reads_checked.load(), kReaders * 5);
  EXPECT_EQ(epochs.live_epochs(), 1);
  // The whole run really went through the CoW path: out of the 32 tiles
  // per frame, each step copied 1-2 and aliased the rest.
  const auto snapshot = telemetry.Snapshot();
  EXPECT_GT(snapshot.cow_shared_tiles, snapshot.stage_dirty_tiles);
  EXPECT_GT(snapshot.stage_dirty_tiles, 0);
}

// A store refusing writes must not kill the ingest thread: each refused
// publish is absorbed (counted, staging dropped whole), the same
// timestep retries, and ingestion resumes when the injector clears.
TEST(StreamIngestorTest, SurvivesStoreWriteRefusalAndResumes) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 5;
  options.ingest.manual_stepping = true;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(2);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
  EXPECT_EQ(runtime.ingestor().steps_published(), 2);

  runtime.store().SetWriteFault(
      Status::IOError("injected: store refusing writes"));
  runtime.ingestor().GrantSteps(3);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(5));

  // Three attempts were refused: nothing new published, the failures are
  // counted, the thread is alive (not done) and reports the refusal.
  EXPECT_EQ(runtime.ingestor().steps_published(), 2);
  EXPECT_FALSE(runtime.ingestor().done());
  EXPECT_TRUE(runtime.ingestor().status().ok());  // not a fatal error
  EXPECT_EQ(runtime.ingestor().last_publish_error().code(),
            StatusCode::kIOError);
  EXPECT_EQ(runtime.Telemetry().publish_failures, 3);
  // No torn epoch: the published window still ends at the pre-fault t.
  EXPECT_EQ(runtime.epochs().published_latest_t(),
            options.ingest.start_t + 1);

  // Injector clears: the refused timestep retries and the stream
  // finishes every configured step.
  runtime.store().ClearWriteFault();
  runtime.ingestor().GrantSteps(3);
  runtime.ingestor().WaitUntilDone();
  EXPECT_EQ(runtime.ingestor().steps_published(), 5);
  EXPECT_TRUE(runtime.ingestor().last_publish_error().ok());
  EXPECT_EQ(runtime.epochs().published_latest_t(),
            options.ingest.start_t + 4);
  EXPECT_TRUE(runtime.ingestor().status().ok());
}

// ---------------------------------------------------------------------------
// Telemetry / cache units

TEST(LatencyHistogramTest, PercentilesAndMean) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.PercentileMicros(0.5), 0.0);
  for (int i = 0; i < 99; ++i) histogram.Record(10.0);
  histogram.Record(100000.0);
  EXPECT_EQ(histogram.count(), 100);
  const double p50 = histogram.PercentileMicros(0.50);
  const double p99 = histogram.PercentileMicros(0.99);
  const double p999 = histogram.PercentileMicros(0.999);
  EXPECT_GT(p50, 5.0);
  EXPECT_LT(p50, 20.0);
  EXPECT_LE(p99, p999);
  EXPECT_GT(p999, 50000.0);
  EXPECT_NEAR(histogram.MeanMicros(), (99 * 10.0 + 100000.0) / 100.0,
              1.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
}

TEST(ResolvedQueryCacheTest, HitRateAndInvalidate) {
  ResolvedQueryCache cache;
  RegionFingerprint key{1, 2};
  EXPECT_EQ(cache.Stats().hit_rate(), 0.0);
  EXPECT_EQ(cache.Get(key), nullptr);  // miss
  cache.Put(key, std::make_shared<const ResolvedQuery>());
  EXPECT_NE(cache.Get(key), nullptr);  // hit
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(stats.invalidations, 0);

  cache.Invalidate();
  const auto after = cache.Stats();
  EXPECT_EQ(after.size, 0u);
  EXPECT_EQ(after.invalidations, 1);
  // Monotonic counters survive the clear.
  EXPECT_EQ(after.hits, 1);
}

}  // namespace
}  // namespace one4all
