// Tests for the columnar gather engine and epoch-published summed-area
// planes: the reference prefix-sum oracle's four-corner rect sums against
// the GridMask::MaskedSum brute force (randomized, across shapes and edge
// rects), gather-program compilation (rect-run collapsing, duplicate
// terms, sign separation), executor fast-path parity with the exact cell
// loop, the bit-exactness pin of EvalPath::kExactCellLoop against
// RegionQueryServer::EvaluateTerms, plane storage/lifecycle in the
// prediction store and
// epoch manager, and the plane-publish hammer raced under TSan (a pinned
// epoch must never observe a torn or missing plane).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "eval/task_eval.h"
#include "query/gather_program.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "sat_oracle.h"
#include "serve/epoch_manager.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::BuildSatPlane;
using testing::MaterializeSatPlane;
using testing::OraclePredictor;
using testing::RandomMask;
using testing::SatPlane;
using testing::TinyDataset;

// ---------------------------------------------------------------------------
// SatPlane / BuildSatPlane (the reference oracle of tests/sat_oracle.h)

double BruteForceRectSum(const Tensor& frame, int64_t r0, int64_t c0,
                         int64_t r1, int64_t c1) {
  GridMask mask(frame.dim(0), frame.dim(1));
  mask.FillRect(r0, c0, r1, c1);
  return mask.MaskedSum(frame);
}

TEST(SatPlaneTest, RectSumsMatchMaskedSumBruteForce) {
  // Shapes covering the hierarchy's layer geometries, non-square and
  // degenerate single-row/column frames.
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {8, 8}, {7, 5}, {1, 16}, {16, 1}, {33, 29}, {32, 32}};
  for (const auto& [h, w] : shapes) {
    Rng rng(static_cast<uint64_t>(h * 1000 + w));
    // Signed values: rect sums must survive cancellation, not just
    // accumulate positives.
    const Tensor frame = Tensor::RandomNormal({h, w}, &rng, 0.0f, 10.0f);
    const SatPlane plane = BuildSatPlane(frame);
    ASSERT_EQ(plane.height(), h);
    ASSERT_EQ(plane.width(), w);

    const auto check = [&](int64_t r0, int64_t c0, int64_t r1, int64_t c1) {
      const double brute = BruteForceRectSum(frame, r0, c0, r1, c1);
      const double sat = plane.RectSum(r0, c0, r1, c1);
      EXPECT_NEAR(sat, brute, 1e-9 * (1.0 + std::abs(brute)))
          << h << "x" << w << " rect [" << r0 << "," << r1 << ")x["
          << c0 << "," << c1 << ")";
    };

    // Edge rows/cols, full frame, single cells at every corner.
    check(0, 0, h, w);
    check(0, 0, 1, w);
    check(h - 1, 0, h, w);
    check(0, 0, h, 1);
    check(0, w - 1, h, w);
    check(0, 0, 1, 1);
    check(h - 1, w - 1, h, w);
    // Empty rects are exactly zero by construction.
    EXPECT_EQ(plane.RectSum(0, 0, 0, 0), 0.0);
    EXPECT_EQ(plane.RectSum(h / 2, w / 2, h / 2, w / 2), 0.0);

    for (int trial = 0; trial < 200; ++trial) {
      const int64_t r0 = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(h)));
      const int64_t c0 = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(w)));
      const int64_t r1 = r0 + 1 + static_cast<int64_t>(rng.UniformInt(
                                    static_cast<uint64_t>(h - r0)));
      const int64_t c1 = c0 + 1 + static_cast<int64_t>(rng.UniformInt(
                                    static_cast<uint64_t>(w - c0)));
      check(r0, c0, r1, c1);
    }
  }
}

// ---------------------------------------------------------------------------
// CompileGatherProgram

TEST(GatherProgramTest, CollapsesSolidRectanglesIntoOneRead) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 4);
  std::vector<CombinationTerm> terms;
  for (int64_t r = 2; r < 7; ++r) {
    for (int64_t c = 1; c < 6; ++c) {
      terms.push_back(CombinationTerm{GridId{1, r, c}, 1});
    }
  }
  const GatherProgram program = CompileGatherProgram(terms, hierarchy);
  ASSERT_EQ(program.rects.size(), 1u);
  EXPECT_TRUE(program.residues.empty());
  EXPECT_EQ(program.num_rect_terms, 25);
  EXPECT_EQ(program.rects[0].r0, 2);
  EXPECT_EQ(program.rects[0].r1, 7);
  EXPECT_EQ(program.rects[0].c0, 1);
  EXPECT_EQ(program.rects[0].c1, 6);
  ASSERT_EQ(program.layers.size(), 1u);
  EXPECT_TRUE(program.layers[0].needs_plane);
  EXPECT_FALSE(program.layers[0].needs_frame);
  EXPECT_EQ(program.num_reads(), 4);
}

TEST(GatherProgramTest, KeepsSignsSeparateAndDuplicatesAsResidues) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 4);
  std::vector<CombinationTerm> terms;
  // A positive 2x4 run at layer 2, a negative cell inside the same
  // bounding box, and one duplicated positive cell at layer 1.
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      terms.push_back(CombinationTerm{GridId{2, r, c}, 1});
    }
  }
  terms.push_back(CombinationTerm{GridId{2, 1, 2}, -1});
  terms.push_back(CombinationTerm{GridId{1, 3, 3}, 1});
  terms.push_back(CombinationTerm{GridId{1, 3, 3}, 1});

  const GatherProgram program = CompileGatherProgram(terms, hierarchy);
  ASSERT_EQ(program.rects.size(), 1u);
  EXPECT_EQ(program.rects[0].layer, 2);
  EXPECT_EQ(program.rects[0].sign, 1);
  EXPECT_EQ(program.num_rect_terms, 8);
  // -1 @ (2,1,2) + the duplicated (1,3,3) pair = 3 residues; every term
  // is accounted for exactly once.
  ASSERT_EQ(program.residues.size(), 3u);
  EXPECT_EQ(program.num_rect_terms +
                static_cast<int64_t>(program.residues.size()),
            static_cast<int64_t>(terms.size()));
  int negative = 0;
  for (const ResidueRead& residue : program.residues) {
    if (residue.sign < 0) ++negative;
  }
  EXPECT_EQ(negative, 1);
  // Layer needs: layer 1 frame-only, layer 2 plane+frame.
  ASSERT_EQ(program.layers.size(), 2u);
  EXPECT_EQ(program.layers[0].layer, 1);
  EXPECT_TRUE(program.layers[0].needs_frame);
  EXPECT_FALSE(program.layers[0].needs_plane);
  EXPECT_EQ(program.layers[1].layer, 2);
  EXPECT_TRUE(program.layers[1].needs_plane);
  EXPECT_TRUE(program.layers[1].needs_frame);
}

TEST(GatherProgramTest, SmallRectsStayResidues) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 4);
  // A 1x3 run: below kMinSatRectCells, four corner reads would cost more
  // than three direct reads.
  std::vector<CombinationTerm> terms = {
      CombinationTerm{GridId{1, 0, 0}, 1},
      CombinationTerm{GridId{1, 0, 1}, 1},
      CombinationTerm{GridId{1, 0, 2}, 1},
  };
  const GatherProgram program = CompileGatherProgram(terms, hierarchy);
  EXPECT_TRUE(program.rects.empty());
  EXPECT_EQ(program.residues.size(), 3u);
  // Residues are in row-major cell order (the frame sweep's order); an
  // 8x8 layer is one tile, so in-tile offsets are the flat offsets.
  EXPECT_EQ(program.residues[0].tile, 0);
  EXPECT_EQ(program.residues[0].tile_offset, 0);
  EXPECT_EQ(program.residues[1].tile_offset, 1);
  EXPECT_EQ(program.residues[2].tile_offset, 2);
}

// ---------------------------------------------------------------------------
// Executor fast path

struct GatherFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;

  GatherFixture() : ds(TinyDataset(91)) {
    OraclePredictor oracle({1.5, 0.7, 0.2}, 92);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
  }

  const RegionQueryServer& server() const { return pipeline->server(); }
  QueryPlanner planner() const { return QueryPlanner(&ds.hierarchy()); }
  QueryExecutor executor() const { return QueryExecutor(&server()); }

  /// A mix of irregular random masks and axis-aligned rects (the SAT
  /// sweet spot), all on the 8x8 raster.
  std::vector<GridMask> MixedRegions() const {
    std::vector<GridMask> regions;
    for (int i = 0; i < 4; ++i) {
      const GridMask region = RandomMask(8, 8, 500 + i, 400);
      if (!region.Empty()) regions.push_back(region);
    }
    const int64_t rects[][4] = {{0, 0, 8, 8}, {1, 1, 6, 7}, {3, 2, 4, 6},
                                {2, 3, 7, 5}};
    for (const auto& r : rects) {
      GridMask region(8, 8);
      region.FillRect(r[0], r[1], r[2], r[3]);
      regions.push_back(region);
    }
    return regions;
  }
};

TEST(GatherFastPathTest, MatchesExactCellLoopAcrossSpecShapes) {
  GatherFixture fx;
  const auto regions = fx.MixedRegions();
  const auto& slots = fx.pipeline->test_timesteps();
  const int64_t t0 = slots.front();

  const auto run = [&](QuerySpec spec) {
    auto plan = fx.planner().Plan(std::move(spec));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return fx.executor().Execute(*plan);
  };
  const auto expect_rows_match = [&](const QueryResult& exact,
                                     const QueryResult& fast) {
    ASSERT_EQ(fast.rows.size(), exact.rows.size());
    for (size_t i = 0; i < exact.rows.size(); ++i) {
      ASSERT_TRUE(exact.rows[i].ok());
      ASSERT_TRUE(fast.rows[i].ok()) << fast.rows[i].status().ToString();
      EXPECT_NEAR(fast.rows[i]->value, exact.rows[i]->value,
                  1e-9 * (1.0 + std::abs(exact.rows[i]->value)))
          << "row " << i;
      EXPECT_EQ(fast.rows[i]->num_terms, exact.rows[i]->num_terms);
      ASSERT_EQ(fast.rows[i]->series.size(), exact.rows[i]->series.size());
      for (size_t s = 0; s < exact.rows[i]->series.size(); ++s) {
        EXPECT_NEAR(fast.rows[i]->series[s], exact.rows[i]->series[s],
                    1e-9 * (1.0 + std::abs(exact.rows[i]->series[s])));
      }
    }
  };

  for (QueryStrategy strategy :
       {QueryStrategy::kDirect, QueryStrategy::kUnion,
        QueryStrategy::kUnionSubtraction}) {
    // Grouped multi-region over a 4-step range, series kept.
    QuerySpec exact_spec = QuerySpec::MultiRegion(regions, t0, strategy);
    exact_spec.time = TimeSelector::Range(t0, t0 + 3);
    exact_spec.keep_series = true;
    QuerySpec fast_spec = exact_spec;
    fast_spec.eval_path = EvalPath::kSatFastPath;
    expect_rows_match(run(exact_spec), run(fast_spec));

    // Time-range aggregations fold the same per-step values.
    for (TimeAggregation agg : {TimeAggregation::kSum,
                                TimeAggregation::kMean,
                                TimeAggregation::kMax}) {
      QuerySpec exact_range =
          QuerySpec::TimeRange(regions[4], t0, t0 + 3, agg, strategy);
      QuerySpec fast_range = exact_range;
      fast_range.eval_path = EvalPath::kSatFastPath;
      expect_rows_match(run(exact_range), run(fast_range));
    }
  }

  // Top-k: row values agree and the fast ranking is consistent with the
  // fast values (ties broken toward the lower index).
  QuerySpec fast_topk = QuerySpec::TopK(regions, t0, 3);
  fast_topk.eval_path = EvalPath::kSatFastPath;
  const QueryResult ranked = run(fast_topk);
  const QueryResult exact_ranked = run(QuerySpec::TopK(regions, t0, 3));
  expect_rows_match(exact_ranked, ranked);
  ASSERT_EQ(ranked.top_k.size(), 3u);
  for (size_t i = 1; i < ranked.top_k.size(); ++i) {
    const double prev =
        ranked.rows[static_cast<size_t>(ranked.top_k[i - 1])]->value;
    const double cur =
        ranked.rows[static_cast<size_t>(ranked.top_k[i])]->value;
    EXPECT_GE(prev, cur);
  }
}

TEST(GatherFastPathTest, ParallelFastPathMatchesSequential) {
  GatherFixture fx;
  // The mixed regions listed 64 times over 4 timesteps: enough rect and
  // residue reads for the fast path's row stage to fan out.
  const std::vector<GridMask> distinct = fx.MixedRegions();
  std::vector<GridMask> regions;
  for (int copy = 0; copy < 64; ++copy) {
    regions.insert(regions.end(), distinct.begin(), distinct.end());
  }
  QuerySpec spec = QuerySpec::MultiRegion(
      regions, fx.pipeline->test_timesteps().front());
  spec.time = TimeSelector::Range(spec.time.t0, spec.time.t0 + 3);
  spec.eval_path = EvalPath::kSatFastPath;
  auto plan = fx.planner().Plan(spec);
  ASSERT_TRUE(plan.ok());

  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  QueryExecutorOptions single;
  single.num_threads = 1;
  const QueryResult sequential = fx.executor().Execute(*plan, single);
  EXPECT_EQ(pool.chunks_fanned_out(), 0);
  // Cached: the resolve probes stay inline, so the chunks counted are
  // the fast path's row stage.
  ResolvedQueryCache cache;
  QueryExecutorOptions warm;
  warm.cache = &cache;
  fx.executor().Execute(*plan, warm);
  const int64_t before = pool.chunks_fanned_out();
  const QueryResult parallel = fx.executor().Execute(*plan, warm);
  EXPECT_GT(pool.chunks_fanned_out() - before, 1);
  ASSERT_EQ(parallel.rows.size(), sequential.rows.size());
  for (size_t i = 0; i < sequential.rows.size(); ++i) {
    ASSERT_TRUE(sequential.rows[i].ok());
    ASSERT_TRUE(parallel.rows[i].ok());
    // Same program, same per-row fold order: identical values.
    EXPECT_EQ(parallel.rows[i]->value, sequential.rows[i]->value);
  }
}

TEST(GatherFastPathTest, FallsBackToFrameSumsWhenPlanesAreMissing) {
  GatherFixture fx;
  // A store synced with frames but no planes (a pre-SAT producer): the
  // fast path must degrade to direct frame rect sums, not fail.
  PredictionStore bare;
  const int64_t t = fx.pipeline->test_timesteps().front();
  for (int l = 1; l <= fx.ds.hierarchy().num_layers(); ++l) {
    bare.SyncFrame(l, t, fx.ds.FrameAtLayer(t, l));
  }
  ASSERT_EQ(bare.NumSatPlanesAt(0), 0);
  RegionQueryServer server(&fx.ds.hierarchy(), &fx.pipeline->index(),
                           &bare);
  QueryExecutor executor(&server);

  QuerySpec fast = QuerySpec::MultiRegion(fx.MixedRegions(), t);
  fast.eval_path = EvalPath::kSatFastPath;
  auto fast_plan = fx.planner().Plan(fast);
  ASSERT_TRUE(fast_plan.ok());
  const QueryResult fast_result = executor.Execute(*fast_plan);

  auto exact_plan =
      fx.planner().Plan(QuerySpec::MultiRegion(fx.MixedRegions(), t));
  ASSERT_TRUE(exact_plan.ok());
  const QueryResult exact_result = executor.Execute(*exact_plan);
  ASSERT_EQ(fast_result.rows.size(), exact_result.rows.size());
  for (size_t i = 0; i < exact_result.rows.size(); ++i) {
    ASSERT_TRUE(exact_result.rows[i].ok());
    ASSERT_TRUE(fast_result.rows[i].ok())
        << fast_result.rows[i].status().ToString();
    EXPECT_NEAR(fast_result.rows[i]->value, exact_result.rows[i]->value,
                1e-9 * (1.0 + std::abs(exact_result.rows[i]->value)));
  }

  // A timestep nothing synced still fails per-row with NotFound.
  QuerySpec missing = QuerySpec::MultiRegion(fx.MixedRegions(), t + 1);
  missing.eval_path = EvalPath::kSatFastPath;
  auto missing_plan = fx.planner().Plan(missing);
  ASSERT_TRUE(missing_plan.ok());
  for (const auto& row : executor.Execute(*missing_plan).rows) {
    EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
  }

  // Once planes are built the same spec answers through them — still
  // within the fast path's tolerance of the exact values.
  bare.BuildSatPlanes(0);
  ASSERT_EQ(bare.NumSatPlanesAt(0), fx.ds.hierarchy().num_layers());
  const QueryResult planed_result = executor.Execute(*fast_plan);
  ASSERT_EQ(planed_result.rows.size(), exact_result.rows.size());
  for (size_t i = 0; i < exact_result.rows.size(); ++i) {
    ASSERT_TRUE(planed_result.rows[i].ok());
    EXPECT_NEAR(planed_result.rows[i]->value, exact_result.rows[i]->value,
                1e-9 * (1.0 + std::abs(exact_result.rows[i]->value)));
  }
}

TEST(GatherFastPathTest, ExactCellLoopStaysBitExactWithEvaluateTerms) {
  // The regression pin, restated against the explicit flag: point and
  // multi-region specs forced onto kExactCellLoop reproduce the term-
  // order sum of TryEvaluateTerms bit-for-bit, through the memoized
  // tiled frame reads.
  GatherFixture fx;
  const auto regions = fx.MixedRegions();
  for (int64_t t : fx.pipeline->test_timesteps()) {
    QuerySpec group = QuerySpec::MultiRegion(regions, t);
    group.eval_path = EvalPath::kExactCellLoop;
    auto group_plan = fx.planner().Plan(group);
    ASSERT_TRUE(group_plan.ok());
    const QueryResult grouped = fx.executor().Execute(*group_plan);
    for (size_t i = 0; i < regions.size(); ++i) {
      auto resolved =
          fx.server().Resolve(regions[i], QueryStrategy::kUnionSubtraction);
      ASSERT_TRUE(resolved.ok());
      auto reference = fx.server().TryEvaluateTerms(resolved->terms, t);
      ASSERT_TRUE(reference.ok());
      QuerySpec spec = QuerySpec::PointInTime(regions[i], t);
      spec.eval_path = EvalPath::kExactCellLoop;
      auto plan = fx.planner().Plan(spec);
      ASSERT_TRUE(plan.ok());
      const QueryResult result = fx.executor().Execute(*plan);
      ASSERT_TRUE(result.rows[0].ok());
      ASSERT_TRUE(grouped.rows[i].ok());
      EXPECT_EQ(result.rows[0]->value, *reference) << "region " << i;
      EXPECT_EQ(grouped.rows[i]->value, *reference) << "region " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Plane storage + epoch lifecycle

TEST(SatPlaneStoreTest, PlanesAreDerivedDataNotFrames) {
  PredictionStore store;
  Rng rng(3);
  const Tensor frame = Tensor::RandomNormal({4, 6}, &rng);
  store.SyncFrameAt(7, 1, 12, frame);
  store.SyncFrameAt(7, 2, 12, Tensor::Full({2, 3}, 2.0f));
  EXPECT_EQ(store.NumFramesAt(7), 2);
  EXPECT_EQ(store.NumSatPlanesAt(7), 0);

  EXPECT_EQ(store.BuildSatPlanes(7), 2);
  EXPECT_EQ(store.NumFramesAt(7), 2);  // planes are not frames
  EXPECT_EQ(store.NumSatPlanesAt(7), 2);
  ASSERT_TRUE(store.HasSatPlaneAt(7, 1, 12));

  auto plane = store.GetTiledSatPlaneAt(7, 1, 12);
  ASSERT_TRUE(plane.ok());
  const SatPlane stored = MaterializeSatPlane(**plane);
  const SatPlane reference = BuildSatPlane(frame);
  ASSERT_EQ(stored.numel(), reference.numel());
  for (int64_t i = 0; i < reference.numel(); ++i) {
    ASSERT_EQ(stored.data()[i], reference.data()[i]);
  }

  EXPECT_EQ(store.GetTiledSatPlaneAt(7, 1, 99).status().code(),
            StatusCode::kNotFound);

  // Overwriting a frame invalidates its derived plane — a stale plane
  // must never survive for the fast path to read.
  store.SyncFrameAt(7, 1, 12, Tensor::Full({4, 6}, 9.0f));
  EXPECT_FALSE(store.HasSatPlaneAt(7, 1, 12));
  EXPECT_TRUE(store.HasSatPlaneAt(7, 2, 12));

  // DropGeneration reclaims planes together with frames.
  store.DropGeneration(7);
  EXPECT_EQ(store.NumFramesAt(7), 0);
  EXPECT_EQ(store.NumSatPlanesAt(7), 0);
}

TEST(SatPlaneEpochTest, PlanesPublishReclaimAndCarryWithTheirEpoch) {
  PredictionStore store;
  ServingTelemetry telemetry;
  FrameEpochManager epochs(&store, &telemetry);

  auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
  const int64_t gen1 = staging.generation();
  staging.StageFrame(1, 0, Tensor::Full({4, 4}, 2.0f));
  // Staged planes exist only in the unpublished shadow generation.
  EXPECT_TRUE(store.HasSatPlaneAt(gen1, 1, 0));
  EXPECT_EQ(store.NumSatPlanesAt(epochs.published_generation()), 0);
  epochs.Publish(std::move(staging));
  EXPECT_EQ(epochs.published_generation(), gen1);
  EXPECT_EQ(store.NumSatPlanesAt(gen1), 1);
  EXPECT_EQ(telemetry.Snapshot().sat_planes_built, 1);

  // Carry-forward copies planes with frames into the next epoch.
  EpochGuard pinned = epochs.Pin();
  auto staging2 = epochs.BeginEpoch(/*carry_forward=*/true);
  const int64_t gen2 = staging2.generation();
  staging2.StageFrame(1, 1, Tensor::Full({4, 4}, 3.0f));
  epochs.Publish(std::move(staging2));
  EXPECT_EQ(store.NumSatPlanesAt(gen2), 2);

  // The pinned epoch keeps frames AND planes until its last reader
  // unpins, then both reclaim with the generation.
  EXPECT_TRUE(store.HasSatPlaneAt(gen1, 1, 0));
  pinned.Release();
  EXPECT_FALSE(store.HasSatPlaneAt(gen1, 1, 0));
  EXPECT_EQ(store.NumFramesAt(gen1), 0);
  EXPECT_EQ(store.NumSatPlanesAt(gen1), 0);

  // Opt-out managers stage frames without planes — and re-staging a
  // carried-forward timestep drops its carried (now stale) plane
  // instead of leaving it behind for the fast path.
  PredictionStore bare;
  bare.SyncFrame(1, 0, Tensor::Full({2, 2}, 1.0f));
  bare.BuildSatPlanes(0);  // a pre-SAT-aware producer's generation 0
  FrameEpochManagerOptions options;
  options.build_sat_planes = false;
  FrameEpochManager bare_epochs(&bare, nullptr, options);
  auto bare_staging = bare_epochs.BeginEpoch(/*carry_forward=*/true);
  const int64_t bare_gen = bare_staging.generation();
  EXPECT_TRUE(bare.HasSatPlaneAt(bare_gen, 1, 0));  // carried plane
  bare_staging.StageFrame(1, 0, Tensor::Full({2, 2}, 5.0f));
  EXPECT_FALSE(bare.HasSatPlaneAt(bare_gen, 1, 0));  // invalidated
  bare_staging.StageFrame(1, 1, Tensor::Full({2, 2}, 6.0f));
  bare_epochs.Publish(std::move(bare_staging));
  EXPECT_EQ(bare.NumFramesAt(bare_gen), 2);
  EXPECT_EQ(bare.NumSatPlanesAt(bare_gen), 0);
}

// The plane-publish hammer (raced under TSan in CI): a writer publishes
// marker epochs in a loop, staging the plane of every frame; readers pin
// an epoch and answer SAT-fast-path specs through it. A plane observable
// before its epoch publishes, missing for a pinned epoch, or torn across
// generations breaks the arithmetic identity value == |region| * marker.
TEST(SatPlaneEpochTest, HammerPinnedEpochsNeverObserveTornPlanes) {
  const STDataset dataset = TinyDataset(31);
  const Hierarchy& hierarchy = dataset.hierarchy();
  const int n_layers = hierarchy.num_layers();
  OraclePredictor oracle({}, 32);
  auto pipeline = MauPipeline::Build(&oracle, dataset, SearchOptions{});

  PredictionStore store;
  FrameEpochManager epochs(&store);
  RegionQueryServer server(&hierarchy, &pipeline->index(), &store);
  QueryPlanner planner(&hierarchy);
  QueryExecutor executor(&server);

  // Rect-heavy regions: the fast path leans on plane reads for these.
  std::vector<GridMask> regions;
  const int64_t rects[][4] = {{0, 0, 8, 8}, {1, 1, 7, 6}, {2, 3, 5, 8},
                              {0, 4, 4, 8}, {3, 0, 8, 3}};
  for (const auto& r : rects) {
    GridMask region(8, 8);
    region.FillRect(r[0], r[1], r[2], r[3]);
    regions.push_back(region);
  }
  std::vector<double> region_cells;
  for (const GridMask& region : regions) {
    region_cells.push_back(static_cast<double>(region.Count()));
  }
  QuerySpec spec = QuerySpec::MultiRegion(regions, 0);
  spec.eval_path = EvalPath::kSatFastPath;
  auto plan = planner.Plan(spec);
  ASSERT_TRUE(plan.ok());

  const auto publish_marker_epoch = [&] {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
    const float marker = static_cast<float>(staging.generation());
    const Tensor atomic = Tensor::Full({8, 8}, marker);
    for (int l = 1; l <= n_layers; ++l) {
      staging.StageFrame(l, 0, hierarchy.AggregateToLayer(atomic, l));
    }
    epochs.Publish(std::move(staging));
  };
  publish_marker_epoch();

  constexpr int kEpochs = 80;
  constexpr int kReaders = 3;
  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> torn_reads{0};
  std::atomic<int64_t> reads_checked{0};

  std::thread writer([&] {
    for (int i = 0; i < kEpochs; ++i) publish_marker_epoch();
    writer_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int rounds = 0;
      while (!writer_done.load() || rounds < 5) {
        ++rounds;
        EpochGuard guard = epochs.Pin();
        QueryExecutorOptions exec_options;
        exec_options.generation = guard.generation();
        const QueryResult result = executor.Execute(*plan, exec_options);
        const double marker = static_cast<double>(guard.generation());
        for (size_t i = 0; i < result.rows.size(); ++i) {
          ASSERT_TRUE(result.rows[i].ok())
              << "reader " << r << ": "
              << result.rows[i].status().ToString();
          const double expected = region_cells[i] * marker;
          if (std::abs(result.rows[i]->value - expected) >
              1e-6 * (1.0 + std::abs(expected))) {
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
  // Superseded epochs reclaimed frames and planes alike.
  EXPECT_EQ(epochs.live_epochs(), 1);
  const int64_t published = epochs.published_generation();
  EXPECT_EQ(store.NumFramesAt(published), n_layers);
  EXPECT_EQ(store.NumSatPlanesAt(published), n_layers);
}

}  // namespace
}  // namespace one4all
