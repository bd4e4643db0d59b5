// Tests for the sharded serving subsystem (src/shard): band-partition
// geometry, the two-phase epoch barrier (including the TSan-hammered
// concurrent publish-vs-pin loop), abort-all staging under injected
// write faults — and the headline contract: N-shard answers are
// bit-identical to the single-shard path for every spec shape,
// straddling regions, top-k tie order and failure statuses included.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "data/synthetic.h"
#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "serve/serving_runtime.h"
#include "shard/shard_executor.h"
#include "shard/shard_map.h"
#include "shard/shard_set.h"
#include "test_util.h"

namespace one4all {
namespace {

// ---------------------------------------------------------------------------
// ShardMap geometry

TEST(ShardMapTest, BandsPartitionAtomicRows) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  for (int n : {1, 2, 3, 4, 5, 16}) {
    ShardMap map = ShardMap::Create(&hierarchy, n);
    ASSERT_EQ(map.num_shards(), n);
    EXPECT_EQ(map.AtomicRowBegin(0), 0);
    for (int64_t r = 0; r < 16; ++r) {
      const int owner = map.OwnerOfAtomicRow(r);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, n);
      EXPECT_GE(r, map.AtomicRowBegin(owner));
      if (owner + 1 < n) {
        EXPECT_LT(r, map.AtomicRowBegin(owner + 1));
      }
    }
    // Owners are non-decreasing in row: contiguous bands.
    for (int64_t r = 1; r < 16; ++r) {
      EXPECT_GE(map.OwnerOfAtomicRow(r), map.OwnerOfAtomicRow(r - 1));
    }
  }
}

TEST(ShardMapTest, ClampsShardCountToAtomicHeight) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 8);
  ShardMap map = ShardMap::Create(&hierarchy, 64);
  EXPECT_EQ(map.num_shards(), 8);
  EXPECT_EQ(ShardMap::Create(&hierarchy, 0).num_shards(), 1);
  EXPECT_EQ(ShardMap::Create(&hierarchy, -3).num_shards(), 1);
}

TEST(ShardMapTest, LayerSlicesAreDisjointAndCovering) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  for (int n : {2, 3, 4, 7}) {
    ShardMap map = ShardMap::Create(&hierarchy, n);
    for (int l = 1; l <= hierarchy.num_layers(); ++l) {
      int64_t next_row = 0;
      for (int k = 0; k < n; ++k) {
        const ShardLayerSlice& slice = map.SliceOf(k, l);
        EXPECT_EQ(slice.row_begin, next_row)
            << "layer " << l << " shard " << k;
        EXPECT_GE(slice.row_end, slice.row_begin);
        next_row = slice.row_end;
      }
      EXPECT_EQ(next_row, hierarchy.layer(l).height) << "layer " << l;
      // Ownership agrees with the slices: every cell's owner's slice
      // contains its row.
      for (int64_t r = 0; r < hierarchy.layer(l).height; ++r) {
        const int owner = map.OwnerOf(GridId{l, r, 0});
        const ShardLayerSlice& slice = map.SliceOf(owner, l);
        EXPECT_GE(r, slice.row_begin);
        EXPECT_LT(r, slice.row_end);
      }
    }
    // The coarsest layer (1 cell spanning the whole grid) anchors at
    // atomic row 0, so it is wholly shard 0's.
    const int top = hierarchy.num_layers();
    EXPECT_EQ(map.OwnerOf(GridId{top, 0, 0}), 0);
  }
}

TEST(ShardMapTest, SliceFrameCopiesOwnedRows) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardMap map = ShardMap::Create(&hierarchy, 3);
  const int layer = 2;  // 8x8
  const LayerInfo& info = hierarchy.layer(layer);
  Tensor frame({info.height, info.width});
  for (int64_t r = 0; r < info.height; ++r) {
    for (int64_t c = 0; c < info.width; ++c) {
      frame.at(r, c) = static_cast<float>(r * 100 + c);
    }
  }
  for (int k = 0; k < 3; ++k) {
    const ShardLayerSlice& slice = map.SliceOf(k, layer);
    Tensor band = map.SliceFrame(k, layer, frame);
    if (slice.empty()) {
      EXPECT_EQ(band.numel(), 0);
      continue;
    }
    ASSERT_EQ(band.dim(0), slice.num_rows());
    ASSERT_EQ(band.dim(1), info.width);
    for (int64_t r = 0; r < slice.num_rows(); ++r) {
      for (int64_t c = 0; c < info.width; ++c) {
        EXPECT_EQ(band.at(r, c), frame.at(slice.row_begin + r, c));
      }
    }
  }
}

TEST(ShardMapTest, SplitRegionCellsAccountsEveryCell) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardMap map = ShardMap::Create(&hierarchy, 4);
  GridMask region(16, 16);
  region.FillRect(2, 3, 14, 9);  // straddles all four 4-row bands
  const std::vector<int64_t> split = map.SplitRegionCells(region);
  ASSERT_EQ(split.size(), 4u);
  int64_t total = 0;
  for (const int64_t cells : split) total += cells;
  EXPECT_EQ(total, region.Count());
  for (int k = 0; k < 4; ++k) EXPECT_GT(split[k], 0) << "shard " << k;
}

TEST(ShardMapTest, HomeShardIsTheFirstSetRowsOwner) {
  // 20 x 37 = 740 cells: rows straddle the 64-cell mask words.
  Hierarchy hierarchy = Hierarchy::Uniform(20, 37, 2, 4);
  ShardMap map = ShardMap::Create(&hierarchy, 3);
  for (int64_t first = 0; first < 20 * 37; first += 23) {
    GridMask region(20, 37);
    region.Set(first / 37, first % 37, true);
    region.Set(19, 36, true);  // a later cell never moves the home
    EXPECT_EQ(map.HomeShard(region), map.OwnerOfAtomicRow(first / 37))
        << "first set cell " << first;
  }
}

// ---------------------------------------------------------------------------
// ShardSet: barrier publish, pins, faults

std::vector<Tensor> MakeLayerFrames(const Hierarchy& hierarchy, int64_t t) {
  std::vector<Tensor> frames;
  for (int l = 1; l <= hierarchy.num_layers(); ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    Tensor frame({info.height, info.width});
    for (int64_t i = 0; i < frame.numel(); ++i) {
      frame.data()[i] = static_cast<float>(t * 1000 + l);
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

TEST(ShardSetTest, BarrierPublishesAllShardsAtomically) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardSet set(&hierarchy, 4, nullptr, ShardSetOptions{});
  EXPECT_EQ(set.published_latest_t(), -1);
  for (int64_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(set.StageAndPublish(t, MakeLayerFrames(hierarchy, t),
                                    /*carry_forward=*/true, nullptr)
                    .ok());
  }
  EXPECT_EQ(set.published_latest_t(), 2);
  EXPECT_TRUE(set.Consistent());
  ShardPinSet pins = set.PinAll();
  ASSERT_TRUE(pins.pinned());
  EXPECT_EQ(pins.latest_t(), 2);
  // Every shard serves its band slice of every timestep (carry-forward),
  // at the generation the pin names.
  for (int k = 0; k < set.num_shards(); ++k) {
    for (int64_t t = 0; t < 3; ++t) {
      auto frame = set.shard(k).store.GetFrameAt(pins.generation(k), 1, t);
      ASSERT_TRUE(frame.ok()) << "shard " << k << " t " << t;
      EXPECT_EQ(frame->at(0, 0), static_cast<float>(t * 1000 + 1));
      EXPECT_EQ(frame->dim(0), set.map().SliceOf(k, 1).num_rows());
    }
  }
}

// The incremental-staging parity pin: publishing a churn stream through
// the dirty-carrying StageAndPublish must leave an N-shard set serving
// exactly the same values as N=1 — per-band dirty slicing, delta-staged
// bands and CoW aliasing included. Bit-exact, not approximately equal:
// clean tiles are the previous epoch's bytes and dirty tiles are staged
// by the same full-copy path both topologies share.
TEST(ShardParityTest, IncrementalStagingBitExactAcrossShardCounts) {
  Hierarchy hierarchy = Hierarchy::Uniform(64, 64, 2, 16);
  const int num_layers = hierarchy.num_layers();
  ShardSet set1(&hierarchy, 1, nullptr, ShardSetOptions{});
  ShardSet set4(&hierarchy, 4, nullptr, ShardSetOptions{});

  std::vector<Tensor> prev;
  for (int l = 1; l <= num_layers; ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    Rng rng(100 + static_cast<uint64_t>(l));
    prev.push_back(
        Tensor::RandomUniform({info.height, info.width}, &rng, 0.0f, 8.0f));
  }
  ASSERT_TRUE(set1.StageAndPublish(0, prev, nullptr, true, nullptr).ok());
  ASSERT_TRUE(set4.StageAndPublish(0, prev, nullptr, true, nullptr).ok());

  constexpr int64_t kSteps = 5;
  for (int64_t t = 1; t <= kSteps; ++t) {
    std::vector<Tensor> next;
    DirtyTileSets dirty;
    for (int l = 1; l <= num_layers; ++l) {
      const LayerInfo& info = hierarchy.layer(l);
      Tensor frame = prev[static_cast<size_t>(l) - 1];
      // One small localized rect of churn per layer per step.
      const int64_t r0 = (t * 7) % std::max<int64_t>(info.height - 3, 1);
      const int64_t c0 = (t * 11) % std::max<int64_t>(info.width - 3, 1);
      for (int64_t r = r0; r < std::min(r0 + 4, info.height); ++r) {
        for (int64_t c = c0; c < std::min(c0 + 4, info.width); ++c) {
          frame.data()[r * info.width + c] += static_cast<float>(t + l);
        }
      }
      dirty.push_back(DiffFrames(frame, prev[static_cast<size_t>(l) - 1]));
      EXPECT_TRUE(dirty.back().AnyDirty());
      next.push_back(std::move(frame));
    }
    ASSERT_TRUE(set1.StageAndPublish(t, next, &dirty, true, nullptr).ok());
    ASSERT_TRUE(set4.StageAndPublish(t, next, &dirty, true, nullptr).ok());
    prev = std::move(next);
  }

  ShardPinSet pins1 = set1.PinAll();
  ShardPinSet pins4 = set4.PinAll();
  ASSERT_TRUE(pins1.pinned() && pins4.pinned());
  for (int l = 1; l <= num_layers; ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    for (int64_t t = 0; t <= kSteps; ++t) {
      auto whole = set1.shard(0).store.GetFrameAt(pins1.generation(0), l, t);
      ASSERT_TRUE(whole.ok()) << "layer " << l << " t " << t;
      for (int k = 0; k < set4.num_shards(); ++k) {
        const ShardLayerSlice& slice = set4.map().SliceOf(k, l);
        if (slice.empty()) continue;
        auto band =
            set4.shard(k).store.GetFrameAt(pins4.generation(k), l, t);
        ASSERT_TRUE(band.ok()) << "shard " << k << " layer " << l;
        for (int64_t r = 0; r < slice.num_rows(); ++r) {
          for (int64_t c = 0; c < info.width; ++c) {
            ASSERT_EQ(band->at(r, c), whole->at(slice.row_begin + r, c))
                << "shard " << k << " layer " << l << " t " << t;
          }
        }
      }
    }
  }

  // Both topologies really took the CoW path: within the published
  // generation, consecutive timesteps share the clean tiles' blocks.
  auto count_shared = [&](ShardSet& set, const ShardPinSet& pins) {
    int64_t shared = 0;
    for (int k = 0; k < set.num_shards(); ++k) {
      auto a = set.shard(k).store.GetTiledFrameAt(pins.generation(k), 1,
                                                  kSteps - 1);
      auto b =
          set.shard(k).store.GetTiledFrameAt(pins.generation(k), 1, kSteps);
      if (!a.ok() || !b.ok()) continue;
      for (int64_t i = 0; i < (*a)->tiles_h(); ++i) {
        for (int64_t j = 0; j < (*a)->tiles_w(); ++j) {
          if ((*b)->SharesBlockWith(**a, i, j)) ++shared;
        }
      }
    }
    return shared;
  };
  EXPECT_GT(count_shared(set1, pins1), 0);
  EXPECT_GT(count_shared(set4, pins4), 0);
}

TEST(ShardSetTest, WriteFaultAbortsAllShardsAndRecovers) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardSet set(&hierarchy, 3, nullptr, ShardSetOptions{});
  ASSERT_TRUE(set.StageAndPublish(0, MakeLayerFrames(hierarchy, 0), true,
                                  nullptr)
                  .ok());
  set.SetWriteFault(Status::IOError("injected"));
  const Status refused = set.StageAndPublish(
      1, MakeLayerFrames(hierarchy, 1), true, nullptr);
  EXPECT_FALSE(refused.ok());
  // Nothing flipped: every shard still serves t=0, and the aborted
  // shadow generations were reclaimed (one live epoch per shard).
  EXPECT_EQ(set.published_latest_t(), 0);
  EXPECT_TRUE(set.Consistent());
  EXPECT_EQ(set.max_live_epochs(), 1);
  set.ClearWriteFault();
  ASSERT_TRUE(set.StageAndPublish(1, MakeLayerFrames(hierarchy, 1), true,
                                  nullptr)
                  .ok());
  EXPECT_EQ(set.published_latest_t(), 1);
}

// The barrier hammer: one writer flips epochs in a tight loop while
// reader threads pin all shards and verify — by reading actual frame
// data from every shard — that a pin set never mixes two timesteps.
// Run under TSan in CI; the seqlock and the pin path are the code under
// test.
TEST(ShardSetTest, ConcurrentPinNeverObservesTornEpoch) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardSet set(&hierarchy, 4, nullptr, ShardSetOptions{});
  constexpr int64_t kSteps = 60;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        ShardPinSet pins = set.PinAll();
        const int64_t t = pins.latest_t();
        if (t < 0) continue;  // nothing published yet
        for (int k = 0; k < set.num_shards(); ++k) {
          auto frame =
              set.shard(k).store.GetFrameAt(pins.generation(k), 1, t);
          if (!frame.ok() ||
              frame->at(0, 0) != static_cast<float>(t * 1000 + 1)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int64_t t = 0; t < kSteps; ++t) {
    ASSERT_TRUE(set.StageAndPublish(t, MakeLayerFrames(hierarchy, t),
                                    /*carry_forward=*/true, nullptr)
                    .ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(set.torn_pins(), 0);
  EXPECT_TRUE(set.Consistent());
  EXPECT_EQ(set.published_latest_t(), kSteps - 1);
}

// ---------------------------------------------------------------------------
// Scatter-gather parity: N shards bit-exact vs the single-shard path

struct ShardFixture {
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;

  static ShardFixture Make(uint64_t seed = 11) {
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

    ShardFixture fixture;
    fixture.dataset =
        std::make_unique<STDataset>(dataset.MoveValueUnsafe());
    HistoryMeanPredictor hm;
    fixture.pipeline =
        MauPipeline::Build(&hm, *fixture.dataset, SearchOptions{});

    RegionGeneratorOptions region_options;
    region_options.style = RegionStyle::kVoronoi;
    region_options.mean_cells = 12.0;
    region_options.seed = 23;
    fixture.regions = GenerateRegions(16, 16, region_options);
    EXPECT_GE(fixture.regions.size(), 4u);
    // Band-straddling rectangles: tall slabs crossing every boundary any
    // N in {2, 3, 4} can draw on a 16-row raster.
    GridMask tall(16, 16);
    tall.FillRect(1, 2, 15, 6);
    fixture.regions.push_back(tall);
    GridMask wide(16, 16);
    wide.FillRect(6, 0, 10, 16);
    fixture.regions.push_back(wide);
    return fixture;
  }

  std::unique_ptr<ServingRuntime> MakeRuntime(
      int num_shards, ServingRuntimeOptions options = {}) const {
    options.ingest.start_t = dataset->test_indices().front();
    options.ingest.num_timesteps =
        static_cast<int64_t>(dataset->test_indices().size());
    options.num_shards = num_shards;
    auto runtime = std::make_unique<ServingRuntime>(
        &dataset->hierarchy(), &pipeline->index(), dataset.get(),
        MakeGroundTruthInference(dataset.get()), options);
    runtime->Start();
    EXPECT_TRUE(runtime->ingestor().WaitUntilPublished(
        options.ingest.start_t + options.ingest.num_timesteps - 1));
    return runtime;
  }
};

void ExpectBitExactRows(const QueryResult& single, const QueryResult& shard,
                        const char* what) {
  ASSERT_EQ(single.rows.size(), shard.rows.size()) << what;
  for (size_t i = 0; i < single.rows.size(); ++i) {
    ASSERT_EQ(single.rows[i].ok(), shard.rows[i].ok()) << what << " row "
                                                       << i;
    if (!single.rows[i].ok()) continue;
    // Bit-exact, not approximately equal: the sharded merge re-folds in
    // canonical term order, so the doubles must be identical.
    EXPECT_EQ(single.rows[i]->value, shard.rows[i]->value)
        << what << " row " << i;
    ASSERT_EQ(single.rows[i]->series.size(), shard.rows[i]->series.size())
        << what << " row " << i;
    for (size_t s = 0; s < single.rows[i]->series.size(); ++s) {
      EXPECT_EQ(single.rows[i]->series[s], shard.rows[i]->series[s])
          << what << " row " << i << " step " << s;
    }
    EXPECT_EQ(single.rows[i]->num_terms, shard.rows[i]->num_terms)
        << what << " row " << i;
    EXPECT_EQ(single.rows[i]->num_pieces, shard.rows[i]->num_pieces)
        << what << " row " << i;
  }
  EXPECT_EQ(single.top_k, shard.top_k) << what;
}

TEST(ShardParityTest, AllSpecShapesBitExactAcrossShardCounts) {
  ShardFixture fixture = ShardFixture::Make();
  auto single = fixture.MakeRuntime(1);
  const int64_t t0 = fixture.dataset->test_indices().front();
  const int64_t t1 = t0 + 7;

  std::mt19937_64 rng(1234);
  for (int num_shards : {2, 3, 4}) {
    auto sharded = fixture.MakeRuntime(num_shards);
    ASSERT_TRUE(sharded->sharded());
    ASSERT_EQ(sharded->num_shards(), num_shards);
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));

    for (int round = 0; round < 6; ++round) {
      const GridMask& region = fixture.regions[rng() % fixture.regions.size()];
      const int64_t t = t0 + static_cast<int64_t>(rng() % 8);

      // Shape 1: point-in-time.
      auto sp = single->ExecuteSpec(QuerySpec::PointInTime(region, t));
      auto hp = sharded->ExecuteSpec(QuerySpec::PointInTime(region, t));
      ASSERT_TRUE(sp.ok() && hp.ok());
      ExpectBitExactRows(*sp, *hp, "point");

      // Shape 2: time-range (each aggregation fold).
      for (TimeAggregation agg : {TimeAggregation::kSum,
                                  TimeAggregation::kMean,
                                  TimeAggregation::kMax}) {
        QuerySpec range_spec = QuerySpec::TimeRange(region, t0, t1, agg);
        range_spec.keep_series = true;
        QuerySpec range_copy = range_spec;
        auto sr = single->ExecuteSpec(std::move(range_spec));
        auto hr = sharded->ExecuteSpec(std::move(range_copy));
        ASSERT_TRUE(sr.ok() && hr.ok());
        ExpectBitExactRows(*sr, *hr, "range");
      }

      // Shape 3: multi-region (the full region set at once).
      auto sm = single->ExecuteSpec(
          QuerySpec::MultiRegion(fixture.regions, t));
      auto hm = sharded->ExecuteSpec(
          QuerySpec::MultiRegion(fixture.regions, t));
      ASSERT_TRUE(sm.ok() && hm.ok());
      ExpectBitExactRows(*sm, *hm, "multi");

      // Shape 4: top-k, with duplicated regions forcing exact value
      // ties — rank order (ties toward the lower index) must survive
      // sharding.
      std::vector<GridMask> tied = fixture.regions;
      tied.push_back(tied[0]);
      tied.push_back(tied[1]);
      tied.push_back(tied[0]);
      auto st = single->ExecuteSpec(
          QuerySpec::TopK(tied, t, static_cast<int>(tied.size())));
      auto ht = sharded->ExecuteSpec(
          QuerySpec::TopK(tied, t, static_cast<int>(tied.size())));
      ASSERT_TRUE(st.ok() && ht.ok());
      ExpectBitExactRows(*st, *ht, "topk");
    }

    // Failure parity: a timestep past the served window fails every row
    // on both topologies, with the same status.
    const int64_t beyond = fixture.dataset->test_indices().back() + 1;
    auto sf = single->ExecuteSpec(
        QuerySpec::MultiRegion(fixture.regions, beyond));
    auto hf = sharded->ExecuteSpec(
        QuerySpec::MultiRegion(fixture.regions, beyond));
    ASSERT_TRUE(sf.ok() && hf.ok());
    ASSERT_EQ(sf->rows.size(), hf->rows.size());
    for (size_t i = 0; i < sf->rows.size(); ++i) {
      ASSERT_FALSE(sf->rows[i].ok()) << "row " << i;
      ASSERT_FALSE(hf->rows[i].ok()) << "row " << i;
      EXPECT_EQ(sf->rows[i].status().code(), StatusCode::kNotFound);
      EXPECT_EQ(hf->rows[i].status().ToString(),
                sf->rows[i].status().ToString());
    }

    EXPECT_TRUE(sharded->CrossShardConsistent());
    sharded->Stop();
  }
}

TEST(ShardParityTest, FannedOutShardedExecutionMatchesOneShard) {
  ShardFixture fixture = ShardFixture::Make();
  ServingRuntimeOptions single_options;
  single_options.num_query_threads = 1;
  single_options.max_inflight_queries = 1 << 20;
  auto single = fixture.MakeRuntime(1, single_options);
  ServingRuntimeOptions sharded_options;  // num_query_threads = 0
  sharded_options.max_inflight_queries = 1 << 20;
  auto sharded = fixture.MakeRuntime(3, sharded_options);
  ASSERT_TRUE(sharded->sharded());

  // The region set listed 32 times (duplicates force exact value ties)
  // over 8 timesteps: enough term reads for the gather stage to fan out.
  std::vector<GridMask> regions;
  for (int copy = 0; copy < 32; ++copy) {
    regions.insert(regions.end(), fixture.regions.begin(),
                   fixture.regions.end());
  }
  const int64_t t0 = fixture.dataset->test_indices().front();
  QuerySpec multi = QuerySpec::MultiRegion(regions, t0);
  multi.time = TimeSelector::Range(t0, t0 + 7);
  multi.keep_series = true;
  QuerySpec topk = multi;
  topk.kind = QuerySpecKind::kTopK;
  topk.top_k = static_cast<int>(regions.size());

  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  for (const QuerySpec& spec : {multi, topk}) {
    auto expected = single->ExecuteSpec(QuerySpec(spec));
    ASSERT_TRUE(expected.ok());
    const int64_t before = pool.chunks_fanned_out();
    auto fanned = sharded->ExecuteSpec(QuerySpec(spec));
    ASSERT_TRUE(fanned.ok());
    EXPECT_GT(pool.chunks_fanned_out() - before, 1);
    ExpectBitExactRows(*expected, *fanned,
                       spec.kind == QuerySpecKind::kTopK ? "topk" : "multi");
  }
  EXPECT_TRUE(sharded->CrossShardConsistent());
  sharded->Stop();
  single->Stop();
}

TEST(ShardParityTest, ShardedRuntimeServesConsistentTelemetry) {
  ShardFixture fixture = ShardFixture::Make(29);
  auto runtime = fixture.MakeRuntime(4);
  const int64_t t = fixture.dataset->test_indices().front();
  for (int i = 0; i < 4; ++i) {
    auto result = runtime->ExecuteSpec(
        QuerySpec::MultiRegion(fixture.regions, t + i));
    ASSERT_TRUE(result.ok());
    for (const auto& row : result->rows) ASSERT_TRUE(row.ok());
  }
  const ServingTelemetrySnapshot snapshot = runtime->Telemetry();
  // One barrier flip per timestep — not one per shard per timestep.
  EXPECT_EQ(snapshot.epochs_published,
            static_cast<int64_t>(fixture.dataset->test_indices().size()));
  EXPECT_GT(snapshot.queries_served, 0);
  // Per-shard metrics render into the exposition with shard labels.
  const std::string exposition =
      runtime->telemetry().registry().ExpositionText();
  EXPECT_NE(exposition.find("one4all_shard_epochs_published_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("one4all_shard_publish_lag_ms{shard=\"3\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("one4all_shard_torn_pins"), std::string::npos);
  EXPECT_TRUE(MetricsRegistry::ValidateExposition(exposition).ok());
  EXPECT_TRUE(runtime->CrossShardConsistent());
}

// A runtime over the fixture's test window with its own inference and
// trace sink (null: the global recorder), for tests that need either.
std::unique_ptr<ServingRuntime> MakeShardRuntime(const ShardFixture& fixture,
                                                 int num_shards,
                                                 FrameInference inference,
                                                 TraceRecorder* trace) {
  const std::vector<int64_t>& test = fixture.dataset->test_indices();
  ServingRuntimeOptions options;
  options.ingest.start_t = test.front();
  options.ingest.num_timesteps = static_cast<int64_t>(test.size());
  options.num_shards = num_shards;
  options.trace = trace;
  auto runtime = std::make_unique<ServingRuntime>(
      &fixture.dataset->hierarchy(), &fixture.pipeline->index(),
      fixture.dataset.get(), std::move(inference), options);
  runtime->Start();
  EXPECT_TRUE(runtime->ingestor().WaitUntilPublished(test.back()));
  return runtime;
}

// Failure parity inside a row's window: a time range from the newest
// published timestep into unpublished ones serves its first step, then
// fails at the first failing term of the first unpublished step — with
// the same status on every topology.
TEST(ShardParityTest, RangeIntoUnpublishedStepsFailsAlikeAcrossShardCounts) {
  ShardFixture fixture = ShardFixture::Make();
  auto single = fixture.MakeRuntime(1);
  const int64_t newest = fixture.dataset->test_indices().back();
  ASSERT_EQ(single->published_latest_t(), newest);
  for (int num_shards : {2, 3}) {
    auto sharded = fixture.MakeRuntime(num_shards);
    ASSERT_EQ(sharded->published_latest_t(), newest);
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    for (const GridMask& region : fixture.regions) {
      auto sr = single->ExecuteSpec(QuerySpec::TimeRange(
          region, newest, newest + 2, TimeAggregation::kSum));
      auto hr = sharded->ExecuteSpec(QuerySpec::TimeRange(
          region, newest, newest + 2, TimeAggregation::kSum));
      ASSERT_TRUE(sr.ok() && hr.ok());
      ASSERT_EQ(sr->rows.size(), 1u);
      ASSERT_EQ(hr->rows.size(), 1u);
      ASSERT_FALSE(sr->rows[0].ok());
      EXPECT_EQ(sr->rows[0].status().code(), StatusCode::kNotFound);
      EXPECT_EQ(hr->rows[0].status().ToString(),
                sr->rows[0].status().ToString());
    }
    sharded->Stop();
  }
}

// Multi-band plans run the exact cell loop: a kSatFastPath spec on a
// 3-shard runtime answers bit-identically to N=1's exact loop, and so
// within 1e-9 of N=1's fast path.
TEST(ShardParityTest, FastPathSpecRunsTheExactLoopWhenSharded) {
  ShardFixture fixture = ShardFixture::Make();
  auto single = fixture.MakeRuntime(1);
  auto sharded = fixture.MakeRuntime(3);
  ASSERT_EQ(sharded->num_shards(), 3);
  const int64_t t0 = fixture.dataset->test_indices().front();

  auto run = [&](ServingRuntime* runtime, QuerySpec spec, EvalPath path) {
    spec.eval_path = path;
    auto result = runtime->ExecuteSpec(std::move(spec));
    EXPECT_TRUE(result.ok());
    return result.MoveValueUnsafe();
  };
  QuerySpec range =
      QuerySpec::TimeRange(fixture.regions.back(), t0, t0 + 5,
                           TimeAggregation::kMean);
  range.keep_series = true;
  for (const QuerySpec& spec :
       {QuerySpec::MultiRegion(fixture.regions, t0 + 2), range}) {
    const QueryResult exact =
        run(single.get(), spec, EvalPath::kExactCellLoop);
    const QueryResult fast = run(single.get(), spec, EvalPath::kSatFastPath);
    const QueryResult shard_fast =
        run(sharded.get(), spec, EvalPath::kSatFastPath);
    ExpectBitExactRows(exact, shard_fast, "sharded fast-path spec");
    ASSERT_EQ(fast.rows.size(), shard_fast.rows.size());
    for (size_t i = 0; i < fast.rows.size(); ++i) {
      ASSERT_TRUE(fast.rows[i].ok() && shard_fast.rows[i].ok());
      EXPECT_NEAR(shard_fast.rows[i]->value, fast.rows[i]->value,
                  1e-9 * (1.0 + std::abs(fast.rows[i]->value)))
          << "row " << i;
    }
  }
  sharded->Stop();
}

// The top-k memo serves sharded runtimes too: the barrier hands
// TopKMemo::OnPublish the full-raster dirty sets, so a subscription
// re-issued at t..t+3 carries the same rows over on every topology and
// still answers bit-identically to N=1.
TEST(ShardParityTest, TopKSubscriptionReusesRowsAcrossShardCounts) {
  ShardFixture fixture = ShardFixture::Make();
  const std::vector<int64_t>& test = fixture.dataset->test_indices();
  ASSERT_GE(test.size(), 4u);
  const int64_t start = test.front();
  // Every truth frame is served for two timesteps in a row, so each
  // second publish dirties nothing and the memo can prove rows clean.
  const FrameInference truth = MakeGroundTruthInference(fixture.dataset.get());
  const FrameInference paired =
      [truth, start](int64_t t, const TemporalInput& input) {
        return truth(t - (t - start) % 2, input);
      };
  // The newest even-offset window of four steps: its publishes are all
  // inside the memo's history.
  const int64_t t0 =
      start + ((static_cast<int64_t>(test.size()) - 4) & ~int64_t{1});
  const int k = 4;

  auto single = MakeShardRuntime(fixture, 1, paired, nullptr);
  std::vector<QueryResult> expected;
  for (int64_t t = t0; t <= t0 + 3; ++t) {
    auto result = single->ExecuteSpec(QuerySpec::TopK(fixture.regions, t, k));
    ASSERT_TRUE(result.ok());
    expected.push_back(result.MoveValueUnsafe());
  }
  for (int num_shards : {2, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    auto sharded = MakeShardRuntime(fixture, num_shards, paired, nullptr);
    ASSERT_TRUE(sharded->sharded());
    for (int64_t t = t0; t <= t0 + 3; ++t) {
      auto result =
          sharded->ExecuteSpec(QuerySpec::TopK(fixture.regions, t, k));
      ASSERT_TRUE(result.ok());
      ExpectBitExactRows(expected[static_cast<size_t>(t - t0)], *result,
                         "topk subscription");
    }
    EXPECT_GT(sharded->topk_memo().rows_reused(), 0);
    EXPECT_EQ(sharded->topk_memo().rows_reused(),
              single->topk_memo().rows_reused());
    EXPECT_EQ(sharded->topk_memo().rows_reevaluated(),
              single->topk_memo().rows_reevaluated());
    sharded->Stop();
  }
  single->Stop();
}

// Sharded queries are traced like unsharded ones: the same query-path
// stage spans (plus the barrier's pin wait), none of the retired
// scatter/merge span values, and every band's term reads counted.
TEST(ShardParityTest, ShardedQueriesEmitTheUnshardedStageSpans) {
  ShardFixture fixture = ShardFixture::Make();
  const int64_t t = fixture.dataset->test_indices().front();
  std::set<int> unsharded_names;
  for (int num_shards : {1, 3}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    TraceRecorderOptions trace_options;
    trace_options.sample_every_n = 1;
    TraceRecorder recorder(trace_options);
    auto runtime = MakeShardRuntime(
        fixture, num_shards, MakeGroundTruthInference(fixture.dataset.get()),
        &recorder);
    auto result =
        runtime->ExecuteSpec(QuerySpec::TopK(fixture.regions, t, 3));
    ASSERT_TRUE(result.ok());
    std::set<int> names;
    for (const TraceEvent& event : recorder.Snapshot()) {
      if (event.category == static_cast<uint8_t>(SpanCategory::kQuery)) {
        names.insert(event.name);
      }
    }
    for (SpanName stage : {SpanName::kQuery, SpanName::kPlan,
                           SpanName::kEpochPin, SpanName::kResolve,
                           SpanName::kCacheProbe, SpanName::kGather,
                           SpanName::kFold, SpanName::kRank}) {
      EXPECT_EQ(names.count(static_cast<int>(stage)), 1u)
          << SpanNameString(stage);
    }
    EXPECT_EQ(names.count(15), 0u);
    EXPECT_EQ(names.count(16), 0u);
    if (num_shards == 1) {
      unsharded_names = names;
      continue;
    }
    names.erase(static_cast<int>(SpanName::kBarrierWait));
    EXPECT_EQ(names, unsharded_names);
    int64_t term_reads = 0;
    for (int k = 0; k < num_shards; ++k) {
      term_reads += runtime->shards()->shard(k).terms_evaluated.value();
    }
    int64_t expected_reads = 0;
    for (const auto& row : result->rows) {
      ASSERT_TRUE(row.ok());
      expected_reads += row->num_terms;
    }
    EXPECT_EQ(term_reads, expected_reads);
    runtime->Stop();
  }
}

}  // namespace
}  // namespace one4all
