// Tests for the concurrent region-query engine: multi-region specs run
// by the QueryExecutor (frame memo, thread fan-out, resolve cache) in
// parity with one point spec per region, per-row failure isolation, the
// sharded LRU ResolvedQueryCache, and the ThreadPool substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "eval/task_eval.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::OraclePredictor;
using testing::RandomMask;
using testing::TinyDataset;

constexpr QueryStrategy kAllStrategies[] = {
    QueryStrategy::kDirect, QueryStrategy::kUnion,
    QueryStrategy::kUnionSubtraction};

struct BatchFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;

  explicit BatchFixture(std::vector<double> noise = {1.5, 0.7, 0.2},
                        uint64_t seed = 91)
      : ds(TinyDataset(seed)) {
    OraclePredictor oracle(std::move(noise), seed + 1);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
  }

  /// \brief `num_regions` random non-empty masks.
  std::vector<GridMask> MakeRegions(int num_regions,
                                    uint64_t seed = 700) const {
    std::vector<GridMask> regions;
    for (int i = 0; i < num_regions; ++i) {
      const GridMask region = RandomMask(8, 8, seed + i, 350);
      if (!region.Empty()) regions.push_back(region);
    }
    return regions;
  }

  /// \brief Plans and runs `spec` against the pipeline's server.
  QueryResult Run(QuerySpec spec,
                  const QueryExecutorOptions& options = {}) const {
    auto plan = QueryPlanner(&ds.hierarchy()).Plan(std::move(spec));
    O4A_CHECK(plan.ok()) << plan.status().ToString();
    return QueryExecutor(&pipeline->server()).Execute(*plan, options);
  }
};

/// \brief The server's resolve path with the fingerprint the planner
/// would hand it.
Result<std::shared_ptr<const ResolvedQuery>> ResolveCached(
    const RegionQueryServer& server, const GridMask& region,
    QueryStrategy strategy, ResolvedQueryCache* cache, bool* hit) {
  return server.ResolveCached(region, strategy,
                              FingerprintRegion(region, strategy), cache,
                              hit);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t.store(0);
  pool.ParallelFor(257, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      touched[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleThread) {
  ThreadPool pool(1);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(QueryBatchTest, MultiRegionMatchesPointSpecsAcrossStrategies) {
  BatchFixture fx;
  const auto regions = fx.MakeRegions(6);
  ASSERT_FALSE(regions.empty());
  for (QueryStrategy strategy : kAllStrategies) {
    for (int64_t t : fx.pipeline->test_timesteps()) {
      const QueryResult group =
          fx.Run(QuerySpec::MultiRegion(regions, t, strategy));
      ASSERT_EQ(group.rows.size(), regions.size());
      for (size_t i = 0; i < regions.size(); ++i) {
        const QueryResult point =
            fx.Run(QuerySpec::PointInTime(regions[i], t, strategy));
        ASSERT_TRUE(point.rows[0].ok());
        ASSERT_TRUE(group.rows[i].ok()) << group.rows[i].status().ToString();
        // Bitwise equality: the memoized evaluation sums the same floats
        // in the same order for every row of every spec shape.
        EXPECT_EQ(group.rows[i]->value, point.rows[0]->value)
            << QueryStrategyName(strategy) << " region " << i;
        EXPECT_EQ(group.rows[i]->num_pieces, point.rows[0]->num_pieces);
        EXPECT_EQ(group.rows[i]->num_terms, point.rows[0]->num_terms);
        EXPECT_FALSE(group.rows[i]->from_cache);
      }
    }
  }
}

TEST(QueryBatchTest, MultiThreadedSpecsMatchSingleThreaded) {
  BatchFixture fx;
  const auto regions = fx.MakeRegions(8);
  ThreadPool pool(4);
  QueryExecutorOptions shared_pool;
  shared_pool.pool = &pool;
  QueryExecutorOptions own_threads;
  own_threads.num_threads = 3;
  for (QueryStrategy strategy : kAllStrategies) {
    for (int64_t t : fx.pipeline->test_timesteps()) {
      const QuerySpec spec = QuerySpec::MultiRegion(regions, t, strategy);
      const QueryResult single = fx.Run(spec);
      const QueryResult multi = fx.Run(spec, shared_pool);
      const QueryResult own = fx.Run(spec, own_threads);
      ASSERT_EQ(multi.rows.size(), single.rows.size());
      ASSERT_EQ(own.rows.size(), single.rows.size());
      for (size_t i = 0; i < single.rows.size(); ++i) {
        ASSERT_TRUE(single.rows[i].ok());
        ASSERT_TRUE(multi.rows[i].ok());
        ASSERT_TRUE(own.rows[i].ok());
        EXPECT_EQ(multi.rows[i]->value, single.rows[i]->value);
        EXPECT_EQ(own.rows[i]->value, single.rows[i]->value);
        EXPECT_EQ(own.rows[i]->num_terms, single.rows[i]->num_terms);
      }
    }
  }
}

TEST(QueryBatchTest, CachedSpecsMatchAndHit) {
  BatchFixture fx;
  const auto regions = fx.MakeRegions(5);
  const auto& slots = fx.pipeline->test_timesteps();
  ResolvedQueryCache cache;
  QueryExecutorOptions cached;
  cached.cache = &cache;
  std::vector<QueryResult> plain;
  for (int64_t t : slots) {
    plain.push_back(fx.Run(QuerySpec::MultiRegion(regions, t)));
  }
  int64_t hits = 0, misses = 0;
  for (size_t s = 0; s < slots.size(); ++s) {
    const QueryResult answer =
        fx.Run(QuerySpec::MultiRegion(regions, slots[s]), cached);
    hits += answer.cache_hits;
    misses += answer.cache_misses;
    for (size_t i = 0; i < regions.size(); ++i) {
      ASSERT_TRUE(answer.rows[i].ok());
      EXPECT_EQ(answer.rows[i]->value, plain[s].rows[i]->value);
    }
  }
  // Each distinct region resolves once; every later time slot hits.
  const auto stats = cache.Stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.size, static_cast<size_t>(stats.misses));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<int64_t>(regions.size() * slots.size()));

  // A second pass over the same specs is all hits.
  for (size_t s = 0; s < slots.size(); ++s) {
    const QueryResult again =
        fx.Run(QuerySpec::MultiRegion(regions, slots[s]), cached);
    for (size_t i = 0; i < regions.size(); ++i) {
      ASSERT_TRUE(again.rows[i].ok());
      EXPECT_EQ(again.rows[i]->value, plain[s].rows[i]->value);
      EXPECT_TRUE(again.rows[i]->from_cache);
    }
  }
  const auto stats2 = cache.Stats();
  EXPECT_EQ(stats2.misses, stats.misses);
  EXPECT_EQ(stats2.hits,
            stats.hits + static_cast<int64_t>(regions.size() * slots.size()));
}

TEST(QueryBatchTest, ResolveCachedReportsCacheHitOutParam) {
  BatchFixture fx;
  const GridMask region = RandomMask(8, 8, 4321, 400);
  ASSERT_FALSE(region.Empty());
  const RegionQueryServer& server = fx.pipeline->server();

  // Without a cache: never a hit, even when primed true.
  bool hit = true;
  auto uncached = ResolveCached(
      server, region, QueryStrategy::kUnionSubtraction, nullptr, &hit);
  ASSERT_TRUE(uncached.ok());
  EXPECT_FALSE(hit);

  ResolvedQueryCache cache;
  hit = true;
  auto first = ResolveCached(
      server, region, QueryStrategy::kUnionSubtraction, &cache, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);  // cold cache: a miss

  hit = false;
  auto second = ResolveCached(
      server, region, QueryStrategy::kUnionSubtraction, &cache, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  // The hit returns the same shared resolution, not a re-resolve.
  EXPECT_EQ(second->get(), first->get());

  // A failing resolve reports no hit either; a null out-param is legal.
  hit = true;
  GridMask empty(8, 8);
  auto failed = ResolveCached(
      server, empty, QueryStrategy::kUnionSubtraction, &cache, &hit);
  EXPECT_FALSE(ResolveCached(server, empty,
                             QueryStrategy::kUnionSubtraction, &cache,
                             nullptr)
                   .ok());
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(hit);
}

TEST(QueryBatchTest, CacheKeysDistinguishStrategiesForSameMask) {
  BatchFixture fx;
  // A multi-cell region so Direct / Union / Union&Subtraction genuinely
  // resolve to different term lists.
  GridMask region(8, 8);
  region.FillRect(0, 0, 3, 3);
  region.Set(5, 5, true);
  ResolvedQueryCache cache;
  const RegionQueryServer& server = fx.pipeline->server();

  for (QueryStrategy strategy : kAllStrategies) {
    bool hit = true;
    auto resolved = ResolveCached(server, region, strategy, &cache, &hit);
    ASSERT_TRUE(resolved.ok());
    // No cross-strategy pollution: each first lookup is a miss...
    EXPECT_FALSE(hit) << QueryStrategyName(strategy);
  }
  EXPECT_EQ(cache.Size(), 3u);
  // ...and each strategy's entry replays its own resolution.
  for (QueryStrategy strategy : kAllStrategies) {
    bool hit = false;
    auto cached = ResolveCached(server, region, strategy, &cache, &hit);
    ASSERT_TRUE(cached.ok());
    EXPECT_TRUE(hit);
    auto fresh = server.Resolve(region, strategy);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ((*cached)->terms.size(), fresh->terms.size())
        << QueryStrategyName(strategy);
    for (size_t k = 0; k < fresh->terms.size(); ++k) {
      EXPECT_EQ((*cached)->terms[k], fresh->terms[k]);
    }
  }
}

TEST(ResolvedQueryCacheTest, ResetStatsKeepsEntries) {
  ResolvedQueryCache cache;
  const RegionFingerprint key{7, 70};
  cache.Put(key, std::make_shared<const ResolvedQuery>());
  ASSERT_NE(cache.Get(key), nullptr);
  (void)cache.Get(RegionFingerprint{8, 80});  // a miss
  auto before = cache.Stats();
  EXPECT_EQ(before.hits, 1);
  EXPECT_EQ(before.misses, 1);
  EXPECT_GT(before.hit_rate(), 0.0);

  cache.ResetStats();
  auto after = cache.Stats();
  EXPECT_EQ(after.hits, 0);
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.invalidations, 0);
  // Guarded: zero lookups reads as 0.0, not NaN.
  EXPECT_EQ(after.hit_rate(), 0.0);
  // Warm entries survive — that is the point of warmup isolation.
  EXPECT_EQ(after.size, 1u);
  EXPECT_NE(cache.Get(key), nullptr);
  EXPECT_EQ(cache.Stats().hits, 1);
}

TEST(QueryBatchTest, StrategiesDoNotShareCacheEntries) {
  BatchFixture fx;
  const GridMask region = RandomMask(8, 8, 1234, 400);
  ASSERT_FALSE(region.Empty());
  ResolvedQueryCache cache;
  const RegionQueryServer& server = fx.pipeline->server();
  for (QueryStrategy strategy : kAllStrategies) {
    bool hit = true;
    auto resolved = ResolveCached(server, region, strategy, &cache, &hit);
    ASSERT_TRUE(resolved.ok());
    EXPECT_FALSE(hit) << QueryStrategyName(strategy);
  }
  EXPECT_EQ(cache.Size(), 3u);
}

TEST(QueryBatchTest, ErrorsStayPerRow) {
  BatchFixture fx;
  const RegionQueryServer& server = fx.pipeline->server();
  const int64_t t = fx.pipeline->test_timesteps().front();
  // A store holding only the atomic layer (layer 1) at t: a one-cell
  // region (Direct: one atomic term) answers, a 2x2 block (one layer-2
  // grid) finds no frame — and only its own row fails.
  PredictionStore atomic_only;
  auto frame = server.store()->GetFrame(1, t);
  ASSERT_TRUE(frame.ok());
  atomic_only.SyncFrame(1, t, *frame);
  const RegionQueryServer partial(&fx.ds.hierarchy(), &fx.pipeline->index(),
                                  &atomic_only);
  GridMask cell(8, 8), block(8, 8);
  cell.Set(3, 5, true);
  block.FillRect(2, 2, 4, 4);
  auto plan = QueryPlanner(&fx.ds.hierarchy())
                  .Plan(QuerySpec::MultiRegion({cell, block, cell}, t,
                                               QueryStrategy::kDirect));
  ASSERT_TRUE(plan.ok());
  const QueryResult result = QueryExecutor(&partial).Execute(*plan);
  ASSERT_EQ(result.rows.size(), 3u);
  ASSERT_TRUE(result.rows[0].ok());
  EXPECT_EQ(result.rows[0]->value, static_cast<double>(frame->at(3, 5)));
  EXPECT_EQ(result.rows[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(result.rows[2].ok());
  EXPECT_EQ(result.rows[2]->value, result.rows[0]->value);

  // A structurally invalid region is the caller's bug: the planner
  // rejects the whole spec before anything runs.
  GridMask wrong_extent(3, 3);
  wrong_extent.Set(0, 0, true);
  EXPECT_EQ(QueryPlanner(&fx.ds.hierarchy())
                .Plan(QuerySpec::MultiRegion({cell, wrong_extent}, t))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ResolvedQueryCacheTest, EvictsLeastRecentlyUsed) {
  ResolvedQueryCacheOptions options;
  options.capacity = 2;
  options.num_shards = 1;  // deterministic eviction order
  ResolvedQueryCache cache(options);

  auto entry = [](int pieces) {
    auto rq = std::make_shared<ResolvedQuery>();
    rq->num_pieces = pieces;
    return std::shared_ptr<const ResolvedQuery>(std::move(rq));
  };
  const RegionFingerprint a{1, 10}, b{2, 20}, c{3, 30};
  cache.Put(a, entry(1));
  cache.Put(b, entry(2));
  ASSERT_NE(cache.Get(a), nullptr);  // refresh a; b is now LRU
  cache.Put(c, entry(3));            // evicts b
  EXPECT_EQ(cache.Get(b), nullptr);
  ASSERT_NE(cache.Get(a), nullptr);
  ASSERT_NE(cache.Get(c), nullptr);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2u);
}

TEST(ResolvedQueryCacheTest, FingerprintSeparatesMasksAndStrategies) {
  const GridMask m1 = RandomMask(8, 8, 5, 400);
  GridMask m2 = m1;
  m2.Set(7, 7, !m2.at(7, 7));
  const auto fp1 = FingerprintRegion(m1, QueryStrategy::kUnion);
  const auto fp2 = FingerprintRegion(m2, QueryStrategy::kUnion);
  const auto fp3 = FingerprintRegion(m1, QueryStrategy::kDirect);
  EXPECT_FALSE(fp1 == fp2);
  EXPECT_FALSE(fp1 == fp3);
  EXPECT_TRUE(fp1 == FingerprintRegion(m1, QueryStrategy::kUnion));
}

// The fingerprint mixes only nonzero words, each with its word index, so
// these pin what that sparsity must not lose: edge words, word
// positions, and the raster extent.
TEST(ResolvedQueryCacheTest, SparseFingerprintSeesFirstAndLastWord) {
  // 40x40 = 1600 cells = 25 words; the last cell is bit 63 of word 24.
  const GridMask base = RandomMask(40, 40, 17, 300);
  const auto fp = FingerprintRegion(base, QueryStrategy::kUnionSubtraction);
  for (const auto& [r, c] : {std::make_pair(0, 0), std::make_pair(0, 1),
                             std::make_pair(39, 39), std::make_pair(39, 38)}) {
    GridMask flipped = base;
    flipped.Set(r, c, !flipped.at(r, c));
    EXPECT_FALSE(fp == FingerprintRegion(flipped,
                                         QueryStrategy::kUnionSubtraction))
        << "flip at (" << r << ", " << c << ")";
  }
  GridMask first_only(40, 40), last_only(40, 40);
  first_only.Set(0, 0, true);
  last_only.Set(39, 39, true);
  const auto empty_fp =
      FingerprintRegion(GridMask(40, 40), QueryStrategy::kUnion);
  EXPECT_FALSE(empty_fp == FingerprintRegion(first_only, QueryStrategy::kUnion));
  EXPECT_FALSE(empty_fp == FingerprintRegion(last_only, QueryStrategy::kUnion));
}

TEST(ResolvedQueryCacheTest, SameWordAtDifferentIndicesDiffers) {
  // 16x16 = 4 words. Put the identical bit pattern into each word in
  // turn: every position must fingerprint differently.
  std::vector<RegionFingerprint> fps;
  for (int word = 0; word < 4; ++word) {
    GridMask mask(16, 16);
    for (const int bit : {0, 5, 33, 63}) {
      const int cell = word * 64 + bit;
      mask.Set(cell / 16, cell % 16, true);
    }
    fps.push_back(FingerprintRegion(mask, QueryStrategy::kUnion));
  }
  for (size_t i = 0; i < fps.size(); ++i) {
    for (size_t j = i + 1; j < fps.size(); ++j) {
      EXPECT_FALSE(fps[i] == fps[j]) << "words " << i << " and " << j;
    }
  }
}

TEST(ResolvedQueryCacheTest, EqualWordsOverDifferentExtentsDiffer) {
  // Cell 0 set: word 0 == 1 in all three masks, nothing else nonzero.
  GridMask a(8, 8), b(4, 16), c(8, 16);
  a.Set(0, 0, true);
  b.Set(0, 0, true);
  c.Set(0, 0, true);
  ASSERT_EQ(a.words()[0], b.words()[0]);
  ASSERT_EQ(a.words()[0], c.words()[0]);
  const auto fa = FingerprintRegion(a, QueryStrategy::kUnion);
  const auto fb = FingerprintRegion(b, QueryStrategy::kUnion);
  const auto fc = FingerprintRegion(c, QueryStrategy::kUnion);
  EXPECT_FALSE(fa == fb);
  EXPECT_FALSE(fa == fc);
  EXPECT_FALSE(fb == fc);
}

TEST(ResolvedQueryCacheTest, IdenticalMasksFingerprintEqually) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const GridMask a = RandomMask(33, 65, seed, 250);
    // Same cells, built cell by cell rather than copied.
    GridMask b(33, 65);
    for (int64_t r = 0; r < 33; ++r) {
      for (int64_t c = 0; c < 65; ++c) b.Set(r, c, a.at(r, c));
    }
    for (QueryStrategy strategy : kAllStrategies) {
      const auto fa = FingerprintRegion(a, strategy);
      const auto fb = FingerprintRegion(b, strategy);
      EXPECT_TRUE(fa == fb);
      EXPECT_EQ(RegionFingerprintHash()(fa), RegionFingerprintHash()(fb));
    }
  }
}

TEST(ResolvedQueryCacheTest, ConcurrentGetPutIsSafe) {
  ResolvedQueryCacheOptions options;
  options.capacity = 64;
  options.num_shards = 4;
  ResolvedQueryCache cache(options);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&cache, w] {
      for (int i = 0; i < 500; ++i) {
        RegionFingerprint key{static_cast<uint64_t>(i % 100),
                              static_cast<uint64_t>((i + w) % 50)};
        if (auto hit = cache.Get(key)) {
          EXPECT_GE(hit->num_pieces, 0);
        } else {
          auto rq = std::make_shared<ResolvedQuery>();
          rq->num_pieces = i;
          cache.Put(key, std::move(rq));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.Size(), 64u);
}

}  // namespace
}  // namespace one4all
