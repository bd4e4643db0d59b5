// Tests for the zero-copy tiled read path: the query executors read
// prediction cells in place out of the store's TiledFrames (FrameMemo,
// the fast path's frame table and compiled (tile, in-tile offset)
// residues, TiledFrame::RectSum as the no-plane fallback) instead of
// materializing whole frames. Covered here on layer extents that are not
// multiples of the 32-cell tile, so ragged edge tiles are exercised:
//   - the exact cell loop over tiled reads is bit-identical to a per-term
//     MaskedSum over materialized GetFrameAt frames (the oracle);
//   - tile-coordinate residues reproduce the flat-offset sums bit for
//     bit and, with the rects, cover exactly the resolved terms;
//   - the SAT fast path stays within 1e-9 of the exact path, with and
//     without published planes;
//   - raw tile pointers taken under an epoch pin stay valid while
//     concurrent publishes retire and reclaim that generation (raced
//     under TSan and checked under ASan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "eval/task_eval.h"
#include "query/gather_program.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "serve/epoch_manager.h"
#include "serve/telemetry.h"
#include "tensor/tiled_sat.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::OraclePredictor;
using testing::RandomMask;
using testing::TinyDataset;

/// A pipeline over an h x w raster (P = {1, 2, 4}: every layer extent is
/// ragged against the 32-cell tile for the extents used here) plus a
/// region mix of random masks and axis-aligned rects.
struct RaggedFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;

  RaggedFixture(int64_t h, int64_t w, uint64_t seed)
      : ds(TinyDataset(seed, h, w)) {
    OraclePredictor oracle({1.5, 0.7, 0.2, 0.1}, seed + 1);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
    for (int i = 0; i < 4; ++i) {
      const GridMask region = RandomMask(h, w, seed * 10 + i, 400);
      if (!region.Empty()) regions.push_back(region);
    }
    const int64_t rects[][4] = {{0, 0, h, w},
                                {1, 1, h - 1, w - 2},
                                {h / 3, w / 4, h, w},
                                {0, w / 2, h / 2 + 1, w}};
    for (const auto& r : rects) {
      GridMask region(h, w);
      region.FillRect(r[0], r[1], r[2], r[3]);
      regions.push_back(region);
    }
  }

  const RegionQueryServer& server() const { return pipeline->server(); }
  QueryPlanner planner() const { return QueryPlanner(&ds.hierarchy()); }
  QueryExecutor executor() const { return QueryExecutor(&server()); }
  int64_t t0() const { return pipeline->test_timesteps().front(); }
};

class TiledReadTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TiledReadTest, ExactPathIsBitIdenticalToMaskedSumOracle) {
  const auto [h, w] = GetParam();
  RaggedFixture fx(h, w, 31);
  const PredictionStore& store = *fx.server().store();
  const Hierarchy& hierarchy = fx.ds.hierarchy();
  const int64_t t0 = fx.t0();

  QuerySpec spec = QuerySpec::MultiRegion(fx.regions, t0);
  spec.time = TimeSelector::Range(t0, t0 + 2);
  spec.keep_series = true;
  auto plan = fx.planner().Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const QueryResult result = fx.executor().Execute(*plan);

  for (size_t i = 0; i < fx.regions.size(); ++i) {
    auto resolved = fx.server().Resolve(fx.regions[i],
                                        QueryStrategy::kUnionSubtraction);
    ASSERT_TRUE(resolved.ok());
    ASSERT_TRUE(result.rows[i].ok()) << result.rows[i].status().ToString();
    ASSERT_EQ(result.rows[i]->series.size(), 3u);
    for (int64_t dt = 0; dt < 3; ++dt) {
      // The oracle: every term a one-cell MaskedSum over a materialized
      // copy of its layer frame, accumulated in term order.
      double expected = 0.0;
      for (const CombinationTerm& term : resolved->terms) {
        const LayerInfo& layer = hierarchy.layer(term.grid.layer);
        auto frame = store.GetFrameAt(0, term.grid.layer, t0 + dt);
        ASSERT_TRUE(frame.ok());
        GridMask cell(layer.height, layer.width);
        cell.Set(term.grid.row, term.grid.col, true);
        expected += static_cast<double>(term.sign) * cell.MaskedSum(*frame);
      }
      EXPECT_EQ(result.rows[i]->series[static_cast<size_t>(dt)], expected)
          << "region " << i << " dt " << dt;
    }
  }
}

TEST_P(TiledReadTest, TileResiduesReproduceFlatOffsetSums) {
  const auto [h, w] = GetParam();
  RaggedFixture fx(h, w, 37);
  const PredictionStore& store = *fx.server().store();
  const Hierarchy& hierarchy = fx.ds.hierarchy();
  const int64_t t = fx.t0();
  int64_t residues_checked = 0;

  for (const GridMask& region : fx.regions) {
    auto resolved =
        fx.server().Resolve(region, QueryStrategy::kUnionSubtraction);
    ASSERT_TRUE(resolved.ok());
    const GatherProgram& program = resolved->gather;

    // Rects + residues must cover exactly the resolved terms (as a
    // multiset of signed cells).
    using Cell = std::tuple<int, int64_t, int64_t, int>;
    std::map<Cell, int> want, got;
    for (const CombinationTerm& term : resolved->terms) {
      ++want[Cell{term.grid.layer, term.grid.row, term.grid.col, term.sign}];
    }
    for (const SatRectRead& rect : program.rects) {
      for (int64_t r = rect.r0; r < rect.r1; ++r) {
        for (int64_t c = rect.c0; c < rect.c1; ++c) {
          ++got[Cell{rect.layer, r, c, rect.sign}];
        }
      }
    }

    double tiled_sum = 0.0, flat_sum = 0.0;
    int prev_layer = 0;
    int64_t prev_flat = -1;
    for (const ResidueRead& residue : program.residues) {
      const LayerInfo& layer = hierarchy.layer(residue.layer);
      auto tiled = store.GetTiledFrameAt(0, residue.layer, t);
      auto flat = store.GetFrameAt(0, residue.layer, t);
      ASSERT_TRUE(tiled.ok() && flat.ok());
      const TiledFrame& frame = **tiled;
      ASSERT_LT(residue.tile, frame.tiles_h() * frame.tiles_w());
      // Invert the tile coordinates back to the cell.
      const int64_t i = residue.tile / frame.tiles_w();
      const int64_t j = residue.tile % frame.tiles_w();
      ASSERT_LT(residue.tile_offset, frame.tile_rows(i) * frame.tile_cols(j));
      const int64_t tw = frame.tile_cols(j);
      const int64_t row = i * kSatTileSize + residue.tile_offset / tw;
      const int64_t col = j * kSatTileSize + residue.tile_offset % tw;
      ASSERT_LT(row, layer.height);
      ASSERT_LT(col, layer.width);
      ++got[Cell{residue.layer, row, col, residue.sign}];
      // Row-major order within a layer: the flat frame sweep's order.
      const int64_t flat_offset = row * layer.width + col;
      if (residue.layer == prev_layer) {
        EXPECT_GE(flat_offset, prev_flat);
      }
      prev_layer = residue.layer;
      prev_flat = flat_offset;

      tiled_sum += static_cast<double>(residue.sign) *
                   static_cast<double>(
                       frame.tile_table()[residue.tile][residue.tile_offset]);
      flat_sum += static_cast<double>(residue.sign) *
                  static_cast<double>(flat->data()[flat_offset]);
      ++residues_checked;
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(tiled_sum, flat_sum);
  }
  EXPECT_GT(residues_checked, 0);
}

TEST_P(TiledReadTest, FastPathWithinToleranceWithAndWithoutPlanes) {
  const auto [h, w] = GetParam();
  RaggedFixture fx(h, w, 41);
  const int64_t t0 = fx.t0();

  // A frames-only store: rect reads fall back to TiledFrame::RectSum.
  PredictionStore bare;
  for (int l = 1; l <= fx.ds.hierarchy().num_layers(); ++l) {
    for (int64_t t = t0; t <= t0 + 2; ++t) {
      bare.SyncFrame(l, t, fx.ds.FrameAtLayer(t, l));
    }
  }
  RegionQueryServer bare_server(&fx.ds.hierarchy(), &fx.pipeline->index(),
                                &bare);

  QuerySpec exact = QuerySpec::MultiRegion(fx.regions, t0);
  exact.time = TimeSelector::Range(t0, t0 + 2);
  exact.keep_series = true;
  QuerySpec fast = exact;
  fast.eval_path = EvalPath::kSatFastPath;
  auto exact_plan = fx.planner().Plan(exact);
  auto fast_plan = fx.planner().Plan(fast);
  ASSERT_TRUE(exact_plan.ok() && fast_plan.ok());

  const std::vector<const RegionQueryServer*> servers = {&fx.server(),
                                                         &bare_server};
  for (const RegionQueryServer* server : servers) {
    const QueryExecutor executor(server);
    const QueryResult want = executor.Execute(*exact_plan);
    const QueryResult got = executor.Execute(*fast_plan);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (size_t i = 0; i < want.rows.size(); ++i) {
      ASSERT_TRUE(want.rows[i].ok());
      ASSERT_TRUE(got.rows[i].ok()) << got.rows[i].status().ToString();
      ASSERT_EQ(got.rows[i]->series.size(), want.rows[i]->series.size());
      for (size_t s = 0; s < want.rows[i]->series.size(); ++s) {
        EXPECT_NEAR(got.rows[i]->series[s], want.rows[i]->series[s],
                    1e-9 * (1.0 + std::abs(want.rows[i]->series[s])))
            << "region " << i << " step " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RaggedExtents, TiledReadTest,
                         ::testing::Values(std::make_pair(33, 65),
                                           std::make_pair(5, 7)));

TEST(TiledFrameTest, RectSumMatchesRowMajorSweepBitForBit) {
  // In-place rect sums walk tile row segments in the order a contiguous
  // row-major sweep visits cells, so they equal it exactly — including
  // rects that straddle ragged edge tiles.
  for (const auto& [h, w] : {std::make_pair(int64_t{33}, int64_t{65}),
                             std::make_pair(int64_t{5}, int64_t{7}),
                             std::make_pair(int64_t{70}, int64_t{40})}) {
    Tensor dense({h, w});
    Rng rng(static_cast<uint64_t>(h * 1000 + w));
    for (int64_t k = 0; k < dense.numel(); ++k) {
      dense.data()[k] = static_cast<float>(rng.Uniform() * 10.0 - 3.0);
    }
    const TiledFrame frame = TiledFrame::FromTensor(dense);
    for (int trial = 0; trial < 200; ++trial) {
      const auto draw = [&](int64_t n) {
        return static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
      };
      int64_t r0 = draw(h + 1), r1 = draw(h + 1);
      int64_t c0 = draw(w + 1), c1 = draw(w + 1);
      if (r0 > r1) std::swap(r0, r1);
      if (c0 > c1) std::swap(c0, c1);
      double sweep = 0.0;
      for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = c0; c < c1; ++c) {
          sweep += static_cast<double>(dense.data()[r * w + c]);
        }
      }
      EXPECT_EQ(frame.RectSum(r0, c0, r1, c1), sweep)
          << h << "x" << w << " rect [" << r0 << "," << r1 << ") x [" << c0
          << "," << c1 << ")";
    }
    for (int64_t r = 0; r < h; ++r) {
      for (int64_t c = 0; c < w; ++c) {
        ASSERT_EQ(frame.at(r, c), dense.data()[r * w + c]);
      }
    }
  }
}

TEST(TiledFrameTest, PinnedZeroCopyReadsSurviveConcurrentReclaim) {
  // Readers pin an epoch, take the store's TiledFrame and its raw tile
  // table, and keep reading through those pointers while the writer
  // publishes CoW epochs that retire the pinned generation; then they
  // unpin (the next publish reclaims it) and read once more through the
  // still-held shared_ptr. Under ASan a freed block is a hard error;
  // under TSan a racy reclaim is.
  constexpr int64_t kH = 40, kW = 70;  // ragged: 2 x 3 tiles
  constexpr int kSteps = 80;
  constexpr int kReaders = 3;

  std::vector<Tensor> frames;
  std::vector<double> expected_sum;
  {
    Tensor frame = Tensor::Full({kH, kW}, 1.0f);
    for (int t = 0; t <= kSteps; ++t) {
      if (t > 0) {
        const int64_t r0 = (static_cast<int64_t>(t) * 7) % (kH - 8);
        const int64_t c0 = (static_cast<int64_t>(t) * 13) % (kW - 16);
        for (int64_t r = r0; r < r0 + 8; ++r) {
          for (int64_t c = c0; c < c0 + 16; ++c) {
            frame.data()[r * kW + c] = static_cast<float>(t);
          }
        }
      }
      double sum = 0.0;
      for (int64_t k = 0; k < frame.numel(); ++k) sum += frame.data()[k];
      expected_sum.push_back(sum);
      frames.push_back(frame);
    }
  }
  const auto sum_tiles = [](const TiledFrame& frame,
                            const float* const* tiles) {
    double sum = 0.0;
    for (int64_t i = 0; i < frame.tiles_h(); ++i) {
      for (int64_t j = 0; j < frame.tiles_w(); ++j) {
        const float* tile = tiles[i * frame.tiles_w() + j];
        for (int64_t k = 0; k < frame.tile_rows(i) * frame.tile_cols(j); ++k) {
          sum += static_cast<double>(tile[k]);
        }
      }
    }
    return sum;
  };
  // Tile sums add in a different order than the row-major expectation;
  // with integer-valued cells both are exact.

  PredictionStore store;
  ServingTelemetry telemetry;
  FrameEpochManagerOptions epoch_options;
  epoch_options.retain_timesteps = 2;
  FrameEpochManager epochs(&store, &telemetry, epoch_options);
  {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
    staging.StageFrame(1, 0, frames[0]);
    epochs.Publish(std::move(staging));
  }

  std::atomic<int> published{0};
  std::atomic<int64_t> bad_reads{0};
  std::atomic<int64_t> survived_reclaim{0};
  std::thread writer([&] {
    for (int t = 1; t <= kSteps; ++t) {
      const TileDirtySet dirty = DiffFrames(frames[t], frames[t - 1]);
      auto staging = epochs.BeginEpoch(/*carry_forward=*/true);
      ASSERT_TRUE(staging.TryStageFrame(1, t, frames[t], &dirty).ok());
      epochs.Publish(std::move(staging));
      published.fetch_add(1);
      std::this_thread::yield();
    }
  });
  const auto wait_for_publishes = [&](int from, int count) {
    while (published.load() < std::min(kSteps, from + count)) {
      std::this_thread::yield();
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int round = 0; round < 4 || published.load() < kSteps; ++round) {
        EpochGuard guard = epochs.Pin();
        const int64_t t = guard.latest_t();
        auto frame = store.GetTiledFrameAt(guard.generation(), 1, t);
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        const std::shared_ptr<const TiledFrame> held = *frame;
        const float* const* tiles = held->tile_table();
        // Publishes retire the pinned generation; the pin defers reclaim.
        wait_for_publishes(published.load(), 2);
        if (sum_tiles(*held, tiles) != expected_sum[static_cast<size_t>(t)]) {
          bad_reads.fetch_add(1);
        }
        // Unpin: the next publish reclaims the generation, yet the held
        // frame (and every tile pointer taken from it) stays readable.
        guard.Release();
        wait_for_publishes(published.load(), 1);
        if (sum_tiles(*held, tiles) != expected_sum[static_cast<size_t>(t)] ||
            held->at(kH - 1, kW - 1) !=
                frames[static_cast<size_t>(t)].data()[kH * kW - 1]) {
          bad_reads.fetch_add(1);
        }
        survived_reclaim.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GE(survived_reclaim.load(), kReaders);
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_GT(telemetry.Snapshot().epochs_reclaimed, 0);
}

}  // namespace
}  // namespace one4all
