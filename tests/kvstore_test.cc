// Tests for the prediction store: frame round trips, generations,
// copy-on-write delta staging, views, a randomized differential check
// against a plain keyed map, and concurrent readers.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "kvstore/prediction_store.h"
#include "test_util.h"

namespace one4all {
namespace {

TEST(PredictionStoreTest, FrameRoundTrip) {
  PredictionStore store;
  Rng rng(1);
  Tensor frame = Tensor::RandomUniform({4, 6}, &rng, 0.0f, 50.0f);
  store.SyncFrame(2, 100, frame);
  EXPECT_TRUE(store.HasFrame(2, 100));
  auto restored = store.GetFrame(2, 100);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->AllClose(frame));
  EXPECT_FLOAT_EQ(store.GetValue(2, 100, 3, 5), frame.at(3, 5));
}

TEST(PredictionStoreTest, MissingFrameIsNotFound) {
  PredictionStore store;
  EXPECT_FALSE(store.HasFrame(1, 42));
  EXPECT_EQ(store.GetFrame(1, 42).status().code(), StatusCode::kNotFound);
}

TEST(PredictionStoreTest, SyncOverwritesInPlace) {
  PredictionStore store;
  store.SyncFrame(1, 7, Tensor::Full({2, 2}, 1.0f));
  store.SyncFrame(1, 7, Tensor::Full({2, 2}, 9.0f));
  EXPECT_FLOAT_EQ(store.GetValue(1, 7, 0, 0), 9.0f);
  EXPECT_EQ(store.NumFramesAt(0), 1);
}

TEST(PredictionStoreTest, ConcurrentReadersSeeConsistentFrames) {
  // The batch query engine reads GetValue/GetFrame from many worker
  // threads at once; every reader must observe exactly the synced bytes.
  PredictionStore store;
  Rng rng(3);
  std::vector<Tensor> frames;
  for (int64_t t = 0; t < 6; ++t) {
    frames.push_back(Tensor::RandomUniform({4, 4}, &rng, 0.0f, 10.0f));
    store.SyncFrame(1, t, frames.back());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&store, &frames, &mismatches, w] {
      for (int i = 0; i < 200; ++i) {
        const int64_t t = (i + w) % 6;
        const int64_t r = i % 4, c = (i / 4) % 4;
        if (store.GetValue(1, t, r, c) !=
            frames[static_cast<size_t>(t)].at(r, c)) {
          mismatches.fetch_add(1);
        }
        auto frame = store.GetFrame(1, t);
        if (!frame.ok() ||
            !frame->AllClose(frames[static_cast<size_t>(t)])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PredictionStoreTest, ConcurrentReadersAndHasFrameGuard) {
  // HasFrame is the guard the serving pipeline checks before routing a
  // time slot to the query server; it must stay exact while another
  // thread keeps syncing new frames.
  PredictionStore store;
  for (int64_t t = 0; t < 8; t += 2) {
    store.SyncFrame(2, t, Tensor::Full({2, 2}, static_cast<float>(t)));
  }
  std::atomic<bool> failed{false};
  std::thread writer([&store] {
    for (int64_t t = 100; t < 160; ++t) {
      store.SyncFrame(3, t, Tensor::Full({1, 1}, 1.0f));
    }
  });
  std::vector<std::thread> readers;
  for (int w = 0; w < 3; ++w) {
    readers.emplace_back([&store, &failed] {
      for (int i = 0; i < 300; ++i) {
        const int64_t t = i % 8;
        const bool synced = (t % 2 == 0);
        if (store.HasFrame(2, t) != synced) failed.store(true);
        if (!synced &&
            store.GetFrame(2, t).status().code() != StatusCode::kNotFound) {
          failed.store(true);
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  for (int64_t t = 100; t < 160; ++t) EXPECT_TRUE(store.HasFrame(3, t));
}

TEST(PredictionStoreTest, FramesAccountedPerGeneration) {
  PredictionStore store;
  for (int64_t t = 0; t < 5; ++t) {
    store.SyncFrame(1, t, Tensor({2, 2}));
    store.SyncFrame(2, t, Tensor({1, 1}));
  }
  EXPECT_EQ(store.NumFramesAt(0), 10);
  for (int64_t t = 0; t < 5; ++t) {
    EXPECT_TRUE(store.HasFrame(1, t));
    EXPECT_TRUE(store.HasFrame(2, t));
  }
}

TEST(PredictionStoreTest, TryGetValueDegradesToStatus) {
  PredictionStore store;
  EXPECT_EQ(store.TryGetValue(1, 9, 0, 0).status().code(),
            StatusCode::kNotFound);
  store.SyncFrame(1, 9, Tensor::Full({2, 3}, 4.0f));
  auto value = store.TryGetValue(1, 9, 1, 2);
  ASSERT_TRUE(value.ok());
  EXPECT_FLOAT_EQ(*value, 4.0f);
  EXPECT_EQ(store.TryGetValue(1, 9, 2, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store.TryGetValue(1, 9, 0, -1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PredictionStoreTest, GenerationsAreIsolated) {
  // A frame staged under a shadow generation must be invisible to readers
  // of the published generation, and vice versa — the invariant the epoch
  // manager's atomic publication is built on.
  PredictionStore store;
  store.SyncFrameAt(1, 1, 0, Tensor::Full({2, 2}, 1.0f));
  store.SyncFrameAt(2, 1, 0, Tensor::Full({2, 2}, 2.0f));
  EXPECT_FALSE(store.HasFrame(1, 0));
  EXPECT_TRUE(store.HasFrameAt(1, 1, 0));
  EXPECT_TRUE(store.HasFrameAt(2, 1, 0));
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(1, 1, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(2, 1, 0, 0, 0), 2.0f);
}

TEST(PredictionStoreTest, CopyAndDropGeneration) {
  PredictionStore store;
  for (int64_t t = 0; t < 3; ++t) {
    store.SyncFrameAt(5, 1, t, Tensor::Full({2, 2}, static_cast<float>(t)));
    store.SyncFrameAt(5, 2, t, Tensor::Full({1, 1}, static_cast<float>(t)));
  }
  EXPECT_EQ(store.CopyGeneration(5, 6), 6);
  EXPECT_EQ(store.NumFramesAt(6), 6);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(6, 1, 2, 0, 1), 2.0f);
  // Overwriting the copy must not leak back into the source generation.
  store.SyncFrameAt(6, 1, 2, Tensor::Full({2, 2}, 99.0f));
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(5, 1, 2, 0, 1), 2.0f);
  EXPECT_EQ(store.DropGeneration(5), 6);
  EXPECT_EQ(store.NumFramesAt(5), 0);
  EXPECT_EQ(store.NumFramesAt(6), 6);
  EXPECT_EQ(store.TryGetValueAt(5, 1, 0, 0, 0).status().code(),
            StatusCode::kNotFound);
}

TEST(PredictionStoreTest, DropsCountPlanesAndSpareHeldFrames) {
  // Drops unlink entries under the lock and free them after it; a
  // reader's shared_ptr keeps its frame (and the tiles behind it) alive
  // past the drop, and the counts include each dropped plane.
  PredictionStore store;
  for (int64_t t = 0; t < 4; ++t) {
    store.SyncFrameAt(4, 1, t, Tensor::Full({40, 40}, static_cast<float>(t)));
  }
  ASSERT_TRUE(store.TryBuildSatPlaneAt(4, 1, 0).ok());
  ASSERT_TRUE(store.TryBuildSatPlaneAt(4, 1, 3).ok());
  store.SyncFrameAt(5, 1, 0, Tensor::Full({2, 2}, 7.0f));  // neighbour
  auto held = store.GetTiledFrameAt(4, 1, 1);
  ASSERT_TRUE(held.ok());

  EXPECT_EQ(store.DropFramesBelow(4, 2), 3);  // t=0 frame + plane, t=1
  EXPECT_EQ(store.NumFramesAt(4), 2);
  EXPECT_EQ(store.NumSatPlanesAt(4), 1);
  EXPECT_EQ(store.DropGeneration(4), 3);      // t=2, t=3 frame + plane
  EXPECT_EQ(store.NumFramesAt(4), 0);
  EXPECT_EQ(store.DropGeneration(4), 0);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(5, 1, 0, 1, 1), 7.0f);
  EXPECT_FLOAT_EQ((*held)->at(39, 39), 1.0f);
}

TEST(PredictionStoreTest, CopyGenerationOverwritesTrimsAndKeepsNeighbours) {
  // The copy walks source and target keys in order with insert hints; it
  // must still overwrite keys the target already holds, honour min_t,
  // copy into an older generation than the source, and leave every other
  // generation alone.
  PredictionStore store;
  for (int64_t t = 0; t < 4; ++t) {
    for (int layer = 1; layer <= 2; ++layer) {
      store.SyncFrameAt(7, layer, t,
                        Tensor::Full({2, 2}, static_cast<float>(10 * layer + t)));
    }
  }
  store.SyncFrameAt(3, 2, 3, Tensor::Full({2, 2}, -1.0f));  // overwritten
  store.SyncFrameAt(3, 2, 9, Tensor::Full({2, 2}, -2.0f));  // kept
  store.SyncFrameAt(9, 1, 0, Tensor::Full({2, 2}, -3.0f));  // untouched
  EXPECT_EQ(store.CopyGeneration(7, 3, /*min_t=*/2), 4);
  EXPECT_EQ(store.NumFramesAt(3), 5);
  EXPECT_FALSE(store.HasFrameAt(3, 1, 1));
  for (int64_t t = 2; t < 4; ++t) {
    for (int layer = 1; layer <= 2; ++layer) {
      EXPECT_FLOAT_EQ(*store.TryGetValueAt(3, layer, t, 1, 1),
                      static_cast<float>(10 * layer + t));
    }
  }
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(3, 2, 9, 0, 0), -2.0f);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(9, 1, 0, 0, 0), -3.0f);
  EXPECT_EQ(store.NumFramesAt(7), 8);
  EXPECT_EQ(store.NumFramesAt(9), 1);
}

TEST(PredictionStoreTest, DeltaStagingAliasesCleanTiles) {
  PredictionStore store;
  Rng rng(11);
  Tensor base = Tensor::RandomUniform({64, 64}, &rng, 0.0f, 5.0f);
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 0, base).ok());

  Tensor next = base;  // one cell changes, in tile (0, 0)
  next.data()[3 * 64 + 7] += 1.0f;
  TileDirtySet dirty(64, 64);
  dirty.MarkCell(3, 7);
  PredictionStore::StageStats stats;
  ASSERT_TRUE(
      store.TrySyncFrameDeltaAt(1, 1, 1, next, 0, dirty, &stats).ok());
  EXPECT_EQ(stats.frame_tiles_total, 4);
  EXPECT_EQ(stats.frame_tiles_shared, 3);

  // Values are exactly the staged frame's; clean tiles alias the base's
  // blocks, the dirty one does not.
  auto restored = store.GetFrameAt(1, 1, 1);
  ASSERT_TRUE(restored.ok());
  for (int64_t r = 0; r < 64; ++r) {
    for (int64_t c = 0; c < 64; ++c) {
      ASSERT_EQ(restored->at(r, c), next.at(r, c)) << r << "," << c;
    }
  }
  auto t0 = store.GetTiledFrameAt(1, 1, 0);
  auto t1 = store.GetTiledFrameAt(1, 1, 1);
  ASSERT_TRUE(t0.ok() && t1.ok());
  EXPECT_FALSE((*t1)->SharesBlockWith(**t0, 0, 0));
  EXPECT_TRUE((*t1)->SharesBlockWith(**t0, 0, 1));
  EXPECT_TRUE((*t1)->SharesBlockWith(**t0, 1, 0));
  EXPECT_TRUE((*t1)->SharesBlockWith(**t0, 1, 1));

  auto recorded = store.GetDirtyAt(1, 1, 1);
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->CountDirty(), 1);
  EXPECT_TRUE(recorded->dirty(0, 0));
}

TEST(PredictionStoreTest, DeltaStagingFallsBackWithoutBase) {
  // A delta stage whose base timestep is absent must degrade to a full
  // fresh write — identical values, no aliasing, never an error.
  PredictionStore store;
  Tensor frame = Tensor::Full({40, 40}, 2.0f);
  TileDirtySet dirty(40, 40);
  dirty.MarkCell(0, 0);
  PredictionStore::StageStats stats;
  ASSERT_TRUE(
      store.TrySyncFrameDeltaAt(3, 1, 5, frame, 4, dirty, &stats).ok());
  EXPECT_EQ(stats.frame_tiles_shared, 0);
  auto restored = store.GetFrameAt(3, 1, 5);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->AllClose(frame));
}

TEST(PredictionStoreTest, DeltaPlaneBuildBitIdenticalToFull) {
  // The incremental plane (clean locals aliased, dirty rebuilt, carries
  // fixed up) must be bit-identical to a from-scratch build of the same
  // frame — the parity CopyGeneration/publish bit-exactness rests on.
  PredictionStore incremental;
  PredictionStore fresh;
  Rng rng(17);
  Tensor base = Tensor::RandomUniform({70, 90}, &rng, 0.0f, 9.0f);
  Tensor next = base;
  for (int64_t r = 33; r < 37; ++r) {
    for (int64_t c = 60; c < 70; ++c) next.data()[r * 90 + c] += 0.5f;
  }
  TileDirtySet dirty(70, 90);
  dirty.MarkRect(33, 60, 37, 70);

  ASSERT_TRUE(incremental.TrySyncFrameAt(1, 1, 0, base).ok());
  ASSERT_TRUE(incremental.TryBuildSatPlaneAt(1, 1, 0).ok());
  ASSERT_TRUE(
      incremental.TrySyncFrameDeltaAt(1, 1, 1, next, 0, dirty, nullptr)
          .ok());
  PredictionStore::StageStats stats;
  ASSERT_TRUE(
      incremental.TryBuildSatPlaneDeltaAt(1, 1, 1, 0, &stats).ok());
  EXPECT_GT(stats.plane_tiles_reused, 0);

  ASSERT_TRUE(fresh.TrySyncFrameAt(1, 1, 1, next).ok());
  ASSERT_TRUE(fresh.TryBuildSatPlaneAt(1, 1, 1).ok());

  auto a = incremental.GetTiledSatPlaneAt(1, 1, 1);
  auto b = fresh.GetTiledSatPlaneAt(1, 1, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int64_t r = 0; r <= 70; ++r) {
    for (int64_t c = 0; c <= 90; ++c) {
      ASSERT_EQ((*a)->PrefixAt(r, c), (*b)->PrefixAt(r, c))
          << "prefix mismatch at " << r << "," << c;
    }
  }
}

TEST(PredictionStoreTest, CopyGenerationSharesTileBlocks) {
  // Carry-forward is pointer aliasing: the copied generation's frames
  // share every tile block with the source until something overwrites.
  PredictionStore store;
  Rng rng(23);
  Tensor frame = Tensor::RandomUniform({64, 64}, &rng, 0.0f, 3.0f);
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 0, frame).ok());
  EXPECT_EQ(store.CopyGeneration(1, 2), 1);
  auto src = store.GetTiledFrameAt(1, 1, 0);
  auto dst = store.GetTiledFrameAt(2, 1, 0);
  ASSERT_TRUE(src.ok() && dst.ok());
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_TRUE((*dst)->SharesBlockWith(**src, i, j));
    }
  }
  // Dropping the source must leave the copy fully readable (refcounts,
  // not ownership, keep blocks alive).
  EXPECT_EQ(store.DropGeneration(1), 1);
  auto restored = store.GetFrameAt(2, 1, 0);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->AllClose(frame));
}

// A View is a snapshot: writes, copy-on-write clones, trims and drops
// made after it was taken never show through it, and its pointers stay
// valid after the generation is gone.
TEST(PredictionStoreTest, ViewKeepsItsContentsAcrossWritesAndDrops) {
  PredictionStore store;
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 0, Tensor::Full({4, 4}, 1.0f)).ok());
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 1, Tensor::Full({4, 4}, 2.0f)).ok());
  ASSERT_TRUE(store.TryBuildSatPlaneAt(1, 1, 1).ok());

  PredictionStore::View view = store.ViewAt(1);
  auto frame0 = view.FrameAt(1, 0);
  auto frame1 = view.FrameAt(1, 1);
  ASSERT_TRUE(frame0.ok() && frame1.ok());
  const TiledSatPlane* plane1 = view.PlaneAt(1, 1);
  ASSERT_NE(plane1, nullptr);
  EXPECT_EQ(view.PlaneAt(1, 0), nullptr);  // no plane built there
  EXPECT_EQ(view.FrameAt(2, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(view.FrameAt(1, 7).status().code(), StatusCode::kNotFound);

  // Rewrite a viewed timestep, add one, build a plane, trim, then drop.
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 1, Tensor::Full({4, 4}, 9.0f)).ok());
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 2, Tensor::Full({4, 4}, 3.0f)).ok());
  ASSERT_TRUE(store.TryBuildSatPlaneAt(1, 1, 0).ok());
  EXPECT_EQ(store.DropFramesBelow(1, 1), 2);  // frame + its new plane
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(1, 1, 1, 0, 0), 9.0f);

  EXPECT_EQ(*view.FrameAt(1, 0), *frame0);
  EXPECT_EQ(*view.FrameAt(1, 1), *frame1);
  EXPECT_EQ(view.PlaneAt(1, 1), plane1);
  EXPECT_EQ(view.PlaneAt(1, 0), nullptr);
  EXPECT_EQ(view.FrameAt(1, 2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.DropGeneration(1), 2);
  EXPECT_FLOAT_EQ((*frame0)->at(3, 3), 1.0f);
  EXPECT_FLOAT_EQ((*frame1)->at(3, 3), 2.0f);
  EXPECT_DOUBLE_EQ(plane1->RectSum(0, 0, 4, 4), 32.0);

  // A fresh view sees the store as it is now; a missing generation
  // misses every lookup.
  PredictionStore::View gone = store.ViewAt(1);
  EXPECT_EQ(gone.FrameAt(1, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(gone.PlaneAt(1, 1), nullptr);
  view.Release();
  EXPECT_EQ(view.FrameAt(1, 0).status().code(), StatusCode::kNotFound);
}

// Differential check of the generation API against the simplest model
// that states its meaning: a map from (generation, layer, t) to the
// {frame, plane, dirty} pointers stored there. Seeded random sequences
// of frame writes, delta writes, plane builds, carry-forward copies,
// trims and drops run against both; after every step each key's pointer
// identities, the per-generation counts and every returned count must
// agree. Frames carry a unique id in cell (0, 0), so a write that showed
// through in another generation would change that generation's id.
// Views taken along the way must keep exactly what they saw.
TEST(PredictionStoreTest, RandomizedDifferentialAgainstKeyedMap) {
  constexpr int64_t kGenerations = 4;
  constexpr int kLayers = 3;  // layers 0..2
  constexpr int64_t kTimesteps = 6;
  constexpr int64_t kH = 40, kW = 40;  // 2x2 tiles

  struct ModelEntry {
    const TiledFrame* frame = nullptr;
    const TiledSatPlane* plane = nullptr;
    const TileDirtySet* dirty = nullptr;
    float id = 0.0f;
  };
  using Key = std::tuple<int64_t, int, int64_t>;
  using Model = std::map<Key, ModelEntry>;

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    PredictionStore store;
    Model model;
    float next_id = 1.0f;
    struct HeldView {
      PredictionStore::View view;
      std::map<std::pair<int, int64_t>, ModelEntry> seen;  // (layer, t)
    };
    std::vector<HeldView> views;

    const auto pick_gen = [&] {
      return static_cast<int64_t>(rng.UniformInt(kGenerations));
    };
    const auto pick_layer = [&] {
      return static_cast<int>(rng.UniformInt(kLayers));
    };
    const auto pick_t = [&] {
      return static_cast<int64_t>(rng.UniformInt(kTimesteps));
    };
    const auto frame_of = [&](int64_t g, int layer, int64_t t) {
      auto frame = store.GetTiledFrameAt(g, layer, t);
      return frame.ok() ? frame->get() : nullptr;
    };
    const auto count_of = [&](const ModelEntry& e) {
      return int64_t{1} + (e.plane != nullptr ? 1 : 0);
    };

    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int64_t g = pick_gen();
      const int layer = pick_layer();
      const int64_t t = pick_t();
      switch (rng.UniformInt(8)) {
        case 0:
        case 1: {  // full frame write
          const float id = next_id++;
          ASSERT_TRUE(
              store.TrySyncFrameAt(g, layer, t, Tensor::Full({kH, kW}, id))
                  .ok());
          model[Key{g, layer, t}] =
              ModelEntry{frame_of(g, layer, t), nullptr, nullptr, id};
          break;
        }
        case 2: {  // delta write against t-1, one dirty tile
          const float id = next_id++;
          auto base = store.GetFrameAt(g, layer, t - 1);
          Tensor frame =
              base.ok() ? *base : Tensor::Full({kH, kW}, 0.5f);
          frame.data()[0] = id;
          TileDirtySet dirty;  // unknown: stage every tile fresh
          if (rng.UniformInt(4) != 0) {
            dirty = TileDirtySet(kH, kW);
            dirty.MarkCell(0, 0);
          }
          ASSERT_TRUE(
              store.TrySyncFrameDeltaAt(g, layer, t, frame, t - 1, dirty)
                  .ok());
          const ModelEntry written{frame_of(g, layer, t), nullptr,
                                   store.GetDirtyAt(g, layer, t).get(), id};
          EXPECT_EQ(written.dirty == nullptr, dirty.empty());
          model[Key{g, layer, t}] = written;
          break;
        }
        case 3: {  // plane build (full or incremental)
          auto it = model.find(Key{g, layer, t});
          const Status status =
              rng.UniformInt(2) == 0
                  ? store.TryBuildSatPlaneAt(g, layer, t)
                  : store.TryBuildSatPlaneDeltaAt(g, layer, t, t - 1);
          if (it == model.end()) {
            EXPECT_EQ(status.code(), StatusCode::kNotFound);
            break;
          }
          ASSERT_TRUE(status.ok());
          auto plane = store.GetTiledSatPlaneAt(g, layer, t);
          ASSERT_TRUE(plane.ok());
          it->second.plane = plane->get();
          EXPECT_FLOAT_EQ(static_cast<float>((*plane)->RectSum(0, 0, 1, 1)),
                          it->second.id);
          break;
        }
        case 4: {  // carry-forward copy
          const int64_t to = pick_gen();
          if (to == g) break;
          const int64_t min_t =
              rng.UniformInt(2) == 0 ? INT64_MIN : pick_t();
          int64_t expected = 0;
          Model copied;
          for (const auto& [key, entry] : model) {
            if (std::get<0>(key) == g && std::get<2>(key) >= min_t) {
              expected += count_of(entry);
              copied[Key{to, std::get<1>(key), std::get<2>(key)}] = entry;
            }
          }
          EXPECT_EQ(store.CopyGeneration(g, to, min_t), expected);
          for (const auto& [key, entry] : copied) model[key] = entry;
          break;
        }
        case 5: {  // retention trim
          const int64_t min_t = pick_t();
          int64_t expected = 0;
          for (auto it = model.begin(); it != model.end();) {
            if (std::get<0>(it->first) == g && std::get<2>(it->first) < min_t) {
              expected += count_of(it->second);
              it = model.erase(it);
            } else {
              ++it;
            }
          }
          EXPECT_EQ(store.DropFramesBelow(g, min_t), expected);
          break;
        }
        case 6: {  // reclaim
          int64_t expected = 0;
          for (auto it = model.begin(); it != model.end();) {
            if (std::get<0>(it->first) == g) {
              expected += count_of(it->second);
              it = model.erase(it);
            } else {
              ++it;
            }
          }
          EXPECT_EQ(store.DropGeneration(g), expected);
          break;
        }
        case 7: {  // take or release a view
          if (!views.empty() && rng.UniformInt(2) == 0) {
            views.erase(views.begin() +
                        static_cast<int64_t>(rng.UniformInt(views.size())));
            break;
          }
          HeldView held{store.ViewAt(g), {}};
          for (const auto& [key, entry] : model) {
            if (std::get<0>(key) == g) {
              held.seen[{std::get<1>(key), std::get<2>(key)}] = entry;
            }
          }
          views.push_back(std::move(held));
          break;
        }
      }

      // The store agrees with the model on every key and every count.
      for (int64_t gen = 0; gen < kGenerations; ++gen) {
        int64_t frames = 0, planes = 0;
        for (int l = 0; l < kLayers; ++l) {
          for (int64_t ts = 0; ts < kTimesteps; ++ts) {
            auto it = model.find(Key{gen, l, ts});
            const ModelEntry want =
                it == model.end() ? ModelEntry{} : it->second;
            ASSERT_EQ(frame_of(gen, l, ts), want.frame)
                << "gen " << gen << " layer " << l << " t " << ts;
            ASSERT_EQ(store.HasFrameAt(gen, l, ts), want.frame != nullptr);
            auto plane = store.GetTiledSatPlaneAt(gen, l, ts);
            ASSERT_EQ(plane.ok() ? plane->get() : nullptr, want.plane);
            ASSERT_EQ(store.HasSatPlaneAt(gen, l, ts), want.plane != nullptr);
            ASSERT_EQ(store.GetDirtyAt(gen, l, ts).get(), want.dirty);
            if (want.frame != nullptr) {
              ASSERT_FLOAT_EQ(want.frame->at(0, 0), want.id);
              ++frames;
              if (want.plane != nullptr) ++planes;
            }
          }
        }
        ASSERT_EQ(store.NumFramesAt(gen), frames) << "gen " << gen;
        ASSERT_EQ(store.NumSatPlanesAt(gen), planes) << "gen " << gen;
      }
      // Every held view still shows what it saw when it was taken.
      for (const HeldView& held : views) {
        for (int l = 0; l < kLayers; ++l) {
          for (int64_t ts = 0; ts < kTimesteps; ++ts) {
            auto it = held.seen.find({l, ts});
            const ModelEntry want =
                it == held.seen.end() ? ModelEntry{} : it->second;
            auto frame = held.view.FrameAt(l, ts);
            ASSERT_EQ(frame.ok() ? *frame : nullptr, want.frame);
            ASSERT_EQ(held.view.PlaneAt(l, ts), want.plane);
            if (want.frame != nullptr) {
              ASSERT_FLOAT_EQ((*frame)->at(0, 0), want.id);
            }
          }
        }
      }
    }
  }
}

// The lock-free read hammer (raced under TSan and ASan in CI): readers
// take views of the published generation and read frames and planes
// through them with no lock, while a publisher carries the window
// forward, stages the next timestep, trims the oldest, flips, reclaims
// the superseded generation (views of it may still be held) and every
// few epochs rewrites a timestep of the generation readers are viewing.
// Every read must see exactly the frame its (layer, t) was written with.
TEST(PredictionStoreTest, HammerViewsDuringCarryForwardTrimAndReclaim) {
  constexpr int64_t kH = 48, kW = 48;
  constexpr int kLayers = 3;
  constexpr int64_t kRetain = 6;
  constexpr int64_t kEpochs = 150;
  constexpr int kReaders = 3;
  // Deterministic contents: (layer, t) is filled with one value, so a
  // reader can check any cell and the plane's whole-frame sum.
  const auto value_of = [](int layer, int64_t t) {
    return static_cast<float>(t * 4 + layer);
  };

  PredictionStore store;
  const auto stage = [&](int64_t generation, int64_t t) {
    for (int layer = 1; layer <= kLayers; ++layer) {
      ASSERT_TRUE(store
                      .TrySyncFrameAt(generation, layer, t,
                                      Tensor::Full({kH, kW}, value_of(layer, t)))
                      .ok());
      ASSERT_TRUE(store.TryBuildSatPlaneAt(generation, layer, t).ok());
    }
  };
  stage(1, 0);
  std::atomic<int64_t> published{1};
  std::atomic<int64_t> published_latest{0};
  std::atomic<bool> done{false};
  std::atomic<int64_t> bad_reads{0};
  std::atomic<int64_t> good_reads{0};
  std::atomic<int64_t> passes{0};  // reader passes over the window

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const int64_t latest = published_latest.load(std::memory_order_acquire);
        const PredictionStore::View view =
            store.ViewAt(published.load(std::memory_order_acquire));
        for (int64_t t = latest - kRetain; t <= latest + 1; ++t) {
          for (int layer = 1; layer <= kLayers; ++layer) {
            auto frame = view.FrameAt(layer, t);
            if (!frame.ok()) continue;  // reclaimed before the view
            const float want = value_of(layer, t);
            const TiledSatPlane* plane = view.PlaneAt(layer, t);
            if ((*frame)->at(0, 0) != want ||
                (*frame)->at(kH - 1, kW - 1) != want ||
                (plane != nullptr &&
                 plane->RectSum(0, 0, kH, kW) !=
                     static_cast<double>(want) * kH * kW) ||
                *view.FrameAt(layer, t) != *frame) {
              bad_reads.fetch_add(1);
            } else {
              good_reads.fetch_add(1);
            }
          }
        }
        passes.fetch_add(1, std::memory_order_release);
      }
    });
  }

  int64_t current = 1;
  for (int64_t t = 1; t <= kEpochs; ++t) {
    // Interleave: at least one reader pass per epoch, so the epochs race
    // live views instead of finishing before the readers start.
    while (passes.load(std::memory_order_acquire) < t) {
      std::this_thread::yield();
    }
    const int64_t next = current + 1;
    store.CopyGeneration(current, next, t - kRetain);
    stage(next, t);
    store.DropFramesBelow(next, t - kRetain + 1);
    published.store(next, std::memory_order_release);
    published_latest.store(t, std::memory_order_release);
    if (t % 5 == 0) {
      // Rewrite (same contents, fresh blocks) a timestep of the
      // generation readers are viewing right now.
      stage(next, t - 1);
    }
    store.DropGeneration(current);
    current = next;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GT(good_reads.load(), 0);
  EXPECT_EQ(store.NumFramesAt(current), kRetain * kLayers);
}

}  // namespace
}  // namespace one4all
