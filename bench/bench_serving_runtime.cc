// Sustained throughput of the online serving runtime *while epochs
// roll*: a static-store baseline (multi-region specs, one per time slot,
// run by the QueryExecutor over a fully pre-synced generation) against
// the ServingRuntime answering the same kind of query storm concurrently
// with the stream ingestor publishing one epoch per timestep. Storm
// clients draw random (region, t) queries and group each time slot's
// regions into one multi-region spec. Acceptance: serving throughput
// within 2x of the static baseline while an epoch is published at least
// every 50 ms, with zero consistency violations.
//
// The storm phase runs twice — once with the trace recorder disabled
// and once with always-on recording (default head sampling) — to
// measure the observability tax. Acceptance (ISSUE 8): always-on span
// recording costs <= 5% QPS versus the no-obs run; both figures, the
// ring drop accounting and a per-stage latency breakdown (from the
// recorded spans) land in BENCH_serving.json.
//
// A fourth phase replays the storm against 1/2/4/8 band shards
// (ISSUE 9): per-shard-count QPS rows land in the JSON as
// "shard_scaling", every row must stay bit-exact with zero torn pins,
// and a >= 2x QPS speedup at 4 shards is gated — unless storm clients x
// 8 shards oversubscribes the hardware threads, in which case the curve
// is recorded with "oversubscribed": true and the speedup is flagged,
// not gated.
//
// A fifth phase measures publish cost against churn (ISSUE 10): the
// same epoch publish loop at 1/5/25/100% dirty fraction, full-rebuild
// staging vs delta staging with a dirty-tile set, written to
// BENCH_publish.json. Gated: incremental cost scales with the dirty
// fraction and epochs/sec at 5% churn beats the full rebuild >= 10x.
//
// Emits BENCH_serving.json (override with O4A_BENCH_JSON, empty
// disables) and BENCH_publish.json (O4A_PUBLISH_JSON). Env knobs:
// O4A_BENCH_QUERIES (static-phase stream length), O4A_BENCH_CLIENTS
// (storm client threads), O4A_PUBLISH_GRID / O4A_PUBLISH_EPOCHS /
// O4A_PUBLISH_REPS (churn-curve layer size, epochs per point, and
// best-of repetitions), O4A_BENCH_STRICT (default 1: exit nonzero
// when a shape check misses).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "serve/serving_runtime.h"

namespace one4all {
namespace bench {
namespace {

std::vector<GridMask> MakeRegions(const STDataset& dataset) {
  RegionGeneratorOptions options;
  options.style = RegionStyle::kVoronoi;
  options.mean_cells = 12.0;
  options.seed = 17;
  auto regions = GenerateRegions(dataset.hierarchy().atomic_height(),
                                 dataset.hierarchy().atomic_width(),
                                 options);
  O4A_CHECK(!regions.empty());
  return regions;
}

struct StormOutcome {
  double qps = 0.0;
  int64_t answered = 0;
  int64_t inconsistent = 0;
  int64_t rejected = 0;
  double storm_seconds = 0.0;
  bool cross_shard_consistent = true;
  int64_t pin_retries = 0;
  ServingTelemetrySnapshot telemetry;
};

/// One row of the shard-scaling curve (phase 4).
struct ShardScalingRow {
  int shards = 1;
  int clients = 0;  ///< storm clients this row was sized to
  double qps = 0.0;
  int64_t answered = 0;
  bool consistent = true;
  int64_t pin_retries = 0;
  /// Even the minimum storm (2 clients x this row's scatter width)
  /// exceeds the hardware threads: recorded but exempt from the gate.
  bool oversubscribed = false;
};

struct ServingResult {
  double baseline_qps = 0.0;
  double serving_qps = 0.0;         ///< obs-on storm (production config)
  double serving_qps_no_obs = 0.0;  ///< recorder disabled
  double obs_overhead_pct = 0.0;    ///< (no_obs - obs) / no_obs, floored at 0
  double ratio = 0.0;               ///< obs-on vs static baseline
  int64_t serving_queries = 0;
  int64_t epochs_published = 0;
  double mean_publish_interval_ms = 0.0;
  double publish_p99_micros = 0.0;
  double query_p50_micros = 0.0;
  double query_p99_micros = 0.0;
  int64_t inconsistent = 0;
  int64_t rejected = 0;
  int64_t ring_events = 0;
  int64_t ring_dropped = 0;
  std::vector<ShardScalingRow> shard_scaling;
  double shard_speedup_4x = 0.0;  ///< 4-shard qps / 1-shard qps (phase 4)
  std::array<SpanAggregate, kNumSpanNames> stages{};
};

// One storm phase: the mixed batch storm against a fresh ServingRuntime
// whose every layer emits spans into `recorder` (enable/disable it
// before calling). Consistency is checked on every answer.
StormOutcome RunStorm(const STDataset& dataset,
                      const ExtendedQuadTree& index,
                      const std::vector<GridMask>& regions, int clients,
                      QueryStrategy strategy, TraceRecorder* recorder,
                      const char* label, int num_shards = 1,
                      int query_threads = 1) {
  const auto& slots = dataset.test_indices();
  ServingRuntimeOptions options;
  // Unsharded storms drive concurrency from the clients alone. Sharded
  // phase-4 rows pass 0, the work-sized fan-out: a storm batch's gather
  // fans out on the shared pool only when its estimated cell reads pay
  // for it, so batches this small run on the client thread like the
  // unsharded rows'.
  options.num_query_threads = query_threads;
  options.max_inflight_queries = 1 << 20;
  options.trace = recorder;
  options.num_shards = num_shards;
  options.ingest.start_t = slots.front();
  options.ingest.num_timesteps = static_cast<int64_t>(slots.size());
  // Paced well inside the 50 ms epoch-cadence budget; the ingest loop
  // still pays full stage+publish cost per epoch.
  options.ingest.min_publish_interval_ms = 10;
  ServingRuntime runtime(&dataset.hierarchy(), &index, &dataset,
                         MakeGroundTruthInference(&dataset), options);

  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> inconsistent{0};
  std::atomic<int64_t> rejected{0};

  runtime.Start();
  O4A_CHECK(runtime.ingestor().WaitUntilPublished(slots.front()));
  Stopwatch storm_timer;
  std::vector<std::thread> storm;
  for (int c = 0; c < clients; ++c) {
    storm.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(97 + c));
      while (!runtime.ingestor().done()) {
        const int64_t latest = runtime.published_latest_t();
        const int64_t span = latest - slots.front() + 1;
        // 256 random (region, t) draws, grouped by time slot: each
        // slot's regions (in draw order) become one multi-region spec.
        std::map<int64_t, std::vector<size_t>> picks_by_t;
        for (int i = 0; i < 256; ++i) {
          const size_t region =
              static_cast<size_t>(rng.UniformInt(regions.size()));
          const int64_t t =
              slots.front() +
              static_cast<int64_t>(
                  rng.UniformInt(static_cast<uint64_t>(span)));
          picks_by_t[t].push_back(region);
        }
        int64_t ok_count = 0;
        for (const auto& [t, picks] : picks_by_t) {
          std::vector<GridMask> group;
          group.reserve(picks.size());
          for (const size_t region : picks) group.push_back(regions[region]);
          auto result = runtime.ExecuteSpec(
              QuerySpec::MultiRegion(std::move(group), t, strategy));
          if (!result.ok()) {
            rejected.fetch_add(static_cast<int64_t>(picks.size()));
            continue;
          }
          for (size_t i = 0; i < picks.size(); ++i) {
            const Result<QueryRow>& row = result->rows[i];
            O4A_CHECK(row.ok()) << row.status().ToString();
            ++ok_count;
            // Ground-truth inference + exact-cover combinations:
            // every answer must reproduce the region's true flow.
            const double truth = RegionTruth(dataset, regions[picks[i]], t);
            if (std::abs(row->value - truth) >
                1e-3 * (1.0 + std::abs(truth))) {
              inconsistent.fetch_add(1);
            }
          }
        }
        answered.fetch_add(ok_count);
      }
    });
  }
  for (auto& client : storm) client.join();
  StormOutcome outcome;
  outcome.storm_seconds = storm_timer.ElapsedSeconds();
  runtime.Stop();
  O4A_CHECK(runtime.ingestor().status().ok())
      << runtime.ingestor().status().ToString();

  outcome.answered = answered.load();
  outcome.qps =
      static_cast<double>(outcome.answered) / outcome.storm_seconds;
  outcome.inconsistent = inconsistent.load();
  outcome.rejected = rejected.load();
  outcome.cross_shard_consistent = runtime.CrossShardConsistent();
  outcome.pin_retries =
      runtime.sharded() ? runtime.shards()->pin_retries() : 0;
  outcome.telemetry = runtime.Telemetry();

  std::cout << label << ": " << outcome.answered << " queries in "
            << TablePrinter::Num(outcome.storm_seconds, 3) << " s ("
            << TablePrinter::Num(outcome.qps, 0) << " q/s)\n";
  const auto cache_stats = runtime.cache().Stats();
  std::cout << "  resolve cache: hit rate "
            << TablePrinter::Num(cache_stats.hit_rate() * 100.0, 1)
            << "% over " << (cache_stats.hits + cache_stats.misses)
            << " lookups, invalidations " << cache_stats.invalidations
            << "\n";
  return outcome;
}

void WriteJson(const std::string& path, const ServingResult& r,
               int clients) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"serving_runtime\",\n";
  js << "  \"clients\": " << clients << ",\n";
  js << "  \"baseline_qps\": " << TablePrinter::Num(r.baseline_qps, 0)
     << ",\n";
  js << "  \"serving_qps\": " << TablePrinter::Num(r.serving_qps, 0)
     << ",\n";
  js << "  \"serving_qps_no_obs\": "
     << TablePrinter::Num(r.serving_qps_no_obs, 0) << ",\n";
  js << "  \"obs_overhead_pct\": "
     << TablePrinter::Num(r.obs_overhead_pct, 2) << ",\n";
  js << "  \"ratio\": " << TablePrinter::Num(r.ratio, 3) << ",\n";
  js << "  \"serving_queries\": " << r.serving_queries << ",\n";
  js << "  \"epochs_published\": " << r.epochs_published << ",\n";
  js << "  \"mean_publish_interval_ms\": "
     << TablePrinter::Num(r.mean_publish_interval_ms, 2) << ",\n";
  js << "  \"publish_p99_micros\": "
     << TablePrinter::Num(r.publish_p99_micros, 1) << ",\n";
  js << "  \"query_p50_micros\": "
     << TablePrinter::Num(r.query_p50_micros, 1) << ",\n";
  js << "  \"query_p99_micros\": "
     << TablePrinter::Num(r.query_p99_micros, 1) << ",\n";
  js << "  \"inconsistent\": " << r.inconsistent << ",\n";
  js << "  \"rejected\": " << r.rejected << ",\n";
  js << "  \"ring_events\": " << r.ring_events << ",\n";
  js << "  \"ring_dropped\": " << r.ring_dropped << ",\n";
  // Shard-scaling curve (phase 4): one row per shard count.
  js << "  \"shard_scaling\": [";
  for (size_t i = 0; i < r.shard_scaling.size(); ++i) {
    const auto& row = r.shard_scaling[i];
    js << (i == 0 ? "" : ", ") << "{\"shards\": " << row.shards
       << ", \"clients\": " << row.clients
       << ", \"qps\": " << TablePrinter::Num(row.qps, 0)
       << ", \"answered\": " << row.answered << ", \"consistent\": "
       << (row.consistent ? "true" : "false")
       << ", \"pin_retries\": " << row.pin_retries
       << ", \"oversubscribed\": "
       << (row.oversubscribed ? "true" : "false") << "}";
  }
  js << "],\n";
  js << "  \"shard_speedup_4x\": "
     << TablePrinter::Num(r.shard_speedup_4x, 3) << ",\n";
  // Stage-attributed latency breakdown from the obs-on storm's spans.
  js << "  \"stage_count\": {";
  bool first = true;
  for (int i = 0; i < kNumSpanNames; ++i) {
    if (r.stages[static_cast<size_t>(i)].count == 0) continue;
    js << (first ? "" : ", ") << "\""
       << SpanNameString(static_cast<SpanName>(i))
       << "\": " << r.stages[static_cast<size_t>(i)].count;
    first = false;
  }
  js << "},\n";
  js << "  \"stage_mean_micros\": {";
  first = true;
  for (int i = 0; i < kNumSpanNames; ++i) {
    const auto& agg = r.stages[static_cast<size_t>(i)];
    if (agg.count == 0) continue;
    js << (first ? "" : ", ") << "\""
       << SpanNameString(static_cast<SpanName>(i))
       << "\": " << TablePrinter::Num(agg.MeanMicros(), 2);
    first = false;
  }
  js << "}\n";
  js << "}\n";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << js.str();
  std::cout << "wrote " << path << "\n";
}

// ---------------------------------------------------------------------
// Phase 5: publish cost vs churn (ISSUE 10)

/// One churn point of the publish-cost curve.
struct ChurnRow {
  double churn_pct = 0.0;      ///< requested dirty fraction, percent
  int64_t dirty_tiles = 0;     ///< tiles the churn rect actually marks
  double full_ms = 0.0;        ///< mean ms/epoch, full-rebuild staging
  double incremental_ms = 0.0; ///< mean ms/epoch, delta staging
  double speedup = 0.0;        ///< full_ms / incremental_ms
  int64_t cow_shared_tiles = 0;
  int64_t stage_dirty_tiles = 0;
};

struct PublishChurnResult {
  int64_t height = 0, width = 0, total_tiles = 0;
  int64_t epochs_per_point = 0;
  std::vector<ChurnRow> curve;
  double speedup_at_5pct = 0.0;
};

/// Publishes `epochs` carry-forward epochs of one HxW layer, mutating a
/// tile-aligned square covering ~`churn` of the grid each timestep;
/// `incremental` stages with the churn rect's dirty set, the comparator
/// stages everything fresh. The square is tile-aligned so the requested
/// churn fraction and the dirty-tile fraction coincide — an unaligned
/// rect would only add tile-quantization overhead to every point, which
/// is not what the curve plots. Returns mean milliseconds per publish,
/// timing BeginEpoch through Publish only. The frame mutation and dirty
/// marking stay outside the timer, and the dirty set is an input on
/// purpose: the bench isolates staging+plane+publish cost — the
/// ingestor's mutation and frame diff belong to ingest cost, measured
/// by the storm.
double RunPublishLoop(int64_t h, int64_t w, double churn, int64_t epochs,
                      bool incremental, ServingTelemetry* telemetry,
                      int64_t* dirty_tiles_out) {
  PredictionStore store;
  FrameEpochManagerOptions options;
  options.retain_timesteps = 2;  // constant carry cost per epoch
  FrameEpochManager manager(&store, telemetry, options);

  Rng rng(1234);
  Tensor frame = Tensor::RandomUniform({h, w}, &rng, 0.0f, 50.0f);
  {
    auto staging = manager.BeginEpoch(/*carry_forward=*/false);
    staging.StageFrame(1, 0, frame);
    manager.Publish(std::move(staging));
  }

  const TileDirtySet probe(h, w);
  const int64_t side_tiles = std::min(
      std::min(probe.tiles_h(), probe.tiles_w()),
      std::max<int64_t>(
          1, std::llround(std::sqrt(
                 churn * static_cast<double>(probe.num_tiles())))));
  double publish_seconds = 0.0;
  for (int64_t t = 1; t <= epochs; ++t) {
    // Rotate the churn square through the grid so successive epochs
    // dirty different tiles (no warm-tile artifacts).
    const int64_t i0 = (t * 7) % (probe.tiles_h() - side_tiles + 1);
    const int64_t j0 = (t * 11) % (probe.tiles_w() - side_tiles + 1);
    const int64_t r0 = i0 * kSatTileSize;
    const int64_t c0 = j0 * kSatTileSize;
    const int64_t r1 = std::min(h, (i0 + side_tiles) * kSatTileSize);
    const int64_t c1 = std::min(w, (j0 + side_tiles) * kSatTileSize);
    for (int64_t r = r0; r < r1; ++r) {
      float* row = frame.data() + r * w;
      for (int64_t c = c0; c < c1; ++c) {
        row[c] += 0.5f;
      }
    }
    TileDirtySet dirty(h, w);
    dirty.MarkRect(r0, c0, r1, c1);
    if (dirty_tiles_out != nullptr) *dirty_tiles_out = dirty.CountDirty();

    Stopwatch timer;
    auto staging = manager.BeginEpoch(/*carry_forward=*/true);
    const Status status =
        staging.TryStageFrame(1, t, frame, incremental ? &dirty : nullptr);
    O4A_CHECK(status.ok()) << status.ToString();
    manager.Publish(std::move(staging));
    publish_seconds += timer.ElapsedSeconds();
  }
  return publish_seconds * 1e3 / static_cast<double>(epochs);
}

PublishChurnResult RunPublishChurn() {
  PublishChurnResult result;
  result.height = EnvInt("O4A_PUBLISH_GRID", 2048);
  result.width = result.height;
  result.epochs_per_point = EnvInt("O4A_PUBLISH_EPOCHS", 30);
  {
    const TileDirtySet probe(result.height, result.width);
    result.total_tiles = probe.num_tiles();
  }

  // Best-of-reps: each point's mean ms/epoch is itself noisy on a
  // loaded box (allocator and scheduler interference), and the work per
  // epoch is deterministic, so the minimum across repetitions is the
  // least-contaminated estimate of either path's true cost.
  const int64_t reps = EnvInt("O4A_PUBLISH_REPS", 3);
  for (const double churn : {0.01, 0.05, 0.25, 1.0}) {
    ChurnRow row;
    row.churn_pct = churn * 100.0;
    row.full_ms = std::numeric_limits<double>::infinity();
    row.incremental_ms = std::numeric_limits<double>::infinity();
    for (int64_t rep = 0; rep < reps; ++rep) {
      row.full_ms = std::min(
          row.full_ms,
          RunPublishLoop(result.height, result.width, churn,
                         result.epochs_per_point, /*incremental=*/false,
                         nullptr, nullptr));
      // Counters are deterministic across reps; keep the last snapshot.
      ServingTelemetry telemetry;
      row.incremental_ms = std::min(
          row.incremental_ms,
          RunPublishLoop(result.height, result.width, churn,
                         result.epochs_per_point, /*incremental=*/true,
                         &telemetry, &row.dirty_tiles));
      const auto snapshot = telemetry.Snapshot();
      row.cow_shared_tiles = snapshot.cow_shared_tiles;
      row.stage_dirty_tiles = snapshot.stage_dirty_tiles;
    }
    row.speedup = row.full_ms / std::max(1e-9, row.incremental_ms);
    result.curve.push_back(row);
    if (churn == 0.05) result.speedup_at_5pct = row.speedup;
  }

  TablePrinter table("Publish cost vs churn (" +
                     std::to_string(result.height) + "x" +
                     std::to_string(result.width) + " layer, " +
                     std::to_string(result.epochs_per_point) +
                     " epochs/point)");
  table.SetHeader({"Churn %", "dirty tiles", "full ms", "incr ms",
                   "speedup"});
  for (const auto& row : result.curve) {
    table.AddRow({TablePrinter::Num(row.churn_pct, 0),
                  std::to_string(row.dirty_tiles) + "/" +
                      std::to_string(result.total_tiles),
                  TablePrinter::Num(row.full_ms, 3),
                  TablePrinter::Num(row.incremental_ms, 3),
                  TablePrinter::Num(row.speedup, 1)});
  }
  table.Print(std::cout);
  return result;
}

void WritePublishJson(const std::string& path,
                      const PublishChurnResult& r) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"publish_churn\",\n";
  js << "  \"height\": " << r.height << ",\n";
  js << "  \"width\": " << r.width << ",\n";
  js << "  \"total_tiles\": " << r.total_tiles << ",\n";
  js << "  \"epochs_per_point\": " << r.epochs_per_point << ",\n";
  js << "  \"curve\": [";
  for (size_t i = 0; i < r.curve.size(); ++i) {
    const auto& row = r.curve[i];
    js << (i == 0 ? "" : ", ") << "{\"churn_pct\": "
       << TablePrinter::Num(row.churn_pct, 0)
       << ", \"dirty_tiles\": " << row.dirty_tiles
       << ", \"full_ms_per_epoch\": " << TablePrinter::Num(row.full_ms, 4)
       << ", \"incremental_ms_per_epoch\": "
       << TablePrinter::Num(row.incremental_ms, 4)
       << ", \"incremental_epochs_per_sec\": "
       << TablePrinter::Num(1e3 / std::max(1e-9, row.incremental_ms), 0)
       << ", \"speedup\": " << TablePrinter::Num(row.speedup, 2)
       << ", \"stage_dirty_tiles\": " << row.stage_dirty_tiles
       << ", \"cow_shared_tiles\": " << row.cow_shared_tiles << "}";
  }
  js << "],\n";
  js << "  \"speedup_at_5pct_churn\": "
     << TablePrinter::Num(r.speedup_at_5pct, 2) << "\n";
  js << "}\n";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << js.str();
  std::cout << "wrote " << path << "\n";
}

int main_impl() {
  BenchConfig config = BenchConfig::FromEnv();
  const int64_t num_queries =
      std::max<int64_t>(1, EnvInt("O4A_BENCH_QUERIES", 4000));
  const int clients = static_cast<int>(std::max<int64_t>(
      1, EnvInt("O4A_BENCH_CLIENTS",
                std::max(2, ThreadPool::HardwareThreads() - 1))));

  const STDataset dataset = MakeBenchDataset(DatasetKind::kTaxi, config);
  HistoryMeanPredictor hm;  // throughput is model-independent
  auto pipeline = MauPipeline::Build(&hm, dataset, SearchOptions{});
  const auto regions = MakeRegions(dataset);
  const auto& slots = dataset.test_indices();
  const QueryStrategy strategy = QueryStrategy::kUnionSubtraction;
  ServingResult result;

  // -- Phase 1: static-store baseline (frames pre-synced) -------------
  // The stream cycles the region set over the test slots; each slot's
  // run of regions is one multi-region spec.
  {
    std::vector<QuerySpec> slot_specs;
    std::vector<GridMask> group;
    int64_t queued = 0;
    size_t r = 0, s = 0;
    while (queued < num_queries) {
      group.push_back(regions[r]);
      ++queued;
      const bool slot_done = ++r == regions.size();
      if (slot_done || queued == num_queries) {
        slot_specs.push_back(
            QuerySpec::MultiRegion(std::move(group), slots[s], strategy));
        group = {};
      }
      if (slot_done) {
        r = 0;
        s = (s + 1) % slots.size();
      }
    }
    const QueryPlanner planner(&dataset.hierarchy());
    const QueryExecutor executor(&pipeline->server());
    ResolvedQueryCache cache;
    ThreadPool pool(ThreadPool::HardwareThreads());
    ScopedComputePool scoped(&pool);
    QueryExecutorOptions options;
    options.cache = &cache;
    Stopwatch timer;
    std::vector<QueryResult> results;
    results.reserve(slot_specs.size());
    for (const QuerySpec& spec : slot_specs) {
      auto plan = planner.Plan(spec);
      O4A_CHECK(plan.ok()) << plan.status().ToString();
      results.push_back(executor.Execute(*plan, options));
    }
    const double seconds = timer.ElapsedSeconds();
    for (const QueryResult& answer : results) {
      for (const Result<QueryRow>& row : answer.rows) {
        O4A_CHECK(row.ok()) << row.status().ToString();
      }
    }
    result.baseline_qps = static_cast<double>(queued) / seconds;
    std::cout << "static baseline: " << queued << " queries in "
              << TablePrinter::Num(seconds, 3) << " s ("
              << TablePrinter::Num(result.baseline_qps, 0) << " q/s)\n";
  }

  // -- Phase 2: the storm with the trace recorder disabled ------------
  // Fresh recorders per phase so the obs-on ring accounting below is
  // exactly one storm's worth of events.
  StormOutcome no_obs;
  {
    TraceRecorder recorder;
    recorder.set_enabled(false);
    no_obs = RunStorm(dataset, pipeline->index(), regions, clients,
                      strategy, &recorder, "storm (no obs)");
    O4A_CHECK_EQ(recorder.total_events(), 0);
  }

  // -- Phase 3: the same storm with always-on recording ---------------
  StormOutcome obs;
  TraceRecorder obs_recorder;  // default head sampling (1-in-16 trees)
  obs = RunStorm(dataset, pipeline->index(), regions, clients, strategy,
                 &obs_recorder, "storm (obs on)");
  obs.telemetry.Render("Serving telemetry (obs-on storm)")
      .Print(std::cout);

  result.serving_qps = obs.qps;
  result.serving_qps_no_obs = no_obs.qps;
  result.obs_overhead_pct =
      std::max(0.0, (no_obs.qps - obs.qps) / no_obs.qps * 100.0);
  result.ratio = result.serving_qps / result.baseline_qps;
  result.serving_queries = obs.answered;
  result.epochs_published = obs.telemetry.epochs_published;
  result.mean_publish_interval_ms =
      obs.storm_seconds * 1e3 /
      static_cast<double>(
          std::max<int64_t>(1, obs.telemetry.epochs_published));
  result.publish_p99_micros = obs.telemetry.publish_p99_micros;
  result.query_p50_micros = obs.telemetry.query_p50_micros;
  result.query_p99_micros = obs.telemetry.query_p99_micros;
  result.inconsistent = obs.inconsistent + no_obs.inconsistent;
  result.rejected = obs.rejected + no_obs.rejected;
  result.ring_events = obs_recorder.total_events();
  result.ring_dropped = obs_recorder.dropped_events();
  result.stages = AggregateBySpanName(obs_recorder.Snapshot());

  TablePrinter table("Serving throughput while epochs roll (" +
                     std::to_string(clients) + " storm clients)");
  table.SetHeader({"Mode", "queries/s", "vs static"});
  table.AddRow({"static multi-region baseline",
                TablePrinter::Num(result.baseline_qps, 0), "1.00"});
  table.AddRow({"ServingRuntime, obs disabled",
                TablePrinter::Num(result.serving_qps_no_obs, 0),
                TablePrinter::Num(result.serving_qps_no_obs /
                                      result.baseline_qps, 2)});
  table.AddRow({"ServingRuntime, obs on",
                TablePrinter::Num(result.serving_qps, 0),
                TablePrinter::Num(result.ratio, 2)});
  table.Print(std::cout);
  std::cout << "epochs published: " << result.epochs_published
            << " (mean interval "
            << TablePrinter::Num(result.mean_publish_interval_ms, 1)
            << " ms)\n";
  std::cout << "observability tax: "
            << TablePrinter::Num(result.obs_overhead_pct, 2)
            << "% QPS; trace ring: " << result.ring_events
            << " events, " << result.ring_dropped << " dropped\n";
  // Per-stage latency attribution from the recorded spans.
  {
    TablePrinter stages("Stage-attributed latency (obs-on storm spans)");
    stages.SetHeader({"Stage", "count", "mean (us)"});
    for (int i = 0; i < kNumSpanNames; ++i) {
      const auto& agg = result.stages[static_cast<size_t>(i)];
      if (agg.count == 0) continue;
      stages.AddRow({SpanNameString(static_cast<SpanName>(i)),
                     std::to_string(agg.count),
                     TablePrinter::Num(agg.MeanMicros(), 2)});
    }
    stages.Print(std::cout);
  }

  // -- Phase 4: shard-scaling curve -----------------------------------
  // The same storm against 1/2/4/8 band shards, recorder disabled so
  // the curve measures the sharded gather path alone. Each sharded row
  // runs hardware threads / shards clients (at least 2), a budget sized
  // for a per-spec fan-out N wide; with the work-sized fan-out a storm
  // batch stays on its client thread, so sharded rows run fewer busy
  // threads than the 1-shard row. Only a row whose
  // minimum storm (2 clients x shards) still exceeds the box — in
  // practice the 8-shard row on small machines — is flagged
  // oversubscribed and exempted from the speedup gate.
  const int hw = ThreadPool::HardwareThreads();
  for (const int shards : {1, 2, 4, 8}) {
    const int row_clients = std::max(
        2, std::min(clients, shards > 1 ? hw / shards : hw - 1));
    TraceRecorder recorder;
    recorder.set_enabled(false);
    const std::string label =
        "storm (" + std::to_string(shards) + " shard" +
        (shards > 1 ? "s" : "") + ", " + std::to_string(row_clients) +
        " clients)";
    const StormOutcome outcome = RunStorm(
        dataset, pipeline->index(), regions, row_clients, strategy,
        &recorder, label.c_str(), shards, shards > 1 ? 0 : 1);
    ShardScalingRow row;
    row.shards = shards;
    row.clients = row_clients;
    row.qps = outcome.qps;
    row.answered = outcome.answered;
    row.consistent =
        outcome.cross_shard_consistent && outcome.inconsistent == 0;
    row.pin_retries = outcome.pin_retries;
    row.oversubscribed = 2 * shards > hw;
    result.shard_scaling.push_back(row);
  }
  result.shard_speedup_4x =
      result.shard_scaling[2].qps /
      std::max(1.0, result.shard_scaling[0].qps);
  {
    TablePrinter scaling("Shard-scaling storm QPS (" +
                         std::to_string(hw) + " hardware threads)");
    scaling.SetHeader({"Shards", "clients", "queries/s", "vs 1 shard",
                       "pin retries"});
    for (const auto& row : result.shard_scaling) {
      scaling.AddRow(
          {std::to_string(row.shards) +
               (row.oversubscribed ? " (oversubscribed)" : ""),
           std::to_string(row.clients), TablePrinter::Num(row.qps, 0),
           TablePrinter::Num(
               row.qps / std::max(1.0, result.shard_scaling[0].qps), 2),
           std::to_string(row.pin_retries)});
    }
    scaling.Print(std::cout);
  }

  // -- Phase 5: publish cost vs churn ---------------------------------
  const PublishChurnResult publish = RunPublishChurn();

  const char* json_env = std::getenv("O4A_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_serving.json";
  if (!json_path.empty()) WriteJson(json_path, result, clients);
  const char* publish_env = std::getenv("O4A_PUBLISH_JSON");
  const std::string publish_path =
      publish_env != nullptr ? publish_env : "BENCH_publish.json";
  if (!publish_path.empty()) WritePublishJson(publish_path, publish);

  const bool throughput_ok = result.ratio >= 0.5;
  const bool cadence_ok = result.mean_publish_interval_ms <= 50.0;
  const bool consistent_ok = result.inconsistent == 0;
  const bool overhead_ok = result.obs_overhead_pct <= 5.0;
  bool shard_consistent_ok = true;
  for (const auto& row : result.shard_scaling) {
    shard_consistent_ok = shard_consistent_ok && row.consistent;
  }
  // The scaling gate needs real parallel headroom; it is skipped only
  // when the 4-shard row itself could not fit the machine.
  const bool gate_row_oversubscribed =
      result.shard_scaling[2].oversubscribed;
  const bool scaling_ok =
      gate_row_oversubscribed || result.shard_speedup_4x >= 2.0;
  PrintShapeCheck(
      "serving throughput within 2x of the static-store baseline",
      throughput_ok);
  PrintShapeCheck("an epoch published at least every 50 ms", cadence_ok);
  PrintShapeCheck("zero torn/inconsistent answers under the storm",
                  consistent_ok);
  PrintShapeCheck("always-on span recording costs <= 5% QPS",
                  overhead_ok);
  PrintShapeCheck(
      "every shard-scaling row consistent (bit-exact, zero torn pins)",
      shard_consistent_ok);
  PrintShapeCheck(
      gate_row_oversubscribed
          ? ">= 2x storm QPS at 4 shards (SKIPPED: oversubscribed box)"
          : ">= 2x storm QPS at 4 shards vs 1 shard",
      scaling_ok);
  // Publish-churn gates: incremental cost actually scales with the
  // dirty fraction, and 5% churn publishes >= 10x faster than a full
  // rebuild — the ISSUE-10 acceptance bar.
  const bool churn_scaling_ok =
      publish.curve.front().incremental_ms <
      publish.curve.back().incremental_ms;
  const bool churn_speedup_ok = publish.speedup_at_5pct >= 10.0;
  PrintShapeCheck(
      "incremental publish cost scales with the dirty fraction",
      churn_scaling_ok);
  PrintShapeCheck(">= 10x epochs/sec at 5% churn vs full rebuild",
                  churn_speedup_ok);

  const char* strict_env = std::getenv("O4A_BENCH_STRICT");
  const bool strict = strict_env == nullptr || std::atoi(strict_env) != 0;
  const bool ok = throughput_ok && cadence_ok && consistent_ok &&
                  overhead_ok && shard_consistent_ok && scaling_ok &&
                  churn_scaling_ok && churn_speedup_ok;
  return (ok || !strict) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  std::cout << "=== Serving runtime: sustained throughput under epoch "
               "rolls ===\n";
  return one4all::bench::main_impl();
}
