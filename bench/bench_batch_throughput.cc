// Throughput of the concurrent region-query engine: queries/sec of
// multi-region specs — each time slot's regions grouped into one
// QuerySpec::MultiRegion, run with frame memoization, the sharded LRU
// resolve cache and a thread pool — at 1, 4, and hardware threads,
// against a one-query-at-a-time loop of uncached point specs.
// Production traffic re-queries the same areal units (tracts, hexagons,
// road segments) across time slots, so the stream cycles a fixed region
// set over many slots.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"

namespace one4all {
namespace bench {
namespace {

struct ModeResult {
  std::string name;
  double seconds = 0.0;
  double qps = 0.0;
  double speedup = 1.0;
};

/// \brief The query stream as one MultiRegion spec per time slot.
struct QueryStream {
  std::vector<QuerySpec> slot_specs;
  int64_t num_queries = 0;
};

QueryStream MakeQueryStream(const STDataset& dataset,
                            int64_t target_queries) {
  RegionGeneratorOptions options;
  options.style = RegionStyle::kVoronoi;
  options.mean_cells = 12.0;
  options.seed = 17;
  const auto regions = GenerateRegions(dataset.hierarchy().atomic_height(),
                                       dataset.hierarchy().atomic_width(),
                                       options);
  O4A_CHECK(!regions.empty());
  // Cycle regions across the test slots until the stream is long enough —
  // the region-reuse pattern the resolve cache is built for. Each slot's
  // run of regions becomes one spec.
  const auto& slots = dataset.test_indices();
  QueryStream stream;
  std::vector<GridMask> group;
  size_t r = 0, s = 0;
  while (stream.num_queries < target_queries) {
    group.push_back(regions[r]);
    ++stream.num_queries;
    const bool slot_done = ++r == regions.size();
    if (slot_done || stream.num_queries == target_queries) {
      stream.slot_specs.push_back(
          QuerySpec::MultiRegion(std::move(group), slots[s]));
      group = {};
    }
    if (slot_done) {
      r = 0;
      s = (s + 1) % slots.size();
    }
  }
  std::cout << "query stream: " << stream.num_queries << " queries over "
            << regions.size() << " distinct regions x " << slots.size()
            << " time slots (" << stream.slot_specs.size()
            << " multi-region specs)\n";
  return stream;
}

double ChecksumOrDie(const std::vector<QueryResult>& results) {
  double sum = 0.0;
  for (const QueryResult& result : results) {
    for (const Result<QueryRow>& row : result.rows) {
      O4A_CHECK(row.ok()) << row.status().ToString();
      sum += row->value;
    }
  }
  return sum;
}

int main_impl() {
  BenchConfig config = BenchConfig::FromEnv();
  const char* env_queries = std::getenv("O4A_BENCH_QUERIES");
  int64_t num_queries = env_queries != nullptr ? std::atoll(env_queries) : 0;
  if (num_queries <= 0) {
    if (env_queries != nullptr) {
      std::cerr << "ignoring O4A_BENCH_QUERIES=\"" << env_queries
                << "\" (want a positive integer)\n";
    }
    num_queries = 4000;
  }

  const STDataset dataset = MakeBenchDataset(DatasetKind::kTaxi, config);
  HistoryMeanPredictor hm;  // throughput is model-independent
  auto pipeline = MauPipeline::Build(&hm, dataset, SearchOptions{});
  const QueryPlanner planner(&dataset.hierarchy());
  const QueryExecutor executor(&pipeline->server());
  const QueryStream stream = MakeQueryStream(dataset, num_queries);

  std::vector<ModeResult> modes;
  double reference_checksum = 0.0;

  // Baseline: the seed's serving loop — one uncached point spec per
  // query, on the calling thread.
  {
    Stopwatch timer;
    double sum = 0.0;
    for (const QuerySpec& slot : stream.slot_specs) {
      for (const GridMask& region : slot.regions) {
        auto plan =
            planner.Plan(QuerySpec::PointInTime(region, slot.time.t0));
        O4A_CHECK(plan.ok());
        const Result<QueryRow> row = executor.Execute(*plan).rows[0];
        O4A_CHECK(row.ok());
        sum += row->value;
      }
    }
    ModeResult mode;
    mode.name = "sequential point-spec loop";
    mode.seconds = timer.ElapsedSeconds();
    modes.push_back(mode);
    reference_checksum = sum;
  }

  // 1, 4, and hardware threads, keeping order and dropping duplicates.
  std::vector<int> thread_counts;
  for (int threads : {1, 4, ThreadPool::HardwareThreads()}) {
    if (std::find(thread_counts.begin(), thread_counts.end(), threads) ==
        thread_counts.end()) {
      thread_counts.push_back(threads);
    }
  }

  for (int threads : thread_counts) {
    ResolvedQueryCache cache;
    ThreadPool pool(threads);
    QueryExecutorOptions options;
    options.pool = &pool;
    options.cache = &cache;
    Stopwatch timer;
    std::vector<QueryResult> results;
    results.reserve(stream.slot_specs.size());
    for (const QuerySpec& slot : stream.slot_specs) {
      auto plan = planner.Plan(slot);
      O4A_CHECK(plan.ok());
      results.push_back(executor.Execute(*plan, options));
    }
    ModeResult mode;
    mode.seconds = timer.ElapsedSeconds();
    mode.name = "multi-region specs, cache, " + std::to_string(threads) +
                (threads == 1 ? " thread" : " threads");
    const double checksum = ChecksumOrDie(results);
    O4A_CHECK(std::abs(checksum - reference_checksum) <
              1e-6 * (1.0 + std::abs(reference_checksum)))
        << "multi-region checksum drifted from sequential";
    const auto stats = cache.Stats();
    std::cout << mode.name << ": cache hits=" << stats.hits
              << " misses=" << stats.misses
              << " evictions=" << stats.evictions << "\n";
    modes.push_back(mode);
  }

  TablePrinter table("Batch region-query throughput (" +
                     std::to_string(dataset.hierarchy().atomic_height()) +
                     "x" +
                     std::to_string(dataset.hierarchy().atomic_width()) +
                     " raster, Union & Subtraction)");
  table.SetHeader({"Mode", "time (s)", "queries/s", "speedup"});
  const double base_seconds = modes.front().seconds;
  double best_speedup = 0.0;
  for (ModeResult& mode : modes) {
    mode.qps = static_cast<double>(stream.num_queries) / mode.seconds;
    mode.speedup = base_seconds / mode.seconds;
    best_speedup = std::max(best_speedup, mode.speedup);
    table.AddRow({mode.name, TablePrinter::Num(mode.seconds, 3),
                  TablePrinter::Num(mode.qps, 0),
                  TablePrinter::Num(mode.speedup, 2)});
  }
  table.Print(std::cout);
  PrintShapeCheck(
      "multi-region specs beat the sequential loop by more than 2x",
      best_speedup > 2.0);
  return best_speedup > 2.0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  std::cout << "=== Batch throughput: concurrent region-query engine ===\n";
  return one4all::bench::main_impl();
}
