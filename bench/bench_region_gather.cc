// The columnar gather engine against the PR-4 per-cell term loop:
//
//   1. rect-heavy multi-region gather: >= 64 axis-aligned (but
//      grid-misaligned) rect regions over a 16-step range, executed as
//      one grouped plan with EvalPath::kExactCellLoop vs kSatFastPath.
//      Both sides run warm (resolve cache filled, stats reset), so the
//      ratio isolates the gather stage the tentpole rebuilt. Acceptance
//      (ISSUE 5): >= 5x.
//   2. top-k latency at the PR-4 bench scale (the 85 Voronoi regions of
//      bench_query_plans, k=5): steady-state latency of the ranked
//      grouped gather, warm-cache exact vs fast plus the cold resolve
//      latency for context. Acceptance: fast path < 400 us.
//
// Emits BENCH_gather.json (override with O4A_BENCH_JSON, empty
// disables). Env knobs: O4A_BENCH_REPS (timed repetitions, default 15),
// O4A_BENCH_RANGE_STEPS (default 16), O4A_BENCH_STRICT (default 1: exit
// nonzero when a shape check misses).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "core/stopwatch.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"

namespace one4all {
namespace bench {
namespace {

/// \brief Ground truth plus per-layer Gaussian noise, finer layers
/// noisier — the paper's regime (atomic cells are the hardest to
/// predict), under which the combination search genuinely prefers
/// coarse-grid and subtraction combinations. Model-independent and
/// cheap, like bench_query_plans' HistoryMean choice, but with the
/// realistic per-scale error profile the gather engine is shaped by.
class LayerNoisePredictor : public FlowPredictor {
 public:
  explicit LayerNoisePredictor(uint64_t seed) : rng_(seed) {}

  std::string Name() const override { return "LayerNoise"; }

  std::vector<int> NativeLayers(const STDataset& dataset) const override {
    std::vector<int> layers;
    for (int l = 1; l <= dataset.hierarchy().num_layers(); ++l) {
      layers.push_back(l);
    }
    return layers;
  }

  Tensor PredictLayer(const STDataset& dataset,
                      const std::vector<int64_t>& timesteps,
                      int layer) override {
    const LayerInfo& info = dataset.hierarchy().layer(layer);
    const int64_t n = static_cast<int64_t>(timesteps.size());
    Tensor out({n, 1, info.height, info.width});
    // Halve the noise per coarser layer: sigma 3.0 at the atomic raster.
    const double sigma = 3.0 / static_cast<double>(int64_t{1} << (layer - 1));
    for (int64_t s = 0; s < n; ++s) {
      const Tensor& frame = dataset.FrameAtLayer(
          timesteps[static_cast<size_t>(s)], layer);
      float* dst = out.data() + s * info.height * info.width;
      for (int64_t i = 0; i < info.height * info.width; ++i) {
        dst[i] = frame[i] + static_cast<float>(rng_.Normal(0.0, sigma));
      }
    }
    return out;
  }

 private:
  Rng rng_;
};

struct GatherBenchResult {
  int64_t num_rect_regions = 0;
  int64_t range_steps = 0;
  int64_t exact_terms = 0;      ///< per-timestep term reads, whole plan
  int64_t fast_reads = 0;       ///< per-timestep plane+residue reads
  double multi_exact_micros = 0.0;
  double multi_fast_micros = 0.0;
  double multi_speedup = 0.0;
  int64_t topk_regions = 0;
  double topk_exact_micros = 0.0;
  double topk_fast_micros = 0.0;
  double topk_cold_micros = 0.0;  ///< cache-empty fast path, for context
  double topk_speedup = 0.0;
};

void WriteJson(const std::string& path, const GatherBenchResult& r) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"region_gather\",\n";
  js << "  \"num_rect_regions\": " << r.num_rect_regions << ",\n";
  js << "  \"range_steps\": " << r.range_steps << ",\n";
  js << "  \"exact_terms_per_step\": " << r.exact_terms << ",\n";
  js << "  \"fast_reads_per_step\": " << r.fast_reads << ",\n";
  js << "  \"multi_exact_micros\": "
     << TablePrinter::Num(r.multi_exact_micros, 1) << ",\n";
  js << "  \"multi_fast_micros\": "
     << TablePrinter::Num(r.multi_fast_micros, 1) << ",\n";
  js << "  \"multi_speedup\": " << TablePrinter::Num(r.multi_speedup, 2)
     << ",\n";
  js << "  \"topk_regions\": " << r.topk_regions << ",\n";
  js << "  \"topk_exact_micros\": "
     << TablePrinter::Num(r.topk_exact_micros, 1) << ",\n";
  js << "  \"topk_fast_micros\": "
     << TablePrinter::Num(r.topk_fast_micros, 1) << ",\n";
  js << "  \"topk_cold_micros\": "
     << TablePrinter::Num(r.topk_cold_micros, 1) << ",\n";
  js << "  \"topk_speedup\": " << TablePrinter::Num(r.topk_speedup, 2)
     << "\n";
  js << "}\n";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << js.str();
  std::cout << "wrote " << path << "\n";
}

/// \brief >= 64 axis-aligned rect regions at random (grid-misaligned)
/// offsets and sizes: the decomposition shatters their borders into long
/// unit-cell runs, exactly the shape the SAT rect reads collapse.
std::vector<GridMask> MakeRectRegions(int64_t h, int64_t w, int64_t count,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<GridMask> regions;
  regions.reserve(static_cast<size_t>(count));
  while (static_cast<int64_t>(regions.size()) < count) {
    const int64_t rh = 6 + static_cast<int64_t>(rng.UniformInt(
                              static_cast<uint64_t>(h - 8)));
    const int64_t rw = 6 + static_cast<int64_t>(rng.UniformInt(
                              static_cast<uint64_t>(w - 8)));
    const int64_t r0 = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(h - rh + 1)));
    const int64_t c0 = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(w - rw + 1)));
    GridMask region(h, w);
    region.FillRect(r0, c0, r0 + rh, c0 + rw);
    regions.push_back(std::move(region));
  }
  return regions;
}

// Both timed stages are sub-millisecond, so a deep best-of floor is
// nearly free and keeps the 5x gate from tripping on scheduler spikes
// when the runner core is shared.
int Reps() {
  const char* env = std::getenv("O4A_BENCH_REPS");
  if (env == nullptr) return 15;
  return std::max(1, atoi(env));
}

int main_impl() {
  BenchConfig config = BenchConfig::FromEnv();
  const int reps = Reps();
  const int64_t range_steps =
      std::max<int64_t>(2, EnvInt("O4A_BENCH_RANGE_STEPS", 16));

  const STDataset dataset = MakeBenchDataset(DatasetKind::kTaxi, config);
  LayerNoisePredictor predictor(29);
  auto pipeline = MauPipeline::Build(&predictor, dataset, SearchOptions{});
  const RegionQueryServer& server = pipeline->server();
  QueryPlanner planner(&dataset.hierarchy());
  QueryExecutor executor(&server);

  const int64_t h = dataset.hierarchy().atomic_height();
  const int64_t w = dataset.hierarchy().atomic_width();
  const auto& slots = dataset.test_indices();
  O4A_CHECK(static_cast<int64_t>(slots.size()) >= range_steps)
      << "test window shorter than the requested range";
  const int64_t t0 = slots.front();
  const int64_t t1 = t0 + range_steps - 1;

  GatherBenchResult result;
  result.range_steps = range_steps;

  // Steady-state latency: warm the resolve cache once (so both paths pay
  // identical cache probes, not decomposition), then best-of-reps. Both
  // paths run on the calling thread: the ratio compares the two gather
  // algorithms, not how well each one's stages fan out.
  const auto steady_micros = [&](const QueryPlan& plan,
                                 ResolvedQueryCache* cache,
                                 double* checksum) {
    QueryExecutorOptions options;
    options.num_threads = 1;
    options.cache = cache;
    (void)executor.Execute(plan, options);  // warmup fills the cache
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch timer;
      const QueryResult r = executor.Execute(plan, options);
      best = std::min(best, timer.ElapsedMicros());
      double sum = 0.0;
      for (const auto& row : r.rows) {
        O4A_CHECK(row.ok()) << row.status().ToString();
        sum += row.ValueOrDie().value;
      }
      *checksum = sum;
    }
    return best;
  };

  // -- 1. Rect-heavy multi-region gather, exact vs fast ------------------
  {
    const auto regions = MakeRectRegions(h, w, 96, 21);
    result.num_rect_regions = static_cast<int64_t>(regions.size());

    QuerySpec exact_spec = QuerySpec::MultiRegion(regions, t0);
    exact_spec.time = TimeSelector::Range(t0, t1);
    QuerySpec fast_spec = exact_spec;
    fast_spec.eval_path = EvalPath::kSatFastPath;

    auto exact_plan = planner.Plan(exact_spec);
    auto fast_plan = planner.Plan(fast_spec);
    O4A_CHECK(exact_plan.ok() && fast_plan.ok());

    // Program statistics: what the compilation actually collapsed.
    ResolvedQueryCache cache;
    for (const GridMask& region : regions) {
      auto resolved = server.ResolveCached(
          region, exact_spec.strategy,
          FingerprintRegion(region, exact_spec.strategy), &cache);
      O4A_CHECK(resolved.ok());
      result.exact_terms +=
          static_cast<int64_t>((**resolved).terms.size());
      result.fast_reads += (**resolved).gather.num_reads();
    }

    double exact_checksum = 0.0, fast_checksum = 0.0;
    result.multi_exact_micros =
        steady_micros(*exact_plan, &cache, &exact_checksum);
    result.multi_fast_micros =
        steady_micros(*fast_plan, &cache, &fast_checksum);
    result.multi_speedup =
        result.multi_exact_micros / result.multi_fast_micros;
    O4A_CHECK(std::abs(fast_checksum - exact_checksum) <
              1e-6 * (1.0 + std::abs(exact_checksum)))
        << "fast-path values drifted from the exact cell loop";
  }

  // -- 2. Top-k at the PR-4 bench scale ----------------------------------
  {
    RegionGeneratorOptions region_options;
    region_options.style = RegionStyle::kVoronoi;
    region_options.mean_cells = 12.0;
    region_options.seed = 17;  // the bench_query_plans region set
    const auto regions = GenerateRegions(h, w, region_options);
    O4A_CHECK(!regions.empty());
    result.topk_regions = static_cast<int64_t>(regions.size());

    QuerySpec exact_spec = QuerySpec::TopK(regions, t1, 5);
    QuerySpec fast_spec = exact_spec;
    fast_spec.eval_path = EvalPath::kSatFastPath;
    auto exact_plan = planner.Plan(exact_spec);
    auto fast_plan = planner.Plan(fast_spec);
    O4A_CHECK(exact_plan.ok() && fast_plan.ok());

    // Cold: first execution against an empty cache (pays decomposition
    // + index retrieval), the number PR-4 reported. For context only.
    {
      ResolvedQueryCache cold_cache;
      QueryExecutorOptions options;
      options.cache = &cold_cache;
      Stopwatch timer;
      const QueryResult r = executor.Execute(*fast_plan, options);
      result.topk_cold_micros = timer.ElapsedMicros();
      O4A_CHECK(!r.top_k.empty());
    }

    ResolvedQueryCache cache;
    double exact_checksum = 0.0, fast_checksum = 0.0;
    result.topk_exact_micros =
        steady_micros(*exact_plan, &cache, &exact_checksum);
    result.topk_fast_micros =
        steady_micros(*fast_plan, &cache, &fast_checksum);
    result.topk_speedup =
        result.topk_exact_micros / result.topk_fast_micros;
    O4A_CHECK(std::abs(fast_checksum - exact_checksum) <
              1e-6 * (1.0 + std::abs(exact_checksum)));
  }

  TablePrinter table("Region gather: SAT fast path vs exact cell loop");
  table.SetHeader({"Shape", "exact", "fast", "speedup"});
  table.AddRow({"MultiRegion " + std::to_string(result.num_rect_regions) +
                    " rects x " + std::to_string(range_steps) + " steps",
                TablePrinter::Num(result.multi_exact_micros / 1e3, 2) +
                    " ms",
                TablePrinter::Num(result.multi_fast_micros / 1e3, 2) +
                    " ms",
                TablePrinter::Num(result.multi_speedup, 2) + "x"});
  table.AddRow({"TopK k=5 over " + std::to_string(result.topk_regions) +
                    " regions (warm)",
                TablePrinter::Num(result.topk_exact_micros, 1) + " us",
                TablePrinter::Num(result.topk_fast_micros, 1) + " us",
                TablePrinter::Num(result.topk_speedup, 2) + "x"});
  table.AddRow({"TopK cold resolve (context)", "-",
                TablePrinter::Num(result.topk_cold_micros, 1) + " us",
                "-"});
  table.Print(std::cout);
  std::cout << "gather compilation: " << result.exact_terms
            << " per-step terms -> " << result.fast_reads
            << " per-step reads\n\n";

  const char* json_env = std::getenv("O4A_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_gather.json";
  if (!json_path.empty()) WriteJson(json_path, result);

  const bool multi_ok = result.multi_speedup >= 5.0;
  PrintShapeCheck(
      "SAT fast path >= 5x the exact cell loop on a rect-heavy "
      "multi-region range plan",
      multi_ok);
  const bool topk_ok = result.topk_fast_micros < 400.0;
  PrintShapeCheck(
      "top-k latency < 400 us at the PR-4 bench scale (85 regions, "
      "k=5, warm)",
      topk_ok);

  const char* strict_env = std::getenv("O4A_BENCH_STRICT");
  const bool strict = strict_env == nullptr || std::atoi(strict_env) != 0;
  return (!strict || (multi_ok && topk_ok)) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  std::cout << "=== Region gather: summed-area planes + columnar gather "
               "===\n";
  return one4all::bench::main_impl();
}
