#include "world.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "data/synthetic.h"
#include "grid/region_generator.h"
#include "model/baselines_simple.h"
#include "query/resolved_query_cache.h"
#include "scenario/workload.h"
#include "tensor/tiled_sat.h"

namespace servebench {

using one4all::EvalPath;
using one4all::GridMask;
using one4all::Hierarchy;
using one4all::Rng;
using one4all::STDataset;
using one4all::Stopwatch;
using one4all::Tensor;

const char* const kShapeNames[kNumShapes] = {"point", "range", "multi",
                                             "topk"};

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> workloads = [] {
    std::vector<WorkloadConfig> all;

    WorkloadConfig zone;
    zone.name = "zone_mix";
    zone.mix = {0.5, 0.2, 0.2, 0.1};
    zone.why =
        "fixed ~600-zone zoning that fits the resolve cache: cost sits in "
        "epoch pin, frame reads, gather, fold and rank";
    all.push_back(zone);

    WorkloadConfig adhoc;
    adhoc.name = "adhoc_maup";
    adhoc.eval_path = EvalPath::kSatFastPath;
    adhoc.adhoc = true;
    // A 70/30-style point/range mix, with small multi and top-k shares
    // so every shape's latency is measured on every workload.
    adhoc.mix = {0.6, 0.25, 0.1, 0.05};
    adhoc.range_steps = 6;
    adhoc.multi_regions = 4;
    adhoc.topk_k = 3;
    adhoc.topk_regions = 8;
    adhoc.retain = 32;
    adhoc.why =
        "every spec names a region outside the resolve cache: decompose, "
        "quad-tree lookup and gather compile on each call (not bounded: "
        "its runs are bimodal on a shared host)";
    all.push_back(adhoc);

    WorkloadConfig churn;
    churn.name = "publish_churn";
    churn.grid = 256;
    churn.clients = 1;
    // The standing top-k costs ~50 point specs; a 5% share keeps it at
    // about half the reader's time and leaves the other shapes enough
    // samples for a p99.
    churn.mix = {0.6, 0.2, 0.15, 0.05};
    churn.range_steps = 6;
    churn.standing_topk = true;
    churn.zone_cells = 58.0;
    churn.churn = 0.05;
    churn.publish_every_ms = 0;
    churn.retain = 24;
    churn.pipeline_timesteps = 120;
    churn.why =
        "256x256 raster, back-to-back publishes changing ~6% of atomic "
        "tiles beside one reader: diff, CoW staging, tiled-SAT fixup, flip, "
        "reclaim";
    all.push_back(churn);

    WorkloadConfig sharded = zone;
    sharded.name = "zone_mix_sharded";
    sharded.num_shards = 2;
    sharded.why =
        "zone_mix traffic on 2 row-band shards: barrier pin, scatter, "
        "central re-fold and barriered publish (not bounded: its runs are "
        "bimodal on a shared host)";
    all.push_back(sharded);
    return all;
  }();
  return workloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

// Short temporal spec (MinHistory = 8), as in the scenario engine: the
// benchmark measures serving, not forecast horizons.
one4all::TemporalFeatureSpec ShortTemporalSpec() {
  one4all::TemporalFeatureSpec temporal;
  temporal.closeness_len = 2;
  temporal.period_len = 2;
  temporal.trend_len = 1;
  temporal.daily_interval = 4;
  temporal.weekly_interval = 8;
  return temporal;
}

constexpr int64_t kStreamSources = 64;   // full-churn stream cycle
constexpr size_t kRequestsPerClient = 1 << 14;

std::unique_ptr<STDataset> MakeClock(int64_t timesteps) {
  one4all::SyntheticFlows flows;
  flows.frames.reserve(static_cast<size_t>(timesteps));
  for (int64_t t = 0; t < timesteps; ++t) {
    Tensor frame({1, 1});
    frame[0] = static_cast<float>(t % 7);
    flows.frames.push_back(std::move(frame));
  }
  auto clock = STDataset::Create(std::move(flows), Hierarchy::Uniform(1, 1, 2, 1),
                                 ShortTemporalSpec());
  O4A_CHECK(clock.ok()) << clock.status().ToString();
  return std::make_unique<STDataset>(clock.MoveValueUnsafe());
}

/// Full churn: every timestep serves a different dataset timestep at every
/// layer, as hourly model outputs change everywhere.
std::vector<std::vector<Tensor>> FullChurnStream(const STDataset& ds) {
  const int64_t first = ds.spec().MinHistory();
  const int64_t n = std::min<int64_t>(kStreamSources, ds.num_timesteps() - first);
  std::vector<std::vector<Tensor>> stream(static_cast<size_t>(n));
  for (int64_t s = 0; s < n; ++s) {
    for (int l = 1; l <= ds.hierarchy().num_layers(); ++l) {
      stream[static_cast<size_t>(s)].push_back(ds.FrameAtLayer(first + s, l));
    }
  }
  return stream;
}

/// Low churn: a tile-aligned square patch covering ~`churn` of the atomic
/// tiles visits every patch position in a seeded order; a visit replaces
/// the patch with a fresh dataset frame's values and leaves the rest
/// still. Two sweeps make one cycle, and the cycle is closed: source
/// P-1 -> source 0 changes exactly one patch too.
std::vector<std::vector<Tensor>> PatchChurnStream(const STDataset& ds,
                                                  double churn, Rng* rng) {
  const Hierarchy& hierarchy = ds.hierarchy();
  const int64_t h = hierarchy.atomic_height(), w = hierarchy.atomic_width();
  const int64_t tiles_h = h / one4all::kSatTileSize;
  const int64_t tiles_w = w / one4all::kSatTileSize;
  const int64_t side = std::max<int64_t>(
      1, std::llround(std::sqrt(churn * static_cast<double>(tiles_h * tiles_w))));
  const int64_t patch = side * one4all::kSatTileSize;
  std::vector<std::pair<int64_t, int64_t>> positions;
  for (int64_t r = 0; r + patch <= h; r += patch) {
    for (int64_t c = 0; c + patch <= w; c += patch) positions.emplace_back(r, c);
  }
  rng->Shuffle(&positions);
  const int64_t cycle = 2 * static_cast<int64_t>(positions.size());
  const int64_t first = ds.spec().MinHistory();
  const int64_t available = ds.num_timesteps() - first;

  Tensor frame = ds.FrameAtLayer(first, 1);
  std::vector<std::vector<Tensor>> stream(static_cast<size_t>(cycle));
  // The first pass seeds every patch; frames are kept from the second.
  for (int64_t k = 0; k < 2 * cycle; ++k) {
    const auto& [r0, c0] =
        positions[static_cast<size_t>(k % static_cast<int64_t>(positions.size()))];
    const Tensor& fresh = ds.FrameAtLayer(first + (k % cycle) % available, 1);
    for (int64_t r = r0; r < r0 + patch; ++r) {
      std::copy(fresh.data() + r * w + c0, fresh.data() + r * w + c0 + patch,
                frame.data() + r * w + c0);
    }
    if (k < cycle) continue;
    std::vector<Tensor>& layers = stream[static_cast<size_t>(k - cycle)];
    layers.push_back(frame);
    for (int l = 2; l <= hierarchy.num_layers(); ++l) {
      layers.push_back(hierarchy.AggregateToLayer(frame, l));
    }
  }
  return stream;
}

/// Regions of every style at every paper task scale, from several seeded
/// partitions, without duplicates (a deterministic tessellation repeats
/// across passes, and a repeat would be a resolve-cache hit).
std::vector<GridMask> AdhocPool(int64_t grid, Rng* rng) {
  std::vector<GridMask> pool;
  std::unordered_set<one4all::RegionFingerprint, one4all::RegionFingerprintHash> seen;
  for (int pass = 0; pass < 2; ++pass) {
    for (const one4all::RegionStyle style :
         {one4all::RegionStyle::kVoronoi, one4all::RegionStyle::kHexagon,
          one4all::RegionStyle::kRoadGrid}) {
      for (const double cells : one4all::PaperTaskMeanCells()) {
        one4all::RegionGeneratorOptions options;
        options.style = style;
        options.mean_cells = cells;
        options.seed = rng->Next();
        for (GridMask& m : one4all::GenerateRegions(grid, grid, options)) {
          if (seen.insert(one4all::FingerprintRegion(
                              m, one4all::QueryStrategy::kUnionSubtraction))
                  .second) {
            pool.push_back(std::move(m));
          }
        }
      }
    }
  }
  rng->Shuffle(&pool);
  return pool;
}

int64_t DrawBack(const WorkloadConfig& c, Shape shape, Rng* rng) {
  const int64_t window = c.retain - kMargin;
  const int64_t span = shape == kRange ? window - c.range_steps + 1 : window;
  return static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(span)));
}

Shape DrawShape(const WorkloadConfig& c, Rng* rng) {
  const double u = rng->Uniform();
  double cumulative = 0.0;
  for (int s = 0; s < kNumShapes; ++s) {
    cumulative += c.mix[static_cast<size_t>(s)];
    if (u < cumulative) return static_cast<Shape>(s);
  }
  return kPoint;
}

size_t RegionCount(const WorkloadConfig& c, Shape shape) {
  switch (shape) {
    case kMulti: return static_cast<size_t>(c.multi_regions);
    case kTopK: return static_cast<size_t>(c.topk_regions);
    default: return 1;
  }
}

/// Per-client request sequences. Zones: Zipf draws over a seeded
/// popularity order (distinct within one spec). Ad hoc: client c walks
/// its own stride of the shuffled pool, so a region comes back only
/// after the whole pool has passed through the resolve cache.
std::vector<std::vector<Request>> MakeRequests(const WorkloadConfig& c,
                                               size_t num_regions, Rng* rng) {
  std::vector<int32_t> popularity(num_regions);
  for (size_t i = 0; i < num_regions; ++i) popularity[i] = static_cast<int32_t>(i);
  rng->Shuffle(&popularity);
  const one4all::ZipfSampler zipf(static_cast<int64_t>(num_regions),
                                  kZipfExponent);
  std::vector<int32_t> standing(popularity.begin(),
                                popularity.begin() + c.topk_regions);

  std::vector<std::vector<Request>> all(static_cast<size_t>(c.clients));
  for (int client = 0; client < c.clients; ++client) {
    Rng crng = rng->Split();
    size_t cursor = static_cast<size_t>(client);
    std::vector<Request>& seq = all[static_cast<size_t>(client)];
    seq.resize(kRequestsPerClient);
    for (Request& req : seq) {
      req.shape = DrawShape(c, &crng);
      req.back = DrawBack(c, req.shape, &crng);
      if (req.shape == kTopK && c.standing_topk) {
        req.regions = standing;
        req.back = 0;
        continue;
      }
      const size_t n = RegionCount(c, req.shape);
      while (req.regions.size() < n) {
        int32_t r;
        if (c.adhoc) {
          r = static_cast<int32_t>(cursor % num_regions);
          cursor += static_cast<size_t>(c.clients);
        } else {
          r = popularity[static_cast<size_t>(zipf.Sample(&crng))];
          if (std::find(req.regions.begin(), req.regions.end(), r) !=
              req.regions.end()) {
            continue;
          }
        }
        req.regions.push_back(r);
      }
    }
  }
  return all;
}

}  // namespace

size_t World::SourceOf(int64_t t) const {
  return static_cast<size_t>((t - start_t) % static_cast<int64_t>(stream.size()));
}

double World::Truth(int32_t r, int64_t t) const {
  const size_t s = SourceOf(t);
  if (!truth_table.empty()) {
    return truth_table[static_cast<size_t>(r) * stream.size() + s];
  }
  return regions[static_cast<size_t>(r)].MaskedSum(stream[s][0]);
}

one4all::FrameInference World::Inference() const {
  const World* world = this;
  return [world](int64_t t, const one4all::TemporalInput&)
             -> one4all::Result<std::vector<Tensor>> {
    return world->stream[world->SourceOf(t)];
  };
}

one4all::ServingRuntimeOptions World::RuntimeOptions() const {
  one4all::ServingRuntimeOptions options;
  options.num_query_threads = 1;
  options.retain_timesteps = config.retain;
  options.num_shards = config.num_shards;
  options.ingest.start_t = start_t;
  options.ingest.num_timesteps = max_steps;
  options.ingest.manual_stepping = true;
  return options;
}

std::unique_ptr<World> BuildWorld(const WorkloadConfig& config, uint64_t seed,
                                  double run_seconds) {
  auto world = std::make_unique<World>();
  world->config = config;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  Stopwatch timer;
  one4all::SyntheticDataOptions data =
      one4all::SyntheticDataOptions::TaxiPreset(config.grid, config.grid);
  data.num_timesteps = config.pipeline_timesteps;
  data.seed = rng.Next();
  auto flows = one4all::GenerateSyntheticFlows(data);
  O4A_CHECK(flows.ok()) << flows.status().ToString();
  auto dataset = STDataset::Create(
      flows.MoveValueUnsafe(), Hierarchy::Uniform(config.grid, config.grid, 2, 32),
      ShortTemporalSpec());
  O4A_CHECK(dataset.ok()) << dataset.status().ToString();
  world->dataset = std::make_unique<STDataset>(dataset.MoveValueUnsafe());
  world->times.generate_s = timer.ElapsedSeconds();

  timer.Restart();
  one4all::HistoryMeanPredictor history_mean;
  world->pipeline = one4all::MauPipeline::Build(&history_mean, *world->dataset,
                                                one4all::SearchOptions{});
  world->times.build_s = timer.ElapsedSeconds();
  world->times.search_s = world->pipeline->search_seconds();

  world->stream = config.churn < 1.0
                      ? PatchChurnStream(*world->dataset, config.churn, &rng)
                      : FullChurnStream(*world->dataset);

  // Enough clock timesteps for warm-up plus the run at the fastest rate a
  // workload can publish: its cadence, or one step per 100 us back to back.
  const double per_second =
      config.publish_every_ms > 0 ? 1000.0 / static_cast<double>(config.publish_every_ms)
                                  : 10000.0;
  world->start_t = ShortTemporalSpec().MinHistory();
  world->max_steps =
      static_cast<int64_t>(per_second * (run_seconds + 20.0)) + 4 * config.retain;
  world->clock = MakeClock(world->start_t + world->max_steps);

  if (config.adhoc) {
    world->regions = AdhocPool(config.grid, &rng);
  } else {
    one4all::RegionGeneratorOptions zones;
    zones.style = one4all::RegionStyle::kVoronoi;
    zones.mean_cells = config.zone_cells;
    zones.seed = rng.Next();
    world->regions = one4all::GenerateRegions(config.grid, config.grid, zones);
    const size_t sources = world->stream.size();
    world->truth_table.resize(world->regions.size() * sources);
    for (size_t r = 0; r < world->regions.size(); ++r) {
      for (size_t s = 0; s < sources; ++s) {
        world->truth_table[r * sources + s] =
            world->regions[r].MaskedSum(world->stream[s][0]);
      }
    }
  }
  world->requests = MakeRequests(config, world->regions.size(), &rng);
  return world;
}

}  // namespace servebench
