// Workload definitions and the seeded world each run serves: the offline
// pipeline (dataset, combination search, quad-tree), the frame stream the
// ingestor publishes, the region pool and every client's request sequence.
// Everything here is generated from the seed before any timer starts.
#ifndef SERVEBENCH_WORLD_H_
#define SERVEBENCH_WORLD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/task_eval.h"
#include "grid/mask.h"
#include "query/query_spec.h"
#include "serve/serving_runtime.h"

namespace servebench {

/// The four client spec shapes, in QuerySpecKind order.
enum Shape { kPoint = 0, kRange = 1, kMulti = 2, kTopK = 3 };
constexpr int kNumShapes = 4;
extern const char* const kShapeNames[kNumShapes];

/// Zone popularity is Zipf with this exponent: the hottest of ~600 zones
/// draws ~5% of specs, so a median spans many zones, not one.
constexpr double kZipfExponent = 0.8;
/// Publishes that may land between a client choosing its timesteps and
/// pinning; specs read only the newest `retain - kMargin` timesteps.
constexpr int64_t kMargin = 16;

struct WorkloadConfig {
  std::string name;
  int64_t grid = 128;  ///< atomic raster is grid x grid; P = {1,...,32}
  int num_shards = 1;
  int clients = 2;
  one4all::EvalPath eval_path = one4all::EvalPath::kExactCellLoop;
  std::array<double, kNumShapes> mix{};  ///< share of specs, by count
  /// Timesteps a TimeRange spec reads. At 128x128 each step materializes
  /// ~250 KB of frames; 24 steps (~6 MB) overflow a core's 2 MB L2, and
  /// their p50 then follows the shared host's L3 load: in runs alternating
  /// on a 4-vCPU VM, 24 steps spread 0.14 IQR/median over ten seeds where
  /// 8 steps spread 0.07.
  int64_t range_steps = 8;
  int multi_regions = 16;
  int topk_k = 10;
  int topk_regions = 64;
  /// Top-k re-ranks the same regions at the newest timestep every time
  /// (a standing subscription) instead of drawing regions per spec.
  bool standing_topk = false;
  /// Regions come from a cold pool walked so no region repeats within
  /// the resolve cache's reach; otherwise from a fixed zoning drawn with
  /// Zipf popularity.
  bool adhoc = false;
  double zone_cells = 27.0;  ///< mean Voronoi zone size of the zoning
  /// Share of atomic tiles a timestep changes: 1 replaces every frame;
  /// below 1 a tile-aligned patch rotates over an otherwise still frame.
  double churn = 1.0;
  int64_t publish_every_ms = 10;  ///< 0: grant the next step on landing
  int64_t retain = 64;            ///< ServingRuntimeOptions::retain_timesteps
  int64_t pipeline_timesteps = 240;  ///< length of the offline dataset
  std::string why;
};

/// The benchmark's workloads. BENCHMARK.json bounds zone_mix and
/// publish_churn; adhoc_maup and zone_mix_sharded run by name (their runs
/// fall into two speed modes on a shared host, see their `why`).
const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

/// One pre-generated request. The timestep is fixed relative to the
/// newest published timestep at issue time (the window slides), so the
/// sequence stores the offset back from it.
struct Request {
  Shape shape = kPoint;
  std::vector<int32_t> regions;  ///< indices into World::regions
  int64_t back = 0;  ///< newest timestep the spec reads = latest - back
};

struct SetupTimes {
  double generate_s = 0.0;  ///< GenerateSyntheticFlows + STDataset::Create
  double search_s = 0.0;    ///< MauPipeline::search_seconds()
  double build_s = 0.0;     ///< MauPipeline::Build
};

struct World {
  WorkloadConfig config;
  std::unique_ptr<one4all::STDataset> dataset;  ///< offline dataset
  std::unique_ptr<one4all::MauPipeline> pipeline;
  /// A 1x1 dataset with one observation per publishable timestep. The
  /// ingestor replays it to pace its loop; the served frames come from
  /// `stream` through the inference callback, so a run can publish
  /// thousands of epochs without holding a full-size frame for each.
  std::unique_ptr<one4all::STDataset> clock;
  int64_t start_t = 0;    ///< first timestep the ingestor publishes
  int64_t max_steps = 0;  ///< publishable timesteps
  /// stream[s][l - 1]: layer-l frame of stream source s. Timestep t
  /// serves source (t - start_t) mod stream.size().
  std::vector<std::vector<one4all::Tensor>> stream;
  std::vector<one4all::GridMask> regions;
  /// Zone workloads: truth[r * stream.size() + s] precomputed.
  std::vector<double> truth_table;
  std::vector<std::vector<Request>> requests;  ///< per client
  SetupTimes times;

  size_t SourceOf(int64_t t) const;
  /// Ground truth of region `r` at timestep `t`: the masked sum of the
  /// layer-1 frame the stream serves at t (what MakeGroundTruthInference
  /// would serve for it).
  double Truth(int32_t r, int64_t t) const;
  one4all::FrameInference Inference() const;
  one4all::ServingRuntimeOptions RuntimeOptions() const;
};

std::unique_ptr<World> BuildWorld(const WorkloadConfig& config, uint64_t seed,
                                  double run_seconds);

}  // namespace servebench

#endif  // SERVEBENCH_WORLD_H_
