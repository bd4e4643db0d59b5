// Task-level evaluation harness shared by the benchmark binaries:
// the paper's four query tasks (Sec. V-A3), baseline evaluation by atomic
// aggregation, MC-STGCN's cluster-first strategy, and the full One4All-ST
// pipeline (search -> quad-tree -> online queries).
#ifndef ONE4ALL_EVAL_TASK_EVAL_H_
#define ONE4ALL_EVAL_TASK_EVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "combine/search.h"
#include "grid/region_generator.h"
#include "index/quadtree.h"
#include "kvstore/prediction_store.h"
#include "query/query_server.h"

namespace one4all {

class ThreadPool;  // core/thread_pool.h

/// \brief One of the paper's prediction tasks.
struct TaskSpec {
  std::string name;
  RegionStyle style = RegionStyle::kRoadGrid;
  double mean_cells = 27.0;
  uint64_t seed = 7;
};

/// \brief The paper's Tasks 1-4. Task 1 uses census-tract-like Voronoi
/// zones for the taxi workload and hexagons for freight (Sec. V-A3);
/// Tasks 2-4 are road-map partitions at 0.6/1.3/4.8 km^2.
std::vector<TaskSpec> PaperTasks(bool hexagon_task1);

/// \brief Generates a task's region queries over the dataset's raster.
std::vector<GridMask> MakeTaskRegions(const STDataset& dataset,
                                      const TaskSpec& task);

/// \brief Aggregate accuracy over (region x test-slot) queries.
struct QueryEvalResult {
  double rmse = 0.0;
  double mape = 0.0;
  double mae = 0.0;
  int num_queries = 0;
};

/// \brief Evaluates a single-scale model the way the paper evaluates the
/// baselines: sum its atomic predictions over each region.
QueryEvalResult EvaluateAtomicAggregation(
    FlowPredictor* predictor, const STDataset& dataset,
    const std::vector<GridMask>& regions,
    const std::vector<int64_t>& timesteps);

/// \brief MC-STGCN's query strategy: use cluster predictions for cluster
/// grids fully inside the region, atomic predictions for the remainder.
QueryEvalResult EvaluateClusterPlusAtomic(
    FlowPredictor* predictor, const STDataset& dataset, int cluster_layer,
    const std::vector<GridMask>& regions,
    const std::vector<int64_t>& timesteps);

/// \brief The full offline+online MAU pipeline around one predictor:
/// validation predictions -> combination search -> quad-tree index ->
/// test predictions synced into the KV store -> query server.
class MauPipeline {
 public:
  /// \param predictor Must stay alive while Build runs (not retained).
  /// \param pool Compute pool for the predictor's forward passes during
  /// ingest; null inherits the caller's ScopedComputePool, falling back
  /// to the process-wide ThreadPool::Shared().
  static std::unique_ptr<MauPipeline> Build(FlowPredictor* predictor,
                                            const STDataset& dataset,
                                            const SearchOptions& options = {},
                                            ThreadPool* pool = nullptr);

  /// \brief Accuracy of the given strategy over (regions x test slots).
  QueryEvalResult Evaluate(const std::vector<GridMask>& regions,
                           QueryStrategy strategy) const;

  /// \brief Per-query detail for the Table III analysis.
  struct PerQuery {
    double rmse = 0.0;
    std::vector<CombinationTerm> terms;
  };
  std::vector<PerQuery> EvaluateDetailed(const std::vector<GridMask>& regions,
                                         QueryStrategy strategy) const;

  const RegionQueryServer& server() const { return *server_; }
  const ExtendedQuadTree& index() const { return index_; }
  const std::vector<int64_t>& test_timesteps() const { return test_; }
  const STDataset& dataset() const { return *dataset_; }
  /// \brief Wall-clock seconds spent in SearchOptimalCombinations.
  double search_seconds() const { return search_seconds_; }

 private:
  MauPipeline() = default;

  const STDataset* dataset_ = nullptr;
  ExtendedQuadTree index_;
  PredictionStore store_;
  std::unique_ptr<RegionQueryServer> server_;
  std::vector<int64_t> test_;
  double search_seconds_ = 0.0;
};

/// \brief Ground-truth flow of a region at time slot t (sum of atomic
/// truth over the mask).
double RegionTruth(const STDataset& dataset, const GridMask& region,
                   int64_t t);

}  // namespace one4all

#endif  // ONE4ALL_EVAL_TASK_EVAL_H_
