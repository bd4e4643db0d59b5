// Runs a compiled QueryPlan against a RegionQueryServer: a cache-probe /
// resolve stage over the plan's distinct regions, an epoch-pinned gather
// stage that reuses each resolution across every timestep it serves, an
// aggregation fold (sum/mean/max) and an optional top-k rank stage. The
// gather stage has two interpreters, selected by the plan's EvalPath:
// the bit-exact per-term cell loop (per-chunk frame memo), and the SAT
// fast path, which prefetches every (layer, t) frame/summed-area plane
// the plan touches once and then answers rect-decomposed term groups
// with four-corner plane reads plus a columnar residue sweep. Per-row
// failures surface as that row's Status; stage wall times land in the
// structured QueryResult.
//
// Frames are read from a list of row bands (GatherBand): one band
// covering the raster for a single store, or one band per shard of a
// ShardMap for a sharded fleet. Bands change only where a term's cell
// is read from, never the algorithm: each region resolves through its
// home band's cache, and the exact cell loop reads every term from its
// owner band's frame and folds terms in the same left-to-right order on
// any band count, so N-band answers are bit-identical to one band's
// (failure statuses and top-k tie order included). The SAT fast path
// serves single-band plans; multi-band plans take the exact loop.
#ifndef ONE4ALL_QUERY_QUERY_EXECUTOR_H_
#define ONE4ALL_QUERY_QUERY_EXECUTOR_H_

#include <vector>

#include "kvstore/prediction_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query_planner.h"
#include "query/query_server.h"
#include "query/query_spec.h"

namespace one4all {

class ShardMap;

/// \brief Execution knobs of one plan execution.
struct QueryExecutorOptions {
  /// Worker threads when `pool` is null: 1 runs on the calling thread,
  /// 0 fans out over the process-wide ThreadPool::Shared(), > 1 spins up
  /// a per-call pool.
  int num_threads = 1;
  /// Optional shared pool (overrides num_threads); must outlive the call.
  ThreadPool* pool = nullptr;
  /// Optional resolve cache shared across calls; must outlive the call.
  ResolvedQueryCache* cache = nullptr;
  /// Prediction-store generation every frame read goes through (the
  /// serving runtime pins an epoch and passes its generation here).
  int64_t generation = 0;
  /// Open trace of the enclosing query; stage spans (resolve / gather /
  /// fold / rank) nest under its current parent span. Null traces
  /// nothing. Worker shards span against thread-local copies, so the
  /// pointed-to context itself is only mutated by the calling thread.
  TraceContext* trace = nullptr;
};

/// \brief One result row: the (aggregated) predicted value of one region
/// of the spec, plus its resolve and gather accounting.
struct QueryRow {
  double value = 0.0;
  /// Per-timestep values in ascending t, kept when the spec asked for
  /// keep_series (empty otherwise).
  std::vector<double> series;
  int num_pieces = 0;
  int num_terms = 0;
  bool from_cache = false;
  double decompose_micros = 0.0;
  double index_micros = 0.0;
  double eval_micros = 0.0;
  /// Resolve-path latency in the paper's sense: decompose + index on a
  /// miss, the measured cache-probe time on a hit.
  double response_micros = 0.0;
};

/// \brief Wall time of each executor stage, in microseconds.
struct QueryStageTimings {
  double plan_micros = 0.0;     ///< spec -> plan compilation
  double resolve_micros = 0.0;  ///< cache probe + decompose + index
  double eval_micros = 0.0;     ///< frame gather + aggregation folds
  double rank_micros = 0.0;     ///< top-k ordering (0 unless kTopK)
  double total_micros = 0.0;
};

/// \brief Structured answer to one executed plan.
struct QueryResult {
  QuerySpecKind kind = QuerySpecKind::kPointInTime;
  /// rows[i] answers spec.regions[i]; failures do not abort sibling
  /// rows.
  std::vector<Result<QueryRow>> rows;
  /// kTopK only: indices into `rows` of the k best OK rows, value
  /// descending (ties broken toward the lower index).
  std::vector<int> top_k;
  QueryStageTimings timings;
  /// Resolve-cache probes made by this execution (0 when no cache).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// \brief One row band of the raster a plan gathers from.
struct GatherBand {
  /// The band's store and its pinned generation; the gather stage takes
  /// one View of it per execution. Must outlive the call.
  const PredictionStore* store = nullptr;
  int64_t generation = 0;
  /// Resolve cache of the regions homed on this band (null: resolve
  /// uncached). Every band of one execution has a cache, or none does.
  ResolvedQueryCache* cache = nullptr;
  /// Counts the term cells the exact loop reads from this band, one per
  /// (row, term, timestep), when the plan spans several bands; null
  /// counts nothing.
  Counter* term_reads = nullptr;
};

/// \brief Interprets QueryPlans. Stateless; cheap to construct per call.
class QueryExecutor {
 public:
  /// \param server Must outlive the executor.
  explicit QueryExecutor(const RegionQueryServer* server);

  /// \brief Runs every stage of `plan` over the server's store as one
  /// band (options.generation, options.cache). The result is total:
  /// per-row failures are inside rows[i], never a thrown batch failure.
  QueryResult Execute(const QueryPlan& plan,
                      const QueryExecutorOptions& options = {}) const;

  /// \brief Runs every stage of `plan` over `bands`: one band covering
  /// the raster (`map` unused), or band k holding `map`'s shard-k rows.
  /// options.generation and options.cache are unused; each band brings
  /// its own generation and cache.
  QueryResult Execute(const QueryPlan& plan,
                      const std::vector<GatherBand>& bands,
                      const ShardMap* map,
                      const QueryExecutorOptions& options) const;

 private:
  const RegionQueryServer* server_;
};

}  // namespace one4all

#endif  // ONE4ALL_QUERY_QUERY_EXECUTOR_H_
