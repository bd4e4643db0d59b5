// Adapter from a pinned shard fleet to the one plan interpreter: builds
// one QueryExecutor gather band per shard (its store at the pin set's
// generation for it, its resolve cache and its term-read counter) and
// runs the plan through QueryExecutor. Bands change only which
// store a term's cell is read from, so N-shard answers are bit-identical
// to N=1 for every spec shape, top-k tie order and failure statuses
// included.
#ifndef ONE4ALL_SHARD_SHARD_EXECUTOR_H_
#define ONE4ALL_SHARD_SHARD_EXECUTOR_H_

#include "query/query_executor.h"
#include "query/query_planner.h"
#include "shard/shard_set.h"

namespace one4all {

/// \brief Execution knobs, mirroring QueryExecutorOptions minus the
/// generation and cache (a cross-shard pin carries one generation per
/// shard, and each shard brings its own cache).
struct ShardExecutorOptions {
  /// Worker threads (QueryExecutorOptions semantics: 1 = calling thread,
  /// 0 = shared pool, > 1 = per-call pool).
  int num_threads = 1;
  ThreadPool* pool = nullptr;
  /// Open trace of the enclosing query; emits the same kResolve/kGather/
  /// kFold/kRank (and nested) stage spans as an unsharded execution.
  /// Null traces nothing.
  TraceContext* trace = nullptr;
};

/// \brief Runs QueryPlans against N band shards. Stateless beyond its
/// wiring; cheap to construct per call.
class ShardExecutor {
 public:
  /// \param server Resolution surface (hierarchy + index; its store is
  /// never read here — every frame read goes to a shard's store under
  /// the pin set's per-shard generation). Must outlive the executor.
  /// \param shards Must outlive the executor.
  ShardExecutor(const RegionQueryServer* server, ShardSet* shards);

  /// \brief Runs every stage of `plan` under `pins` (a coherent
  /// cross-shard pin from ShardSet::PinAll). Total like
  /// QueryExecutor::Execute: per-row failures live in rows[i].
  QueryResult Execute(const QueryPlan& plan, const ShardPinSet& pins,
                      const ShardExecutorOptions& options = {}) const;

 private:
  const RegionQueryServer* server_;
  ShardSet* shards_;
};

}  // namespace one4all

#endif  // ONE4ALL_SHARD_SHARD_EXECUTOR_H_
