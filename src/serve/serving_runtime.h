// The online serving runtime façade (paper Sec. III, grown into a real
// continuously-running service): composes the stream ingestor, the
// epoch-versioned prediction store and the region query server behind
// one object. Query specs are admission-controlled (bounded in-flight
// budget, reject-with-Status on overload), pin one epoch for their whole
// duration (never observing torn half-synced timesteps), share a
// resolve cache that survives epoch rolls (resolution is
// time-independent), and feed a telemetry block of atomic counters and
// latency histograms.
#ifndef ONE4ALL_SERVE_SERVING_RUNTIME_H_
#define ONE4ALL_SERVE_SERVING_RUNTIME_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "query/query_executor.h"
#include "query/query_server.h"
#include "query/query_spec.h"
#include "query/resolved_query_cache.h"
#include "query/topk_memo.h"
#include "serve/epoch_manager.h"
#include "serve/stream_ingestor.h"
#include "shard/shard_set.h"

namespace one4all {

struct ServingRuntimeOptions {
  /// Admission control: a spec is rejected outright (ResourceExhausted)
  /// when admitting it would push the in-flight gather count past this.
  int64_t max_inflight_queries = 4096;
  /// Worker threads per executed spec (QueryExecutorOptions::num_threads
  /// semantics: 0 = shared pool, 1 = caller's thread, > 1 = per-call
  /// pool).
  int num_query_threads = 0;
  /// Carry-forward retention horizon in timesteps; see
  /// FrameEpochManagerOptions::retain_timesteps. The default 0 keeps
  /// the whole served window queryable — right for bounded replays
  /// (tests, benches, demos), but per-epoch publish cost and store size
  /// then grow with uptime; continuous deployments should set a horizon
  /// sized to the timesteps their traffic actually queries.
  int64_t retain_timesteps = 0;
  /// Stage a summed-area plane with every published frame (see
  /// FrameEpochManagerOptions::build_sat_planes) so EvalPath::
  /// kSatFastPath specs answer rect-decomposable regions in O(#rects).
  bool build_sat_planes = true;
  ResolvedQueryCacheOptions cache;
  /// Spatial shard count. 1 (the default) serves from the single
  /// store/epoch-manager path, bit-for-bit as before. > 1 partitions the
  /// grid into that many contiguous row-band shards (shard/shard_map.h),
  /// each with its own store, epoch manager and resolve cache; the
  /// ingestor publishes all bands behind one epoch barrier and queries
  /// read each term from its owner band (results stay bit-identical to
  /// N=1).
  /// Clamped to the atomic grid height.
  int num_shards = 1;
  StreamIngestorOptions ingest;
  /// Span/trace sink shared by the query path, the ingestor and the
  /// epoch manager; null uses TraceRecorder::Global(). Benches inject a
  /// private recorder per phase; must outlive the runtime.
  TraceRecorder* trace = nullptr;
};

/// \brief One4All-ST online serving: streaming ingestion + epoch-
/// versioned frames + concurrent region-query specs.
class ServingRuntime {
 public:
  /// \param hierarchy,index,dataset Must outlive the runtime. `index` is
  /// the offline-built extended quad-tree (e.g. MauPipeline::index()).
  ServingRuntime(const Hierarchy* hierarchy, const ExtendedQuadTree* index,
                 const STDataset* dataset, FrameInference inference,
                 ServingRuntimeOptions options);
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// \brief Starts the background ingestion loop.
  void Start();
  /// \brief Stops ingestion (joins the background thread).
  void Stop();

  /// \brief The query entry point: plans and executes a typed QuerySpec
  /// (point / time-range / multi-region / top-k) against one pinned
  /// epoch, through admission control and the shared resolve cache. The
  /// spec's own strategy is honored (factories default to Union &
  /// Subtraction). Admission cost is the plan's total
  /// (region, t) gather count; an over-budget spec is rejected whole
  /// with ResourceExhausted, an invalid one with InvalidArgument. Row
  /// latencies and per-kind spec counts land in the telemetry block.
  /// Taken by value so callers passing temporaries move the region set
  /// straight through to the plan, no mask copies.
  Result<QueryResult> ExecuteSpec(QuerySpec spec);

  /// \brief Pins the current epoch (tests, multi-spec consistency).
  /// Single-shard pin; sharded runtimes pin through shards()->PinAll().
  EpochGuard PinEpoch() { return epochs_.Pin(); }

  // -- Topology-agnostic serving-state facades ----------------------------
  // Callers that only ask "what is served / is it healthy / inject a
  // fault" go through these, so the same code drives a single epoch
  // manager or an N-shard barrier without branching.

  bool sharded() const { return shards_ != nullptr; }
  /// \brief Effective shard count (after ShardMap clamping); 1 unsharded.
  int num_shards() const {
    return shards_ != nullptr ? shards_->num_shards() : 1;
  }
  /// \brief Newest published timestep (-1: none). Sharded: the barrier's
  /// cross-shard published timestep.
  int64_t published_latest_t() const {
    return shards_ != nullptr ? shards_->published_latest_t()
                              : epochs_.published_latest_t();
  }
  /// \brief Live epochs (sharded: the max across shards — 1 means every
  /// shard reclaimed down to its published epoch).
  int64_t live_epochs() const {
    return shards_ != nullptr ? shards_->max_live_epochs()
                              : epochs_.live_epochs();
  }
  /// \brief Store write-fault injection across the whole topology (every
  /// shard's store, or the single store).
  void SetWriteFault(Status fault) {
    if (shards_ != nullptr) {
      shards_->SetWriteFault(std::move(fault));
    } else {
      store_.SetWriteFault(std::move(fault));
    }
  }
  void ClearWriteFault() {
    if (shards_ != nullptr) {
      shards_->ClearWriteFault();
    } else {
      store_.ClearWriteFault();
    }
  }
  /// \brief The cross-shard epoch-consistency invariant: no pin ever
  /// observed two timesteps, and all shards serve the same latest_t.
  /// Trivially true unsharded.
  bool CrossShardConsistent() const {
    return shards_ == nullptr || shards_->Consistent();
  }
  /// \brief Sharded only: wall ms since shard k's last barrier flip.
  double ShardPublishLagMs(int shard) const {
    return shards_ != nullptr ? shards_->PublishLagMs(shard) : 0.0;
  }
  /// \brief The shard fleet; null when num_shards == 1.
  ShardSet* shards() { return shards_.get(); }

  /// \brief Swaps the quad-tree index (topology change, e.g. after a
  /// re-search). Resolutions depend on the index, so this invalidates
  /// the resolve cache — the only event that does; epoch rolls never do.
  void SwapIndex(const ExtendedQuadTree* index);

  ServingTelemetrySnapshot Telemetry() const {
    return telemetry_.Snapshot();
  }
  ServingTelemetry& telemetry() { return telemetry_; }
  /// \brief The recorder every layer of this runtime emits spans into.
  TraceRecorder& trace_recorder() { return *trace_; }
  ResolvedQueryCache& cache() { return cache_; }
  /// \brief The incremental top-k ranking memo (subscription reuse
  /// stats, test hooks). Fed by the publish path, probed by ExecuteSpec.
  TopKMemo& topk_memo() { return topk_memo_; }
  FrameEpochManager& epochs() { return epochs_; }
  StreamIngestor& ingestor() { return *ingestor_; }
  /// \brief The backing prediction store — exposed for fault injection
  /// (SetWriteFault) and storage assertions in tests/scenarios.
  PredictionStore& store() { return store_; }
  const ServingRuntimeOptions& options() const { return options_; }

 private:
  /// \brief Claims `cost` in-flight slots or rejects with
  /// ResourceExhausted. `num_queries` is what the rejection counters
  /// record — result rows, the same unit queries_served/failed use, so
  /// the telemetry block stays internally comparable even when a
  /// time-range row costs many gather slots. ReleaseQueries undoes an
  /// admitted claim.
  Status AdmitQueries(int64_t cost, int64_t num_queries);
  void ReleaseQueries(int64_t cost);

  /// \brief Records per-row outcomes (served/failed counts + response
  /// latency) into the telemetry block.
  void RecordRowOutcomes(const std::vector<Result<QueryRow>>& rows);

  const Hierarchy* hierarchy_;
  const STDataset* dataset_;
  ServingRuntimeOptions options_;
  TraceRecorder* trace_;  ///< never null (options.trace or Global())

  ServingTelemetry telemetry_;
  PredictionStore store_;
  FrameEpochManager epochs_;
  ResolvedQueryCache cache_;
  TopKMemo topk_memo_;

  // The server is swapped whole on SwapIndex; queries hold the shared
  // side for the duration of a spec.
  mutable std::shared_mutex server_mu_;
  std::unique_ptr<RegionQueryServer> server_;

  /// Non-null iff options.num_shards > 1; then the ingestor publishes
  /// through the barrier and queries gather from its bands (the single
  /// store_/epochs_ pair above stays idle).
  std::unique_ptr<ShardSet> shards_;
  /// The ingestor's publish seam: forwards to the real sink (epochs_ or
  /// shards_) and feeds each published dirty set to the top-k memo.
  std::unique_ptr<EpochSink> publish_tap_;
  std::unique_ptr<StreamIngestor> ingestor_;
  std::atomic<int64_t> inflight_{0};
};

}  // namespace one4all

#endif  // ONE4ALL_SERVE_SERVING_RUNTIME_H_
