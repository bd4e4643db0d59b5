// Drives a ServingRuntime with a closed loop of query clients while the
// publisher thread (the main thread) has epochs published, in three
// modes: warm-up (fixed work, samples discarded), untraced (the end-to-end
// numbers) and traced (the benchmark's own spans around each layer's
// public calls).
#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/query_server.h"
#include "serve/serving_runtime.h"
#include "shard/shard_set.h"
#include "spans.h"
#include "world.h"

namespace servebench {

/// What one phase measured. Latencies in micros.
struct PhaseStats {
  double seconds = 0.0;
  int64_t attempted = 0;     ///< specs issued
  int64_t failed_specs = 0;  ///< rejected, any non-OK row, or a wrong answer
  int64_t rejected = 0;      ///< refused with ResourceExhausted
  int64_t wrong_values = 0;  ///< OK rows off the truth by more than 1e-3
  int64_t wrong_ranks = 0;   ///< top-k positions off the truth ranking
  std::map<std::string, int64_t> failed_rows_by_code;
  std::array<std::vector<double>, kNumShapes> latency_us;
  std::vector<double> publish_us;
  int64_t publish_holds = 0;  ///< grants delayed by the reclaim guard
  int64_t live_epochs_max = 0;
  std::string first_error;

  // Traced phase only.
  std::array<std::vector<double>, kNumShapes> execute_us;
  std::vector<double> resolve_us, gather_us, rank_us;
  std::vector<double> pieces_per_region, terms_per_region;
  int64_t dirty_tiles = 0, diffed_tiles = 0;
  double probe_seconds = 0.0;  ///< client time spent in probes, all clients

  void Merge(const PhaseStats& other);
};

class Harness {
 public:
  /// \param world, runtime Must outlive the harness; `runtime` is built
  /// from world.RuntimeOptions() and already started.
  Harness(const World* world, one4all::ServingRuntime* runtime);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Fills the retention window, resolves every zone once (zone
  /// workloads) and runs `requests_per_client` requests per client.
  /// Returns false (with the reason in `error`) on any failure.
  bool WarmUp(int64_t requests_per_client, std::string* error);

  /// Untraced closed-loop run through ServingRuntime::ExecuteSpec, with
  /// the ingestor publishing on grants.
  PhaseStats RunUntraced(double seconds);

  /// Stops the ingestor and runs the traced path: clients pin, plan and
  /// execute through the public layer calls, the publisher thread publishes
  /// through the epoch manager (or shard set) itself. Spans land in
  /// `logs()`.
  PhaseStats RunTraced(double seconds);

  std::vector<const SpanLog*> logs() const;
  /// PinAll retries of the 2-shard probe set (unsharded workloads).
  int64_t probe_pin_retries() const {
    return probe_shards_ != nullptr ? probe_shards_->pin_retries() : 0;
  }

 private:
  enum class Mode { kWarmUp, kUntraced, kTraced };

  PhaseStats RunPhase(Mode mode, double seconds, int64_t requests_per_client);
  void ClientLoop(int client, Mode mode, int64_t max_requests,
                  PhaseStats* stats);
  void PublisherLoop(Mode mode, double seconds, PhaseStats* stats);

  /// Picks the request's [t0, t1] from the served window and publishes
  /// t0 as the client's hazard (see PublisherLoop).
  void ChooseTimesteps(int client, const Request& request, int64_t* t0,
                       int64_t* t1);
  one4all::QuerySpec MakeSpec(const Request& request, int64_t t0,
                              int64_t t1) const;
  one4all::Result<one4all::QueryResult> TracedExecute(
      int client, const Request& request, one4all::QuerySpec spec,
      PhaseStats* stats);
  void ProbeRegion(int client, const one4all::GridMask& region, int64_t t,
                   int64_t generation, const one4all::PredictionStore* store,
                   PhaseStats* stats);
  void Check(const Request& request, int64_t t0, int64_t t1,
             const one4all::Result<one4all::QueryResult>& result,
             PhaseStats* stats) const;

  bool PublishUntraced(std::string* error);
  bool PublishTraced(PhaseStats* stats, std::string* error);

  const World* world_;
  one4all::ServingRuntime* runtime_;
  one4all::RegionQueryServer server_;
  std::unique_ptr<std::atomic<int64_t>[]> hazards_;
  std::atomic<bool> stop_{false};
  std::atomic<int> clients_running_{0};
  std::vector<size_t> cursors_;  ///< next request per client
  int64_t granted_ = 0;          ///< ingestor steps granted so far
  int64_t next_t_ = 0;           ///< next timestep the publisher publishes

  // Traced mode: the publisher's diff baseline and SAT probe baselines, and
  // the substrate the workload does not serve from, fed the same frames
  // as a probe (a 2-shard set for unsharded workloads; the runtime's idle
  // single-store epoch manager for sharded ones).
  std::vector<one4all::Tensor> prev_frames_;
  std::vector<one4all::TiledSatPlane> prev_planes_;
  std::unique_ptr<one4all::ShardSet> probe_shards_;
  bool probe_substrate_empty_ = true;
  std::vector<std::unique_ptr<SpanLog>> logs_;  ///< per client + publisher
};

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
