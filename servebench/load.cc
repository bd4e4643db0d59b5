#include "load.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <numeric>
#include <thread>
#include <utility>

#include "combine/search.h"
#include "grid/decompose.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "shard/shard_executor.h"
#include "tensor/tiled_sat.h"

namespace servebench {

using one4all::GridMask;
using one4all::QueryResult;
using one4all::QuerySpec;
using one4all::Result;
using one4all::Status;
using one4all::Tensor;

namespace {

// Values are checked against the stream's ground truth. The runtime
// serves exactly those frames, so a healthy answer is off only by float
// summation order and SAT prefix-sum rounding (~1e-9); 1e-3 relative
// trips only on a torn, stale or misrouted read.
constexpr double kTolerance = 1e-3;

bool Agree(double got, double truth) {
  return std::abs(got - truth) <= kTolerance * std::max(1.0, std::abs(truth));
}

SpanName RequestSpan(Shape shape) {
  switch (shape) {
    case kPoint: return SpanName::kRequestPoint;
    case kRange: return SpanName::kRequestRange;
    case kMulti: return SpanName::kRequestMulti;
    case kTopK: return SpanName::kRequestTopK;
  }
  return SpanName::kRequestPoint;
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

void PhaseStats::Merge(const PhaseStats& other) {
  attempted += other.attempted;
  failed_specs += other.failed_specs;
  rejected += other.rejected;
  wrong_values += other.wrong_values;
  wrong_ranks += other.wrong_ranks;
  for (const auto& [code, n] : other.failed_rows_by_code) {
    failed_rows_by_code[code] += n;
  }
  for (int s = 0; s < kNumShapes; ++s) {
    Append(&latency_us[static_cast<size_t>(s)], other.latency_us[static_cast<size_t>(s)]);
    Append(&execute_us[static_cast<size_t>(s)], other.execute_us[static_cast<size_t>(s)]);
  }
  Append(&publish_us, other.publish_us);
  publish_holds += other.publish_holds;
  live_epochs_max = std::max(live_epochs_max, other.live_epochs_max);
  if (first_error.empty()) first_error = other.first_error;
  Append(&resolve_us, other.resolve_us);
  Append(&gather_us, other.gather_us);
  Append(&rank_us, other.rank_us);
  Append(&pieces_per_region, other.pieces_per_region);
  Append(&terms_per_region, other.terms_per_region);
  dirty_tiles += other.dirty_tiles;
  diffed_tiles += other.diffed_tiles;
  probe_seconds += other.probe_seconds;
}

Harness::Harness(const World* world, one4all::ServingRuntime* runtime)
    : world_(world),
      runtime_(runtime),
      server_(&world->dataset->hierarchy(), &world->pipeline->index(),
              &runtime->store()),
      hazards_(new std::atomic<int64_t>[static_cast<size_t>(world->config.clients)]),
      cursors_(static_cast<size_t>(world->config.clients), 0),
      next_t_(world->start_t) {
  for (int c = 0; c < world->config.clients; ++c) hazards_[c].store(INT64_MAX);
}

Harness::~Harness() = default;

std::vector<const SpanLog*> Harness::logs() const {
  std::vector<const SpanLog*> out;
  for (const auto& log : logs_) out.push_back(log.get());
  return out;
}

// -- Publishing ---------------------------------------------------------------

bool Harness::PublishUntraced(std::string* error) {
  one4all::StreamIngestor& ingestor = runtime_->ingestor();
  ingestor.GrantSteps(1);
  ++granted_;
  if (!ingestor.WaitUntilAttempted(granted_)) {
    *error = "ingestor stopped before timestep " + std::to_string(next_t_) +
             " (replay clock exhausted?): " + ingestor.status().ToString();
    return false;
  }
  if (runtime_->published_latest_t() != next_t_) {
    *error = "publish of timestep " + std::to_string(next_t_) + " failed: " +
             ingestor.last_publish_error().ToString();
    return false;
  }
  ++next_t_;
  return true;
}

bool Harness::PublishTraced(PhaseStats* stats, std::string* error) {
  SpanLog& log = *logs_.back();
  const int64_t t = next_t_;
  const bool sharded = runtime_->sharded();
  const size_t layers = world_->stream[0].size();

  const int32_t root = log.BeginRoot(SpanName::kPublish);
  std::vector<Tensor> frames;
  {
    ScopedSpan span(&log, SpanName::kInfer, root);
    frames = world_->stream[world_->SourceOf(t)];
  }
  one4all::DirtyTileSets dirty;
  {
    ScopedSpan span(&log, SpanName::kDiff, root);
    dirty.reserve(layers);
    for (size_t l = 0; l < layers; ++l) {
      dirty.push_back(one4all::DiffFrames(frames[l], prev_frames_[l]));
    }
  }
  Status status;
  if (!sharded) {
    one4all::FrameEpochManager& epochs = runtime_->epochs();
    one4all::FrameEpochManager::Staging staging;
    {
      ScopedSpan span(&log, SpanName::kStage, root);
      staging = epochs.BeginEpoch(/*carry_forward=*/true);
      for (size_t l = 0; l < layers && status.ok(); ++l) {
        status = staging.TryStageFrame(static_cast<int>(l + 1), t, frames[l],
                                       &dirty[l]);
      }
    }
    if (status.ok()) {
      ScopedSpan span(&log, SpanName::kFlip, root);
      epochs.Publish(std::move(staging));
    } else {
      epochs.Abort(std::move(staging));
    }
  } else {
    ScopedSpan span(&log, SpanName::kStagePublish, root);
    status = runtime_->shards()->StageAndPublish(t, frames, &dirty,
                                                 /*carry_forward=*/true, nullptr);
  }
  log.End(root);
  if (!status.ok() || runtime_->published_latest_t() != t) {
    *error = "traced publish of timestep " + std::to_string(t) +
             " failed: " + status.ToString();
    return false;
  }
  stats->publish_us.push_back(log.spans()[static_cast<size_t>(root)].micros());
  for (const one4all::TileDirtySet& d : dirty) {
    stats->dirty_tiles += d.CountDirty();
    stats->diffed_tiles += d.num_tiles();
  }

  // Probes beside the tree: full and incremental SAT builds of the same
  // frames, and the substrate this workload does not serve from.
  std::vector<one4all::TiledFrame> tiled;
  for (const Tensor& frame : frames) {
    tiled.push_back(one4all::TiledFrame::FromTensor(frame));
  }
  std::vector<one4all::TiledSatPlane> planes(layers);
  const int32_t full = log.BeginRoot(SpanName::kProbeSatFull);
  for (size_t l = 0; l < layers; ++l) {
    planes[l] = one4all::TiledSatPlane::Build(tiled[l]);
  }
  log.End(full);
  if (!prev_planes_.empty()) {
    const int32_t delta = log.BeginRoot(SpanName::kProbeSatDelta);
    for (size_t l = 0; l < layers; ++l) {
      one4all::TiledSatPlane::BuildDelta(tiled[l], prev_planes_[l], dirty[l],
                                         nullptr);
    }
    log.End(delta);
  }
  prev_planes_ = std::move(planes);

  const one4all::DirtyTileSets* probe_dirty =
      probe_substrate_empty_ ? nullptr : &dirty;
  if (!sharded) {
    const int32_t probe = log.BeginRoot(SpanName::kProbeStagePublish);
    status = probe_shards_->StageAndPublish(t, frames, probe_dirty,
                                            /*carry_forward=*/true, nullptr);
    log.End(probe);
  } else {
    one4all::FrameEpochManager& epochs = runtime_->epochs();
    const int32_t stage = log.BeginRoot(SpanName::kProbeStage);
    one4all::FrameEpochManager::Staging staging = epochs.BeginEpoch(true);
    for (size_t l = 0; l < layers && status.ok(); ++l) {
      status = staging.TryStageFrame(static_cast<int>(l + 1), t, frames[l],
                                     probe_dirty ? &dirty[l] : nullptr);
    }
    log.End(stage);
    if (status.ok()) {
      const int32_t flip = log.BeginRoot(SpanName::kProbeFlip);
      epochs.Publish(std::move(staging));
      log.End(flip);
    } else {
      epochs.Abort(std::move(staging));
    }
  }
  if (!status.ok()) {
    *error = "probe publish of timestep " + std::to_string(t) +
             " failed: " + status.ToString();
    return false;
  }
  probe_substrate_empty_ = false;
  prev_frames_ = std::move(frames);
  ++next_t_;
  return true;
}

void Harness::PublisherLoop(Mode mode, double seconds, PhaseStats* stats) {
  using Clock = std::chrono::steady_clock;
  const WorkloadConfig& config = world_->config;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto cadence = std::chrono::milliseconds(config.publish_every_ms);
  auto next = start;
  std::string error;
  while (!stop_.load()) {
    if (mode == Mode::kWarmUp ? clients_running_.load() == 0
                              : Clock::now() >= deadline) {
      break;
    }
    if (config.publish_every_ms > 0) {
      next += cadence;
      // A late publisher publishes at once but never in a burst.
      if (next < Clock::now() - cadence) next = Clock::now();
      std::this_thread::sleep_until(next);
      if (mode != Mode::kWarmUp && Clock::now() >= deadline) break;
    }
    // Reclaim guard: the epoch about to publish serves
    // [t - retain + 1, t]; hold the grant while any in-flight request
    // still reads below that. Clients never wait on the publisher, so the
    // hold ends; it only triggers when a client stalls for kMargin
    // publishes, and is counted.
    const int64_t window_start = next_t_ - config.retain + 1;
    bool held = false;
    for (int c = 0; c < config.clients; ++c) {
      while (hazards_[c].load() < window_start) {
        held = true;
        std::this_thread::yield();
      }
    }
    if (held) ++stats->publish_holds;

    const int64_t begin = NowNs();
    const bool ok = mode == Mode::kTraced ? PublishTraced(stats, &error)
                                          : PublishUntraced(&error);
    if (!ok) {
      stats->first_error = error;
      break;
    }
    if (mode == Mode::kUntraced) {
      stats->publish_us.push_back(static_cast<double>(NowNs() - begin) / 1e3);
    }
    stats->live_epochs_max =
        std::max(stats->live_epochs_max, runtime_->live_epochs());
  }
  stop_.store(true);
}

// -- Clients ------------------------------------------------------------------

void Harness::ChooseTimesteps(int client, const Request& request, int64_t* t0,
                              int64_t* t1) {
  const WorkloadConfig& config = world_->config;
  for (;;) {
    const int64_t latest = runtime_->published_latest_t();
    *t1 = latest - request.back;
    *t0 = request.shape == kRange ? *t1 - config.range_steps + 1 : *t1;
    hazards_[client].store(*t0);
    // The publisher checks hazards before every grant, so at most one
    // publish that has not seen this hazard can still land: t0 must stay
    // inside the window of the epoch after the one read now.
    if (*t0 >= runtime_->published_latest_t() - config.retain + 2) return;
  }
}

QuerySpec Harness::MakeSpec(const Request& request, int64_t t0,
                            int64_t t1) const {
  const WorkloadConfig& config = world_->config;
  const auto region = [&](size_t i) -> const GridMask& {
    return world_->regions[static_cast<size_t>(request.regions[i])];
  };
  std::vector<GridMask> masks;
  if (request.shape == kMulti || request.shape == kTopK) {
    masks.reserve(request.regions.size());
    for (size_t i = 0; i < request.regions.size(); ++i) masks.push_back(region(i));
  }
  QuerySpec spec;
  switch (request.shape) {
    case kPoint: spec = QuerySpec::PointInTime(region(0), t1); break;
    case kRange: spec = QuerySpec::TimeRange(region(0), t0, t1); break;
    case kMulti: spec = QuerySpec::MultiRegion(std::move(masks), t1); break;
    case kTopK: spec = QuerySpec::TopK(std::move(masks), t1, config.topk_k); break;
  }
  spec.eval_path = config.eval_path;
  return spec;
}

void Harness::Check(const Request& request, int64_t t0, int64_t t1,
                    const Result<QueryResult>& result,
                    PhaseStats* stats) const {
  ++stats->attempted;
  const auto fail = [&](const std::string& why) {
    if (stats->first_error.empty()) {
      stats->first_error = std::string(kShapeNames[request.shape]) + " spec @ t=" +
                           std::to_string(t0) + ".." + std::to_string(t1) +
                           ": " + why;
    }
  };
  if (!result.ok()) {
    ++stats->failed_specs;
    if (result.status().code() == one4all::StatusCode::kResourceExhausted) {
      ++stats->rejected;
    } else {
      ++stats->failed_rows_by_code[std::string("spec ") +
                                   one4all::StatusCodeToString(result.status().code())];
    }
    fail(result.status().ToString());
    return;
  }
  const QueryResult& r = result.ValueOrDie();
  const size_t n = request.regions.size();
  if (r.rows.size() != n) {
    ++stats->failed_specs;
    fail("returned " + std::to_string(r.rows.size()) + " rows for " +
         std::to_string(n) + " regions");
    return;
  }
  bool bad = false;
  std::vector<double> truth(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (int64_t t = t0; t <= t1; ++t) truth[i] += world_->Truth(request.regions[i], t);
    if (!r.rows[i].ok()) {
      ++stats->failed_rows_by_code[one4all::StatusCodeToString(
          r.rows[i].status().code())];
      fail(r.rows[i].status().ToString());
      bad = true;
    } else if (!Agree(r.rows[i].ValueOrDie().value, truth[i])) {
      ++stats->wrong_values;
      fail("value " + std::to_string(r.rows[i].ValueOrDie().value) +
           ", truth " + std::to_string(truth[i]));
      bad = true;
    }
  }
  if (request.shape == kTopK && !bad) {
    // The truth ranking under the executor's rule: value descending,
    // ties toward the lower row index. A position may differ only where
    // the two truths agree within the tolerance (a near-tie).
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return truth[static_cast<size_t>(a)] > truth[static_cast<size_t>(b)];
    });
    const size_t k = std::min(n, static_cast<size_t>(world_->config.topk_k));
    if (r.top_k.size() != k) {
      ++stats->wrong_ranks;
      fail("top-k returned " + std::to_string(r.top_k.size()) + " of " +
           std::to_string(k));
      bad = true;
    }
    for (size_t i = 0; i < k && !bad; ++i) {
      const size_t got = static_cast<size_t>(r.top_k[i]);
      const size_t want = static_cast<size_t>(order[i]);
      if (got != want && !Agree(truth[got], truth[want])) {
        ++stats->wrong_ranks;
        fail("top-k position " + std::to_string(i) + " holds row " +
             std::to_string(got) + ", truth ranks row " + std::to_string(want));
        bad = true;
      }
    }
  }
  if (bad) ++stats->failed_specs;
}

void Harness::ProbeRegion(int client, const GridMask& region, int64_t t,
                          int64_t generation,
                          const one4all::PredictionStore* store,
                          PhaseStats* stats) {
  SpanLog& log = *logs_[static_cast<size_t>(client)];
  const one4all::Hierarchy& hierarchy = world_->dataset->hierarchy();
  const one4all::ExtendedQuadTree& index = world_->pipeline->index();

  int32_t span = log.BeginRoot(SpanName::kProbeDecompose);
  const std::vector<one4all::DecomposedPiece> pieces =
      one4all::HierarchicalDecompose(hierarchy, region);
  log.End(span);

  // The lookups RegionQueryServer::Resolve makes for Union & Subtraction.
  std::vector<const one4all::Combination*> combos;
  combos.reserve(pieces.size());
  span = log.BeginRoot(SpanName::kProbeLookup);
  for (const one4all::DecomposedPiece& piece : pieces) {
    const one4all::Combination* combo =
        piece.IsMultiGrid()
            ? index.LookupMulti(
                  one4all::CombinationSearchResult::KeyFor(hierarchy, piece.grids))
            : index.LookupSingle(piece.grids[0]);
    if (combo != nullptr) {
      combos.push_back(combo);
      continue;
    }
    for (const one4all::GridId& g : piece.grids) {
      combos.push_back(index.LookupSingle(g));
    }
  }
  log.End(span);

  int64_t terms = 0;
  uint64_t layers = 0;
  for (const one4all::Combination* combo : combos) {
    terms += static_cast<int64_t>(combo->terms.size());
    for (const one4all::CombinationTerm& term : combo->terms) {
      layers |= uint64_t{1} << term.grid.layer;
    }
  }
  stats->pieces_per_region.push_back(static_cast<double>(pieces.size()));
  stats->terms_per_region.push_back(static_cast<double>(terms));

  // The store reads a gather of this region makes at timestep t.
  for (int layer = 1; layer < 64; ++layer) {
    if ((layers >> layer & 1) == 0 || !store->HasFrameAt(generation, layer, t)) {
      continue;
    }
    span = log.BeginRoot(SpanName::kProbeGetFrame);
    const auto frame = store->GetFrameAt(generation, layer, t);
    log.End(span);
    span = log.BeginRoot(SpanName::kProbeGetTiled);
    const auto tiled = store->GetTiledFrameAt(generation, layer, t);
    log.End(span);
    if (!frame.ok() || !tiled.ok()) {
      if (stats->first_error.empty()) {
        stats->first_error = "probe read of a pinned frame failed";
      }
    }
  }
}

Result<QueryResult> Harness::TracedExecute(int client, const Request& request,
                                           QuerySpec spec, PhaseStats* stats) {
  SpanLog& log = *logs_[static_cast<size_t>(client)];
  const bool sharded = runtime_->sharded();
  const int64_t t1 = spec.time.t1;
  const size_t shape = static_cast<size_t>(request.shape);

  const int32_t root = log.BeginRoot(RequestSpan(request.shape));
  one4all::EpochGuard guard;
  one4all::ShardPinSet pins;
  if (!sharded) {
    ScopedSpan span(&log, SpanName::kPin, root);
    guard = runtime_->PinEpoch();
  } else {
    ScopedSpan span(&log, SpanName::kPinAll, root);
    pins = runtime_->shards()->PinAll();
  }
  Result<one4all::QueryPlan> plan = Status::Internal("not planned");
  {
    ScopedSpan span(&log, SpanName::kPlan, root);
    plan = one4all::QueryPlanner(&world_->dataset->hierarchy()).Plan(std::move(spec));
  }
  if (!plan.ok()) {
    log.End(root);
    return plan.status();
  }
  QueryResult result;
  const int32_t exec = log.Begin(SpanName::kExecute, root);
  if (!sharded) {
    one4all::QueryExecutorOptions options;
    options.num_threads = 1;
    options.cache = &runtime_->cache();
    options.generation = guard.generation();
    result = one4all::QueryExecutor(&server_).Execute(*plan, options);
  } else {
    one4all::ShardExecutorOptions options;
    options.num_threads = 1;
    result = one4all::ShardExecutor(&server_, runtime_->shards())
                 .Execute(*plan, pins, options);
  }
  log.End(exec);
  log.End(root);

  stats->latency_us[shape].push_back(log.spans()[static_cast<size_t>(root)].micros());
  stats->execute_us[shape].push_back(log.spans()[static_cast<size_t>(exec)].micros());
  stats->resolve_us.push_back(result.timings.resolve_micros);
  stats->gather_us.push_back(result.timings.eval_micros);
  if (request.shape == kTopK) stats->rank_us.push_back(result.timings.rank_micros);

  // Probes beside the request tree, under the same pin.
  const int64_t probes_begin = NowNs();
  const GridMask& first = world_->regions[static_cast<size_t>(request.regions[0])];
  if (!sharded) {
    ProbeRegion(client, first, t1, guard.generation(), &runtime_->store(), stats);
    one4all::ShardPinSet other;
    const int32_t span = log.BeginRoot(SpanName::kProbePin);
    other = probe_shards_->PinAll();
    log.End(span);
  } else {
    ProbeRegion(client, first, t1, pins.generation(0),
                &runtime_->shards()->shard(0).store, stats);
    one4all::EpochGuard other;
    const int32_t span = log.BeginRoot(SpanName::kProbePin);
    other = runtime_->PinEpoch();
    log.End(span);
  }
  stats->probe_seconds += static_cast<double>(NowNs() - probes_begin) / 1e9;
  return result;
}

void Harness::ClientLoop(int client, Mode mode, int64_t max_requests,
                         PhaseStats* stats) {
  const std::vector<Request>& sequence =
      world_->requests[static_cast<size_t>(client)];
  size_t& cursor = cursors_[static_cast<size_t>(client)];
  for (int64_t done = 0; !stop_.load() && (max_requests < 0 || done < max_requests);
       ++done) {
    const Request& request = sequence[cursor++ % sequence.size()];
    int64_t t0 = 0, t1 = 0;
    ChooseTimesteps(client, request, &t0, &t1);
    QuerySpec spec = MakeSpec(request, t0, t1);
    Result<QueryResult> result = Status::Internal("not executed");
    if (mode == Mode::kTraced) {
      result = TracedExecute(client, request, std::move(spec), stats);
    } else {
      const int64_t begin = NowNs();
      result = runtime_->ExecuteSpec(std::move(spec));
      const double micros = static_cast<double>(NowNs() - begin) / 1e3;
      if (mode == Mode::kUntraced) {
        stats->latency_us[static_cast<size_t>(request.shape)].push_back(micros);
      }
    }
    hazards_[client].store(INT64_MAX);
    Check(request, t0, t1, result, stats);
    if (stats->failed_specs > 0 && mode == Mode::kWarmUp) break;
  }
  clients_running_.fetch_sub(1);
}

// -- Phases -------------------------------------------------------------------

PhaseStats Harness::RunPhase(Mode mode, double seconds, int64_t requests_per_client) {
  const int clients = world_->config.clients;
  stop_.store(false);
  clients_running_.store(clients);
  std::vector<PhaseStats> client_stats(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const int64_t begin = NowNs();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([this, c, mode, requests_per_client, &client_stats] {
      ClientLoop(c, mode, requests_per_client, &client_stats[static_cast<size_t>(c)]);
    });
  }
  PhaseStats stats;
  PublisherLoop(mode, seconds, &stats);
  for (std::thread& thread : threads) thread.join();
  stats.seconds = static_cast<double>(NowNs() - begin) / 1e9;
  for (const PhaseStats& s : client_stats) stats.Merge(s);
  return stats;
}

bool Harness::WarmUp(int64_t requests_per_client, std::string* error) {
  // Fill the retention window, so every later publish reclaims.
  for (int64_t i = 0; i < world_->config.retain + 4; ++i) {
    if (!PublishUntraced(error)) return false;
  }
  if (!world_->config.adhoc) {
    // Resolve every zone once: the zoning then sits in the resolve cache.
    const int64_t t = runtime_->published_latest_t();
    QuerySpec spec;
    for (const GridMask& zone : world_->regions) {
      spec = QuerySpec::PointInTime(zone, t);
      spec.eval_path = world_->config.eval_path;
      const auto result = runtime_->ExecuteSpec(std::move(spec));
      if (!result.ok() || !result->rows[0].ok()) {
        *error = "zone warm-up query failed";
        return false;
      }
    }
  }
  const PhaseStats stats = RunPhase(Mode::kWarmUp, 0.0, requests_per_client);
  if (!stats.first_error.empty() || stats.failed_specs > 0) {
    *error = "warm-up: " + stats.first_error;
    return false;
  }
  return true;
}

PhaseStats Harness::RunUntraced(double seconds) {
  return RunPhase(Mode::kUntraced, seconds, -1);
}

PhaseStats Harness::RunTraced(double seconds) {
  const WorkloadConfig& config = world_->config;
  runtime_->Stop();  // the publisher thread publishes from here on
  prev_frames_ = world_->stream[world_->SourceOf(next_t_ - 1)];
  if (!runtime_->sharded()) {
    one4all::ShardSetOptions options;
    options.retain_timesteps = config.retain;
    probe_shards_ = std::make_unique<one4all::ShardSet>(
        &world_->dataset->hierarchy(), 2, nullptr, options);
  }
  for (int c = 0; c <= config.clients; ++c) {
    logs_.push_back(std::make_unique<SpanLog>(static_cast<uint64_t>(c + 1) << 40));
    logs_.back()->Reserve(1 << 16);
  }
  return RunPhase(Mode::kTraced, seconds, -1);
}

}  // namespace servebench
