// servebench: the serving core's benchmark. One run loads a named workload
// from a seed, drives a real ServingRuntime (closed-loop clients, epochs
// published by the stream ingestor meanwhile), checks every answer against
// ground truth and prints a run record plus one JSON line of metrics.
//
//   servebench --workload zone_mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the time into
// an untraced half and a traced half and prints the per-layer metrics.
// The exit code is non-zero when any answer is wrong or any spec fails.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "load.h"
#include "spans.h"
#include "world.h"

#ifndef SERVEBENCH_COMPILER
#define SERVEBENCH_COMPILER "unknown"
#endif
#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

constexpr int64_t kWarmRequestsPerClient = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--git-sha SHA] "
               "[--source-digest HEX]\n       servebench --list\nworkloads:",
               why);
  for (const WorkloadConfig& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      for (const WorkloadConfig& w : Workloads()) std::printf("%s\n", w.name.c_str());
      std::exit(0);
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(args.workload) == nullptr) Usage("unknown --workload");
  if (!(args.seconds > 0.0) || args.seconds > 120.0) Usage("bad --seconds");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(n, std::max<size_t>(rank, 1));
  return (*values)[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count and base, for the record
  /// False for the tails: on a shared 4-core VM a run's p90/p99 moved by
  /// up to 35% between seeds (host wake-up and steal bursts) while its
  /// medians held within ~10%, so only medians are bounded; the tails stay
  /// in the record with their sample counts.
  bool in_json = true;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "", bool in_json = true) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note), in_json});
  }
  /// A percentile with its sample count and the samples beyond it.
  void AddPercentile(const std::string& name, std::vector<double>* samples,
                     double q, bool in_json = true) {
    const double value = Percentile(samples, q);
    const size_t n = samples->size();
    const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    const size_t beyond = n - std::min(n, rank);
    std::string note = "n=" + std::to_string(n) + " beyond=" + std::to_string(beyond);
    if (q < 1.0 && q > 0.5 && beyond < 10) note += " (fewer than 10 beyond)";
    Add(name, value, "us", note, in_json);
  }
  /// A median over samples, for the per-layer numbers.
  void AddMedian(const std::string& name, std::vector<double>* samples,
                 const std::string& unit = "us") {
    const double value = Percentile(samples, 0.5);
    Add(name, value, unit, "n=" + std::to_string(samples->size()));
  }

  void PrintRecord() const {
    for (const Metric& m : metrics_) {
      std::printf("# metric %-30s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    const char* separator = "";
    for (const Metric& m : metrics_) {
      if (!m.in_json) continue;
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", separator,
                  m.name.c_str(), m.value, m.unit.c_str());
      separator = ", ";
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

void PrintOutcome(const char* phase, const PhaseStats& stats) {
  std::printf("# %s: %lld specs in %.3f s, %lld failed (%lld rejected, %lld wrong "
              "values, %lld wrong ranks), %zu publishes, %lld reclaim-guard holds\n",
              phase, static_cast<long long>(stats.attempted), stats.seconds,
              static_cast<long long>(stats.failed_specs),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.wrong_values),
              static_cast<long long>(stats.wrong_ranks), stats.publish_us.size(),
              static_cast<long long>(stats.publish_holds));
  std::printf("# %s error_rate %.6f (base: %lld attempted specs)\n", phase,
              Ratio(static_cast<double>(stats.failed_specs),
                    static_cast<double>(stats.attempted)),
              static_cast<long long>(stats.attempted));
  for (const auto& [code, n] : stats.failed_rows_by_code) {
    std::printf("# %s failed rows %s: %lld\n", phase, code.c_str(),
                static_cast<long long>(n));
  }
  if (!stats.first_error.empty()) {
    std::printf("# %s first error: %s\n", phase, stats.first_error.c_str());
  }
}

/// Counters the runtime keeps itself, read before and after the untraced
/// phase.
struct RuntimeCounters {
  one4all::ResolvedQueryCacheStats cache;
  one4all::ServingTelemetrySnapshot telemetry;
  int64_t memo_reused = 0, memo_reevaluated = 0, pin_retries = 0;

  static RuntimeCounters Read(one4all::ServingRuntime* runtime) {
    RuntimeCounters c;
    c.cache = runtime->cache().Stats();
    if (runtime->sharded()) {
      for (int k = 0; k < runtime->num_shards(); ++k) {
        const auto s = runtime->shards()->shard(k).cache.Stats();
        c.cache.hits += s.hits;
        c.cache.misses += s.misses;
        c.cache.evictions += s.evictions;
      }
      c.pin_retries = runtime->shards()->pin_retries();
    }
    c.telemetry = runtime->Telemetry();
    c.memo_reused = runtime->topk_memo().rows_reused();
    c.memo_reevaluated = runtime->topk_memo().rows_reevaluated();
    return c;
  }
};

void ResetCacheStats(one4all::ServingRuntime* runtime) {
  runtime->cache().ResetStats();
  if (runtime->sharded()) {
    for (int k = 0; k < runtime->num_shards(); ++k) {
      runtime->shards()->shard(k).cache.ResetStats();
    }
  }
}

int Run(const Args& args) {
  const WorkloadConfig& config = *FindWorkload(args.workload);
  std::printf("# servebench run record\n");
  std::printf("# git_sha %s source_sha256 %s\n", args.git_sha.c_str(),
              args.source_digest.c_str());
  std::printf("# compiler %s build_type %s\n", SERVEBENCH_COMPILER,
              SERVEBENCH_BUILD_TYPE);
  std::printf("# usable_cores %d (sched_getaffinity) hardware_threads %u\n",
              UsableCores(), std::thread::hardware_concurrency());
  std::printf("# workload %s seed %llu seconds %.3f trace %d\n", config.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("# why %s\n", config.why.c_str());
  std::printf("# threads: %d closed-loop clients, 1 publisher, 1 ingest; "
              "num_query_threads 1; shards %d; grid %lldx%lld; eval_path %s\n",
              config.clients, config.num_shards, static_cast<long long>(config.grid),
              static_cast<long long>(config.grid),
              one4all::EvalPathName(config.eval_path));
  std::fflush(stdout);

  // Set-up, repeated so setup_s is a median: data, offline pipeline,
  // runtime construction and warm-up, each from scratch.
  const int setups = args.trace == 0 ? 3 : 1;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::unique_ptr<one4all::ServingRuntime> runtime;
  std::unique_ptr<Harness> harness;
  for (int k = 0; k < setups; ++k) {
    harness.reset();
    runtime.reset();
    world.reset();
    const int64_t begin = NowNs();
    world = BuildWorld(config, args.seed, args.seconds);
    runtime = std::make_unique<one4all::ServingRuntime>(
        &world->dataset->hierarchy(), &world->pipeline->index(), world->clock.get(),
        world->Inference(), world->RuntimeOptions());
    runtime->Start();
    harness = std::make_unique<Harness>(world.get(), runtime.get());
    std::string error;
    if (!harness->WarmUp(kWarmRequestsPerClient, &error)) {
      std::printf("# set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  }
  std::printf("# regions %zu, stream sources %zu, requests per client %zu\n",
              world->regions.size(), world->stream.size(),
              world->requests[0].size());

  ResetCacheStats(runtime.get());
  const RuntimeCounters before = RuntimeCounters::Read(runtime.get());
  const double untraced_seconds = args.trace == 0 ? args.seconds : args.seconds / 2;
  PhaseStats untraced = harness->RunUntraced(untraced_seconds);
  const RuntimeCounters after = RuntimeCounters::Read(runtime.get());
  PrintOutcome("untraced", untraced);
  {
    // Faults, context switches and CPU time tell a run slowed by paging
    // or preemption apart from one slowed by the host's cores or caches.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("# rusage minflt %ld majflt %ld nvcsw %ld nivcsw %ld "
                "utime %.3f s stime %.3f s\n",
                usage.ru_minflt, usage.ru_majflt, usage.ru_nvcsw, usage.ru_nivcsw,
                usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6,
                usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6);
  }
  bool correct = untraced.failed_specs == 0 && untraced.first_error.empty();
  int64_t attempted = untraced.attempted;
  int64_t failed = untraced.failed_specs;
  const double qps = static_cast<double>(untraced.attempted) / untraced.seconds;

  Report report;
  if (args.trace == 0) {
    std::vector<double> setups_sorted = setup_s;
    report.Add("setup_s", Percentile(&setups_sorted, 0.5), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups");
    report.Add("peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss");
    report.Add("qps", qps, "1/s",
               std::to_string(untraced.attempted) + " specs, " +
                   std::to_string(config.clients) + " clients");
    for (int s = 0; s < kNumShapes; ++s) {
      const std::string shape = kShapeNames[s];
      std::vector<double>* samples = &untraced.latency_us[static_cast<size_t>(s)];
      report.AddPercentile(shape + "_p50_us", samples, 0.5);
      report.AddPercentile(shape + "_p90_us", samples, 0.9, /*in_json=*/false);
      report.AddPercentile(shape + "_p99_us", samples, 0.99, /*in_json=*/false);
    }
    report.AddPercentile("publish_p50_us", &untraced.publish_us, 0.5);
    report.AddPercentile("publish_p90_us", &untraced.publish_us, 0.9,
                         /*in_json=*/false);
    report.AddPercentile("publish_p99_us", &untraced.publish_us, 0.99,
                         /*in_json=*/false);
  } else {
    std::vector<double> untraced_publish = untraced.publish_us;
    PhaseStats traced = harness->RunTraced(args.seconds / 2);
    PrintOutcome("traced", traced);
    correct = correct && traced.failed_specs == 0 && traced.first_error.empty();
    attempted += traced.attempted;
    failed += traced.failed_specs;
    const std::vector<const SpanLog*> logs = harness->logs();
    SpanSummary spans = Summarize(logs);
    if (!args.trace_out.empty()) {
      std::printf("# spans written to %s: %s\n", args.trace_out.c_str(),
                  WriteChromeTrace(args.trace_out, logs) ? "ok" : "FAILED");
    }
    const auto d = [&](SpanName name) -> std::vector<double>* {
      return &spans.durations[static_cast<size_t>(name)];
    };
    const auto u = [&](SpanName name) -> std::vector<double>* {
      return &spans.unattributed[static_cast<size_t>(name)];
    };
    const bool sharded = runtime->sharded();
    // Each workload publishes through one substrate inside its trees and
    // feeds the other the same frames as a probe, so both report.
    report.AddMedian("serve.pin_us", d(sharded ? SpanName::kProbePin : SpanName::kPin));
    report.Add("serve.admission_rejects",
               static_cast<double>(after.telemetry.batches_rejected -
                                   before.telemetry.batches_rejected),
               "count", "untraced half");
    report.AddMedian("serve.stage_us",
                     d(sharded ? SpanName::kProbeStage : SpanName::kStage));
    report.AddMedian("serve.flip_us", d(sharded ? SpanName::kProbeFlip : SpanName::kFlip));
    report.Add("serve.live_epochs_max", static_cast<double>(untraced.live_epochs_max),
               "count", "sampled after every untraced publish");
    report.AddMedian("query.plan_us", d(SpanName::kPlan));
    for (int s = 0; s < kNumShapes; ++s) {
      report.AddMedian(std::string("query.execute_") + kShapeNames[s] + "_us",
                       &traced.execute_us[static_cast<size_t>(s)]);
    }
    report.AddMedian("query.resolve_us", &traced.resolve_us);
    report.AddMedian("query.gather_us", &traced.gather_us);
    report.AddMedian("query.rank_us", &traced.rank_us);
    const double lookups = static_cast<double>((after.cache.hits - before.cache.hits) +
                                               (after.cache.misses - before.cache.misses));
    report.Add("query.cache_hit_ratio",
               Ratio(static_cast<double>(after.cache.hits - before.cache.hits), lookups),
               "ratio", "base: " + std::to_string(static_cast<int64_t>(lookups)) +
                            " lookups, untraced half");
    report.Add("query.cache_evictions",
               static_cast<double>(after.cache.evictions - before.cache.evictions),
               "count", "untraced half");
    const double reused = static_cast<double>(after.memo_reused - before.memo_reused);
    const double reevaluated =
        static_cast<double>(after.memo_reevaluated - before.memo_reevaluated);
    report.Add("query.topk_reuse_ratio", Ratio(reused, reused + reevaluated), "ratio",
               "base: " + std::to_string(static_cast<int64_t>(reused + reevaluated)) +
                   " top-k rows, untraced half");
    report.AddMedian("grid.decompose_us", d(SpanName::kProbeDecompose));
    report.Add("grid.pieces_per_region", Mean(traced.pieces_per_region), "count",
               "mean over " + std::to_string(traced.pieces_per_region.size()) + " regions");
    report.AddMedian("index.lookup_us", d(SpanName::kProbeLookup));
    report.Add("index.terms_per_region", Mean(traced.terms_per_region), "count",
               "mean over " + std::to_string(traced.terms_per_region.size()) + " regions");
    report.AddMedian("kvstore.get_frame_us", d(SpanName::kProbeGetFrame));
    report.AddMedian("kvstore.get_tiled_frame_us", d(SpanName::kProbeGetTiled));
    report.AddMedian("tensor.diff_us", d(SpanName::kDiff));
    report.AddMedian("tensor.sat_delta_us", d(SpanName::kProbeSatDelta));
    report.AddMedian("tensor.sat_full_us", d(SpanName::kProbeSatFull));
    report.Add("tensor.dirty_tile_ratio",
               Ratio(static_cast<double>(traced.dirty_tiles),
                     static_cast<double>(traced.diffed_tiles)),
               "ratio", "base: " + std::to_string(traced.diffed_tiles) + " diffed tiles");
    const double dirty = static_cast<double>(after.telemetry.stage_dirty_tiles -
                                             before.telemetry.stage_dirty_tiles);
    const double shared = static_cast<double>(after.telemetry.cow_shared_tiles -
                                              before.telemetry.cow_shared_tiles);
    report.Add("tensor.cow_shared_ratio", Ratio(shared, dirty + shared), "ratio",
               "base: " + std::to_string(static_cast<int64_t>(dirty + shared)) +
                   " staged or shared tiles, untraced half");
    report.AddMedian("shard.pin_all_us",
                     d(sharded ? SpanName::kPinAll : SpanName::kProbePin));
    report.Add("shard.pin_retries",
               static_cast<double>(sharded ? after.pin_retries - before.pin_retries
                                           : harness->probe_pin_retries()),
               "count", sharded ? "untraced half" : "2-shard probe, traced half");
    report.AddMedian("shard.stage_publish_us",
                     d(sharded ? SpanName::kStagePublish : SpanName::kProbeStagePublish));
    report.Add("data.generate_s", world->times.generate_s, "s");
    report.Add("combine.search_s", world->times.search_s, "s");
    report.Add("eval.pipeline_build_s", world->times.build_s, "s");
    report.AddMedian("unattributed.point_us", u(SpanName::kRequestPoint));
    report.AddMedian("unattributed.range_us", u(SpanName::kRequestRange));
    report.AddMedian("unattributed.multi_us", u(SpanName::kRequestMulti));
    report.AddMedian("unattributed.topk_us", u(SpanName::kRequestTopK));
    report.AddMedian("unattributed.publish_us", u(SpanName::kPublish));
    // Probe time is client time outside the request trees; take it out so
    // the overhead is that of the traced request path alone.
    const double traced_qps =
        static_cast<double>(traced.attempted) /
        (traced.seconds - traced.probe_seconds / config.clients);
    report.Add("trace_overhead.qps_pct", 100.0 * (qps - traced_qps) / qps, "%",
               "traced vs untraced qps, probe time excluded");
    const double p50_untraced = Percentile(&untraced_publish, 0.5);
    const double p50_traced = Percentile(&traced.publish_us, 0.5);
    report.Add("trace_overhead.publish_pct",
               100.0 * Ratio(p50_traced - p50_untraced, p50_untraced), "%",
               "traced vs untraced publish_p50_us");
  }
  report.PrintRecord();
  report.PrintJson(correct, attempted, failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  return servebench::Run(servebench::ParseArgs(argc, argv));
}
