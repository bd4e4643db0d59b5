// The benchmark's own span log. Spans are recorded only by benchmark code,
// around its calls into the serving core's public functions: the runtime's
// internal TraceRecorder is left at its defaults and is never read here.
//
// Each thread owns one SpanLog (no sharing, no locks). A request is a root
// span plus child spans that share its request id; probes of pure layer
// functions are recorded as separate roots so they never enter a request's
// residual.
#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

enum class SpanName : uint8_t {
  // Request trees (clients).
  kRequestPoint,
  kRequestRange,
  kRequestMulti,
  kRequestTopK,
  kPin,      // ServingRuntime::PinEpoch
  kPinAll,   // ShardSet::PinAll
  kPlan,     // QueryPlanner::Plan
  kExecute,  // QueryExecutor::Execute / ShardExecutor::Execute
  // Publish trees (publisher thread).
  kPublish,
  kInfer,          // copying the stream's frame set for the timestep
  kDiff,           // DiffFrames over every layer
  kStage,          // FrameEpochManager::BeginEpoch + TryStageFrame
  kFlip,           // FrameEpochManager::Publish
  kStagePublish,   // ShardSet::StageAndPublish
  // Probes beside the trees.
  kProbeDecompose,  // HierarchicalDecompose of one region
  kProbeLookup,     // ExtendedQuadTree lookups of one region's pieces
  kProbeGetFrame,   // PredictionStore::GetFrameAt
  kProbeGetTiled,   // PredictionStore::GetTiledFrameAt
  kProbeSatFull,    // TiledSatPlane::Build over every layer
  kProbeSatDelta,   // TiledSatPlane::BuildDelta over every layer
  kProbePin,        // the other substrate's pin
  kProbeStage,      // the other substrate's staging
  kProbeFlip,       // the other substrate's flip
  kProbeStagePublish,  // the other substrate's StageAndPublish
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

struct Span {
  uint64_t request = 0;  ///< shared by every span of one request
  int32_t parent = -1;   ///< index into the same log, -1 for roots
  SpanName name = SpanName::kPublish;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Append-only per-thread span log kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(uint64_t request_id_base) : next_request_(request_id_base) {}

  /// \brief Opens a root span for a new request; returns its index.
  int32_t BeginRoot(SpanName name) {
    ++next_request_;
    return Begin(name, -1);
  }
  /// \brief Opens a child of `parent` (same request).
  int32_t Begin(SpanName name, int32_t parent) {
    Span span;
    span.request = next_request_;
    span.parent = parent;
    span.name = name;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  uint64_t next_request_;
  std::vector<Span> spans_;
};

/// \brief Times a child span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, int32_t parent)
      : log_(log), index_(log->Begin(name, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// \brief Per-layer reductions over every log of a traced run.
struct SpanSummary {
  /// Durations (micros) of every span, by name.
  std::vector<std::vector<double>> durations;
  /// Per request root: root duration minus the union of its children's
  /// intervals (the part no recorded layer accounts for), by root name.
  std::vector<std::vector<double>> unattributed;
};

SpanSummary Summarize(const std::vector<const SpanLog*>& logs);

/// \brief Writes every span as Chrome trace_event JSON (complete events,
/// one track per log). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
