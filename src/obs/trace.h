// Span tracing for the serving runtime: a TraceContext per query (or per
// epoch publish attempt) plus RAII ScopedSpans that record completed
// stage spans into a TraceRecorder's event ring. Root spans are always
// recorded while the recorder is enabled (cheap: one clock read at open,
// one clock read + ring append at close); interior stage spans are only
// materialized for head-sampled traces (1-in-N), so full span trees are
// available without paying per-stage clock costs on every query.
#ifndef ONE4ALL_OBS_TRACE_H_
#define ONE4ALL_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/event_ring.h"

namespace one4all {

/// \brief Every span the runtime emits, query-path then epoch-path.
/// Append-only: exporters key on the numeric value.
enum class SpanName : uint8_t {
  kQuery = 0,      ///< root: one ExecuteSpec call (arg: rows)
  kAdmission = 1,  ///< admission-control gate (arg: admitted cost)
  kPlan = 2,       ///< QueryPlanner::Plan
  kCacheProbe = 3, ///< per-slot resolve-cache probe (arg: 1 on hit)
  kResolve = 4,    ///< resolve stage across all slots (arg: #slots)
  kEpochPin = 5,   ///< epoch pin acquisition (arg: pinned generation)
  kGather = 6,     ///< gather stage, SAT or exact (arg: #point queries)
  kFold = 7,       ///< per-row series fold (arg: series length)
  kRank = 8,       ///< top-k ranking
  kPublishEpoch = 9,   ///< root: one publish attempt (arg: timestep)
  kInfer = 10,         ///< multi-scale inference (arg: timestep)
  kStageFrames = 11,   ///< staging all layer frames (arg: #frames)
  kBuildSatPlane = 12, ///< one SAT plane build (arg: layer)
  kPublish = 13,       ///< atomic epoch flip
  kReclaim = 14,       ///< root: one generation reclaim (arg: generation)
  // 15 and 16 are retired (a sharded scatter and merge stage); sharded
  // queries emit the kResolve/kGather/kFold/kRank spans above.
  kBarrierWait = 17,   ///< cross-shard epoch pin, incl. seqlock retries
  kTileSatFixup = 18,  ///< incremental tiled-SAT rebuild (arg: dirty tiles)
};
constexpr int kNumSpanNames = 19;

const char* SpanNameString(SpanName name);

enum class SpanCategory : uint8_t {
  kQuery = 0,
  kEpoch = 1,
};

const char* SpanCategoryString(SpanCategory category);

struct TraceRecorderOptions {
  size_t ring_capacity = size_t{1} << 14;
  /// Head sampling period: 1 full span tree per N traces (roots are
  /// always recorded). <= 1 samples every trace.
  int sample_every_n = 16;
  bool enabled = true;
};

class TraceRecorder;

/// \brief Per-trace state threaded through one query (or publish
/// attempt). Copy-by-value to hand a worker thread its own context:
/// ScopedSpan mutates `parent_span`, so two threads must never open
/// spans on the same TraceContext instance concurrently.
struct TraceContext {
  TraceRecorder* recorder = nullptr;  ///< null: tracing off for this call
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;  ///< innermost open span; 0 at the root
  SpanCategory category = SpanCategory::kQuery;
  bool sampled = false;  ///< full tree (true) vs root-only (false)

  bool active() const { return recorder != nullptr; }
};

/// \brief Owns the event ring, id allocation, the head sampler and the
/// trace clock. Thread-safe throughout; one instance is typically shared
/// by a whole runtime (TraceRecorder::Global() when none is injected).
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceRecorderOptions options = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// \brief Opens a new trace: allocates a trace id and decides head
  /// sampling. Returns an inactive context while disabled, so the hot
  /// path pays one relaxed load and nothing else.
  TraceContext StartTrace(SpanCategory category);

  void Record(const TraceEvent& event) { ring_.Append(event); }

  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// \brief Nanoseconds since this recorder was constructed.
  uint64_t NowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - birth_)
            .count());
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  int sample_every_n() const {
    return sample_every_n_.load(std::memory_order_relaxed);
  }
  void set_sample_every_n(int n) {
    sample_every_n_.store(n, std::memory_order_relaxed);
  }

  std::vector<TraceEvent> Snapshot() const { return ring_.Snapshot(); }
  int64_t total_events() const { return ring_.total_appended(); }
  int64_t dropped_events() const { return ring_.dropped_total(); }
  size_t ring_capacity() const { return ring_.capacity(); }

  /// \brief Clears the ring and drop counters (ids keep advancing).
  /// Quiescent-only, same contract as TraceEventRing::Reset.
  void Reset() { ring_.Reset(); }

  /// \brief Process-wide default recorder, used when no recorder is
  /// injected through options structs.
  static TraceRecorder& Global();

  /// \brief Small dense id for the calling thread (first use assigns).
  static uint32_t CurrentThreadId();

 private:
  TraceEventRing ring_;
  std::atomic<bool> enabled_;
  std::atomic<int> sample_every_n_;
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> head_counter_{0};
  std::chrono::steady_clock::time_point birth_;
};

/// \brief RAII span: opens on construction, records a TraceEvent on
/// destruction. Becomes a no-op (no clock reads) when the context is
/// inactive, or when this would be an interior span of an unsampled
/// trace — so always-on tracing costs one root span per query.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, SpanName name, int64_t arg = 0);
  ~ScopedSpan() { Close(); }

  /// \brief Ends the span now (records the event, restores the parent);
  /// the destructor then does nothing. For spans that must end before
  /// the enclosing scope does.
  void Close();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// \brief Updates the detail argument after construction (e.g. the
  /// pinned generation is only known once the span is open).
  void set_arg(int64_t arg) { arg_ = arg; }

  bool recording() const { return ctx_ != nullptr; }
  uint64_t span_id() const { return span_id_; }

 private:
  TraceContext* ctx_ = nullptr;  ///< null: this span records nothing
  uint64_t span_id_ = 0;
  uint64_t saved_parent_ = 0;
  uint64_t start_nanos_ = 0;
  int64_t arg_ = 0;
  SpanName name_;
};

}  // namespace one4all

#endif  // ONE4ALL_OBS_TRACE_H_
