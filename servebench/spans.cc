#include "spans.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace servebench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequestPoint: return "request.point";
    case SpanName::kRequestRange: return "request.range";
    case SpanName::kRequestMulti: return "request.multi";
    case SpanName::kRequestTopK: return "request.topk";
    case SpanName::kPin: return "serve.pin";
    case SpanName::kPinAll: return "shard.pin_all";
    case SpanName::kPlan: return "query.plan";
    case SpanName::kExecute: return "query.execute";
    case SpanName::kPublish: return "publish";
    case SpanName::kInfer: return "infer";
    case SpanName::kDiff: return "tensor.diff";
    case SpanName::kStage: return "serve.stage";
    case SpanName::kFlip: return "serve.flip";
    case SpanName::kStagePublish: return "shard.stage_publish";
    case SpanName::kProbeDecompose: return "probe.grid.decompose";
    case SpanName::kProbeLookup: return "probe.index.lookup";
    case SpanName::kProbeGetFrame: return "probe.kvstore.get_frame";
    case SpanName::kProbeGetTiled: return "probe.kvstore.get_tiled_frame";
    case SpanName::kProbeSatFull: return "probe.tensor.sat_full";
    case SpanName::kProbeSatDelta: return "probe.tensor.sat_delta";
    case SpanName::kProbePin: return "probe.pin";
    case SpanName::kProbeStage: return "probe.serve.stage";
    case SpanName::kProbeFlip: return "probe.serve.flip";
    case SpanName::kProbeStagePublish: return "probe.shard.stage_publish";
    case SpanName::kNumSpanNames: break;
  }
  return "unknown";
}

namespace {

bool IsTreeRoot(SpanName name) {
  return name == SpanName::kRequestPoint || name == SpanName::kRequestRange ||
         name == SpanName::kRequestMulti || name == SpanName::kRequestTopK ||
         name == SpanName::kPublish;
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>* intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end());
  int64_t covered = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s0, e0] : *intervals) {
    const int64_t s = std::max(s0, lo), e = std::min(e0, hi);
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

}  // namespace

SpanSummary Summarize(const std::vector<const SpanLog*>& logs) {
  const size_t n = static_cast<size_t>(SpanName::kNumSpanNames);
  SpanSummary summary;
  summary.durations.resize(n);
  summary.unattributed.resize(n);
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
    for (const Span& span : spans) {
      summary.durations[static_cast<size_t>(span.name)].push_back(span.micros());
      if (span.parent >= 0) {
        children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                                span.end_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& root = spans[i];
      if (root.parent >= 0 || !IsTreeRoot(root.name)) continue;
      const int64_t covered =
          UnionLength(&children[i], root.start_ns, root.end_ns);
      summary.unattributed[static_cast<size_t>(root.name)].push_back(
          static_cast<double>(root.end_ns - root.start_ns - covered) / 1e3);
    }
  }
  return summary;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) origin = std::min(origin, span.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& span : logs[tid]->spans()) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                   first ? "" : ",\n", SpanNameString(span.name), tid,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   span.micros(),
                   static_cast<unsigned long long>(span.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace servebench
