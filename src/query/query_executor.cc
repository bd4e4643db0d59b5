#include "query/query_executor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "query/frame_memo.h"
#include "query/resolved_query_cache.h"
#include "tensor/tiled_sat.h"

namespace one4all {

namespace {

/// \brief Outcome of the resolve stage for one distinct region.
struct SlotResolution {
  Result<std::shared_ptr<const ResolvedQuery>> resolved =
      Status::Internal("slot not resolved");
  bool cache_hit = false;
  double probe_micros = 0.0;
};

/// \brief The aggregation fold shared by both gather interpreters.
/// Left-to-right accumulation in series order — part of the
/// bit-exactness contract.
double FoldSeries(const std::vector<double>& series, TimeAggregation agg) {
  switch (agg) {
    case TimeAggregation::kSum:
    case TimeAggregation::kMean: {
      double acc = 0.0;
      for (const double v : series) acc += v;
      if (agg == TimeAggregation::kMean) {
        acc /= static_cast<double>(series.size());
      }
      return acc;
    }
    case TimeAggregation::kMax: {
      double best = series.front();
      for (const double v : series) best = std::max(best, v);
      return best;
    }
  }
  return 0.0;
}

/// \brief Builds one result row from its gathered series plus the
/// resolution's accounting — the one place both gather interpreters fill
/// row bookkeeping, so they cannot diverge when QueryRow grows a field.
QueryRow MakeRow(const std::vector<double>& series, TimeAggregation agg,
                 bool keep_series, const ResolvedQuery& rq,
                 const SlotResolution& slot, double eval_micros,
                 TraceContext* trace) {
  QueryRow row;
  {
    ScopedSpan fold_span(trace, SpanName::kFold,
                         static_cast<int64_t>(series.size()));
    row.value = FoldSeries(series, agg);
  }
  if (keep_series) row.series = series;
  row.num_pieces = rq.num_pieces;
  row.num_terms = static_cast<int>(rq.terms.size());
  row.from_cache = slot.cache_hit;
  row.eval_micros = eval_micros;
  if (slot.cache_hit) {
    // Decompose + index were skipped; report the actual resolve-path
    // latency (the cache lookup).
    row.response_micros = slot.probe_micros;
  } else {
    row.decompose_micros = rq.decompose_micros;
    row.index_micros = rq.index_micros;
    row.response_micros = rq.decompose_micros + rq.index_micros;
  }
  return row;
}

/// \brief Stage 3: top-k rank over `result->rows` (no-op unless the plan
/// is a kTopK spec). Ties break toward the lower row index.
void RankTopK(const QueryPlan& plan, TraceContext* trace,
              QueryResult* result) {
  if (plan.spec.kind != QuerySpecKind::kTopK) return;
  ScopedSpan rank_span(trace, SpanName::kRank, plan.spec.top_k);
  Stopwatch stage_timer;
  std::vector<int> order;
  order.reserve(result->rows.size());
  for (size_t i = 0; i < result->rows.size(); ++i) {
    if (result->rows[i].ok()) order.push_back(static_cast<int>(i));
  }
  const size_t k = std::min(order.size(),
                            static_cast<size_t>(plan.spec.top_k));
  std::partial_sort(order.begin(), order.begin() + static_cast<int64_t>(k),
                    order.end(), [&](int a, int b) {
                      const double va =
                          result->rows[static_cast<size_t>(a)]->value;
                      const double vb =
                          result->rows[static_cast<size_t>(b)]->value;
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(k);
  result->top_k = std::move(order);
  result->timings.rank_micros = stage_timer.ElapsedMicros();
}

// -- SAT fast path ----------------------------------------------------------

/// \brief One (layer, t) the fast path needs, with whatever was found
/// for it. Frames and planes are looked up once per *plan* (the exact
/// path looks up per worker chunk), then read concurrently by every row.
/// Both are raw pointers into the executor's View of the pinned
/// generation (no store lock and no refcount bump per lookup; the View
/// keeps them alive and unchanged); the hot row loop reads them without
/// any Result<> unwrapping per rect/residue read.
struct FrameTableEntry {
  int layer = 0;
  int64_t t = 0;
  bool need_frame = false;
  bool need_plane = false;
  /// The tiled frame (null when missing; `error` says why) and its dense
  /// per-tile cell pointers, indexed by ResidueRead::tile.
  const TiledFrame* frame = nullptr;
  const float* const* tiles = nullptr;
  /// The tiled summed-area plane. Null: not published for this
  /// generation — rect reads then fall back to direct sums over `frame`.
  const TiledSatPlane* plane = nullptr;
  Status error;  ///< frame lookup failure (typically NotFound)
};

bool EntryKeyLess(const FrameTableEntry& e, std::pair<int, int64_t> key) {
  if (e.layer != key.first) return e.layer < key.first;
  return e.t < key.second;
}

const FrameTableEntry* FindEntry(const std::vector<FrameTableEntry>& table,
                                 int layer, int64_t t) {
  auto it = std::lower_bound(table.begin(), table.end(),
                             std::make_pair(layer, t), EntryKeyLess);
  O4A_DCHECK(it != table.end() && it->layer == layer && it->t == t);
  return &*it;
}

// -- Fan-out grains -----------------------------------------------------
//
// Stage work is estimated in cell reads: a term cell of the exact loop,
// a corner or residue read of the fast path (~15 ns each in the exact
// loop on a 4-core x86 host). A stage fans out once its estimate reaches
// kFanOutCellReads, ~120 us of work: a fan-out costs ~10 us to wake the
// helpers and join them, and nearer the break-even its gain drowns in
// per-chunk frame-memo refills and wakeup jitter.
constexpr int64_t kFanOutCellReads = 8192;
/// Per-row bookkeeping (row fold, series, status), ~0.5 us.
constexpr int64_t kRowCellReads = 32;
/// One region resolved on a cache miss: a decompose + index lookup,
/// ~15 us. Cache probes (~0.25 us) run inline and are not sized.
constexpr int64_t kResolveCellReads = 1024;

/// \brief The ParallelFor grain of a stage over `items` whose estimated
/// work is `cell_reads`: the items that make up one fan-out's worth, so
/// the stage fans out exactly when cell_reads >= kFanOutCellReads.
/// num_threads == 1 keeps every stage on the calling thread.
int64_t StageGrain(const QueryExecutorOptions& options, int64_t items,
                   int64_t cell_reads) {
  if (options.num_threads == 1 || cell_reads < kFanOutCellReads) {
    return std::numeric_limits<int64_t>::max();
  }
  return std::max<int64_t>(1, items * kFanOutCellReads / cell_reads);
}

/// \brief StageGrain of a gather stage over the plan's rows: each row
/// costs kRowCellReads plus, at every timestep, four reads per rect and
/// one per residue on the fast path or one per term on the exact loop.
int64_t GatherGrain(const QueryExecutorOptions& options,
                    const QueryPlan& plan,
                    const std::vector<SlotResolution>& slots, bool fast_path) {
  const int64_t num_rows = static_cast<int64_t>(plan.rows.size());
  int64_t cell_reads = num_rows * kRowCellReads;
  for (const PlanRow& planned : plan.rows) {
    const SlotResolution& slot =
        slots[static_cast<size_t>(planned.region_slot)];
    if (!slot.resolved.ok()) continue;
    const ResolvedQuery& rq = **slot.resolved;
    const size_t step_reads =
        fast_path ? 4 * rq.gather.rects.size() + rq.gather.residues.size()
                  : rq.terms.size();
    cell_reads += planned.num_steps() * static_cast<int64_t>(step_reads);
  }
  return StageGrain(options, num_rows, cell_reads);
}

/// \brief Above this many (row, timestep) gather points the fast path's
/// upfront frame-table prefetch could materialize an unreasonable table
/// before any per-row NotFound gets the chance to surface; such plans
/// (far past serving admission budgets) take the exact path instead.
constexpr int64_t kMaxFastPathGathers = int64_t{1} << 20;

}  // namespace

QueryExecutor::QueryExecutor(const RegionQueryServer* server)
    : server_(server) {
  O4A_CHECK(server != nullptr);
}

QueryResult QueryExecutor::Execute(const QueryPlan& plan,
                                   const QueryExecutorOptions& options) const {
  std::vector<GatherBand> bands(1);
  bands[0].store = server_->store();
  bands[0].generation = options.generation;
  bands[0].cache = options.cache;
  return Execute(plan, bands, nullptr, options);
}

QueryResult QueryExecutor::Execute(const QueryPlan& plan,
                                   const std::vector<GatherBand>& bands,
                                   const ShardMap* map,
                                   const QueryExecutorOptions& options) const {
  O4A_CHECK(!bands.empty());
  // One band covers the raster and needs no map; several are the map's
  // shards.
  if (bands.size() == 1) map = nullptr;
  O4A_CHECK(map == nullptr ||
            static_cast<size_t>(map->num_shards()) == bands.size());
  Stopwatch total_timer;
  QueryResult result;
  result.kind = plan.spec.kind;
  result.timings.plan_micros = plan.plan_micros;
  result.rows.assign(plan.rows.size(),
                     Status::Internal("row not evaluated"));

  // -- Stage 1: cache-probe / resolve each distinct region ---------------
  // Every probe runs inline; only the misses, each a decompose and an
  // index lookup, are sized for fan-out.
  Stopwatch stage_timer;
  std::vector<SlotResolution> slots(plan.slot_regions.size());
  {
    ScopedSpan resolve_span(options.trace, SpanName::kResolve,
                            static_cast<int64_t>(slots.size()));
    const auto home_cache = [&](int s) {
      return bands[map == nullptr ? 0
                                  : static_cast<size_t>(map->HomeShard(
                                        plan.RegionForSlot(s)))]
          .cache;
    };
    std::vector<int> misses;
    for (int s = 0; s < static_cast<int>(slots.size()); ++s) {
      ResolvedQueryCache* cache = home_cache(s);
      if (cache != nullptr) {
        SlotResolution& slot = slots[static_cast<size_t>(s)];
        ScopedSpan probe_span(options.trace, SpanName::kCacheProbe);
        Stopwatch probe;
        std::shared_ptr<const ResolvedQuery> hit =
            cache->Get(plan.FingerprintForSlot(s));
        if (hit != nullptr) {
          slot.resolved = std::move(hit);
          slot.cache_hit = true;
          // A hit reports only the resolve-path latency, the lookup.
          slot.probe_micros = probe.ElapsedMicros();
          probe_span.set_arg(1);
          continue;
        }
      }
      misses.push_back(s);
    }
    const int64_t num_misses = static_cast<int64_t>(misses.size());
    ParallelFor(
        num_misses,
        StageGrain(options, num_misses, num_misses * kResolveCellReads),
        [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            const int s = misses[static_cast<size_t>(i)];
            SlotResolution& slot = slots[static_cast<size_t>(s)];
            Stopwatch resolve;
            slot.resolved = server_->ResolveCached(
                plan.RegionForSlot(s), plan.spec.strategy,
                plan.FingerprintForSlot(s), /*cache=*/nullptr);
            ResolvedQueryCache* cache = home_cache(s);
            if (cache != nullptr && slot.resolved.ok()) {
              cache->Put(plan.FingerprintForSlot(s), *slot.resolved);
            }
            slot.probe_micros = resolve.ElapsedMicros();
          }
        });
  }
  result.timings.resolve_micros = stage_timer.ElapsedMicros();
  if (bands.front().cache != nullptr) {
    for (const SlotResolution& slot : slots) {
      if (!slot.resolved.ok()) continue;
      if (slot.cache_hit) {
        ++result.cache_hits;
      } else {
        ++result.cache_misses;
      }
    }
  }

  // -- Stage 2: epoch-pinned frame gather + aggregation fold -------------
  stage_timer.Restart();
  // The store lock sections of the gather, one per band: every frame and
  // plane read below is a lock-free lookup in these views of the pinned
  // generations.
  std::vector<PredictionStore::View> views;
  views.reserve(bands.size());
  for (const GatherBand& band : bands) {
    views.push_back(band.store->ViewAt(band.generation));
  }
  const bool keep_series =
      plan.spec.keep_series && !plan.spec.time.IsPoint();

  // The fast path's rects and residues address the whole raster, so it
  // serves single-band plans; multi-band plans take the exact loop.
  if (plan.path == EvalPath::kSatFastPath && map == nullptr &&
      plan.num_point_queries() <= kMaxFastPathGathers) {
    const PredictionStore::View& view = views[0];
    ScopedSpan gather_span(options.trace, SpanName::kGather,
                           plan.num_point_queries());
    // Fast path, phase 1: collect every (layer, t) the plan touches and
    // look frames/planes up for them once. Rows only read the table
    // afterwards, so no synchronization is needed in phase 2.
    // Layer needs dedup per slot first (rows sharing a resolution share
    // its layer set), then expand over timesteps into lightweight keys.
    struct LayerNeedKey {
      int layer = 0;
      bool need_frame = false;
      bool need_plane = false;
    };
    std::vector<LayerNeedKey> layer_needs;
    std::vector<char> slot_seen(slots.size(), 0);
    int64_t t_min = 0, t_max = -1;
    for (const PlanRow& planned : plan.rows) {
      const size_t s = static_cast<size_t>(planned.region_slot);
      if (!slots[s].resolved.ok()) continue;
      if (t_max < t_min) {
        t_min = planned.t0;
        t_max = planned.t1;
      } else {
        t_min = std::min(t_min, planned.t0);
        t_max = std::max(t_max, planned.t1);
      }
      if (slot_seen[s]) continue;
      slot_seen[s] = 1;
      for (const GatherLayerNeed& need : (**slots[s].resolved).gather.layers) {
        layer_needs.push_back(
            LayerNeedKey{need.layer, need.needs_frame, need.needs_plane});
      }
    }
    std::sort(layer_needs.begin(), layer_needs.end(),
              [](const LayerNeedKey& a, const LayerNeedKey& b) {
                return a.layer < b.layer;
              });
    size_t kept = 0;
    for (size_t i = 0; i < layer_needs.size(); ++i) {
      if (kept > 0 && layer_needs[kept - 1].layer == layer_needs[i].layer) {
        layer_needs[kept - 1].need_frame |= layer_needs[i].need_frame;
        layer_needs[kept - 1].need_plane |= layer_needs[i].need_plane;
      } else {
        layer_needs[kept++] = layer_needs[i];
      }
    }
    layer_needs.resize(kept);

    // Every spec-shape row shares the plan's time selector, so the table
    // is the dense (distinct layers) x [t_min, t_max] grid — which is
    // what lets phase 2 index a layer's entries by timestep offset.
    std::vector<FrameTableEntry> table;
    table.resize(layer_needs.size() *
                 static_cast<size_t>(t_max - t_min + 1));
    {
      size_t i = 0;
      for (const LayerNeedKey& need : layer_needs) {
        for (int64_t t = t_min; t <= t_max; ++t, ++i) {
          table[i].layer = need.layer;
          table[i].t = t;
          table[i].need_frame = need.need_frame;
          table[i].need_plane = need.need_plane;
        }
      }
    }

    // Lookups are lock-free pointer reads, far cheaper than a pool
    // fan-out, so the table fills on the calling thread.
    const Hierarchy& hierarchy = *server_->hierarchy();
    for (FrameTableEntry& entry : table) {
      if (entry.need_plane) {
        entry.plane = view.PlaneAt(entry.layer, entry.t);
        // No plane published for this generation (e.g. the static
        // offline generation before BuildSatPlanes): rect reads degrade
        // to direct frame sums instead of failing the row.
        if (entry.plane == nullptr) entry.need_frame = true;
      }
      if (!entry.need_frame) continue;
      Result<const TiledFrame*> frame = view.FrameAt(entry.layer, entry.t);
      if (!frame.ok()) {
        entry.error = frame.status();
        continue;
      }
      // Residues were compiled against the hierarchy's layer extent; a
      // frame of any other shape would misplace them.
      const LayerInfo& layer = hierarchy.layer(entry.layer);
      if ((*frame)->height() != layer.height ||
          (*frame)->width() != layer.width) {
        entry.error = Status::Internal(
            "stored frame extent does not match layer " +
            std::to_string(entry.layer));
        continue;
      }
      entry.frame = *frame;
      entry.tiles = entry.frame->tile_table();
    }

    // Phase 2: per-row interpretation of the compiled gather programs.
    ParallelFor(
        static_cast<int64_t>(plan.rows.size()),
        GatherGrain(options, plan, slots, /*fast_path=*/true),
        [&](int64_t begin, int64_t end) {
          TraceContext chunk_trace;
          if (options.trace != nullptr) chunk_trace = *options.trace;
          std::vector<double> series;
          std::vector<const FrameTableEntry*> layer_bases;
          for (int64_t i = begin; i < end; ++i) {
            const PlanRow& planned = plan.rows[static_cast<size_t>(i)];
            const SlotResolution& slot =
                slots[static_cast<size_t>(planned.region_slot)];
            if (!slot.resolved.ok()) {
              result.rows[static_cast<size_t>(i)] = slot.resolved.status();
              continue;
            }
            const ResolvedQuery& rq = **slot.resolved;
            const GatherProgram& program = rq.gather;
            series.clear();
            series.reserve(static_cast<size_t>(
                std::min<int64_t>(planned.num_steps(), 4096)));
            // One binary search per (row, layer): a layer's entries for
            // the row's [t0, t1] are table-contiguous (every row of a
            // spec plan shares the spec's time selector), so the t loop
            // below just offsets from the base.
            layer_bases.assign(program.layers.size(), nullptr);
            for (size_t li = 0; li < program.layers.size(); ++li) {
              layer_bases[li] =
                  FindEntry(table, program.layers[li].layer, planned.t0);
              // Contiguity check: the last step of the row's range must
              // sit exactly num_steps-1 entries after the base.
              O4A_DCHECK(
                  (layer_bases[li] + (planned.t1 - planned.t0))->layer ==
                      program.layers[li].layer &&
                  (layer_bases[li] + (planned.t1 - planned.t0))->t ==
                      planned.t1);
            }
            Stopwatch eval_timer;
            Status gather = Status::OK();
            for (int64_t t = planned.t0; t <= planned.t1; ++t) {
              const int64_t dt = t - planned.t0;
              double acc = 0.0;
              for (const SatRectRead& rect : program.rects) {
                const FrameTableEntry* entry =
                    layer_bases[static_cast<size_t>(rect.layer_index)] +
                    dt;
                if (entry->plane != nullptr) {
                  acc += static_cast<double>(rect.sign) *
                         entry->plane->RectSum(rect.r0, rect.c0, rect.r1,
                                               rect.c1);
                } else if (entry->frame != nullptr) {
                  acc += static_cast<double>(rect.sign) *
                         entry->frame->RectSum(rect.r0, rect.c0, rect.r1,
                                               rect.c1);
                } else {
                  gather = entry->error;
                  break;
                }
              }
              if (!gather.ok()) break;
              for (const ResidueRead& residue : program.residues) {
                const FrameTableEntry* entry =
                    layer_bases[static_cast<size_t>(
                        residue.layer_index)] +
                    dt;
                if (entry->tiles == nullptr) {
                  gather = entry->error;
                  break;
                }
                acc += static_cast<double>(residue.sign) *
                       static_cast<double>(
                           entry->tiles[residue.tile][residue.tile_offset]);
              }
              if (!gather.ok()) break;
              series.push_back(acc);
            }
            const double eval_micros = eval_timer.ElapsedMicros();
            if (!gather.ok()) {
              result.rows[static_cast<size_t>(i)] = std::move(gather);
              continue;
            }
            result.rows[static_cast<size_t>(i)] =
                MakeRow(series, plan.spec.aggregation, keep_series, rq,
                        slot, eval_micros, &chunk_trace);
          }
        });
    gather_span.Close();
    result.timings.eval_micros = stage_timer.ElapsedMicros();
    RankTopK(plan, options.trace, &result);
    result.timings.total_micros = total_timer.ElapsedMicros();
    return result;
  }

  // Exact cell loop: every term is read in place from its owner band's
  // frame and folded in term order, so a row's value and its failure
  // (first failing term of the first failing timestep) do not depend on
  // the band count.
  ScopedSpan gather_span(options.trace, SpanName::kGather,
                         plan.num_point_queries());

  ParallelFor(
      static_cast<int64_t>(plan.rows.size()),
      GatherGrain(options, plan, slots, /*fast_path=*/false),
      [&](int64_t begin, int64_t end) {
        TraceContext chunk_trace;
        if (options.trace != nullptr) chunk_trace = *options.trace;
        query_internal::FrameMemo memo(&views, map);
        std::vector<double> series;
        for (int64_t i = begin; i < end; ++i) {
          const PlanRow& planned = plan.rows[static_cast<size_t>(i)];
          const SlotResolution& slot =
              slots[static_cast<size_t>(planned.region_slot)];
          if (!slot.resolved.ok()) {
            result.rows[static_cast<size_t>(i)] = slot.resolved.status();
            continue;
          }
          const ResolvedQuery& rq = **slot.resolved;
          series.clear();
          // Clamped reserve: a hint only, so a huge (likely mistaken)
          // range cannot bad_alloc here before the first gather gets the
          // chance to fail with a per-row NotFound.
          series.reserve(static_cast<size_t>(
              std::min<int64_t>(planned.num_steps(), 4096)));
          Stopwatch eval_timer;
          Status gather = Status::OK();
          for (int64_t t = planned.t0; t <= planned.t1; ++t) {
            double value = 0.0;
            gather = memo.Evaluate(rq.terms, t, &value);
            if (!gather.ok()) break;
            series.push_back(value);
          }
          const double eval_micros = eval_timer.ElapsedMicros();
          if (!gather.ok()) {
            result.rows[static_cast<size_t>(i)] = std::move(gather);
            continue;
          }
          result.rows[static_cast<size_t>(i)] =
              MakeRow(series, plan.spec.aggregation, keep_series, rq,
                      slot, eval_micros, &chunk_trace);
        }
        for (size_t k = 0; k < bands.size(); ++k) {
          if (bands[k].term_reads != nullptr) {
            bands[k].term_reads->fetch_add(memo.term_reads(k));
          }
        }
      });
  gather_span.Close();
  result.timings.eval_micros = stage_timer.ElapsedMicros();
  RankTopK(plan, options.trace, &result);
  result.timings.total_micros = total_timer.ElapsedMicros();
  return result;
}

}  // namespace one4all
