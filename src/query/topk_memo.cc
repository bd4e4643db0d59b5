#include "query/topk_memo.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"

namespace one4all {

TopKMemo::TopKMemo(const Hierarchy* hierarchy, TopKMemoOptions options)
    : hierarchy_(hierarchy), options_(options) {
  O4A_CHECK(hierarchy != nullptr);
  O4A_CHECK_GT(options_.capacity, 0u);
  O4A_CHECK_GT(options_.history, 0u);
}

bool TopKMemo::SpecKey::operator==(const SpecKey& other) const {
  // Everything but the time selector — that is exactly the subscription
  // pattern: same question, advancing timestep.
  return kind == other.kind && aggregation == other.aggregation &&
         strategy == other.strategy && eval_path == other.eval_path &&
         top_k == other.top_k && keep_series == other.keep_series &&
         regions == other.regions;
}

TopKMemo::SpecKey TopKMemo::KeyOf(
    const QuerySpec& spec, const std::vector<RegionFingerprint>& regions) {
  SpecKey key;
  key.kind = spec.kind;
  key.aggregation = spec.aggregation;
  key.strategy = spec.strategy;
  key.eval_path = spec.eval_path;
  key.top_k = spec.top_k;
  key.keep_series = spec.keep_series;
  key.regions = regions;
  return key;
}

uint64_t TopKMemo::Fingerprint(const SpecKey& key) {
  uint64_t h = FingerprintMix64(static_cast<uint64_t>(key.kind));
  h = FingerprintMix64(h ^ static_cast<uint64_t>(key.aggregation));
  h = FingerprintMix64(h ^ static_cast<uint64_t>(key.strategy));
  h = FingerprintMix64(h ^ static_cast<uint64_t>(key.eval_path));
  h = FingerprintMix64(h ^ static_cast<uint64_t>(key.top_k));
  h = FingerprintMix64(h ^ (key.keep_series ? 1u : 0u));
  h = FingerprintMix64(h ^ key.regions.size());
  for (const RegionFingerprint& region : key.regions) {
    h = FingerprintMix64(h ^ region.lo);
    h = FingerprintMix64(h ^ region.hi);
  }
  return h;
}

CellRect MaskBounds(const GridMask& mask) {
  // Word-level: one divide per nonzero word (its first cell's row and
  // column), then ctz/clz per row segment the word spans — a word holds
  // 64 consecutive row-major cells, so it crosses a row boundary at
  // most every `w` bits.
  const int64_t w = mask.width();
  int64_t r0 = mask.height(), r1 = 0, c0 = w, c1 = 0;
  const std::vector<uint64_t>& words = mask.words();
  for (size_t wi = 0; wi < words.size(); ++wi) {
    uint64_t bits = words[wi];
    if (bits == 0) continue;
    const int64_t first_cell = static_cast<int64_t>(wi) * 64;
    int64_t row = first_cell / w;
    int64_t col = first_cell - row * w;  // column of bit 0 of `bits`
    while (bits != 0) {
      const int64_t span = w - col;  // cells left in `row`
      const uint64_t seg =
          span >= 64 ? bits : bits & ((uint64_t{1} << span) - 1);
      if (seg != 0) {
        r0 = std::min(r0, row);
        r1 = std::max(r1, row + 1);
        c0 = std::min(c0, col + __builtin_ctzll(seg));
        c1 = std::max(c1, col + 64 - __builtin_clzll(seg));
      }
      if (span >= 64) break;
      bits >>= span;
      ++row;
      col = 0;
    }
  }
  if (r1 <= r0) return CellRect{0, 0, 0, 0};  // empty mask
  return CellRect{r0, c0, r1, c1};
}

CellRect TopKMemo::FootprintOf(const GridMask& region) const {
  // Atomic bounding box of the set cells...
  const CellRect box = MaskBounds(region);
  if (box.Area() == 0) return box;  // empty region
  // ...rounded out to the coarsest layer's grid boundaries: every union
  // grid the planner can pick intersects the region, so its atomic
  // extent — and that of any subtraction grid nested inside it — stays
  // within this expansion.
  const int64_t scale = hierarchy_->layer(hierarchy_->num_layers()).scale;
  CellRect fp;
  fp.r0 = (box.r0 / scale) * scale;
  fp.c0 = (box.c0 / scale) * scale;
  fp.r1 = std::min(((box.r1 + scale - 1) / scale) * scale,
                   hierarchy_->atomic_height());
  fp.c1 = std::min(((box.c1 + scale - 1) / scale) * scale,
                   hierarchy_->atomic_width());
  return fp;
}

bool TopKMemo::FootprintClean(const CellRect& footprint,
                              const PublishRecord& record) const {
  if (record.all_dirty) return false;
  if (footprint.Area() == 0) return true;
  for (int l = 1; l <= hierarchy_->num_layers(); ++l) {
    if (static_cast<size_t>(l) > record.dirty.size()) return false;
    const TileDirtySet& dirty = record.dirty[static_cast<size_t>(l) - 1];
    const int64_t scale = hierarchy_->layer(l).scale;
    // IntersectsRect is conservative on unknown sets, so a layer the
    // publish carried no diff for counts as churned.
    if (dirty.IntersectsRect(footprint.r0 / scale, footprint.c0 / scale,
                             (footprint.r1 + scale - 1) / scale,
                             (footprint.c1 + scale - 1) / scale)) {
      return false;
    }
  }
  return true;
}

void TopKMemo::OnPublish(int64_t t, const DirtyTileSets* dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  PublishRecord record;
  record.t = t;
  if (dirty == nullptr) {
    record.all_dirty = true;
  } else {
    record.dirty = *dirty;  // per-layer bitsets: a few bytes per layer
  }
  publishes_.push_back(std::move(record));
  while (publishes_.size() > options_.history) publishes_.pop_front();
}

void TopKMemo::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  publishes_.clear();
}

TopKMemo::Probe TopKMemo::Lookup(
    const QuerySpec& spec,
    const std::vector<RegionFingerprint>& region_fingerprints) {
  Probe probe;
  if (spec.kind != QuerySpecKind::kTopK || !spec.time.IsPoint()) {
    return probe;
  }
  O4A_CHECK_EQ(region_fingerprints.size(), spec.regions.size());
  const SpecKey key = KeyOf(spec, region_fingerprints);
  const uint64_t fp = Fingerprint(key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.begin();
  for (; it != entries_.end(); ++it) {
    if (it->fingerprint == fp && it->key == key) break;
  }
  if (it == entries_.end()) return probe;
  entries_.splice(entries_.begin(), entries_, it);  // LRU touch
  const Entry& entry = entries_.front();

  const int64_t t = spec.time.t0;
  if (t < entry.t) return probe;  // looking backwards: no reuse claim

  // Publishes strictly inside (entry.t, t], oldest first. The proof
  // needs every one of them: a gap (history evicted, or the writer
  // skipped timesteps) means unseen churn, so nothing can be reused.
  std::vector<const PublishRecord*> since;
  for (const PublishRecord& record : publishes_) {
    if (record.t > entry.t && record.t <= t) since.push_back(&record);
  }
  if (static_cast<int64_t>(since.size()) != t - entry.t) return probe;

  probe.hit = true;
  probe.memo_t = entry.t;
  probe.rows = entry.rows;
  probe.clean.assign(entry.rows.size(), true);
  for (size_t i = 0; i < entry.footprints.size(); ++i) {
    for (const PublishRecord* record : since) {
      if (!FootprintClean(entry.footprints[i], *record)) {
        probe.clean[i] = false;
        break;
      }
    }
  }
  return probe;
}

void TopKMemo::Store(
    const QuerySpec& spec,
    const std::vector<RegionFingerprint>& region_fingerprints,
    const std::vector<Result<QueryRow>>& rows) {
  if (spec.kind != QuerySpecKind::kTopK || !spec.time.IsPoint()) return;
  if (rows.size() != spec.regions.size()) return;
  O4A_CHECK_EQ(region_fingerprints.size(), spec.regions.size());
  SpecKey key = KeyOf(spec, region_fingerprints);
  const uint64_t fp = Fingerprint(key);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->fingerprint == fp && it->key == key) {
      it->t = spec.time.t0;
      it->rows = rows;
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
  }
  Entry entry;
  entry.fingerprint = fp;
  entry.key = std::move(key);
  entry.t = spec.time.t0;
  entry.rows = rows;
  entry.footprints.reserve(spec.regions.size());
  for (const GridMask& region : spec.regions) {
    entry.footprints.push_back(FootprintOf(region));
  }
  entries_.push_front(std::move(entry));
  while (entries_.size() > options_.capacity) entries_.pop_back();
}

std::vector<int> TopKMemo::RankRows(const std::vector<Result<QueryRow>>& rows,
                                    int k) {
  // Mirrors the QueryExecutor's RankTopK exactly: value descending, ties
  // toward the lower row index, failed rows skipped, clamped to k.
  std::vector<int> order;
  order.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].ok()) order.push_back(static_cast<int>(i));
  }
  const size_t kept = std::min(order.size(), static_cast<size_t>(k));
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<int64_t>(kept), order.end(),
                    [&](int a, int b) {
                      const double va = rows[static_cast<size_t>(a)]->value;
                      const double vb = rows[static_cast<size_t>(b)]->value;
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(kept);
  return order;
}

}  // namespace one4all
