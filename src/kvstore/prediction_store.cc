#include "kvstore/prediction_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/logging.h"

namespace one4all {

void PredictionStore::SyncFrame(int layer, int64_t t, const Tensor& frame) {
  SyncFrameAt(0, layer, t, frame);
}

void PredictionStore::SetWriteFault(Status fault) {
  O4A_CHECK(!fault.ok()) << "a write fault must be an error Status";
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_ = std::move(fault);
  }
  fault_active_.store(true, std::memory_order_release);
}

void PredictionStore::ClearWriteFault() {
  fault_active_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_ = Status::OK();
}

Status PredictionStore::WriteFault() const {
  if (!fault_active_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(fault_mu_);
  // A Clear between the flag load and the lock leaves fault_ OK, which
  // is exactly the right answer then.
  return fault_;
}

// -- Tables, slabs and views -------------------------------------------------

std::vector<PredictionStore::SlabRef>::const_iterator
PredictionStore::Table::LowerBound(int64_t t) const {
  return std::lower_bound(
      slabs.begin(), slabs.end(), t,
      [](const SlabRef& ref, int64_t key) { return ref.first < key; });
}

std::vector<PredictionStore::SlabRef>::iterator
PredictionStore::Table::LowerBound(int64_t t) {
  return slabs.begin() + (std::as_const(*this).LowerBound(t) - slabs.cbegin());
}

const PredictionStore::Slab* PredictionStore::Table::Find(int64_t t) const {
  if (slabs.empty()) return nullptr;
  // A generation's timesteps are almost always contiguous, so the slab
  // usually sits at its offset from the first; search otherwise.
  const int64_t guess = t - slabs.front().first;
  if (guess >= 0 && guess < static_cast<int64_t>(slabs.size()) &&
      slabs[static_cast<size_t>(guess)].first == t) {
    return slabs[static_cast<size_t>(guess)].second.get();
  }
  auto it = LowerBound(t);
  return it != slabs.end() && it->first == t ? it->second.get() : nullptr;
}

const PredictionStore::Entry* PredictionStore::EntryIn(const Slab* slab,
                                                       int layer) {
  if (slab == nullptr || layer < 0 ||
      static_cast<size_t>(layer) >= slab->layers.size()) {
    return nullptr;
  }
  const Entry& entry = slab->layers[static_cast<size_t>(layer)];
  return entry.frame != nullptr ? &entry : nullptr;
}

PredictionStore::View& PredictionStore::View::operator=(
    View&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    table_ = std::move(other.table_);
  }
  return *this;
}

void PredictionStore::View::Release() {
  if (table_ == nullptr) return;
  // Under the shared lock: a writer that next finds this table (or one
  // of its slabs) unshared takes the exclusive lock after this release,
  // which orders every read made through the View before its in-place
  // write. The last View of an unlinked table destroys it here.
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  table_.reset();
}

Result<const TiledFrame*> PredictionStore::View::FrameAt(int layer,
                                                         int64_t t) const {
  const Entry* entry =
      table_ == nullptr ? nullptr : EntryIn(table_->Find(t), layer);
  if (entry == nullptr) return Status::NotFound("no prediction frame for key");
  return entry->frame.get();
}

const TiledSatPlane* PredictionStore::View::PlaneAt(int layer,
                                                    int64_t t) const {
  const Entry* entry =
      table_ == nullptr ? nullptr : EntryIn(table_->Find(t), layer);
  return entry == nullptr ? nullptr : entry->plane.get();
}

PredictionStore::View PredictionStore::ViewAt(int64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = generations_.find(generation);
  if (it == generations_.end()) return View();
  return View(this, it->second);
}

const PredictionStore::Entry* PredictionStore::FindEntryLocked(
    int64_t generation, int layer, int64_t t) const {
  auto it = generations_.find(generation);
  if (it == generations_.end()) return nullptr;
  return EntryIn(it->second->Find(t), layer);
}

bool PredictionStore::SnapshotEntry(int64_t generation, int layer, int64_t t,
                                    Entry* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry* entry = FindEntryLocked(generation, layer, t);
  if (entry == nullptr) return false;
  *out = *entry;
  return true;
}

PredictionStore::Table& PredictionStore::MutableTableLocked(
    int64_t generation) {
  std::shared_ptr<Table>& table = generations_[generation];
  if (table == nullptr) {
    table = std::make_shared<Table>();
  } else if (table.use_count() > 1) {
    // A View holds it: write a clone, which shares every slab with the
    // viewed table (so the slab about to change gets cloned too).
    table = std::make_shared<Table>(*table);
  }
  return *table;
}

PredictionStore::Slab& PredictionStore::MutableSlabLocked(Table& table,
                                                          int64_t t) {
  auto it = table.LowerBound(t);
  if (it == table.slabs.end() || it->first != t) {
    it = table.slabs.insert(it, SlabRef{t, std::make_shared<Slab>()});
  } else if (it->second.use_count() > 1) {
    // Another generation carries this timestep: copy its entries
    // (pointers only) so the write stays private to this generation.
    it->second = std::make_shared<Slab>(*it->second);
  }
  return *it->second;
}

PredictionStore::Entry& PredictionStore::MutableEntryLocked(
    int64_t generation, int layer, int64_t t) {
  O4A_CHECK_GE(layer, 0);
  Slab& slab = MutableSlabLocked(MutableTableLocked(generation), t);
  if (static_cast<size_t>(layer) >= slab.layers.size()) {
    slab.layers.resize(static_cast<size_t>(layer) + 1);
  }
  return slab.layers[static_cast<size_t>(layer)];
}

int64_t PredictionStore::CountSlab(const Slab& slab) {
  int64_t count = 0;
  for (const Entry& entry : slab.layers) {
    if (entry.frame != nullptr) count += 1 + (entry.plane != nullptr ? 1 : 0);
  }
  return count;
}

void PredictionStore::SyncFrameAt(int64_t generation, int layer, int64_t t,
                                  const Tensor& frame) {
  const Status status = TrySyncFrameAt(generation, layer, t, frame);
  O4A_CHECK(status.ok()) << "prediction store refused frame write: "
                         << status.ToString();
}

Status PredictionStore::TrySyncFrameAt(int64_t generation, int layer,
                                       int64_t t, const Tensor& frame) {
  O4A_RETURN_NOT_OK(WriteFault());
  O4A_CHECK_EQ(frame.ndim(), 2u);
  // Tiling happens outside the lock; the map mutation is a pointer swap.
  auto tiled = std::make_shared<const TiledFrame>(TiledFrame::FromTensor(frame));
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& entry = MutableEntryLocked(generation, layer, t);
  entry.frame = std::move(tiled);
  // A frame write invalidates its derived plane: without this, a writer
  // that overwrites a carried-forward frame (e.g. a re-staged timestep
  // with plane building disabled) would leave the previous frame's
  // plane behind for the SAT fast path to silently read. Writers that
  // do build planes rebuild the fresh plane right after.
  entry.plane.reset();
  entry.dirty.reset();
  return Status::OK();
}

Status PredictionStore::TrySyncFrameDeltaAt(int64_t generation, int layer,
                                            int64_t t, const Tensor& frame,
                                            int64_t base_t,
                                            const TileDirtySet& dirty,
                                            StageStats* stats) {
  O4A_RETURN_NOT_OK(WriteFault());
  O4A_CHECK_EQ(frame.ndim(), 2u);
  Entry base;
  const bool have_base = SnapshotEntry(generation, layer, base_t, &base);
  int64_t shared = 0;
  auto tiled = std::make_shared<const TiledFrame>(
      have_base ? TiledFrame::FromDelta(frame, *base.frame, dirty, &shared)
                : TiledFrame::FromTensor(frame));
  if (stats != nullptr) {
    stats->frame_tiles_total = tiled->tiles_h() * tiled->tiles_w();
    stats->frame_tiles_shared = shared;
  }
  auto recorded = dirty.empty()
                      ? std::shared_ptr<const TileDirtySet>()
                      : std::make_shared<const TileDirtySet>(dirty);
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& entry = MutableEntryLocked(generation, layer, t);
  entry.frame = std::move(tiled);
  entry.plane.reset();
  entry.dirty = std::move(recorded);
  return Status::OK();
}

Result<Tensor> PredictionStore::GetFrame(int layer, int64_t t) const {
  return GetFrameAt(0, layer, t);
}

Result<Tensor> PredictionStore::GetFrameAt(int64_t generation, int layer,
                                           int64_t t) const {
  O4A_ASSIGN_OR_RETURN(std::shared_ptr<const TiledFrame> frame,
                       GetTiledFrameAt(generation, layer, t));
  return frame->Materialize();
}

Result<std::shared_ptr<const TiledFrame>> PredictionStore::GetTiledFrameAt(
    int64_t generation, int layer, int64_t t) const {
  std::shared_ptr<const TiledFrame> frame =
      SnapshotField(generation, layer, t, &Entry::frame);
  if (frame == nullptr) {
    return Status::NotFound("no prediction frame for key");
  }
  return frame;
}

Result<std::shared_ptr<const TiledSatPlane>>
PredictionStore::GetTiledSatPlaneAt(int64_t generation, int layer,
                                    int64_t t) const {
  std::shared_ptr<const TiledSatPlane> plane =
      SnapshotField(generation, layer, t, &Entry::plane);
  if (plane == nullptr) {
    return Status::NotFound("no summed-area plane for key");
  }
  return plane;
}

std::shared_ptr<const TileDirtySet> PredictionStore::GetDirtyAt(
    int64_t generation, int layer, int64_t t) const {
  return SnapshotField(generation, layer, t, &Entry::dirty);
}

float PredictionStore::GetValue(int layer, int64_t t, int64_t row,
                                int64_t col) const {
  auto value = TryGetValue(layer, t, row, col);
  O4A_CHECK(value.ok()) << "missing prediction frame layer=" << layer
                        << " t=" << t << ": " << value.status().ToString();
  return *value;
}

Result<float> PredictionStore::TryGetValue(int layer, int64_t t, int64_t row,
                                           int64_t col) const {
  return TryGetValueAt(0, layer, t, row, col);
}

Result<float> PredictionStore::TryGetValueAt(int64_t generation, int layer,
                                             int64_t t, int64_t row,
                                             int64_t col) const {
  O4A_ASSIGN_OR_RETURN(std::shared_ptr<const TiledFrame> frame,
                       GetTiledFrameAt(generation, layer, t));
  if (row < 0 || row >= frame->height() || col < 0 ||
      col >= frame->width()) {
    return Status::OutOfRange("grid cell outside prediction frame");
  }
  return frame->at(row, col);
}

Status PredictionStore::TryBuildSatPlaneAt(int64_t generation, int layer,
                                           int64_t t, ThreadPool* pool) {
  O4A_RETURN_NOT_OK(WriteFault());
  O4A_ASSIGN_OR_RETURN(std::shared_ptr<const TiledFrame> frame,
                       GetTiledFrameAt(generation, layer, t));
  auto plane = std::make_shared<const TiledSatPlane>(
      TiledSatPlane::Build(*frame, pool));
  InstallPlane(generation, layer, t, *frame, std::move(plane));
  return Status::OK();
}

Status PredictionStore::TryBuildSatPlaneDeltaAt(int64_t generation, int layer,
                                                int64_t t, int64_t base_t,
                                                ThreadPool* pool,
                                                StageStats* stats) {
  O4A_RETURN_NOT_OK(WriteFault());
  Entry entry;
  if (!SnapshotEntry(generation, layer, t, &entry)) {
    return Status::NotFound("no prediction frame for key");
  }
  Entry base;
  const bool have_base = SnapshotEntry(generation, layer, base_t, &base) &&
                         base.plane != nullptr;
  int64_t reused = 0;
  auto plane = std::make_shared<const TiledSatPlane>(
      have_base && entry.dirty != nullptr
          ? TiledSatPlane::BuildDelta(*entry.frame, *base.plane,
                                      *entry.dirty, &reused, pool)
          : TiledSatPlane::Build(*entry.frame, pool));
  if (stats != nullptr) stats->plane_tiles_reused = reused;
  InstallPlane(generation, layer, t, *entry.frame, std::move(plane));
  return Status::OK();
}

void PredictionStore::InstallPlane(int64_t generation, int layer, int64_t t,
                                   const TiledFrame& frame,
                                   std::shared_ptr<const TiledSatPlane> plane) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // The frame could have been dropped or overwritten while the plane was
  // built outside the lock; attaching a stale plane to a fresh frame
  // would hand the fast path wrong sums, so only publish onto the same
  // frame (checked before anything is cloned for the write).
  const Entry* current = FindEntryLocked(generation, layer, t);
  if (current == nullptr || current->frame.get() != &frame) return;
  MutableEntryLocked(generation, layer, t).plane = std::move(plane);
}

bool PredictionStore::HasSatPlaneAt(int64_t generation, int layer,
                                    int64_t t) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry* entry = FindEntryLocked(generation, layer, t);
  return entry != nullptr && entry->plane != nullptr;
}

int64_t PredictionStore::BuildSatPlanes(int64_t generation,
                                        ThreadPool* pool) {
  // Snapshot the generation's keys first: building happens outside the
  // lock, against a table that may change meanwhile.
  std::vector<std::pair<int, int64_t>> keys;  // (layer, t)
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = generations_.find(generation);
    if (it != generations_.end()) {
      for (const SlabRef& ref : it->second->slabs) {
        for (size_t layer = 0; layer < ref.second->layers.size(); ++layer) {
          if (ref.second->layers[layer].frame != nullptr) {
            keys.emplace_back(static_cast<int>(layer), ref.first);
          }
        }
      }
    }
  }
  int64_t built = 0;
  for (const auto& [layer, t] : keys) {
    const Status status = TryBuildSatPlaneAt(generation, layer, t, pool);
    O4A_CHECK(status.ok()) << status.ToString();
    ++built;
  }
  return built;
}

bool PredictionStore::HasFrame(int layer, int64_t t) const {
  return HasFrameAt(0, layer, t);
}

bool PredictionStore::HasFrameAt(int64_t generation, int layer,
                                 int64_t t) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindEntryLocked(generation, layer, t) != nullptr;
}

int64_t PredictionStore::CopyGeneration(int64_t from, int64_t to,
                                        int64_t min_t) {
  O4A_CHECK(from != to);
  // Slabs are shared, not copied: into an empty target this is one
  // pointer copy per carried timestep. A slab the target writes later is
  // cloned then (MutableSlabLocked), so the source never sees the write.
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto src = generations_.find(from);
  if (src == generations_.end()) return 0;
  const Table& source = *src->second;
  auto first = source.LowerBound(min_t);
  int64_t copied = 0;
  for (auto it = first; it != source.slabs.end(); ++it) {
    copied += CountSlab(*it->second);
  }
  std::shared_ptr<Table>& target = generations_[to];
  if (target == nullptr || target->slabs.empty()) {
    target = std::make_shared<Table>();
    target->slabs.assign(first, source.slabs.end());
    return copied;
  }
  // Merge into a populated target: timesteps it lacks share the source
  // slab; timesteps both hold take the source's layers entry by entry.
  Table& merged = MutableTableLocked(to);
  for (auto it = first; it != source.slabs.end(); ++it) {
    auto at = merged.LowerBound(it->first);
    if (at == merged.slabs.end() || at->first != it->first) {
      merged.slabs.insert(at, *it);
      continue;
    }
    Slab& slab = MutableSlabLocked(merged, it->first);
    const std::vector<Entry>& layers = it->second->layers;
    if (slab.layers.size() < layers.size()) slab.layers.resize(layers.size());
    for (size_t layer = 0; layer < layers.size(); ++layer) {
      if (layers[layer].frame != nullptr) slab.layers[layer] = layers[layer];
    }
  }
  return copied;
}

int64_t PredictionStore::DropGeneration(int64_t generation) {
  // Only unlink (and count) under the exclusive lock: destroying the
  // table drops slab refcounts and may free whole tile blocks, which
  // readers need not wait for. Counting reads slab entries, so it stays
  // inside the lock, ordered before any later in-place write to a slab
  // this table shared.
  std::shared_ptr<Table> unlinked;
  int64_t dropped = 0;
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = generations_.find(generation);
  if (it == generations_.end()) return 0;
  for (const SlabRef& ref : it->second->slabs) {
    dropped += CountSlab(*ref.second);
  }
  unlinked = std::move(it->second);
  generations_.erase(it);
  lock.unlock();
  return dropped;
}

int64_t PredictionStore::DropFramesBelow(int64_t generation, int64_t min_t) {
  // Unlinked and counted under the lock, destroyed after it (see
  // DropGeneration).
  std::vector<SlabRef> unlinked;
  int64_t dropped = 0;
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = generations_.find(generation);
  if (it == generations_.end() || it->second->slabs.empty() ||
      it->second->slabs.front().first >= min_t) {
    return 0;
  }
  Table& table = MutableTableLocked(generation);
  auto end = table.LowerBound(min_t);
  for (auto slab = table.slabs.begin(); slab != end; ++slab) {
    dropped += CountSlab(*slab->second);
  }
  unlinked.assign(std::make_move_iterator(table.slabs.begin()),
                  std::make_move_iterator(end));
  table.slabs.erase(table.slabs.begin(), end);
  lock.unlock();
  return dropped;
}

int64_t PredictionStore::NumFramesAt(int64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = generations_.find(generation);
  if (it == generations_.end()) return 0;
  int64_t frames = 0;
  for (const SlabRef& ref : it->second->slabs) {
    for (const Entry& entry : ref.second->layers) {
      if (entry.frame != nullptr) ++frames;
    }
  }
  return frames;
}

int64_t PredictionStore::NumSatPlanesAt(int64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = generations_.find(generation);
  if (it == generations_.end()) return 0;
  int64_t planes = 0;
  for (const SlabRef& ref : it->second->slabs) {
    for (const Entry& entry : ref.second->layers) {
      if (entry.frame != nullptr && entry.plane != nullptr) ++planes;
    }
  }
  return planes;
}

}  // namespace one4all
