// Online prediction storage: the deployed model continuously synchronizes
// multi-scale prediction frames into the store (paper Sec. III "online
// phase"); the query server reads grid values and summed-area planes back
// by (generation, layer, t).
//
// Generations are the MVCC substrate of the serving runtime
// (src/serve/epoch_manager.h): a writer stages the full frame set of the
// next epoch under an unpublished shadow generation while readers keep
// serving from the published one, so no reader ever observes a
// half-synced timestep. Generation 0 is the "static" generation the
// offline harness (MauPipeline) writes to; every pre-existing call site
// keeps working unchanged against it.
//
// Storage is tiled and copy-on-write at three levels:
//   - a frame and its two-level summed-area plane are shared tile blocks
//     (tensor/tiled_sat.h); the delta staging path (TrySyncFrameDeltaAt +
//     TryBuildSatPlaneDeltaAt) copies only the tiles a dirty set marks
//     and aliases every clean tile from the base timestep's entry, so
//     staging a 5%-churn epoch copies ~5% of the data;
//   - a *slab* holds one timestep's per-layer {frame, plane, dirty}
//     entries, and every generation that carries the timestep shares the
//     slab;
//   - a generation is a t-ascending *table* of slab pointers.
// So CopyGeneration (the epoch carry-forward) copies at most one slab
// pointer per retained timestep, whatever the number of layers;
// DropFramesBelow unlinks slabs and DropGeneration unlinks one table.
// Unlinked tables and slabs are destroyed after the lock is released:
// a tile block is freed when the last slab referencing it goes, which
// keeps a pinned epoch's data alive exactly as long as its pins.
//
// Writes decide copy-on-write by use count, under the exclusive lock: a
// table that a View may hold is cloned before it changes (O(timesteps)
// pointer copies), and a slab that another table shares is cloned
// before one of its entries changes (O(layers)). The staging generation
// of an epoch, which no reader sees, is therefore written in place,
// while every table a reader holds stays frozen.
//
// Readers take a View of a generation once (one shared-lock section)
// and then read frames and planes by (layer, t) as raw pointers, with
// no lock and no refcount per read. Everything a View reaches stays
// alive and unchanged until the View is released, even if its
// generation is dropped or rewritten meanwhile. A View releases its
// table under the shared lock, so a writer that later finds the table
// (or a slab of it) unshared is ordered after every read made through
// the View.
// Planes live *inside* the slab entry on purpose: carry-forward and
// reclamation treat a plane exactly like its frame.
#ifndef ONE4ALL_KVSTORE_PREDICTION_STORE_H_
#define ONE4ALL_KVSTORE_PREDICTION_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"
#include "tensor/tiled_sat.h"

namespace one4all {

class ThreadPool;

/// \brief Generation-keyed tiled CoW store of per-layer prediction
/// frames and their summed-area planes.
class PredictionStore {
 public:
  PredictionStore() = default;

  PredictionStore(const PredictionStore&) = delete;
  PredictionStore& operator=(const PredictionStore&) = delete;

  /// \brief Tile accounting of one delta-staged frame/plane, fed into
  /// the stage_dirty_tiles / cow_shared_tiles telemetry counters.
  struct StageStats {
    int64_t frame_tiles_total = 0;
    int64_t frame_tiles_shared = 0;  ///< aliased from the base frame
    int64_t plane_tiles_reused = 0;  ///< locals aliased from the base plane
  };

  /// \brief Writes the prediction frame [Hl, Wl] of (layer, t) into
  /// generation 0.
  void SyncFrame(int layer, int64_t t, const Tensor& frame);

  /// \brief Writes a frame into an explicit generation. Serving writers
  /// stage whole epochs this way before publishing them atomically.
  /// Dies under an injected write fault — offline-harness convenience
  /// only; fault-tolerant writers use TrySyncFrameAt.
  void SyncFrameAt(int64_t generation, int layer, int64_t t,
                   const Tensor& frame);

  /// \brief Non-fatal frame write: returns the injected fault Status
  /// while SetWriteFault is active (the store-refuses-writes seam the
  /// scenario harness drives), OK and the write otherwise. The epoch
  /// staging path routes through this so an unwritable store surfaces
  /// as an aborted epoch, never a crash or a torn publish. Every tile
  /// is copied fresh; the frame's dirty set is recorded as unknown.
  Status TrySyncFrameAt(int64_t generation, int layer, int64_t t,
                        const Tensor& frame);

  /// \brief Copy-on-write frame write: tiles marked in `dirty` are
  /// copied from `frame`; clean tiles alias the blocks of the base
  /// entry (generation, layer, base_t) — the previous timestep the
  /// ingestor diffed `frame` against. Falls back to a full fresh write
  /// when the base is missing, geometry differs, or `dirty` is unknown
  /// (empty). Records `dirty` with the entry so downstream consumers
  /// (band slicing, incremental top-k) can reuse it.
  Status TrySyncFrameDeltaAt(int64_t generation, int layer, int64_t t,
                             const Tensor& frame, int64_t base_t,
                             const TileDirtySet& dirty,
                             StageStats* stats = nullptr);

  /// \brief Materializing copy of a whole frame (TiledFrame::Materialize):
  /// O(cells) per call. For tests, tools and probes that want a plain
  /// Tensor; nothing on the query path calls it.
  Result<Tensor> GetFrame(int layer, int64_t t) const;
  Result<Tensor> GetFrameAt(int64_t generation, int layer, int64_t t) const;

  /// \brief Zero-copy tiled reads of one (generation, layer, t): a
  /// shared_ptr fetch under the shared lock, no materialization. The
  /// returned object (and every raw tile pointer taken from it) outlives
  /// any concurrent reclamation of its generation for as long as the
  /// caller holds the shared_ptr. The query path reads through a View
  /// instead, which pays the lock once per query, not once per frame.
  Result<std::shared_ptr<const TiledFrame>> GetTiledFrameAt(
      int64_t generation, int layer, int64_t t) const;
  Result<std::shared_ptr<const TiledSatPlane>> GetTiledSatPlaneAt(
      int64_t generation, int layer, int64_t t) const;

 private:
  struct Table;

 public:
  /// \brief Lock-free read handle on one generation as it stood when the
  /// View was taken. Lookups are a search over the generation's
  /// timesteps plus an index by layer: no lock, no allocation, no
  /// refcount. Every pointer a lookup returns stays valid, and its
  /// contents unchanged, while the View lives — later writes to the
  /// generation copy what they change, and dropping the generation
  /// frees nothing the View reaches. Const lookups may run concurrently
  /// from any number of threads. Move-only; the store must outlive it.
  class View {
   public:
    View() = default;  ///< empty: every lookup misses
    ~View() { Release(); }
    View(View&& other) noexcept
        : store_(other.store_), table_(std::move(other.table_)) {}
    View& operator=(View&& other) noexcept;
    View(const View&) = delete;
    View& operator=(const View&) = delete;

    /// \brief The (layer, t) frame; NotFound ("no prediction frame for
    /// key", as GetTiledFrameAt) when the generation has none.
    Result<const TiledFrame*> FrameAt(int layer, int64_t t) const;
    /// \brief The (layer, t) summed-area plane, or null when none was
    /// built (or the frame is missing).
    const TiledSatPlane* PlaneAt(int layer, int64_t t) const;

    /// \brief Drops the table early (also done by the destructor).
    void Release();

   private:
    friend class PredictionStore;
    View(const PredictionStore* store, std::shared_ptr<const Table> table)
        : store_(store), table_(std::move(table)) {}

    const PredictionStore* store_ = nullptr;
    std::shared_ptr<const Table> table_;  ///< null: missing generation
  };

  /// \brief Takes a View of `generation` (one shared-lock section). A
  /// generation that does not exist yields a View on which every lookup
  /// misses, so its reads fail per row exactly as GetTiledFrameAt does.
  View ViewAt(int64_t generation) const;

  /// \brief The dirty set recorded when (generation, layer, t) was
  /// delta-staged (tiles changed vs. its predecessor timestep), or null
  /// when the frame is missing or was staged without one — callers must
  /// then assume everything changed.
  std::shared_ptr<const TileDirtySet> GetDirtyAt(int64_t generation,
                                                 int layer, int64_t t) const;

  /// \brief Point read of one grid's predicted value. Dies if the frame
  /// was never synced — only for offline harness code whose frames are
  /// synced up front; the serving path uses TryGetValue.
  float GetValue(int layer, int64_t t, int64_t row, int64_t col) const;

  /// \brief Non-fatal point read: NotFound when the frame was never
  /// synced (e.g. a query raced ahead of a late-arriving epoch),
  /// OutOfRange when (row, col) falls outside the frame.
  Result<float> TryGetValue(int layer, int64_t t, int64_t row,
                            int64_t col) const;
  Result<float> TryGetValueAt(int64_t generation, int layer, int64_t t,
                              int64_t row, int64_t col) const;

  bool HasFrame(int layer, int64_t t) const;
  bool HasFrameAt(int64_t generation, int layer, int64_t t) const;

  /// \brief Builds and stores the two-level summed-area plane of the
  /// already-synced frame (generation, layer, t), every tile fresh.
  /// NotFound when the frame is missing; returns the injected fault
  /// Status while SetWriteFault is active (a plane build is a write).
  Status TryBuildSatPlaneAt(int64_t generation, int layer, int64_t t,
                            ThreadPool* pool = nullptr);

  /// \brief Incremental plane build: dirty tiles (the set recorded by
  /// TrySyncFrameDeltaAt) rebuild their local prefixes; clean tiles
  /// alias the base plane of (generation, layer, base_t); the coarse
  /// carries are recomputed in one deterministic fixup sweep — the
  /// result is bit-identical to TryBuildSatPlaneAt of the same frame.
  /// Falls back to a full build when the base plane is missing or the
  /// dirty set is unknown.
  Status TryBuildSatPlaneDeltaAt(int64_t generation, int layer, int64_t t,
                                 int64_t base_t, ThreadPool* pool = nullptr,
                                 StageStats* stats = nullptr);

  bool HasSatPlaneAt(int64_t generation, int layer, int64_t t) const;

  /// \brief Builds and stores the summed-area plane of every frame in a
  /// generation (offline harness: sync frames first, derive all planes
  /// in one pass). Returns the number of planes built.
  int64_t BuildSatPlanes(int64_t generation, ThreadPool* pool = nullptr);

  /// \brief Copies frames of `from` with t >= `min_t` into generation
  /// `to`, overwriting the same (layer, t) there and keeping the rest.
  /// Into an empty `to` this shares one slab pointer per copied
  /// timestep: no cell data, tile pointer or per-layer entry moves. The
  /// epoch manager's carry-forward: the shadow generation starts as a
  /// snapshot of the published one, optionally truncated to a retention
  /// horizon so continuous runs keep per-epoch cost bounded. Returns the
  /// number of frames plus planes copied.
  int64_t CopyGeneration(int64_t from, int64_t to,
                         int64_t min_t = INT64_MIN);

  /// \brief Deletes every frame of a generation (epoch reclamation once
  /// the last reader unpins it); tile blocks free when their last
  /// referencing slab goes. The generation's table is unlinked under the
  /// exclusive lock and destroyed after it is released, so readers never
  /// wait on frees. Returns frames plus planes dropped.
  int64_t DropGeneration(int64_t generation);

  /// \brief Deletes a generation's frames with t < `min_t` (retention
  /// trim of a still-unpublished shadow generation): unlinks their slabs
  /// and frees them after the lock like DropGeneration. Returns frames
  /// plus planes dropped.
  int64_t DropFramesBelow(int64_t generation, int64_t min_t);

  /// \brief Number of frames stored under a generation (summed-area
  /// planes are derived data and not counted).
  int64_t NumFramesAt(int64_t generation) const;

  /// \brief Number of summed-area planes stored under a generation.
  int64_t NumSatPlanesAt(int64_t generation) const;

  /// \brief Injects a write fault: every TrySync*/TryBuild* call returns
  /// `fault` (and every fatal Sync* dies) until ClearWriteFault. `fault`
  /// must be an error. Models a store that stopped accepting writes
  /// (full disk, lost quorum); reads are deliberately unaffected — the
  /// published epoch keeps serving while the writer absorbs failures.
  void SetWriteFault(Status fault);
  void ClearWriteFault();
  bool write_fault_active() const {
    return fault_active_.load(std::memory_order_acquire);
  }

 private:
  /// \brief One stored (generation, layer, t): tiled CoW frame (null:
  /// absent), its optional tiled plane, and the dirty set it was staged
  /// with (null when unknown).
  struct Entry {
    std::shared_ptr<const TiledFrame> frame;
    std::shared_ptr<const TiledSatPlane> plane;
    std::shared_ptr<const TileDirtySet> dirty;
  };
  /// \brief One timestep's entries, indexed by layer; shared by every
  /// generation that carries the timestep.
  struct Slab {
    std::vector<Entry> layers;
  };
  using SlabRef = std::pair<int64_t, std::shared_ptr<Slab>>;  // (t, slab)
  /// \brief One generation: its slabs, t-ascending, one per timestep
  /// that holds at least one frame.
  struct Table {
    std::vector<SlabRef> slabs;

    std::vector<SlabRef>::const_iterator LowerBound(int64_t t) const;
    std::vector<SlabRef>::iterator LowerBound(int64_t t);
    /// \brief The slab at `t`, or null.
    const Slab* Find(int64_t t) const;
  };

  /// \brief The entry of `layer` in `slab` when it holds a frame, or null
  /// (also for a null slab).
  static const Entry* EntryIn(const Slab* slab, int layer);

  /// \brief The injected fault Status, or OK when writes are healthy.
  Status WriteFault() const;

  /// \brief The entry of (generation, layer, t) with a frame, or null.
  /// The caller holds mu_ (shared or exclusive).
  const Entry* FindEntryLocked(int64_t generation, int layer,
                               int64_t t) const;

  /// \brief Copies one entry's shared_ptrs under the shared lock; false
  /// when absent.
  bool SnapshotEntry(int64_t generation, int layer, int64_t t,
                     Entry* out) const;

  /// \brief Copies one field of an entry under the shared lock (null when
  /// absent): one refcount bump, not three.
  template <typename T>
  std::shared_ptr<const T> SnapshotField(
      int64_t generation, int layer, int64_t t,
      std::shared_ptr<const T> Entry::*field) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const Entry* entry = FindEntryLocked(generation, layer, t);
    return entry == nullptr ? nullptr : entry->*field;
  }

  /// \brief `generation`'s table, created when absent and cloned first
  /// when a View may hold it. Caller holds mu_ exclusively.
  Table& MutableTableLocked(int64_t generation);
  /// \brief The slab at `t` of a writable table, created when absent and
  /// cloned first when another table shares it. Caller holds mu_
  /// exclusively.
  static Slab& MutableSlabLocked(Table& table, int64_t t);
  /// \brief The writable entry of (generation, layer, t), created empty
  /// when absent. Caller holds mu_ exclusively.
  Entry& MutableEntryLocked(int64_t generation, int layer, int64_t t);

  /// \brief Attaches `plane` to (generation, layer, t) if that entry
  /// still holds `frame` (the frame the plane was built from).
  void InstallPlane(int64_t generation, int layer, int64_t t,
                    const TiledFrame& frame,
                    std::shared_ptr<const TiledSatPlane> plane);

  /// \brief Frames plus planes held by `slab`.
  static int64_t CountSlab(const Slab& slab);

  mutable std::shared_mutex mu_;
  std::map<int64_t, std::shared_ptr<Table>> generations_;

  // Write-fault seam: flag checked on the hot path (one relaxed load),
  // Status only locked when a fault is actually set or read.
  std::atomic<bool> fault_active_{false};
  mutable std::mutex fault_mu_;
  Status fault_;
};

}  // namespace one4all

#endif  // ONE4ALL_KVSTORE_PREDICTION_STORE_H_
