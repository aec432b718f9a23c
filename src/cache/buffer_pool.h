// Buffer-pool subsystem: a shared, budget-charged block cache under the
// extmem layer. The paper's cost model charges one I/O per block transfer
// against a hard M-block memory budget, but the BlockDevice callers
// (streams, external stacks, RunStore, merge inputs) each hold private
// single-block buffers and re-read hot blocks. A database-style buffer
// manager closes that gap: BufferPool owns a fixed set of block-sized
// frames acquired from the MemoryBudget, serves repeated accesses from
// memory, defers writes until eviction, and loads ahead along block
// sequences its callers announce.
//
// Two layers:
//
//  * BufferPool — the frame table: pin/unpin reference counting, CLOCK
//    (second-chance) eviction of unpinned frames, dirty-frame write-back
//    (on eviction, on Flush(), and best-effort on destruction), and the
//    advised read-ahead (AdviseReadSequence) that is the repo's only
//    look-ahead path.
//  * CachedBlockDevice — a transparent BlockDevice wrapper over a pool:
//    the same interface every extmem component already speaks, so streams,
//    external stacks, the run store, and the external merge sort gain
//    caching without interface churn. Its own IoStats count *logical*
//    block accesses (what the computation asked for); the wrapped device's
//    IoStats keep counting *physical* transfers, so `logical - physical`
//    is exactly the I/O the cache saved.
//
// Accounting is category-preserving: a miss loads the block under the
// caller's category, and a dirty frame remembers the category of its last
// writer so the eventual write-back is attributed to the same paper cost
// component that produced the data.
//
// Write-back failures discovered while evicting on behalf of an unrelated
// operation are *deferred*, not swallowed: the frame stays dirty, another
// victim is chosen, and the sticky failure is surfaced by the next Flush()
// (which also retries the write). See docs/CACHING.md.
//
// Thread-safe: one pool mutex guards the frame table, but base-device
// transfers (miss loads, write-backs, look-ahead loads) happen with the
// mutex *released* and the frame marked busy — busy frames are never
// evicted and Pin waits for them — so look-ahead loads running on worker
// threads genuinely overlap foreground work. Pinned-frame invariants are
// unchanged: a pinned or busy frame is never recycled.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nexsort {

class JsonWriter;
class Tracer;
class WorkerPool;

/// Caching knobs carried by SortEnvOptions and the xmlsort CLI
/// (--cache-blocks, --prefetch-depth).
struct CacheOptions {
  /// Frames (blocks of internal memory) the pool holds, charged against
  /// the MemoryBudget for the pool's lifetime. 0 disables caching: the
  /// sorters then talk to the device directly and nothing is reserved.
  uint64_t frames = 0;

  /// Most blocks an advised scan is loaded ahead of its reads. 0 disables
  /// read-ahead. The pool shrinks the window to share half its frames
  /// among the live advised scans (docs/CACHING.md, "Read-ahead").
  uint64_t prefetch_depth = 0;
};

/// Counters describing one pool's lifetime; exported into the `cache`
/// block of nexsort-stats-v2 and mirrored as cache_* metrics in
/// nexsort-telemetry-v1 when a tracer is attached.
struct CacheStats {
  uint64_t hits = 0;         // logical accesses served from a frame
  uint64_t misses = 0;       // logical accesses that went to the device
  uint64_t evictions = 0;    // valid frames recycled for another block
  uint64_t writebacks = 0;   // dirty frames written to the device
  uint64_t writeback_failures = 0;  // failed write-back attempts
  uint64_t prefetches = 0;   // blocks loaded ahead along advised scans

  /// Hits / (hits + misses); 0 when nothing was accessed — but note the
  /// export convention: ToJson omits hit_rate entirely at zero accesses,
  /// and the cache_hit_rate_pct gauge is likewise absent until the first
  /// access, so consumers can tell "no traffic" from "all misses".
  double hit_rate() const {
    uint64_t accesses = hits + misses;
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }

  /// One JSON object with every counter plus the derived hit_rate (absent
  /// when hits + misses == 0).
  void ToJson(JsonWriter* writer) const;
};

/// Fixed set of block frames over a backing device. Frames are acquired
/// from the budget at construction (check init_status()) and released on
/// destruction.
class BufferPool {
 public:
  static constexpr uint64_t kNoBlock = UINT64_MAX;

  /// `base` and `budget` are not owned and must outlive the pool.
  /// options.frames must be >= 1.
  BufferPool(BlockDevice* base, MemoryBudget* budget, CacheOptions options);

  /// Flushes dirty frames best-effort; call Flush() first to see errors.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Status of the construction-time budget reservation.
  const Status& init_status() const { return init_status_; }

  /// Attach a tracer (may be null; not owned): the pool then mirrors its
  /// counters into cache_* metrics and keeps a cache_hit_rate_pct gauge
  /// that materializes lazily on the first access (absent gauge == zero
  /// accesses). Foreground-thread only (instrument pointers are installed
  /// before any background thread runs; the instruments themselves are
  /// atomic and registry lookup is thread-safe).
  void set_tracer(Tracer* tracer);

  /// Read `block_id` through the cache into `buf` (block_size bytes). The
  /// physical load on a miss — and any advised look-ahead it triggers —
  /// is attributed to `category`.
  [[nodiscard]] Status ReadBlock(uint64_t block_id, char* buf, IoCategory category);

  /// Write `block_id` through the cache from `buf`: the frame is dirtied
  /// and the physical write deferred until eviction or Flush(). A write
  /// miss claims a frame without loading the old contents (whole-block
  /// overwrite). `category` is remembered for the eventual write-back.
  [[nodiscard]] Status WriteBlock(uint64_t block_id, const char* buf, IoCategory category);

  /// RAII handle on one advised scan (see AdviseReadSequence). Movable;
  /// destroying or Release()-ing it retires the advice.
  class ReadAdvice {
   public:
    ReadAdvice() = default;
    ReadAdvice(ReadAdvice&& other) noexcept
        : pool_(other.pool_), id_(other.id_) {
      other.pool_ = nullptr;
    }
    ReadAdvice& operator=(ReadAdvice&& other) noexcept;
    ReadAdvice(const ReadAdvice&) = delete;
    ReadAdvice& operator=(const ReadAdvice&) = delete;
    ~ReadAdvice() { (void)Release(); }

    /// Retire the advice: waits for this scan's in-flight loads, and no
    /// load touches its blocks afterwards, so the caller may then free
    /// the run. Returns how many of its blocks were loaded on worker
    /// threads. Idempotent (0 on an inert or released handle).
    uint64_t Release();

   private:
    friend class BufferPool;
    ReadAdvice(BufferPool* pool, uint64_t id) : pool_(pool), id_(id) {}
    BufferPool* pool_ = nullptr;
    uint64_t id_ = 0;
  };

  /// Announce the exact block sequence an upcoming scan will read — a
  /// merge input run, the merged result being drained, the run the output
  /// DFS streams next. While the handle lives, each ReadBlock of one of
  /// these blocks queues loads of the blocks after it in the sequence, up
  /// to min(prefetch_depth, (frames / 2) / live advised scans) ahead; the
  /// window starts at 0 on the scan's first read and grows by one per
  /// read up to that cap. Loads run on the worker pool when it has
  /// threads (inline otherwise). Any number of scans may be advised at
  /// once; purely a performance hint — stale or wrong advice costs wasted
  /// loads, never correctness. Returns an inert handle when
  /// prefetch_depth == 0 or `blocks` is empty.
  [[nodiscard]] ReadAdvice AdviseReadSequence(std::vector<uint64_t> blocks);

  /// Run look-ahead loads on `workers` (not owned; may be null = inline).
  /// Set once, before any advice is installed. ~BufferPool waits for the
  /// loads it queued there.
  void set_workers(WorkerPool* workers) { workers_ = workers; }

  /// Pin the frame holding `block_id`, loading it from the device first
  /// when `load` is true and the block is not resident. Pinned frames are
  /// never evicted; every Pin must be matched by an Unpin. Returns the
  /// frame index for Unpin/FrameData.
  [[nodiscard]] StatusOr<size_t> Pin(uint64_t block_id, IoCategory category, bool load);

  /// Release one pin; `mark_dirty` records a modification (and `category`
  /// as its write-back attribution).
  void Unpin(size_t frame, bool mark_dirty,
             IoCategory category = IoCategory::kOther);

  /// Block-size byte window of a pinned frame.
  char* FrameData(size_t frame);

  /// Write back every dirty frame. Returns the first error — including a
  /// sticky deferred write-back failure from an earlier eviction, which
  /// this call surfaces (exactly once) and retries.
  [[nodiscard]] Status Flush();

  /// Snapshot of the pool counters (copied under the pool lock).
  CacheStats stats() const;
  const CacheOptions& options() const { return options_; }
  BlockDevice* base() const { return base_; }

  /// Number of currently pinned frames (tests and invariant checks).
  uint64_t pinned_frames() const;

  /// Number of frames holding modifications not yet written back (the
  /// telemetry sampler's dirty-frame gauge).
  uint64_t dirty_frames() const;

 private:
  struct Frame {
    uint64_t block_id = kNoBlock;
    uint32_t pins = 0;
    bool dirty = false;
    bool busy = false;  // base-device I/O in flight; do not touch
    bool referenced = false;              // CLOCK second-chance bit
    IoCategory category = IoCategory::kOther;  // last writer, for write-back
  };

  char* DataOf(size_t frame) {
    return data_.data() + frame * base_->block_size();
  }

  /// Write frame's block to the device under its remembered category,
  /// releasing the lock (frame marked busy) around the transfer.
  /// On return the lock is re-held.
  [[nodiscard]] Status WriteBack(Frame* frame, size_t index)
      NEXSORT_REQUIRES(mutex_);

  /// Claim a frame for `block_id`: a free frame if any, else a CLOCK
  /// victim (never pinned or busy; dirty victims are written back first,
  /// lock released around the write). The returned frame is mapped to
  /// `block_id` but not loaded.
  [[nodiscard]] StatusOr<size_t> AcquireFrame(uint64_t block_id)
      NEXSORT_REQUIRES(mutex_);

  /// Resolve `block_id` to a pinned frame (the common Pin/ReadBlock/
  /// WriteBlock core): waits out busy frames, claims + optionally loads on
  /// a miss (lock released around the load), counts hit/miss/prefetch.
  [[nodiscard]] StatusOr<size_t> PinLocked(uint64_t block_id,
                                           IoCategory category, bool load,
                                           bool as_prefetch)
      NEXSORT_REQUIRES(mutex_);

  void UnpinLocked(size_t frame, bool mark_dirty, IoCategory category)
      NEXSORT_REQUIRES(mutex_);

  /// Destructor invariant probe: no frame left dirty (takes the lock).
  bool AllFramesClean() const NEXSORT_EXCLUDES(mutex_);

  /// Look-ahead loads one read queued: positions [from, to) of scan `scan`.
  struct LoadBatch {
    uint64_t scan = 0;
    size_t from = 0;
    size_t to = 0;
    IoCategory category = IoCategory::kOther;
  };

  /// If `block_id` belongs to an advised scan, reserve the next window of
  /// that scan's blocks for loading (empty batch otherwise).
  LoadBatch NextBatchLocked(uint64_t block_id, IoCategory category)
      NEXSORT_REQUIRES(mutex_);

  /// Hand a batch to a worker thread, or load it inline when there is
  /// none (or its queue is full).
  void IssueBatch(const LoadBatch& batch) NEXSORT_EXCLUDES(mutex_);

  /// Load a batch's blocks in scan order, stopping early once the scan is
  /// released. Best-effort: failures are left for the consuming read.
  void LoadBatchBlocks(const LoadBatch& batch, bool on_worker)
      NEXSORT_EXCLUDES(mutex_);

  /// ReadAdvice::Release for scan `id`: returns its offloaded count.
  uint64_t ReleaseAdvice(uint64_t id) NEXSORT_EXCLUDES(mutex_);

  void CountHit() NEXSORT_REQUIRES(mutex_);
  void CountMiss() NEXSORT_REQUIRES(mutex_);
  void UpdateHitRateGauge() NEXSORT_REQUIRES(mutex_);

  BlockDevice* base_;
  const CacheOptions options_;
  BudgetReservation reservation_;
  Status init_status_;

  mutable Mutex mutex_{"BufferPool::mutex_", lock_rank::kBufferPool};
  CondVar busy_done_;  // signaled when a frame's busy clears

  std::vector<Frame> frames_ NEXSORT_GUARDED_BY(mutex_);
  /// frames * block_size bytes. Not NEXSORT_GUARDED_BY(mutex_): frame
  /// payloads are protected by the pin/busy protocol, not the table lock —
  /// FrameData hands out windows of pinned frames to callers holding no
  /// lock, and transfers run on busy frames with the lock released.
  std::string data_;
  std::unordered_map<uint64_t, size_t> resident_
      NEXSORT_GUARDED_BY(mutex_);  // block id -> frame
  size_t clock_hand_ NEXSORT_GUARDED_BY(mutex_) = 0;
  uint64_t pinned_frames_ NEXSORT_GUARDED_BY(mutex_) = 0;

  // Advised scans by handle id, and each advised block's (scan, position).
  // A block named by several scans keeps the latest advice.
  struct AdvisedScan {
    std::vector<uint64_t> blocks;
    size_t next = 0;         // first position not yet reserved for loading
    uint32_t loading = 0;    // loads in flight (lock dropped for the I/O)
    uint64_t offloaded = 0;  // blocks loaded on worker threads
    uint64_t reads = 0;      // advised reads so far (ramps the window)
    bool released = false;   // Release() started: start no further loads
  };
  std::unordered_map<uint64_t, AdvisedScan> scans_ NEXSORT_GUARDED_BY(mutex_);
  std::unordered_map<uint64_t, std::pair<uint64_t, size_t>> advice_pos_
      NEXSORT_GUARDED_BY(mutex_);
  uint64_t next_scan_id_ NEXSORT_GUARDED_BY(mutex_) = 1;
  /// Batches reserved by NextBatchLocked and not yet loaded (the
  /// destructor waits for those queued on workers).
  uint64_t pending_batches_ NEXSORT_GUARDED_BY(mutex_) = 0;
  WorkerPool* workers_ = nullptr;

  /// Sticky failure surfaced by Flush().
  Status deferred_writeback_ NEXSORT_GUARDED_BY(mutex_);

  CacheStats stats_ NEXSORT_GUARDED_BY(mutex_);
  // Tracer mirrors (null when no tracer attached).
  class MetricsRegistry* metrics_ = nullptr;
  class Counter* hits_counter_ = nullptr;
  class Counter* misses_counter_ = nullptr;
  class Counter* evictions_counter_ = nullptr;
  class Counter* writebacks_counter_ = nullptr;
  class Counter* prefetches_counter_ = nullptr;
  class Gauge* hit_rate_gauge_ = nullptr;
};

/// BlockDevice facade over a BufferPool: same interface, same accounting
/// hooks, so existing extmem components cache transparently. All block
/// allocation must flow through the wrapper once it exists (ids are kept
/// aligned with the wrapped device by adopting its block count at
/// construction).
class CachedBlockDevice final : public BlockDevice {
 public:
  /// `base` and `budget` are not owned and must outlive the wrapper.
  CachedBlockDevice(BlockDevice* base, MemoryBudget* budget,
                    CacheOptions options, DiskModel model = {});

  /// Flushes best-effort; call Flush() first to observe errors.
  ~CachedBlockDevice() override;

  /// Status of the pool's construction-time budget reservation.
  const Status& init_status() const { return pool_.init_status(); }

  /// Write back all dirty frames, surfacing any deferred write-back
  /// failure an eviction recorded earlier.
  [[nodiscard]] Status Flush() { return pool_.Flush(); }

  BufferPool* pool() { return &pool_; }
  const BufferPool& pool() const { return pool_; }

  /// The wrapped (physical) device.
  BlockDevice* base() const { return pool_.base(); }

 protected:
  [[nodiscard]] Status DoRead(uint64_t block_id, char* buf, IoCategory category) override {
    return pool_.ReadBlock(block_id, buf, category);
  }
  [[nodiscard]] Status DoWrite(uint64_t block_id, const char* buf,
                 IoCategory category) override {
    return pool_.WriteBlock(block_id, buf, category);
  }
  [[nodiscard]] Status DoAllocate(uint64_t count) override;

 private:
  BufferPool pool_;
};

}  // namespace nexsort
