#include "cache/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "parallel/worker_pool.h"
#include "util/dcheck.h"

namespace nexsort {

namespace {
/// Sentinel from AcquireFrame: a racing thread loaded the block while the
/// lock was dropped for a victim write-back; the caller must re-resolve.
constexpr size_t kRetryFrame = SIZE_MAX;
}  // namespace

void CacheStats::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("hits");
  writer->Uint(hits);
  writer->Key("misses");
  writer->Uint(misses);
  // Convention (asserted by check_telemetry_schema.py): hit_rate is
  // *absent* when there were no accesses — 0.0 would read as "everything
  // missed" and NaN is not JSON.
  if (hits + misses > 0) {
    writer->Key("hit_rate");
    writer->Double(hit_rate());
  }
  writer->Key("evictions");
  writer->Uint(evictions);
  writer->Key("writebacks");
  writer->Uint(writebacks);
  writer->Key("writeback_failures");
  writer->Uint(writeback_failures);
  writer->Key("prefetches");
  writer->Uint(prefetches);
  writer->EndObject();
}

BufferPool::BufferPool(BlockDevice* base, MemoryBudget* budget,
                       CacheOptions options)
    : base_(base), options_(options) {
  if (options_.frames == 0) {
    init_status_ = Status::InvalidArgument("BufferPool needs >= 1 frame");
    return;
  }
  init_status_ = reservation_.Acquire(budget, options_.frames);
  if (!init_status_.ok()) return;
  frames_.resize(options_.frames);
  data_.resize(options_.frames * base_->block_size());
  resident_.reserve(options_.frames * 2);
}

BufferPool::~BufferPool() {
  {
    // Queued look-ahead loads capture `this`; let them run out first.
    MutexLock lock(&mutex_);
    while (pending_batches_ > 0) busy_done_.Wait(&mutex_);
    NEXSORT_DCHECK_MSG(scans_.empty(),
                       "BufferPool destroyed with live read advice");
  }
  // A pinned frame at destruction means a Pin was never matched by an
  // Unpin — the caller holds a pointer into data_ that is about to die.
  NEXSORT_DCHECK_MSG(pinned_frames() == 0,
                     "BufferPool destroyed with pinned frames "
                     "(pin/unpin imbalance)");
  // Best-effort: errors here are unreportable; callers that care flush
  // explicitly first (the sorters do).
  Status flushed = Flush();
  // Flushed-or-empty dirty set: a successful flush may not leave any frame
  // dirty. (A failed flush legitimately does — the write-back error keeps
  // the frame's bytes for a retry that will never come.)
  NEXSORT_DCHECK_MSG(!flushed.ok() || AllFramesClean(),
                     "BufferPool flush reported success but left a frame "
                     "dirty");
}

bool BufferPool::AllFramesClean() const {
  MutexLock lock(&mutex_);
  for (const Frame& frame : frames_) {
    if (frame.dirty) return false;
  }
  return true;
}

void BufferPool::set_tracer(Tracer* tracer) {
  if (tracer == nullptr) {
    hits_counter_ = misses_counter_ = evictions_counter_ = nullptr;
    writebacks_counter_ = prefetches_counter_ = nullptr;
    hit_rate_gauge_ = nullptr;
    metrics_ = nullptr;
    return;
  }
  MetricsRegistry* metrics = tracer->metrics();
  metrics_ = metrics;
  hits_counter_ = metrics->GetCounter("cache_hits");
  misses_counter_ = metrics->GetCounter("cache_misses");
  evictions_counter_ = metrics->GetCounter("cache_evictions");
  writebacks_counter_ = metrics->GetCounter("cache_writebacks");
  prefetches_counter_ = metrics->GetCounter("cache_prefetches");
  // cache_hit_rate_pct is deliberately NOT created here: the gauge
  // materializes on the first access (UpdateHitRateGauge), so "no gauge"
  // means "zero accesses" — the same absence convention as the stats
  // block's hit_rate. Registry lookup is thread-safe, so the first access
  // may come from a background prefetch.
}

void BufferPool::CountHit() {
  ++stats_.hits;
  if (hits_counter_ != nullptr) hits_counter_->Add();
  UpdateHitRateGauge();
}

void BufferPool::CountMiss() {
  ++stats_.misses;
  if (misses_counter_ != nullptr) misses_counter_->Add();
  UpdateHitRateGauge();
}

void BufferPool::UpdateHitRateGauge() {
  if (metrics_ == nullptr) return;
  uint64_t accesses = stats_.hits + stats_.misses;
  if (accesses == 0) return;
  if (hit_rate_gauge_ == nullptr) {
    hit_rate_gauge_ = metrics_->GetGauge("cache_hit_rate_pct");
  }
  hit_rate_gauge_->Set(stats_.hits * 100 / accesses);
}

Status BufferPool::WriteBack(Frame* frame, size_t index) {
  // Busy protects the frame for the unlocked transfer: the sweep skips it,
  // Pin waits on it, so nobody recycles or rewrites the bytes mid-write.
  frame->busy = true;
  uint64_t block = frame->block_id;
  IoCategory category = frame->category;
  char* data = DataOf(index);
  mutex_.Unlock();
  Status st = base_->Write(block, data, category);
  mutex_.Lock();
  frame->busy = false;
  busy_done_.SignalAll();
  if (!st.ok()) {
    ++stats_.writeback_failures;
    return st;
  }
  frame->dirty = false;
  ++stats_.writebacks;
  if (writebacks_counter_ != nullptr) writebacks_counter_->Add();
  return Status::OK();
}

StatusOr<size_t> BufferPool::AcquireFrame(uint64_t block_id) {
  // CLOCK sweep. Free frames have no second chance to burn, so they fall
  // out of the first rotation; a full rotation clears every referenced
  // bit, so two rotations suffice when any frame is evictable. Dirty
  // victims whose write-back fails stay dirty and are skipped (the
  // failure is deferred to Flush()), and busy frames are skipped outright,
  // so allow extra rotations before giving up.
  size_t sweeps = frames_.size() * 4;
  for (size_t step = 0; step < sweeps; ++step) {
    size_t index = clock_hand_;
    Frame& frame = frames_[index];
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (frame.pins > 0 || frame.busy) continue;
    if (frame.referenced) {
      frame.referenced = false;  // second chance
      continue;
    }
    if (frame.dirty) {
      Status st = WriteBack(&frame, index);
      if (!st.ok()) {
        // Defer: keep the data, pick another victim. Flush() surfaces it.
        if (deferred_writeback_.ok()) deferred_writeback_ = st;
        continue;
      }
      // The lock was dropped during the write: the frame may have been
      // pinned or re-dirtied, and the wanted block may have been loaded
      // by a racer. Re-evaluate both before claiming.
      if (frame.pins > 0 || frame.busy || frame.dirty) continue;
    }
    if (resident_.find(block_id) != resident_.end()) return kRetryFrame;
    if (frame.block_id != kNoBlock) {
      resident_.erase(frame.block_id);
      ++stats_.evictions;
      if (evictions_counter_ != nullptr) evictions_counter_->Add();
    }
    frame.block_id = block_id;
    frame.dirty = false;
    frame.referenced = false;
    frame.category = IoCategory::kOther;
    resident_.emplace(block_id, index);
    return index;
  }
  if (!deferred_writeback_.ok()) return deferred_writeback_;
  return Status::OutOfMemory("buffer pool: all frames pinned, cannot evict");
}

StatusOr<size_t> BufferPool::PinLocked(uint64_t block_id, IoCategory category,
                                       bool load, bool as_prefetch) {
  for (;;) {
    auto it = resident_.find(block_id);
    if (it != resident_.end()) {
      size_t index = it->second;
      Frame& frame = frames_[index];
      if (frame.busy) {
        // A load or write-back is in flight on this frame; the data is
        // not ours to touch until it settles.
        busy_done_.Wait(&mutex_);
        continue;
      }
      if (as_prefetch) return index;  // already resident: nothing to do
      CountHit();
      if (frame.pins == 0) ++pinned_frames_;
      ++frame.pins;
      frame.referenced = true;
      return index;
    }
    size_t index;
    ASSIGN_OR_RETURN(index, AcquireFrame(block_id));
    if (index == kRetryFrame) continue;  // racer resolved it; re-find
    Frame& frame = frames_[index];
    if (load) {
      frame.busy = true;
      char* data = DataOf(index);
      mutex_.Unlock();
      Status st = base_->Read(block_id, data, category);
      mutex_.Lock();
      frame.busy = false;
      busy_done_.SignalAll();
      if (!st.ok()) {
        // The frame holds no valid data; return it to the free state.
        resident_.erase(block_id);
        frame.block_id = kNoBlock;
        return st;
      }
    }
    if (as_prefetch) {
      // Prefetched frames get a normal reference bit: without it the
      // CLOCK evicts exactly the blocks just fetched (every resident
      // frame the scan touched is referenced, so the unreferenced
      // newcomers lose) before the scan reaches them. If the scan never
      // arrives they age out after one rotation like any other block.
      frame.referenced = true;
      ++stats_.prefetches;
      if (prefetches_counter_ != nullptr) prefetches_counter_->Add();
      return index;
    }
    CountMiss();
    if (frame.pins == 0) ++pinned_frames_;
    ++frame.pins;
    frame.referenced = true;
    return index;
  }
}

void BufferPool::UnpinLocked(size_t frame, bool mark_dirty,
                             IoCategory category) {
  Frame& f = frames_[frame];
  NEXSORT_DCHECK_MSG(f.pins > 0, "Unpin without a matching Pin");
  if (mark_dirty) {
    f.dirty = true;
    f.category = category;
  }
  --f.pins;
  if (f.pins == 0) --pinned_frames_;
}

StatusOr<size_t> BufferPool::Pin(uint64_t block_id, IoCategory category,
                                 bool load) {
  MutexLock lock(&mutex_);
  return PinLocked(block_id, category, load, /*as_prefetch=*/false);
}

void BufferPool::Unpin(size_t frame, bool mark_dirty, IoCategory category) {
  MutexLock lock(&mutex_);
  UnpinLocked(frame, mark_dirty, category);
}

char* BufferPool::FrameData(size_t frame) { return DataOf(frame); }

BufferPool::ReadAdvice& BufferPool::ReadAdvice::operator=(
    ReadAdvice&& other) noexcept {
  if (this != &other) {
    (void)Release();
    pool_ = other.pool_;
    id_ = other.id_;
    other.pool_ = nullptr;
  }
  return *this;
}

uint64_t BufferPool::ReadAdvice::Release() {
  if (pool_ == nullptr) return 0;
  BufferPool* pool = pool_;
  pool_ = nullptr;
  return pool->ReleaseAdvice(id_);
}

BufferPool::ReadAdvice BufferPool::AdviseReadSequence(
    std::vector<uint64_t> blocks) {
  if (options_.prefetch_depth == 0 || blocks.empty()) return ReadAdvice();
  MutexLock lock(&mutex_);
  const uint64_t id = next_scan_id_++;
  for (size_t i = 0; i < blocks.size(); ++i) {
    advice_pos_.insert_or_assign(blocks[i], std::make_pair(id, i));
  }
  scans_[id].blocks = std::move(blocks);
  return ReadAdvice(this, id);
}

uint64_t BufferPool::ReleaseAdvice(uint64_t id) {
  MutexLock lock(&mutex_);
  auto it = scans_.find(id);
  if (it == scans_.end()) return 0;
  AdvisedScan& scan = it->second;
  // A load in flight may be reading a block the caller is about to free:
  // wait it out. Loads not yet started see `released` and skip.
  scan.released = true;
  while (scan.loading > 0) busy_done_.Wait(&mutex_);
  for (uint64_t block : scan.blocks) {
    auto pos = advice_pos_.find(block);
    if (pos != advice_pos_.end() && pos->second.first == id) {
      advice_pos_.erase(pos);
    }
  }
  const uint64_t offloaded = scan.offloaded;
  scans_.erase(it);
  return offloaded;
}

BufferPool::LoadBatch BufferPool::NextBatchLocked(uint64_t block_id,
                                                  IoCategory category) {
  if (scans_.empty()) return {};
  auto advised = advice_pos_.find(block_id);
  if (advised == advice_pos_.end()) return {};
  const uint64_t scan_id = advised->second.first;
  const size_t position = advised->second.second;
  AdvisedScan& scan = scans_.at(scan_id);
  // Half the frames are shared among the live advised scans, so a merge
  // wider than that gets no look-ahead instead of evicting its own loads
  // before they are read; the other half stays for the working set. The
  // window also ramps up with the scan's reads (0 on the first, then one
  // more per read), so a scan that stops after a block or two — the
  // output DFS descending into a child run — loads little for nothing.
  const uint64_t window = std::min<uint64_t>(
      {options_.prefetch_depth, (frames_.size() / 2) / scans_.size(),
       scan.reads++});
  LoadBatch batch;
  batch.scan = scan_id;
  batch.from = std::max(scan.next, position + 1);
  batch.to = std::min<size_t>(position + 1 + window, scan.blocks.size());
  batch.category = category;
  if (batch.from >= batch.to) return {};
  scan.next = batch.to;
  ++pending_batches_;
  return batch;
}

void BufferPool::IssueBatch(const LoadBatch& batch) {
  if (workers_ != nullptr &&
      workers_->TrySubmit(
          [this, batch] { LoadBatchBlocks(batch, /*on_worker=*/true); })) {
    return;
  }
  LoadBatchBlocks(batch, /*on_worker=*/false);
}

void BufferPool::LoadBatchBlocks(const LoadBatch& batch, bool on_worker) {
  MutexLock lock(&mutex_);
  const uint64_t limit = base_->num_blocks();
  for (size_t pos = batch.from; pos < batch.to; ++pos) {
    auto it = scans_.find(batch.scan);
    if (it == scans_.end() || it->second.released) break;  // may be freed
    AdvisedScan& scan = it->second;
    const uint64_t block = scan.blocks[pos];
    if (block >= limit) continue;  // stale advice; skip, keep walking
    // `scan` stays valid across the unlocked load: ReleaseAdvice waits
    // for `loading` to drain before erasing it.
    ++scan.loading;
    if (on_worker) ++scan.offloaded;
    auto loaded = PinLocked(block, batch.category, /*load=*/true,
                            /*as_prefetch=*/true);
    if (--scan.loading == 0) busy_done_.SignalAll();
    if (!loaded.ok()) break;  // pool too pinned/dirty; abandon quietly
  }
  if (--pending_batches_ == 0) busy_done_.SignalAll();
}

Status BufferPool::ReadBlock(uint64_t block_id, char* buf,
                             IoCategory category) {
  LoadBatch batch;
  {
    MutexLock lock(&mutex_);
    size_t index;
    ASSIGN_OR_RETURN(index, PinLocked(block_id, category, /*load=*/true,
                                      /*as_prefetch=*/false));
    std::memcpy(buf, DataOf(index), base_->block_size());
    UnpinLocked(index, /*mark_dirty=*/false, IoCategory::kOther);
    batch = NextBatchLocked(block_id, category);
  }
  if (batch.from < batch.to) IssueBatch(batch);
  return Status::OK();
}

Status BufferPool::WriteBlock(uint64_t block_id, const char* buf,
                              IoCategory category) {
  MutexLock lock(&mutex_);
  // Whole-block overwrite: no need to load the old contents on a miss.
  size_t index;
  ASSIGN_OR_RETURN(index, PinLocked(block_id, category, /*load=*/false,
                                    /*as_prefetch=*/false));
  std::memcpy(DataOf(index), buf, base_->block_size());
  UnpinLocked(index, /*mark_dirty=*/true, category);
  return Status::OK();
}

Status BufferPool::Flush() {
  MutexLock lock(&mutex_);
  Status result = deferred_writeback_;
  deferred_writeback_ = Status::OK();  // surfaced exactly once
  for (size_t i = 0; i < frames_.size(); ++i) {
    while (frames_[i].busy) busy_done_.Wait(&mutex_);
    Frame& frame = frames_[i];
    if (frame.block_id == kNoBlock || !frame.dirty) continue;
    Status st = WriteBack(&frame, i);
    if (!st.ok() && result.ok()) result = st;
  }
  return result;
}

CacheStats BufferPool::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

uint64_t BufferPool::pinned_frames() const {
  MutexLock lock(&mutex_);
  return pinned_frames_;
}

uint64_t BufferPool::dirty_frames() const {
  MutexLock lock(&mutex_);
  uint64_t dirty = 0;
  for (const Frame& frame : frames_) {
    if (frame.dirty) ++dirty;
  }
  return dirty;
}

CachedBlockDevice::CachedBlockDevice(BlockDevice* base, MemoryBudget* budget,
                                     CacheOptions options, DiskModel model)
    : BlockDevice(base->block_size(), model, base->mutex_rank() - 1),
      pool_(base, budget, options) {
  // Adopt the wrapped device's block count so ids allocated before the
  // wrapper existed stay addressable and future ids stay aligned.
  SyncNumBlocks(base->num_blocks());
}

CachedBlockDevice::~CachedBlockDevice() = default;

Status CachedBlockDevice::DoAllocate(uint64_t count) {
  uint64_t first = 0;
  RETURN_IF_ERROR(pool_.base()->Allocate(count, &first));
  NEXSORT_DCHECK_MSG(
      first == num_blocks(),
      "blocks allocated on the wrapped device bypassing the wrapper");
  (void)first;
  return Status::OK();
}

}  // namespace nexsort
