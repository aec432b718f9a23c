#include "sort/external_merge_sort.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "cache/buffer_pool.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/stream.h"
#include "obs/tracer.h"
#include "parallel/async_spiller.h"
#include "parallel/worker_pool.h"
#include "sort/replacement_selection.h"
#include "util/cancellation.h"
#include "util/dcheck.h"
#include "util/thread_annotations.h"
#include "util/varint.h"

namespace nexsort {

Status ReadVarintFromRun(RunReader* reader, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    char byte = 0;
    RETURN_IF_ERROR(reader->ReadExact(&byte, 1));
    unsigned char b = static_cast<unsigned char>(byte);
    result |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *value = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint too long in run");
}

Status AppendRecord(ByteSink* sink, std::string_view key,
                    std::string_view value) {
  std::string header;
  PutVarint64(&header, key.size());
  RETURN_IF_ERROR(sink->Append(header));
  RETURN_IF_ERROR(sink->Append(key));
  header.clear();
  PutVarint64(&header, value.size());
  RETURN_IF_ERROR(sink->Append(header));
  return sink->Append(value);
}

RecordRunSource::RecordRunSource(RunStore* store, RunHandle handle,
                                 IoCategory category)
    : reader_(store->OpenRun(handle, 0, category)) {}

Status RecordRunSource::Open() {
  RETURN_IF_ERROR(reader_.init_status());
  return Advance();
}

Status RecordRunSource::Advance() {
  if (reader_.bytes_remaining() == 0) {
    exhausted_ = true;
    return Status::OK();
  }
  uint64_t key_len = 0;
  RETURN_IF_ERROR(ReadVarintFromRun(&reader_, &key_len));
  key_.resize(key_len);
  RETURN_IF_ERROR(reader_.ReadExact(key_.data(), key_len));
  uint64_t value_len = 0;
  RETURN_IF_ERROR(ReadVarintFromRun(&reader_, &value_len));
  value_.resize(value_len);
  RETURN_IF_ERROR(reader_.ReadExact(value_.data(), value_len));
  return Status::OK();
}

ExternalMergeSorter::ExternalMergeSorter(RunStore* store,
                                         ExtSortOptions options)
    : store_(store), options_(options) {
  if (options_.memory_blocks < 3) {
    init_status_ =
        Status::InvalidArgument("external sort needs at least 3 blocks");
    return;
  }
  // One block stays free for the spill/merge writer; the rest buffer input.
  init_status_ =
      buffer_reservation_.Acquire(store->budget(), options_.memory_blocks - 1);
  if (init_status_.ok()) {
    buffer_capacity_ =
        (options_.memory_blocks - 1) * store->device()->block_size();
    if (options_.run_formation == RunFormationPolicy::kReplacementSelection) {
      ReplacementSelectionFormer::Options former_options;
      former_options.capacity_bytes = buffer_capacity_;
      former_options.temp_category = options_.temp_category;
      former_options.tracer = options_.tracer;
      former_options.parallel = options_.parallel;
      former_options.cancel = options_.cancel;
      former_ = std::make_unique<ReplacementSelectionFormer>(
          store_, former_options);
    }
  }
}

ExternalMergeSorter::~ExternalMergeSorter() {
  // An in-flight background spill references our buffers and run list;
  // wait it out before tearing anything down.
  if (spiller_ != nullptr) (void)spiller_->WaitIdle();
  // Retire the drain's read advice before its run is freed below.
  (void)result_advice_.Release();
  PublishStats();
  for (RunHandle run : runs_) {
    (void)store_->FreeRun(run);  // best-effort cleanup of leftover runs
  }
}

Status ExternalMergeSorter::Add(std::string_view key, std::string_view value) {
  if (finished_) return Status::InvalidArgument("sorter already finished");
  if (former_ != nullptr) {
    ++stats_.records;
    stats_.bytes += key.size() + value.size();
    return former_->Add(key, value);
  }
  uint64_t record_bytes = key.size() + value.size() + sizeof(RecordRef);
  if (!current_->records.empty() &&
      current_->bytes() + record_bytes > buffer_capacity_) {
    RETURN_IF_ERROR(Spill());
  }
  SpillBuffer& buffer = *current_;
  RecordRef ref;
  ref.offset = buffer.arena.size();
  ref.key_len = static_cast<uint32_t>(key.size());
  ref.value_len = static_cast<uint32_t>(value.size());
  buffer.arena.append(key);
  buffer.arena.append(value);
  buffer.records.push_back(ref);
  ++stats_.records;
  stats_.bytes += key.size() + value.size();
  return Status::OK();
}

Status ExternalMergeSorter::Spill() {
  // Block-granular cancellation point: a full buffer is about to become a
  // run. Bailing here loses no durable state — spilled runs are freed by
  // the destructor and the buffer reservations unwind normally.
  RETURN_IF_ERROR(CheckCancelled(options_.cancel));
  ParallelContext* ctx = options_.parallel;
  if (!double_buffer_attempted_ && ctx != nullptr && ctx->pool() != nullptr &&
      ctx->options().double_buffer) {
    double_buffer_attempted_ = true;
    // Engaging costs a whole second buffer on top of the first, and the
    // budget must still have the spill writer's block left over. When it
    // doesn't, stay on the serial path — run boundaries are set by
    // buffer_capacity_, which never changes, so output and logical I/O are
    // identical either way.
    MemoryBudget* budget = store_->budget();
    if (spare_reservation_.Acquire(budget, options_.memory_blocks - 1).ok() &&
        budget->available_blocks() >= 1) {
      double_buffer_engaged_ = true;
      spiller_ = std::make_unique<AsyncSpiller>(ctx->pool());
    } else {
      spare_reservation_.Reset();
      ++pstats_.double_buffer_declined;
    }
  }
  if (!double_buffer_engaged_) {
    ++pstats_.sync_spills;
    return SpillRun(current_, /*background=*/false);
  }
  // Wait for the previous spill (making the other buffer reusable), emit
  // the trace events it deferred, then hand the full buffer off and keep
  // accepting records into the drained one.
  RETURN_IF_ERROR(spiller_->WaitIdle());
  FlushDeferredTraces();
  SpillBuffer* full = current_;
  current_ = (current_ == &buffers_[0]) ? &buffers_[1] : &buffers_[0];
  ++pstats_.async_spills;
  return spiller_->Submit(
      [this, full] { return SpillRun(full, /*background=*/true); });
}

Status ExternalMergeSorter::SpillRun(SpillBuffer* buffer, bool background) {
  // Span recording is thread-safe, so a background spill gets its own
  // worker-lane span in the trace; only its run-created *event* stays
  // deferred to the foreground (run events feed histograms, which are
  // foreground-only).
  ScopedSpan span(options_.tracer, "run_formation");
  SortBuffer(buffer);
  RunWriter writer = store_->NewRun(options_.temp_category);
  RETURN_IF_ERROR(writer.init_status());
  if (background) writer.set_suppress_trace(true);
  const char* arena = buffer->arena.data();
  for (const RecordRef& ref : buffer->records) {
    std::string_view key(arena + ref.offset, ref.key_len);
    std::string_view value(arena + ref.offset + ref.key_len, ref.value_len);
    RETURN_IF_ERROR(AppendRecord(&writer, key, value));
  }
  RunHandle handle;
  RETURN_IF_ERROR(writer.Finish(&handle));
  runs_.push_back(handle);
  ++stats_.initial_runs;
  stats_.runs.RecordRun(handle.byte_size, store_->device()->block_size());
  if (background) deferred_traces_.push_back(handle);
  buffer->Clear();
  return Status::OK();
}

void ExternalMergeSorter::SortBuffer(SpillBuffer* buffer) {
  // (key, arena offset) is a strict total order — offsets are unique — so
  // the sorted sequence is unique and any correct sort (serial, or
  // partitioned + merged below) produces bit-identical output. The offset
  // tie-break doubles as stability: arrival order equals arena order.
  struct RecordLess {
    const char* arena;
    bool operator()(const RecordRef& a, const RecordRef& b) const {
      std::string_view ka(arena + a.offset, a.key_len);
      std::string_view kb(arena + b.offset, b.key_len);
      if (ka != kb) return ka < kb;
      return a.offset < b.offset;
    }
  };
  RecordLess less{buffer->arena.data()};
  WorkerPool* pool =
      options_.parallel != nullptr ? options_.parallel->pool() : nullptr;
  const size_t n = buffer->records.size();
  constexpr size_t kMinParallelSortRecords = 4096;
  if (pool == nullptr || pool->size() < 2 || n < kMinParallelSortRecords) {
    std::sort(buffer->records.begin(), buffer->records.end(), less);
    return;
  }

  const size_t chunks = std::min<size_t>(pool->size(), 8);
  struct SortShared {
    RecordRef* base = nullptr;
    RecordLess less{nullptr};
    std::vector<size_t> bounds;
    std::atomic<size_t> next{0};
    Mutex mutex{"ExternalMergeSort::partition", lock_rank::kSortPartition};
    CondVar done_cv;
    size_t done NEXSORT_GUARDED_BY(mutex) = 0;
  };
  auto shared = std::make_shared<SortShared>();
  shared->base = buffer->records.data();
  shared->less = less;
  shared->bounds.resize(chunks + 1);
  for (size_t i = 0; i <= chunks; ++i) shared->bounds[i] = i * n / chunks;
  Tracer* tracer = options_.tracer;
  auto work = [shared, chunks, tracer] {
    for (;;) {
      size_t c = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      // Thread-safe span: each chunk shows up on the lane of whichever
      // thread (worker or the submitting one) sorted it.
      ScopedSpan span(tracer, "sort_partition");
      std::sort(shared->base + shared->bounds[c],
                shared->base + shared->bounds[c + 1], shared->less);
      span.End();
      MutexLock lock(&shared->mutex);
      if (++shared->done == chunks) shared->done_cv.SignalAll();
    }
  };
  // Helpers may never get a worker (this sort can itself be running on
  // one): the submitting thread participates, so every chunk gets sorted
  // regardless, and stragglers find `next` exhausted and return.
  for (size_t i = 0; i + 1 < chunks; ++i) (void)pool->Submit(work);
  work();
  {
    MutexLock lock(&shared->mutex);
    while (shared->done != chunks) shared->done_cv.Wait(&shared->mutex);
  }
  for (size_t width = 1; width < chunks; width *= 2) {
    for (size_t lo = 0; lo + width < chunks; lo += 2 * width) {
      size_t hi = std::min(chunks, lo + 2 * width);
      std::inplace_merge(shared->base + shared->bounds[lo],
                         shared->base + shared->bounds[lo + width],
                         shared->base + shared->bounds[hi], less);
    }
  }
  ++pstats_.parallel_sorts;
  pstats_.sort_partitions += chunks;
}

void ExternalMergeSorter::FlushDeferredTraces() {
  for (const RunHandle& handle : deferred_traces_) {
    TraceRunEvent(store_->tracer(), RunEventKind::kCreated,
                  options_.temp_category, handle.byte_size, handle.id);
  }
  deferred_traces_.clear();
}

void ExternalMergeSorter::AbsorbFormerStats() {
  if (former_ == nullptr || former_stats_absorbed_) return;
  former_stats_absorbed_ = true;
  stats_.runs = former_->stats();
  stats_.initial_runs = stats_.runs.runs_formed;
  pstats_.MergeFrom(former_->parallel_stats());
}

void ExternalMergeSorter::PublishStats() {
  if (stats_published_) return;
  stats_published_ = true;
  AbsorbFormerStats();
  if (spiller_ != nullptr) {
    pstats_.spill_wait_seconds += spiller_->wait_seconds();
    pstats_.spill_busy_seconds += spiller_->busy_seconds();
  }
  if (options_.parallel != nullptr) options_.parallel->AddStats(pstats_);
}

Status ExternalMergeSorter::MergeAll() {
  const uint64_t fan_in = options_.memory_blocks - 1;
  std::vector<uint64_t> run_bytes;
  run_bytes.reserve(runs_.size());
  for (const RunHandle& run : runs_) run_bytes.push_back(run.byte_size);
  const MergePlan plan =
      MergePlanner::Plan(run_bytes, fan_in, options_.merge_policy);
  stats_.plan.policy = options_.merge_policy;
  ++stats_.plan.plans;
  stats_.plan.input_runs += plan.num_inputs;

  // Node table over the plan's DAG: leaves are the formed runs; a step's
  // output handle lands in its node slot when the step completes.
  // `consumed` enforces the exactly-once discipline on inputs.
  std::vector<RunHandle> nodes(plan.node_count());
  std::vector<bool> ready(plan.node_count(), false);
  std::vector<bool> consumed(plan.node_count(), false);
  for (size_t i = 0; i < runs_.size(); ++i) {
    nodes[i] = runs_[i];
    ready[i] = true;
  }

  uint32_t current_pass = 0;
  std::optional<ScopedSpan> pass_span;
  for (const MergeStep& step : plan.steps) {
    if (!pass_span.has_value() || step.pass != current_pass) {
      pass_span.emplace(options_.tracer, "merge_pass");
      current_pass = step.pass;
      ++stats_.merge_passes;
    }
    const size_t width = step.inputs.size();
    if (options_.tracer != nullptr) {
      // Every step records its true fan-in (the trailing group of a greedy
      // pass — and every planned carry-pass window — is narrower than F).
      options_.tracer->metrics()->GetHistogram("merge_fan_in")
          ->Record(width);
    }
    // Advise the pool of every input's block order before the readers
    // open: the merge reads each run strictly in sequence, so the pool can
    // load ahead of every source (docs/CACHING.md, "Read-ahead").
    std::vector<BufferPool::ReadAdvice> advice;
    if (options_.buffer_pool != nullptr) {
      for (size_t i = 0; i < width; ++i) {
        std::vector<uint64_t> blocks;
        RETURN_IF_ERROR(
            store_->SnapshotBlocks(nodes[step.inputs[i]], &blocks));
        advice.push_back(
            options_.buffer_pool->AdviseReadSequence(std::move(blocks)));
      }
    }
    std::vector<std::unique_ptr<RecordRunSource>> sources;
    std::vector<MergeSource*> raw;
    for (size_t i = 0; i < width; ++i) {
      const uint32_t node = step.inputs[i];
      NEXSORT_DCHECK_MSG(ready[node] && !consumed[node],
                         "merge plan uses a node early or twice");
      sources.push_back(std::make_unique<RecordRunSource>(
          store_, nodes[node], options_.temp_category));
      RETURN_IF_ERROR(sources.back()->Open());
      raw.push_back(sources.back().get());
    }
    LoserTree tree(std::move(raw));
    RunHandle merged;
    Status step_status = tree.Init();
    if (step_status.ok()) {
      const PlacementHint hint = step.final && options_.dfs_placement
                                     ? PlacementHint::kSequentialOutput
                                     : PlacementHint::kScratch;
      RunWriter writer = store_->NewRun(options_.temp_category, hint);
      step_status = writer.init_status();
      while (step_status.ok()) {
        step_status = CheckCancelled(options_.cancel);
        if (!step_status.ok()) break;
        MergeSource* min = tree.Min();
        if (min == nullptr) break;
        auto* source = static_cast<RecordRunSource*>(min);
        step_status = AppendRecord(&writer, source->key(), source->value());
        if (!step_status.ok()) break;
        step_status = tree.AdvanceMin();
      }
      if (step_status.ok()) step_status = writer.Finish(&merged);
    }
    // Retire the advice before the inputs are freed below.
    for (BufferPool::ReadAdvice& input : advice) {
      pstats_.prefetch_issued += input.Release();
    }
    RETURN_IF_ERROR(step_status);
    sources.clear();  // release reader buffers before freeing inputs
    for (size_t i = 0; i < width; ++i) {
      const uint32_t node = step.inputs[i];
      TraceRunEvent(options_.tracer, RunEventKind::kMerged,
                    options_.temp_category, nodes[node].byte_size,
                    nodes[node].id);
      consumed[node] = true;
      // Keep runs_ an exact live-run list as the plan progresses so the
      // destructor frees each leftover exactly once if a later step fails.
      const uint32_t freed_id = nodes[node].id;
      runs_.erase(std::find_if(runs_.begin(), runs_.end(),
                               [freed_id](const RunHandle& run) {
                                 return run.id == freed_id;
                               }));
      RETURN_IF_ERROR(store_->FreeRun(nodes[node]));
    }
    nodes[step.output] = merged;
    ready[step.output] = true;
    runs_.push_back(merged);
    // Outputs are exact concatenations, so the planner's predicted size
    // must match what the writer produced.
    NEXSORT_DCHECK_EQ(merged.byte_size, plan.node_bytes[step.output]);
    stats_.plan.RecordStep(width, plan.node_bytes[step.output],
                           merged.byte_size);
  }
#if NEXSORT_DCHECK_ENABLED
  // Exactly-once discipline over the whole plan: every input run was
  // consumed; only the plan's root survives.
  for (uint32_t i = 0; i < plan.num_inputs; ++i) {
    NEXSORT_DCHECK_MSG(consumed[i], "merge plan left an input run behind");
  }
  NEXSORT_DCHECK(runs_.size() == 1);
  NEXSORT_DCHECK(runs_.front().id == nodes[plan.root()].id);
#endif
  return Status::OK();
}

Status ExternalMergeSorter::MergeAndOpenResult() {
  Status merged = Status::OK();
  if (runs_.size() == 1) {
    // Single-run fast path: run formation already produced the answer, so
    // the merge phase vanishes — no merge pass, no merge-pass I/O. The
    // drain below reads the formed run directly.
    NEXSORT_DCHECK(stats_.merge_passes == 0);
    if (options_.tracer != nullptr) {
      options_.tracer->metrics()
          ->GetCounter("merge_skipped_single_run")
          ->Add(1);
    }
  } else {
    merged = MergeAll();
  }
  PublishStats();
  RETURN_IF_ERROR(merged);
  // Teach the pool the drain's exact block order before the reader opens,
  // extent seams included.
  if (options_.buffer_pool != nullptr) {
    std::vector<uint64_t> blocks;
    if (store_->SnapshotBlocks(runs_.front(), &blocks).ok()) {
      result_advice_ =
          options_.buffer_pool->AdviseReadSequence(std::move(blocks));
    }
  }
  result_source_ = std::make_unique<RecordRunSource>(
      store_, runs_.front(), options_.temp_category);
  RETURN_IF_ERROR(result_source_->Open());
  result_primed_ = true;
  return Status::OK();
}

Status ExternalMergeSorter::Finish() {
  if (finished_) return Status::InvalidArgument("sorter already finished");
  finished_ = true;
  if (former_ != nullptr) {
    if (!former_->spilled()) {
      // Everything fit in the tournament: drain from memory via PopMin.
      stats_.in_memory = true;
      PublishStats();
      return Status::OK();
    }
    Status formed = former_->FinishRuns(&runs_);
    AbsorbFormerStats();
    if (!formed.ok()) {
      PublishStats();
      return formed;
    }
    // Release the tournament's memory before the merge claims its fan-in
    // readers, mirroring the quicksort path's buffer release below.
    former_.reset();
    buffer_reservation_.Reset();
    spare_reservation_.Reset();
    return MergeAndOpenResult();
  }
  if (spiller_ != nullptr) {
    // Surface any background spill failure — a lost run write must fail
    // the sort, not vanish on a worker thread.
    Status background = spiller_->Drain();
    FlushDeferredTraces();
    if (!background.ok()) {
      PublishStats();
      return background;
    }
  }
  if (runs_.empty()) {
    // Everything fit in the buffer: sort in place and drain from memory.
    stats_.in_memory = true;
    SortBuffer(current_);
    PublishStats();
    return Status::OK();
  }
  if (!current_->records.empty()) {
    // The final partial buffer spills inline: there is nothing left to
    // overlap it with.
    ++pstats_.sync_spills;
    Status spilled = SpillRun(current_, /*background=*/false);
    if (!spilled.ok()) {
      PublishStats();
      return spilled;
    }
  }
  // Release the input buffers before merging: merge fan-in readers (M-1
  // blocks) plus the output writer (1 block) then use exactly M blocks,
  // the sort's whole allowance.
  for (SpillBuffer& buffer : buffers_) {
    buffer.arena.clear();
    buffer.arena.shrink_to_fit();
    buffer.records.clear();
    buffer.records.shrink_to_fit();
  }
  buffer_reservation_.Reset();
  spare_reservation_.Reset();
  return MergeAndOpenResult();
}

StatusOr<bool> ExternalMergeSorter::Next(std::string* key, std::string* value) {
  if (!finished_) return Status::InvalidArgument("Finish() not called");
  if (stats_.in_memory) {
    if (former_ != nullptr) return former_->PopMin(key, value);
    const SpillBuffer& buffer = *current_;
    if (mem_cursor_ >= buffer.records.size()) return false;
    const RecordRef& ref = buffer.records[mem_cursor_++];
    key->assign(buffer.arena.data() + ref.offset, ref.key_len);
    value->assign(buffer.arena.data() + ref.offset + ref.key_len,
                  ref.value_len);
    return true;
  }
  if (!result_primed_ || result_source_->exhausted()) return false;
  key->assign(result_source_->key());
  value->assign(result_source_->value());
  RETURN_IF_ERROR(result_source_->Advance());
  return true;
}

}  // namespace nexsort
