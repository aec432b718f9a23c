#include "core/nexsort.h"

#include <algorithm>
#include <optional>

#include "cache/buffer_pool.h"
#include "core/unit_emitter.h"
#include "extmem/stream.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/cancellation.h"

namespace nexsort {

void NexSortStats::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("scan");
  writer->BeginObject();
  writer->Key("elements");
  writer->Uint(scan.elements);
  writer->Key("text_nodes");
  writer->Uint(scan.text_nodes);
  writer->Key("units");
  writer->Uint(scan.units);
  writer->Key("max_fanout");
  writer->Uint(scan.max_fanout);
  writer->Key("max_depth");
  writer->Uint(scan.max_depth);
  writer->EndObject();
  writer->Key("sorts");
  writer->BeginObject();
  writer->Key("internal");
  writer->Uint(sorts.internal_sorts);
  writer->Key("external");
  writer->Uint(sorts.external_sorts);
  writer->Key("fragment_merges");
  writer->Uint(sorts.fragment_merges);
  writer->Key("fragment_premerge_passes");
  writer->Uint(sorts.fragment_premerge_passes);
  writer->Key("largest_subtree_bytes");
  writer->Uint(sorts.largest_subtree_bytes);
  writer->Key("runs_formed");
  writer->Uint(sorts.run_formation.runs_formed);
  writer->Key("avg_run_blocks");
  writer->Double(sorts.run_formation.avg_run_blocks());
  writer->Key("max_run_blocks");
  writer->Uint(sorts.run_formation.max_run_blocks);
  writer->Key("merge_passes");
  writer->Uint(sorts.merge_passes);
  writer->Key("merge_plan");
  sorts.merge_plan.ToJson(writer);
  writer->EndObject();
  writer->Key("subtree_sorts");
  writer->Uint(subtree_sorts);
  writer->Key("fragment_runs");
  writer->Uint(fragment_runs);
  writer->Key("pointer_units");
  writer->Uint(pointer_units);
  writer->Key("input_bytes");
  writer->Uint(input_bytes);
  writer->Key("output_bytes");
  writer->Uint(output_bytes);
  writer->Key("data_stack_peak_bytes");
  writer->Uint(data_stack_peak);
  writer->Key("path_stack_peak_entries");
  writer->Uint(path_stack_peak);
  writer->EndObject();
}

std::string NexSortStats::ToJsonString() const {
  JsonWriter writer;
  ToJson(&writer);
  return std::move(writer).Take();
}

NexSorter::NexSorter(SortEnv* env, NexSortOptions options)
    : NexSorter(env->NewSession(), std::move(options)) {}

NexSorter::NexSorter(SortEnv::Session session, NexSortOptions options)
    : session_(std::move(session)),
      options_(std::move(options)),
      tracer_(session_.tracer()),
      device_(session_.device()),
      budget_(session_.budget()),
      store_(session_.run_store()) {
  format_.use_dictionary = options_.use_dictionary;
  threshold_ = options_.sort_threshold != 0 ? options_.sort_threshold
                                            : 2 * device_->block_size();
  push_end_units_ = options_.keep_end_units || options_.order.HasComplexRules();
  if (options_.dtd != nullptr) options_.dtd->SeedDictionary(&dictionary_);
  // Complex criteria deliver keys on end units, which the streaming
  // key-path (external) subtree sort cannot use. Graceful degeneration
  // keeps every region within the internal sort capacity, so with it on the
  // external path is never taken and resolved keys are always honoured.
  if (options_.order.HasComplexRules()) options_.graceful_degeneration = true;

  sort_context_.store = store_;
  sort_context_.dictionary = &dictionary_;
  sort_context_.format = format_;
  sort_context_.depth_limit = options_.depth_limit;
  sort_context_.run_formation = options_.run_formation;
  sort_context_.merge_policy = options_.merge_policy;
  sort_context_.dfs_placement = options_.dfs_placement;
  sort_context_.parallel = session_.parallel();
  sort_context_.buffer_pool = session_.buffer_pool();
  sort_context_.cancel = session_.cancellation();
  sort_context_.scope_tags =
      options_.sort_scope_tags.empty() ? nullptr : &options_.sort_scope_tags;
  if (tracer_ != nullptr) {
    // Spans snapshot the *physical* device: with caching on, their I/O
    // deltas are real transfers, not logical accesses.
    tracer_->AttachDevice(session_.physical_device());
    tracer_->AttachBudget(budget_);
    sort_context_.tracer = tracer_;
  }
}

Status NexSorter::SortRegion(ExtByteStack* data, const PathEntry& entry,
                             std::string_view resolved_key, uint32_t level,
                             uint64_t seq, RunHandle* run,
                             ElementUnit* pointer) {
  ++stats_.subtree_sorts;
  uint64_t region_size = data->size() - entry.start_offset;
  ScopedSpan span(tracer_, "sort_region");
  if (tracer_ != nullptr) {
    tracer_->metrics()->GetHistogram("subtree_region_bytes")
        ->Record(region_size);
  }
  ElementUnit root_unit;
  // Regions holding fragment pointers must sort in memory (fragments merge
  // against the in-memory forest); fragmentation has already capped their
  // size near the capacity.
  bool force_internal = (entry.flags & kHasFragments) != 0;
  if (region_size <= sort_capacity_ || force_internal) {
    std::string region;
    RETURN_IF_ERROR(data->PopRegion(entry.start_offset, &region));
    ASSIGN_OR_RETURN(*run, SortSubtreeInMemory(sort_context_, region,
                                               &root_unit, &stats_.sorts));
  } else {
    // Stream the oversized region straight off the data stack into the
    // key-path external merge sort: no extra temp-run round trip.
    ExternalSubtreeSorter external(sort_context_, &stats_.sorts);
    RETURN_IF_ERROR(external.init_status());
    RETURN_IF_ERROR(data->PopRegionTo(entry.start_offset, external.sink()));
    ASSIGN_OR_RETURN(*run, external.Finish(&root_unit));
  }
  pointer->type = UnitType::kPointer;
  pointer->level = level;
  pointer->seq = seq;
  pointer->key = resolved_key.empty() ? root_unit.key
                                      : std::string(resolved_key);
  pointer->name.clear();
  pointer->attributes.clear();
  pointer->text.clear();
  pointer->run = *run;
  return Status::OK();
}

Status NexSorter::MaybeFragment(ExtByteStack* data,
                                ExtStack<PathEntry>* path) {
  if (!options_.graceful_degeneration || path->empty()) return Status::OK();
  PathEntry top;
  RETURN_IF_ERROR(path->Top(&top));
  if (data->size() - top.content_offset < frag_threshold_) return Status::OK();

  // The innermost open element has no open descendants, so everything
  // after its start unit is a forest of complete child subtrees: sort it
  // into an incomplete run now (Section 3.2, graceful degeneration). The
  // fragment-pointer units left behind are ~10 bytes each — O(N/t) run
  // metadata, like the run index itself — and the element's eventual sort
  // merges the runs they point to with proper multi-pass fan-in, exactly
  // external merge sort's structure.
  uint64_t from = top.content_offset;
  std::string forest;
  RETURN_IF_ERROR(data->PopRegion(from, &forest));
  RunHandle fragment;
  ASSIGN_OR_RETURN(fragment,
                   SortForestInMemory(sort_context_, forest, &stats_.sorts));
  ++stats_.fragment_runs;
  TraceRunEvent(tracer_, RunEventKind::kFragment,
                IoCategory::kRunWrite, fragment.byte_size, fragment.id);

  ElementUnit unit;
  unit.type = UnitType::kFragment;
  unit.level = static_cast<uint32_t>(path->size()) + 1;  // child level
  unit.seq = 0;
  unit.run = fragment;
  std::string serialized;
  AppendUnit(&serialized, unit, format_, &dictionary_);
  RETURN_IF_ERROR(data->Append(serialized));

  top.content_offset = data->size();
  top.flags |= kHasFragments;
  return path->ReplaceTop(top);
}

Status NexSorter::SortingPhase(ByteSource* input, RunHandle* root_run) {
  ScopedSpan span(tracer_, "sorting_phase");
  Histogram* fanout_histogram =
      tracer_ != nullptr
          ? tracer_->metrics()->GetHistogram("subtree_fanout")
          : nullptr;
  UnitScanner scanner(input, &options_.order);
  ExtByteStack data(device_, budget_, 1, IoCategory::kDataStack);
  RETURN_IF_ERROR(data.init_status());
  ExtStack<PathEntry> path(device_, budget_, 2, IoCategory::kPathStack);
  RETURN_IF_ERROR(path.init_status());

  bool have_root_run = false;
  std::string serialized;
  ScanEvent event;
  while (true) {
    // Cancellation point once per scanned unit: the stacks and any runs
    // already spilled unwind via their destructors, so a cancelled sort
    // leaves the shared env exactly as a failed one would.
    RETURN_IF_ERROR(CheckCancelled(sort_context_.cancel));
    ASSIGN_OR_RETURN(bool more, scanner.Next(&event));
    if (!more) break;
    switch (event.kind) {
      case ScanEvent::Kind::kStart: {
        if (!options_.strip_attribute.empty()) {
          auto& attrs = event.unit.attributes;
          for (size_t i = 0; i < attrs.size(); ++i) {
            if (attrs[i].name == options_.strip_attribute) {
              attrs.erase(attrs.begin() + i);
              break;
            }
          }
        }
        if (!options_.record_order_attribute.empty()) {
          event.unit.attributes.push_back(
              {options_.record_order_attribute,
               std::to_string(event.unit.seq)});
        }
        PathEntry entry;
        entry.start_offset = data.size();
        serialized.clear();
        AppendUnit(&serialized, event.unit, format_, &dictionary_);
        RETURN_IF_ERROR(data.Append(serialized));
        entry.content_offset = data.size();
        RETURN_IF_ERROR(path.Push(entry));
        stats_.path_stack_peak =
            std::max<uint64_t>(stats_.path_stack_peak, path.size());
        break;
      }
      case ScanEvent::Kind::kText: {
        serialized.clear();
        AppendUnit(&serialized, event.unit, format_, &dictionary_);
        RETURN_IF_ERROR(data.Append(serialized));
        break;
      }
      case ScanEvent::Kind::kEnd: {
        if (fanout_histogram != nullptr) {
          fanout_histogram->Record(event.children);
        }
        if (push_end_units_) {
          serialized.clear();
          AppendUnit(&serialized, event.unit, format_, &dictionary_);
          RETURN_IF_ERROR(data.Append(serialized));
        }
        PathEntry entry;
        RETURN_IF_ERROR(path.Pop(&entry));
        bool is_root = path.empty();
        uint64_t region_size = data.size() - entry.start_offset;
        if (region_size > threshold_ || is_root ||
            (entry.flags & kHasFragments) != 0) {
          RunHandle run;
          ElementUnit pointer;
          RETURN_IF_ERROR(SortRegion(&data, entry, event.unit.key,
                                     event.unit.level, event.unit.seq, &run,
                                     &pointer));
          if (is_root) {
            *root_run = run;
            have_root_run = true;
          } else {
            ++stats_.pointer_units;
            serialized.clear();
            AppendUnit(&serialized, pointer, format_, &dictionary_);
            RETURN_IF_ERROR(data.Append(serialized));
          }
        }
        break;
      }
    }
    stats_.data_stack_peak =
        std::max<uint64_t>(stats_.data_stack_peak, data.size());
    RETURN_IF_ERROR(MaybeFragment(&data, &path));
  }

  stats_.scan = scanner.stats();
  stats_.input_bytes = scanner.bytes_consumed();
  if (!have_root_run) return Status::ParseError("input has no root element");
  if (data.size() != 0) {
    return Status::Corruption("data stack not empty after sorting phase");
  }
  return Status::OK();
}

namespace {

struct OutputLoc {
  uint32_t run_id = 0;
  uint64_t run_bytes = 0;
  uint64_t offset = 0;
};

}  // namespace

/// SortedStream over the output-phase DFS (paper Figure 4 lines 13-21).
/// Owns what the eager output phase held on its stack frame — the XML
/// emitter, the external output-location stack, the current run reader —
/// but created only after the sorting phase, so the memory-ledger profile
/// matches the eager path exactly. Emitter output lands in buffer_ through
/// sink_; Next() hands the buffer out as the chunk and recycles it on the
/// following call.
class NexSorter::OutputStream final : public SortedStream {
 public:
  explicit OutputStream(NexSorter* owner)
      : owner_(owner),
        sort_span_(owner->tracer_, "nexsort"),
        sink_(&buffer_) {}

  /// Runs the sorting phase (no sorted byte exists before the run tree
  /// does) and opens the output-phase machinery over its root run.
  [[nodiscard]] Status Init(ByteSource* input) {
    RunHandle root_run;
    RETURN_IF_ERROR(owner_->SortingPhase(input, &root_run));
    output_span_.emplace(owner_->tracer_, "output_phase");
    UnitEmitterOptions emitter_options;
    emitter_options.pretty = owner_->options_.pretty_output;
    emitter_ = std::make_unique<UnitXmlEmitter>(owner_->device_,
                                                owner_->budget_,
                                                &owner_->dictionary_, &sink_,
                                                emitter_options);
    RETURN_IF_ERROR(emitter_->init_status());
    locations_ = std::make_unique<ExtStack<OutputLoc>>(
        owner_->device_, owner_->budget_, 1, IoCategory::kOutputStack);
    RETURN_IF_ERROR(locations_->init_status());
    AdviseRun(root_run);
    reader_ = std::make_unique<RunUnitReader>(owner_->store_, root_run, 0,
                                              owner_->format_,
                                              &owner_->dictionary_);
    return reader_->init_status();
  }

  StatusOr<bool> Next(std::string_view* chunk) override {
    if (!status_.ok()) return status_;  // errors are sticky
    StatusOr<bool> more = Advance(chunk);
    if (!more.ok()) status_ = more.status();
    return more;
  }

 private:
  /// The emitter flushes to the sink in block-sized pieces, so chunks
  /// naturally arrive about one block at a time; this only bounds how much
  /// DFS work one Next() call may batch up.
  static constexpr size_t kChunkTarget = 4096;

  StatusOr<bool> Advance(std::string_view* chunk) {
    if (done_) return false;
    buffer_.clear();
    while (!dfs_done_ && buffer_.size() < kChunkTarget) {
      RETURN_IF_ERROR(Step());
    }
    if (dfs_done_ && !completed_) {
      RETURN_IF_ERROR(Complete());
      completed_ = true;
    }
    if (buffer_.empty()) {
      done_ = true;
      return false;
    }
    *chunk = buffer_;
    return true;
  }

  /// Announce the run the DFS is about to read to the buffer pool's
  /// advisory read-ahead (docs/MERGE_PLANNING.md): each descent/resume
  /// re-points the advice at the blocks the traversal will stream next.
  /// Purely advisory — a null pool or disabled read-ahead is fine.
  void AdviseRun(RunHandle handle) {
    BufferPool* pool = owner_->session_.buffer_pool();
    if (pool == nullptr || pool->options().readahead == 0) return;
    std::vector<uint64_t> blocks;
    if (owner_->store_->SnapshotBlocks(handle, &blocks).ok()) {
      pool->AdviseReadSequence(std::move(blocks));
      advised_ = true;
    }
  }

  /// One DFS step: advance the current run reader, descending into pointer
  /// runs and resuming parents as the traversal dictates.
  [[nodiscard]] Status Step() {
    RETURN_IF_ERROR(CheckCancelled(owner_->sort_context_.cancel));
    UnitView unit;
    ASSIGN_OR_RETURN(bool more, reader_->Next(&unit));
    if (!more) {
      if (locations_->empty()) {
        dfs_done_ = true;
        return Status::OK();
      }
      // Finished a child run: resume its parent where we left off
      // (Figure 4 lines 14-15).
      OutputLoc loc;
      RETURN_IF_ERROR(locations_->Pop(&loc));
      RunHandle handle;
      handle.id = loc.run_id;
      handle.byte_size = loc.run_bytes;
      reader_.reset();  // release the block buffer before opening the next
      AdviseRun(handle);
      reader_ = std::make_unique<RunUnitReader>(owner_->store_, handle,
                                                loc.offset, owner_->format_,
                                                &owner_->dictionary_);
      return reader_->init_status();
    }
    if (unit.type == UnitType::kPointer) {
      // Descend into the pointed-to run (Figure 4 lines 18-20).
      OutputLoc loc;
      loc.run_id = reader_->handle().id;
      loc.run_bytes = reader_->handle().byte_size;
      loc.offset = reader_->offset();
      RETURN_IF_ERROR(locations_->Push(loc));
      reader_.reset();
      AdviseRun(unit.run);
      reader_ = std::make_unique<RunUnitReader>(owner_->store_, unit.run, 0,
                                                owner_->format_,
                                                &owner_->dictionary_);
      return reader_->init_status();
    }
    if (unit.type == UnitType::kFragment) {
      return Status::Corruption("fragment unit in a complete sorted run");
    }
    return emitter_->Emit(unit);
  }

  /// The tail of the eager Sort(): close the emitter, record stats, push
  /// deferred writes to the physical device, publish metrics. Runs inside
  /// the final Next() so its errors surface to the caller.
  [[nodiscard]] Status Complete() {
    RETURN_IF_ERROR(emitter_->Finish());
    NexSorter* owner = owner_;
    owner->stats_.output_bytes = emitter_->output_bytes();
    // Freed runs recycle their block ids; stale advice must not outlive
    // the traversal that installed it.
    if (advised_) owner->session_.buffer_pool()->ClearReadAdvice();
    reader_.reset();
    locations_.reset();
    emitter_.reset();
    output_span_->End();
    RETURN_IF_ERROR(owner->session_.Flush());
    sort_span_.End();
    if (owner->session_.parallel() != nullptr) {
      owner->session_.parallel()->PublishMetrics(owner->tracer_);
    }
    if (owner->tracer_ != nullptr) {
      MetricsRegistry* metrics = owner->tracer_->metrics();
      metrics->GetGauge("data_stack_bytes")->Set(owner->stats_.data_stack_peak);
      metrics->GetGauge("path_stack_entries")
          ->Set(owner->stats_.path_stack_peak);
      metrics->GetCounter("subtree_sorts")->Add(owner->stats_.subtree_sorts);
      metrics->GetCounter("fragment_runs")->Add(owner->stats_.fragment_runs);
      metrics->GetCounter("pointer_units")->Add(owner->stats_.pointer_units);
      metrics->GetCounter("input_bytes")->Add(owner->stats_.input_bytes);
      metrics->GetCounter("output_bytes")->Add(owner->stats_.output_bytes);
    }
    return Status::OK();
  }

  NexSorter* owner_;
  ScopedSpan sort_span_;                   // whole job, both phases
  std::optional<ScopedSpan> output_span_;  // output phase only
  std::string buffer_;                     // chunk handed out by Next()
  StringByteSink sink_;
  std::unique_ptr<UnitXmlEmitter> emitter_;
  std::unique_ptr<ExtStack<OutputLoc>> locations_;
  std::unique_ptr<RunUnitReader> reader_;
  Status status_;
  bool dfs_done_ = false;   // traversal exhausted
  bool completed_ = false;  // completion work done
  bool done_ = false;       // final false already returned
  bool advised_ = false;    // pool read-advice installed by AdviseRun
};

StatusOr<std::unique_ptr<SortedStream>> NexSorter::SortStream(
    ByteSource* input) {
  if (used_) return Status::InvalidArgument("NexSorter is single-use");
  used_ = true;
  const SortEnvOptions& env_options = session_.env()->options();
  // Size the memory ledger from what the budget actually has left (the
  // caller may hold input/output stream buffers; the env's cache frames
  // are already reserved): data stack 1 block, path stack 2 blocks; the
  // rest goes to subtree sorts (one block of which is the run writer on
  // the internal path).
  uint64_t blocks = budget_->available_blocks();
  if (blocks < 8) {
    std::string msg = "NEXSORT needs >= 8 available blocks of memory budget";
    if (env_options.cache.frames > 0) {
      msg += " after the " + std::to_string(env_options.cache.frames) +
             " cache frames";
    }
    return Status::InvalidArgument(msg);
  }
  uint64_t sort_blocks = blocks - 3;
  uint64_t pinned_sort_blocks = session_.sort_memory_blocks();
  if (pinned_sort_blocks != 0) {
    if (pinned_sort_blocks < 4 || pinned_sort_blocks > sort_blocks) {
      return Status::InvalidArgument(
          "sort_memory_blocks must be in [4, available - 3 stack blocks]");
    }
    sort_blocks = pinned_sort_blocks;
  } else if (env_options.parallel.threads > 0 &&
             env_options.parallel.double_buffer) {
    // Auto mode with double buffering: grant roughly half the remaining
    // budget so the second sort buffer (and its spill writer) actually fit
    // and overlap engages instead of being declined.
    sort_blocks = std::max<uint64_t>(4, (sort_blocks + 1) / 2);
  }
  sort_capacity_ = (sort_blocks - 1) * device_->block_size();
  // Fragmentation must leave the end-tag region inside the internal sort
  // capacity, so trigger comfortably below it.
  frag_threshold_ = std::max(threshold_, sort_capacity_ / 2);
  sort_context_.memory_blocks = sort_blocks;
  if (!options_.sort_scope_tags.empty() &&
      (options_.graceful_degeneration || options_.order.HasComplexRules())) {
    return Status::NotSupported(
        "scoped sorting cannot combine with graceful degeneration or "
        "complex ordering criteria");
  }
  auto stream = std::make_unique<OutputStream>(this);
  RETURN_IF_ERROR(stream->Init(input));
  return std::unique_ptr<SortedStream>(std::move(stream));
}

Status NexSorter::Sort(ByteSource* input, ByteSink* output) {
  std::unique_ptr<SortedStream> stream;
  ASSIGN_OR_RETURN(stream, SortStream(input));
  std::string_view chunk;
  while (true) {
    ASSIGN_OR_RETURN(bool more, stream->Next(&chunk));
    if (!more) return Status::OK();
    RETURN_IF_ERROR(output->Append(chunk));
  }
}

}  // namespace nexsort
