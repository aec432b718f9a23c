#include "core/subtree_sorter.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/order_spec.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "sort/external_merge_sort.h"
#include "sort/key_path.h"

namespace nexsort {

namespace {

// ---------------------------------------------------------------------
// In-memory tree over a region's serialized units. Nodes are views into
// the region bytes: a subtree sort orders index lists and copies each
// unit's bytes verbatim, decoding nothing into owning strings.
// ---------------------------------------------------------------------

constexpr uint32_t kNoParent = UINT32_MAX;

struct ForestNode {
  std::string_view bytes;  // the serialized unit
  std::string_view key;    // own key, or the one its kEnd unit donated
  uint64_t seq = 0;
  uint32_t level = 0;
  uint32_t key_offset = 0;     // kStart: offset of lp(key) in bytes
  uint32_t parent = kNoParent;
  uint32_t first_child = 0;    // children: child_index[first_child, +count)
  uint32_t child_count = 0;
  bool donated = false;        // key came from the kEnd unit
  bool sort_children = false;  // this node's children list is reordered
};

struct ParsedForest {
  std::vector<ForestNode> nodes;      // kStart/kText/kPointer, doc order
  std::vector<uint32_t> child_index;  // every node's children, by parent
  std::vector<uint32_t> roots;        // top-level nodes, document order
  std::vector<RunHandle> fragments;   // kFragment units found at top level
  uint32_t top_level = 0;             // level of the roots

  std::span<uint32_t> children(uint32_t node) {
    return {child_index.data() + nodes[node].first_child,
            nodes[node].child_count};
  }
  std::span<const uint32_t> children(uint32_t node) const {
    return {child_index.data() + nodes[node].first_child,
            nodes[node].child_count};
  }
};

bool TagInScope(const SubtreeSortContext& ctx, std::string_view tag) {
  if (ctx.scope_tags == nullptr || ctx.scope_tags->empty()) return true;
  for (const std::string& scoped : *ctx.scope_tags) {
    if (scoped == tag) return true;
  }
  return false;
}

// Whether the children of a start element at `level` named `tag` are
// reordered: the element must be within the depth limit (children of an
// element at level L are sorted iff L <= depth_limit, or no limit) and its
// tag in the XSort-style scope.
bool SortsChildren(const SubtreeSortContext& ctx, uint32_t level,
                   std::string_view tag) {
  if (ctx.depth_limit != 0 &&
      level > static_cast<uint32_t>(ctx.depth_limit)) {
    return false;  // below the sorting depth: keep document order
  }
  return TagInScope(ctx, tag);
}

// Parse `units` into a forest. kEnd units donate their keys to the matching
// start and are dropped. kFragment units may only appear at the top level.
Status ParseForest(const SubtreeSortContext& ctx, std::string_view units,
                   ParsedForest* forest) {
  std::vector<uint32_t> stack;  // indices of open kStart nodes
  // A guess at the unit count (serialized units average well over 32
  // bytes) that spares most of the vector regrowth.
  forest->nodes.reserve(units.size() / 32);
  bool first = true;
  UnitView unit;
  while (!units.empty()) {
    RETURN_IF_ERROR(DecodeUnitView(&units, &unit, ctx.format, ctx.dictionary));
    if (first) {
      forest->top_level = unit.level;
      first = false;
    }
    if (unit.type == UnitType::kEnd) {
      while (!stack.empty() &&
             forest->nodes[stack.back()].level > unit.level) {
        stack.pop_back();
      }
      if (!stack.empty() &&
          forest->nodes[stack.back()].level == unit.level) {
        ForestNode& start = forest->nodes[stack.back()];
        if (!unit.key.empty()) {
          start.key = unit.key;
          start.donated = true;
        }
        stack.pop_back();
      }
      continue;
    }
    while (!stack.empty() && forest->nodes[stack.back()].level >= unit.level) {
      stack.pop_back();
    }
    if (unit.type == UnitType::kFragment) {
      // Fragments are children of the element they were created under: the
      // region root in a subtree sort (stack = [root]) or the enclosing open
      // element in a forest sort (stack empty).
      if (stack.size() > 1 ||
          (stack.size() == 1 && stack[0] != forest->roots.front())) {
        return Status::Corruption("fragment unit below the top level");
      }
      forest->fragments.push_back(unit.run);
      continue;
    }
    uint32_t index = static_cast<uint32_t>(forest->nodes.size());
    bool is_start = unit.type == UnitType::kStart;
    ForestNode& node = forest->nodes.emplace_back();
    node.bytes = unit.bytes;
    node.key = unit.key;
    node.seq = unit.seq;
    node.level = unit.level;
    node.key_offset = static_cast<uint32_t>(unit.key_offset);
    node.sort_children = is_start && SortsChildren(ctx, unit.level, unit.name);
    if (stack.empty()) {
      forest->roots.push_back(index);
    } else {
      node.parent = stack.back();
      ++forest->nodes[stack.back()].child_count;
    }
    if (is_start) stack.push_back(index);
  }
  // Lay the children lists out contiguously, in document order.
  uint32_t offset = 0;
  for (ForestNode& node : forest->nodes) {
    node.first_child = offset;
    offset += node.child_count;
    node.child_count = 0;
  }
  forest->child_index.resize(offset);
  for (uint32_t i = 0; i < forest->nodes.size(); ++i) {
    uint32_t parent_index = forest->nodes[i].parent;
    if (parent_index == kNoParent) continue;
    ForestNode& parent = forest->nodes[parent_index];
    forest->child_index[parent.first_child + parent.child_count++] = i;
  }
  return Status::OK();
}

// Sort sibling indices by (key, seq). Ties fall back to the index, i.e.
// document order, so the order is total and this equals a stable sort.
void SortSiblings(const ParsedForest& forest, std::span<uint32_t> list) {
  auto by_key = [&forest](uint32_t a, uint32_t b) {
    const ForestNode& na = forest.nodes[a];
    const ForestNode& nb = forest.nodes[b];
    if (int order = na.key.compare(nb.key); order != 0) return order < 0;
    if (na.seq != nb.seq) return na.seq < nb.seq;
    return a < b;
  };
  std::sort(list.begin(), list.end(), by_key);
}

// Sort every children list reachable in the forest, honouring depth_limit
// and the XSort-style tag scope. Root lists in a *forest* belong to the
// enclosing open element at top_level - 1.
void SortForestLists(const SubtreeSortContext& ctx, ParsedForest* forest,
                     bool sort_roots) {
  if (sort_roots) {
    uint32_t parent_level = forest->top_level - 1;
    if (ctx.depth_limit == 0 ||
        parent_level <= static_cast<uint32_t>(ctx.depth_limit)) {
      SortSiblings(*forest, forest->roots);
    }
  }
  for (uint32_t i = 0; i < forest->nodes.size(); ++i) {
    const ForestNode& node = forest->nodes[i];
    if (node.child_count > 1 && node.sort_children) {
      SortSiblings(*forest, forest->children(i));
    }
  }
}

// Append one node's unit: verbatim, or with its donated key spliced in.
void AppendNode(const ForestNode& node, std::string* out) {
  if (!node.donated) {
    out->append(node.bytes);
    return;
  }
  SpliceStartKey(out, node.bytes, node.key_offset, node.key);
}

// Serialize node `root_index` and its subtree depth-first into *out.
// Iterative so pathological chain documents cannot overflow the C++ stack.
void SerializeSubtree(const ParsedForest& forest, uint32_t root_index,
                      std::string* out) {
  struct Frame {
    uint32_t node = 0;
    uint32_t next_child = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root_index, 0});
  AppendNode(forest.nodes[root_index], out);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    std::span<const uint32_t> child_list = forest.children(frame.node);
    if (frame.next_child >= child_list.size()) {
      stack.pop_back();
      continue;
    }
    uint32_t child = child_list[frame.next_child++];
    AppendNode(forest.nodes[child], out);
    stack.push_back({child, 0});
  }
}

// ---------------------------------------------------------------------
// Sibling-subtree streams for merging incomplete runs.
// ---------------------------------------------------------------------

// A stream of sorted sibling subtrees at a fixed level; the merge engine for
// incomplete sorted runs ("incomplete sorted runs for the same subtree must
// be merged to produce a regular, complete sorted run", Section 3.2).
class SubtreeStream {
 public:
  virtual ~SubtreeStream() = default;
  virtual bool exhausted() const = 0;
  // Key/seq of the current subtree's root.
  virtual std::string_view key() const = 0;
  virtual uint64_t seq() const = 0;
  // Append the current subtree's units to `out` and advance.
  virtual Status CopySubtree(ByteSink* out) = 0;
};

// Stream over sorted sibling subtrees of the in-memory forest.
class MemoryForestStream final : public SubtreeStream {
 public:
  MemoryForestStream(const ParsedForest& forest,
                     std::span<const uint32_t> roots)
      : forest_(forest), roots_(roots) {}

  bool exhausted() const override { return cursor_ >= roots_.size(); }
  std::string_view key() const override {
    return forest_.nodes[roots_[cursor_]].key;
  }
  uint64_t seq() const override { return forest_.nodes[roots_[cursor_]].seq; }
  Status CopySubtree(ByteSink* out) override {
    scratch_.clear();
    SerializeSubtree(forest_, roots_[cursor_], &scratch_);
    ++cursor_;
    return out->Append(scratch_);
  }

 private:
  const ParsedForest& forest_;
  std::span<const uint32_t> roots_;
  size_t cursor_ = 0;
  std::string scratch_;
};

// Stream over an incomplete sorted run on disk; units are copied verbatim.
class FragmentStream final : public SubtreeStream {
 public:
  FragmentStream(const SubtreeSortContext& ctx, RunHandle handle)
      : reader_(ctx.store, handle, 0, ctx.format, ctx.dictionary) {}

  Status Open() {
    RETURN_IF_ERROR(reader_.init_status());
    ASSIGN_OR_RETURN(bool more, reader_.Next(&pending_));
    exhausted_ = !more;
    if (!exhausted_) top_level_ = pending_.level;
    return Status::OK();
  }

  bool exhausted() const override { return exhausted_; }
  std::string_view key() const override { return pending_.key; }
  uint64_t seq() const override { return pending_.seq; }

  Status CopySubtree(ByteSink* out) override {
    // Emit units until the next unit at the top level (the next sibling
    // root) or end of run. pending_ points into the reader's buffer, so it
    // is copied out before the reader advances.
    scratch_.assign(pending_.bytes);
    while (true) {
      ASSIGN_OR_RETURN(bool more, reader_.Next(&pending_));
      if (!more) {
        exhausted_ = true;
        break;
      }
      if (pending_.level <= top_level_) break;  // next sibling
      scratch_.append(pending_.bytes);
      if (scratch_.size() >= 64 * 1024) {
        RETURN_IF_ERROR(out->Append(scratch_));
        scratch_.clear();
      }
    }
    return out->Append(scratch_);
  }

 private:
  RunUnitReader reader_;
  UnitView pending_;
  uint32_t top_level_ = 0;
  bool exhausted_ = false;
  std::string scratch_;
};

// Merge sibling-subtree streams into `out` by (key, seq). Linear min-scan:
// the cost per *subtree* (not per unit) is O(#streams), negligible next to
// the copying itself.
Status MergeSubtreeStreams(std::vector<SubtreeStream*>& streams,
                           ByteSink* out) {
  while (true) {
    SubtreeStream* best = nullptr;
    for (SubtreeStream* stream : streams) {
      if (stream->exhausted()) continue;
      if (best == nullptr ||
          KeySeqLess(stream->key(), stream->seq(), best->key(), best->seq())) {
        best = stream;
      }
    }
    if (best == nullptr) return Status::OK();
    RETURN_IF_ERROR(best->CopySubtree(out));
  }
}

// Merge fragment runs (plus optionally the in-memory forest) into a new
// run, multi-pass when the count exceeds the merge fan-in.
Status MergeFragments(const SubtreeSortContext& ctx,
                      std::vector<RunHandle> fragments,
                      MemoryForestStream* memory_stream, RunWriter* out,
                      SubtreeSortStats* stats) {
  // Fan-in from what the ledger has left right now (the caller holds the
  // region buffer and the output writer), keeping one spare block and a
  // floor of a 2-way merge.
  uint64_t available = ctx.store->budget()->available_blocks();
  size_t fan_in =
      available > 3 ? static_cast<size_t>(available - 1) : 2;
  // Pre-merge passes until everything fits in one final merge (the memory
  // stream occupies one final-merge slot).
  while (fragments.size() + 1 > fan_in) {
    ++stats->fragment_premerge_passes;
    std::vector<RunHandle> next;
    for (size_t group = 0; group < fragments.size(); group += fan_in) {
      size_t end = std::min(fragments.size(), group + fan_in);
      if (end - group == 1) {
        next.push_back(fragments[group]);
        continue;
      }
      std::vector<std::unique_ptr<FragmentStream>> owned;
      std::vector<SubtreeStream*> streams;
      for (size_t i = group; i < end; ++i) {
        owned.push_back(std::make_unique<FragmentStream>(ctx, fragments[i]));
        RETURN_IF_ERROR(owned.back()->Open());
        streams.push_back(owned.back().get());
      }
      RunWriter writer = ctx.store->NewRun();
      RETURN_IF_ERROR(writer.init_status());
      RETURN_IF_ERROR(MergeSubtreeStreams(streams, &writer));
      RunHandle merged;
      RETURN_IF_ERROR(writer.Finish(&merged));
      ++stats->fragment_merges;
      owned.clear();
      for (size_t i = group; i < end; ++i) {
        RETURN_IF_ERROR(ctx.store->FreeRun(fragments[i]));
      }
      next.push_back(merged);
    }
    fragments = std::move(next);
  }
  std::vector<std::unique_ptr<FragmentStream>> owned;
  std::vector<SubtreeStream*> streams;
  for (RunHandle handle : fragments) {
    owned.push_back(std::make_unique<FragmentStream>(ctx, handle));
    RETURN_IF_ERROR(owned.back()->Open());
    streams.push_back(owned.back().get());
  }
  if (memory_stream != nullptr) streams.push_back(memory_stream);
  RETURN_IF_ERROR(MergeSubtreeStreams(streams, out));
  ++stats->fragment_merges;
  owned.clear();
  for (RunHandle handle : fragments) {
    RETURN_IF_ERROR(ctx.store->FreeRun(handle));
  }
  return Status::OK();
}

}  // namespace

// Charge the budget for a region held in memory during an internal sort,
// so peak-use accounting reflects what is actually resident. Best-effort:
// a region can legitimately exceed what the ledger can express by a little
// (fragment-pointer lists, threshold slack), in which case we charge
// everything that is left rather than fail a sort that will succeed.
Status ReserveRegion(const SubtreeSortContext& ctx, size_t bytes,
                     BudgetReservation* reservation) {
  size_t block_size = ctx.store->device()->block_size();
  uint64_t blocks = (bytes + block_size - 1) / block_size;
  if (blocks == 0) blocks = 1;
  uint64_t available = ctx.store->budget()->available_blocks();
  if (available == 0) return Status::OK();
  return reservation->Acquire(ctx.store->budget(),
                              std::min(blocks, available));
}

StatusOr<RunHandle> SortSubtreeInMemory(const SubtreeSortContext& ctx,
                                        std::string_view units,
                                        ElementUnit* root_out,
                                        SubtreeSortStats* stats) {
  ++stats->internal_sorts;
  stats->largest_subtree_bytes =
      std::max<uint64_t>(stats->largest_subtree_bytes, units.size());
  // Charge the budget for the region while it is parsed and sorted (the
  // memory-dominant phase); the write/merge phase that follows charges its
  // own writer and reader blocks instead.
  BudgetReservation region_reservation;
  RETURN_IF_ERROR(ReserveRegion(ctx, units.size(), &region_reservation));
  ParsedForest forest;
  RETURN_IF_ERROR(ParseForest(ctx, units, &forest));
  if (forest.roots.size() != 1) {
    return Status::Corruption("subtree region does not have a single root");
  }
  const uint32_t root = forest.roots[0];
  const ForestNode& root_node = forest.nodes[root];
  // Only the region root is decoded in full, for the caller.
  std::string_view root_bytes = root_node.bytes;
  RETURN_IF_ERROR(ParseUnit(&root_bytes, root_out, ctx.format, ctx.dictionary));
  if (root_out->type != UnitType::kStart) {
    return Status::Corruption("subtree root is not a start unit");
  }
  root_out->key.assign(root_node.key);
  SortForestLists(ctx, &forest, /*sort_roots=*/false);
  region_reservation.Reset();

  // This run is re-read by the output DFS long after later subtree sorts
  // have churned the free list: place it so that read-back is sequential.
  RunWriter writer = ctx.store->NewRun(
      IoCategory::kRunWrite, ctx.dfs_placement
                                 ? PlacementHint::kSequentialOutput
                                 : PlacementHint::kScratch);
  RETURN_IF_ERROR(writer.init_status());
  if (forest.fragments.empty()) {
    std::string buffer;
    buffer.reserve(units.size());
    SerializeSubtree(forest, root, &buffer);
    RETURN_IF_ERROR(writer.Append(buffer));
  } else {
    // Fragments are forests of the root's children: emit the root start
    // unit, then merge the in-memory children with the fragment streams.
    std::string root_unit;
    AppendNode(root_node, &root_unit);
    RETURN_IF_ERROR(writer.Append(root_unit));
    MemoryForestStream memory_stream(forest, forest.children(root));
    RETURN_IF_ERROR(MergeFragments(ctx, std::move(forest.fragments),
                                   &memory_stream, &writer, stats));
  }
  RunHandle handle;
  RETURN_IF_ERROR(writer.Finish(&handle));
  return handle;
}

StatusOr<RunHandle> SortForestInMemory(const SubtreeSortContext& ctx,
                                       std::string_view units,
                                       SubtreeSortStats* stats) {
  stats->largest_subtree_bytes =
      std::max<uint64_t>(stats->largest_subtree_bytes, units.size());
  BudgetReservation region_reservation;
  RETURN_IF_ERROR(ReserveRegion(ctx, units.size(), &region_reservation));
  ParsedForest forest;
  RETURN_IF_ERROR(ParseForest(ctx, units, &forest));
  if (!forest.fragments.empty()) {
    return Status::Corruption("nested fragments in forest sort");
  }
  SortForestLists(ctx, &forest, /*sort_roots=*/true);
  region_reservation.Reset();

  RunWriter writer = ctx.store->NewRun();
  RETURN_IF_ERROR(writer.init_status());
  std::string buffer;
  for (uint32_t root : forest.roots) {
    buffer.clear();
    SerializeSubtree(forest, root, &buffer);
    RETURN_IF_ERROR(writer.Append(buffer));
    if (buffer.size() > 256 * 1024) buffer.shrink_to_fit();
  }
  RunHandle handle;
  RETURN_IF_ERROR(writer.Finish(&handle));
  return handle;
}

ExternalSubtreeSorter::ExternalSubtreeSorter(const SubtreeSortContext& ctx,
                                             SubtreeSortStats* stats)
    : ctx_(ctx), stats_(stats), sink_(this) {
  if (ctx.memory_blocks < 4) {
    status_ = Status::InvalidArgument("external subtree sort needs >= 4 blocks");
    return;
  }
  ExtSortOptions sort_options;
  sort_options.memory_blocks = ctx.memory_blocks;
  sort_options.tracer = ctx.tracer;
  sort_options.parallel = ctx.parallel;
  sort_options.buffer_pool = ctx.buffer_pool;
  sort_options.cancel = ctx.cancel;
  sort_options.run_formation = ctx.run_formation;
  sort_options.merge_policy = ctx.merge_policy;
  sort_options.dfs_placement = ctx.dfs_placement;
  sorter_ = std::make_unique<ExternalMergeSorter>(ctx.store, sort_options);
  status_ = sorter_->init_status();
}

ExternalSubtreeSorter::~ExternalSubtreeSorter() = default;

const Status& ExternalSubtreeSorter::init_status() const { return status_; }

Status ExternalSubtreeSorter::UnitSink::Append(std::string_view data) {
  ExternalSubtreeSorter* owner = owner_;
  if (!owner->status_.ok()) return owner->status_;
  owner->pending_.append(data);
  // Decode as many complete units as the buffer holds; a decode failure
  // with a short buffer means "wait for more bytes" (our own writer
  // produced this stream, so genuine corruption only surfaces at Finish).
  std::string_view rest = owner->pending_;
  UnitView unit;
  while (!rest.empty() && DecodeUnitView(&rest, &unit, owner->ctx_.format,
                                         owner->ctx_.dictionary)
                              .ok()) {
    RETURN_IF_ERROR(owner->FeedUnit(unit));
  }
  owner->pending_.erase(0, owner->pending_.size() - rest.size());
  return Status::OK();
}

Status ExternalSubtreeSorter::FeedUnit(const UnitView& unit) {
  bytes_fed_ += unit.bytes.size();
  if (unit.type == UnitType::kEnd) return Status::OK();  // levels suffice
  if (unit.type == UnitType::kFragment) {
    return Status::NotSupported(
        "incomplete runs cannot participate in an external subtree sort");
  }
  if (!have_root_) {
    if (unit.type != UnitType::kStart) {
      return Status::Corruption("subtree root is not a start unit");
    }
    root_level_ = unit.level;
    std::string_view root_bytes = unit.bytes;
    RETURN_IF_ERROR(
        ParseUnit(&root_bytes, &root_, ctx_.format, ctx_.dictionary));
    have_root_ = true;
  }
  // Key path: the (key, seq) components of the unit's open ancestors
  // within the subtree, root first, plus its own.
  uint32_t rel = unit.level - root_level_;  // 0 for the root itself
  if (rel < path_ends_.size()) {
    path_.resize(rel == 0 ? 0 : path_ends_[rel - 1]);
    path_ends_.resize(rel);
    sorts_children_.resize(rel);
  }
  // A unit is reordered among its siblings only when its parent's list is
  // sorted at all (depth limit, XSort-style scope). Otherwise encode an
  // empty key so the sequence number alone — document order — rules.
  bool parent_sorted = rel == 0 || sorts_children_.back();
  size_t parent_end = path_.size();
  AppendKeyPathComponent(&path_, parent_sorted ? unit.key : "", unit.seq);
  RETURN_IF_ERROR(sorter_->Add(path_, unit.bytes));
  if (unit.type == UnitType::kStart) {
    path_ends_.push_back(path_.size());
    sorts_children_.push_back(SortsChildren(ctx_, unit.level, unit.name));
  } else {
    path_.resize(parent_end);
  }
  return Status::OK();
}

StatusOr<RunHandle> ExternalSubtreeSorter::Finish(ElementUnit* root_out) {
  RETURN_IF_ERROR(status_);
  if (!pending_.empty()) {
    return Status::Corruption("trailing partial unit in subtree stream");
  }
  if (!have_root_) return Status::Corruption("empty subtree stream");
  ++stats_->external_sorts;
  stats_->largest_subtree_bytes =
      std::max<uint64_t>(stats_->largest_subtree_bytes, bytes_fed_);
  *root_out = root_;
  RETURN_IF_ERROR(sorter_->Finish());

  // Like the in-memory path's output run: the DFS re-reads this later, so
  // place it sequentially when asked.
  RunWriter writer = ctx_.store->NewRun(
      IoCategory::kRunWrite, ctx_.dfs_placement
                                 ? PlacementHint::kSequentialOutput
                                 : PlacementHint::kScratch);
  RETURN_IF_ERROR(writer.init_status());
  std::string key;
  std::string value;
  while (true) {
    ASSIGN_OR_RETURN(bool more, sorter_->Next(&key, &value));
    if (!more) break;
    RETURN_IF_ERROR(writer.Append(value));
  }
  stats_->run_formation.MergeFrom(sorter_->stats().runs);
  stats_->merge_passes += sorter_->stats().merge_passes;
  stats_->merge_plan.MergeFrom(sorter_->stats().plan);
  RunHandle handle;
  RETURN_IF_ERROR(writer.Finish(&handle));
  return handle;
}

StatusOr<RunHandle> SortSubtreeExternal(const SubtreeSortContext& ctx,
                                        RunHandle input,
                                        ElementUnit* root_out,
                                        SubtreeSortStats* stats) {
  // Convenience wrapper over the streaming sorter for callers whose units
  // already live in a run (tests; NEXSORT itself streams straight off the
  // data stack).
  SubtreeSortContext reduced = ctx;
  if (reduced.memory_blocks > 4) --reduced.memory_blocks;  // input reader
  ExternalSubtreeSorter external(reduced, stats);
  RETURN_IF_ERROR(external.init_status());
  {
    RunReader reader = ctx.store->OpenRun(input, 0, IoCategory::kSortTemp);
    RETURN_IF_ERROR(reader.init_status());
    std::string buffer(4096, '\0');
    while (reader.bytes_remaining() > 0) {
      size_t got = 0;
      RETURN_IF_ERROR(reader.Read(buffer.data(), buffer.size(), &got));
      RETURN_IF_ERROR(external.sink()->Append(
          std::string_view(buffer.data(), got)));
    }
  }
  RETURN_IF_ERROR(ctx.store->FreeRun(input));
  return external.Finish(root_out);
}

}  // namespace nexsort
