// Subtree sorting: line 11 of the paper's Figure 4 ("Sort this subtree and
// write the result in a sorted run"). Depending on the subtree's size this
// uses either an internal-memory recursive sort or, exactly as the paper
// prescribes, "an external-memory algorithm, e.g. ... key-path external
// merge sort". Also implements the merging of incomplete sorted runs that
// powers the graceful-degeneration-into-merge-sort optimization of
// Section 3.2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/element_unit.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "sort/merge_plan.h"
#include "sort/run_formation.h"
#include "util/status.h"

namespace nexsort {

struct SubtreeSortContext {
  RunStore* store = nullptr;
  NameDictionary* dictionary = nullptr;
  UnitFormat format;

  /// Sort children of elements at levels [1, depth_limit]; 0 = every level
  /// (head-to-toe). Levels are absolute document levels, root = 1.
  int depth_limit = 0;

  /// XSort-style scoped sorting (cf. the paper's related work): when
  /// non-null and non-empty, only children of elements whose tag is listed
  /// here are reordered; every other sibling list keeps document order.
  const std::vector<std::string>* scope_tags = nullptr;

  /// Blocks of internal memory one subtree sort may use.
  uint64_t memory_blocks = 8;

  /// Optional telemetry sink (not owned; may be null), forwarded to the
  /// external merge sorts run for oversized subtrees.
  class Tracer* tracer = nullptr;

  /// Shared parallel state (not owned; may be null = serial), forwarded to
  /// the external merge sorts so every subtree sort shares one worker pool
  /// and one set of parallel counters. See src/parallel/.
  class ParallelContext* parallel = nullptr;

  /// The block cache's pool (not owned; may be null), forwarded so merge
  /// passes can prefetch their input runs.
  class BufferPool* buffer_pool = nullptr;

  /// Cooperative cancellation (not owned; may be null), forwarded to the
  /// external merge sorts so an oversized-subtree sort stops at the next
  /// spill or merged record. See util/cancellation.h.
  const class CancellationToken* cancel = nullptr;

  /// Run-formation policy (docs/RUN_FORMATION.md), forwarded to the
  /// external merge sorts run for oversized subtrees.
  RunFormationPolicy run_formation = RunFormationPolicy::kQuicksortChunks;

  /// Merge-scheduling policy (docs/MERGE_PLANNING.md), forwarded to the
  /// external merge sorts run for oversized subtrees.
  MergePolicy merge_policy = MergePolicy::kPlanned;

  /// Place output runs — the sorted-subtree runs the output DFS re-reads —
  /// in ascending contiguous extents (PlacementHint::kSequentialOutput).
  bool dfs_placement = true;
};

/// Statistics accumulated across the subtree sorts of one NEXSORT run.
struct SubtreeSortStats {
  uint64_t internal_sorts = 0;
  uint64_t external_sorts = 0;
  uint64_t fragment_merges = 0;      // incomplete-run merge steps
  uint64_t fragment_premerge_passes = 0;
  uint64_t largest_subtree_bytes = 0;
  /// Run-length accounting aggregated over the external merge sorts (the
  /// "sort" block of nexsort-stats-v1; see docs/OBSERVABILITY.md).
  RunFormationStats run_formation;
  uint64_t merge_passes = 0;  // merge passes across those external sorts
  /// Merge-schedule accounting aggregated over those external sorts (the
  /// "merge_plan" block of nexsort-stats-v1).
  MergePlanStats merge_plan;
};

/// Sort a complete subtree whose serialized units are in memory. `units`
/// must start with the root's kStart unit; it may contain kPointer units
/// (already-collapsed descendants), kFragment units (incomplete sorted runs
/// that must be direct children of the root), and kEnd units (dropped after
/// harvesting complex-criteria keys). Writes the fully sorted subtree as a
/// new run; *root_out receives the parsed root start unit.
[[nodiscard]] StatusOr<RunHandle> SortSubtreeInMemory(const SubtreeSortContext& ctx,
                                        std::string_view units,
                                        ElementUnit* root_out,
                                        SubtreeSortStats* stats);

/// Same contract for a subtree too large for memory: units live in run
/// `input` (consumed and freed). Uses key-path external merge sort.
/// Complex ordering criteria and kFragment units are not supported on this
/// path (see DESIGN.md).
[[nodiscard]] StatusOr<RunHandle> SortSubtreeExternal(const SubtreeSortContext& ctx,
                                        RunHandle input,
                                        ElementUnit* root_out,
                                        SubtreeSortStats* stats);

/// Streaming external subtree sort: serialized units are pushed through
/// sink() — typically directly from ExtByteStack::PopRegionTo, so the
/// oversized region never makes an extra round trip through a temp run —
/// and Finish() completes the key-path external merge sort into a new run.
class ExternalSubtreeSorter {
 public:
  ExternalSubtreeSorter(const SubtreeSortContext& ctx,
                        SubtreeSortStats* stats);
  ~ExternalSubtreeSorter();

  const Status& init_status() const;

  /// Sink accepting the subtree's serialized unit bytes in document order.
  ByteSink* sink() { return &sink_; }

  /// Run the merge passes and write the sorted run. *root_out receives the
  /// parsed root start unit.
  [[nodiscard]] StatusOr<RunHandle> Finish(ElementUnit* root_out);

 private:
  class UnitSink final : public ByteSink {
   public:
    explicit UnitSink(ExternalSubtreeSorter* owner) : owner_(owner) {}
    [[nodiscard]] Status Append(std::string_view data) override;

   private:
    ExternalSubtreeSorter* owner_;
  };

  [[nodiscard]] Status FeedUnit(const UnitView& unit);

  const SubtreeSortContext& ctx_;
  SubtreeSortStats* stats_;
  std::unique_ptr<class ExternalMergeSorter> sorter_;
  UnitSink sink_;
  Status status_;

  std::string pending_;               // partial unit bytes across Appends
  std::vector<size_t> path_ends_;     // key-path prefix length per ancestor
  std::vector<bool> sorts_children_;  // per open ancestor: list reordered
  std::string path_;
  uint32_t root_level_ = 0;
  bool have_root_ = false;
  ElementUnit root_;
  uint64_t bytes_fed_ = 0;
};

/// Sort a *forest* of complete sibling subtrees (serialized units, all
/// descendants of one open element) into an incomplete sorted run: the run
/// formation step of graceful degeneration. The forest must contain no
/// kFragment units (earlier incomplete runs stay on the data stack and are
/// merged at the element's eventual subtree sort).
[[nodiscard]] StatusOr<RunHandle> SortForestInMemory(const SubtreeSortContext& ctx,
                                       std::string_view units,
                                       SubtreeSortStats* stats);

}  // namespace nexsort
