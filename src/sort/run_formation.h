// RunFormationPolicy + RunFormationStats: how an external sort cuts sorted
// runs, and what it can report about the runs it cut. The policy knob rides
// on CommonSortOptions (core/common_options.h) so every sorting entry point
// — ExternalMergeSorter, NexSorter, KeyPathXmlSorter — shares one switch;
// the engine behind kReplacementSelection lives in
// sort/replacement_selection.h and the contract is documented in
// docs/RUN_FORMATION.md.
#pragma once

#include <cstdint>

namespace nexsort {

/// How external sorts cut sorted runs during run formation. Output bytes
/// are identical under either policy; only run boundaries (and therefore
/// merge-pass I/O) change.
enum class RunFormationPolicy {
  /// Fill (M-1) blocks of buffer, quicksort, spill: run length == memory.
  /// The classic baseline the paper costs against.
  kQuicksortChunks,
  /// Heap-based replacement selection: a selection tournament emits the
  /// smallest eligible record and refills from input, so runs average ~2x
  /// memory on random input and a nearly-sorted input collapses to a
  /// single run — fewer runs, fewer merge passes.
  kReplacementSelection,
};

/// Short display name for stats JSON ("quicksort_chunks" /
/// "replacement_selection").
const char* RunFormationPolicyName(RunFormationPolicy policy);

/// Run-length accounting shared by both policies: how many runs formation
/// produced and how big they were, in whole blocks (ceil). Feeds the
/// "sort" block of nexsort-stats-v2 (runs_formed / avg_run_blocks /
/// max_run_blocks).
struct RunFormationStats {
  uint64_t runs_formed = 0;
  uint64_t run_blocks_sum = 0;
  uint64_t max_run_blocks = 0;

  void RecordRun(uint64_t run_bytes, uint64_t block_size) {
    uint64_t blocks =
        block_size == 0 ? 0 : (run_bytes + block_size - 1) / block_size;
    ++runs_formed;
    run_blocks_sum += blocks;
    if (blocks > max_run_blocks) max_run_blocks = blocks;
  }

  double avg_run_blocks() const {
    return runs_formed == 0
               ? 0.0
               : static_cast<double>(run_blocks_sum) /
                     static_cast<double>(runs_formed);
  }

  void MergeFrom(const RunFormationStats& other) {
    runs_formed += other.runs_formed;
    run_blocks_sum += other.run_blocks_sum;
    if (other.max_run_blocks > max_run_blocks) {
      max_run_blocks = other.max_run_blocks;
    }
  }
};

}  // namespace nexsort
