// ParallelOptions/ParallelStats/ParallelContext: the configuration knob,
// the counters, and the shared worker-pool handle for the overlapped sort
// pipeline (double-buffered run formation, partitioned spill sorting;
// the BufferPool's look-ahead loads also run on the pool). Everything
// defaults *off* — `threads == 0` reproduces the serial pipeline
// exactly — and every engagement point degrades gracefully, recording why
// it declined instead of failing, so output bytes and logical I/O counts
// are identical whether or not the pipeline actually overlapped.
#pragma once

#include <cstdint>
#include <memory>

#include "parallel/worker_pool.h"
#include "util/thread_annotations.h"

namespace nexsort {

class JsonWriter;
class Tracer;

/// Concurrency knobs, carried by ExtSortOptions / NexSortOptions /
/// KeyPathSortOptions. Defaults keep the pipeline serial.
struct ParallelOptions {
  /// Background worker threads. 0 = fully serial (the default): no pool,
  /// no background spills, no parallel sort partitions.
  uint32_t threads = 0;
  /// Allow double-buffered run formation when the MemoryBudget can afford
  /// a second sort buffer. Only meaningful with threads > 0.
  bool double_buffer = true;

  /// Anything to do at all?
  bool enabled() const { return threads > 0; }
};

/// Counters describing what the parallel pipeline actually did — how many
/// spills overlapped, why double-buffering was declined, how much of the
/// wall clock the foreground spent stalled on background work. Plain
/// fields: aggregate copies are exchanged under the ParallelContext lock.
struct ParallelStats {
  uint64_t async_spills = 0;   // spills executed on a worker
  uint64_t sync_spills = 0;    // spills executed inline (serial path)
  uint64_t double_buffer_declined = 0;  // budget couldn't fund 2nd buffer
  uint64_t parallel_sorts = 0;     // buffer sorts partitioned across pool
  uint64_t sort_partitions = 0;    // total partitions across those sorts
  uint64_t prefetch_issued = 0;    // merge look-ahead loads run on workers
  double spill_wait_seconds = 0.0;  // foreground blocked on spiller
  double spill_busy_seconds = 0.0;  // background busy in spill jobs

  void MergeFrom(const ParallelStats& other);

  /// One JSON object with every counter (schema: the "parallel" block of
  /// nexsort-stats-v2; see docs/PARALLELISM.md).
  void ToJson(JsonWriter* writer) const;
};

/// Shared state for one job's parallel execution: a borrowed worker pool
/// plus thread-safe stats aggregation. The SortEnv (src/env/) owns the
/// WorkerPool and hands each job's session its own context over it, so
/// concurrent jobs share one set of threads while keeping per-job
/// counters; the context is then lent to every ExternalMergeSorter via
/// ExtSortOptions, so nested subtree sorts share the pool too.
class ParallelContext {
 public:
  /// `pool` is not owned (may be null = no background workers) and must
  /// outlive the context. Pool construction itself lives in SortEnv.
  ParallelContext(ParallelOptions options, WorkerPool* pool);

  const ParallelOptions& options() const { return options_; }

  /// Null when the context was built without workers (threads == 0).
  WorkerPool* pool() { return pool_; }

  /// Fold a sorter's local counters into the aggregate. Thread-safe.
  void AddStats(const ParallelStats& stats);

  /// Aggregate snapshot.
  ParallelStats stats() const;

  /// Export parallel_* counters and overlap-time gauges into the tracer's
  /// metrics registry. Foreground-thread only (the Tracer is
  /// single-threaded); call once after the pipeline drains.
  void PublishMetrics(Tracer* tracer) const;

 private:
  const ParallelOptions options_;
  WorkerPool* pool_;  // not owned; null = serial
  mutable Mutex mutex_{"ParallelContext::mutex_", lock_rank::kParallelStats};
  ParallelStats stats_ NEXSORT_GUARDED_BY(mutex_);
};

}  // namespace nexsort
