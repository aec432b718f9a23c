#include "parallel/parallel.h"

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace nexsort {

void ParallelStats::MergeFrom(const ParallelStats& other) {
  async_spills += other.async_spills;
  sync_spills += other.sync_spills;
  double_buffer_declined += other.double_buffer_declined;
  parallel_sorts += other.parallel_sorts;
  sort_partitions += other.sort_partitions;
  prefetch_issued += other.prefetch_issued;
  spill_wait_seconds += other.spill_wait_seconds;
  spill_busy_seconds += other.spill_busy_seconds;
}

void ParallelStats::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("async_spills");
  writer->Uint(async_spills);
  writer->Key("sync_spills");
  writer->Uint(sync_spills);
  writer->Key("double_buffer_declined");
  writer->Uint(double_buffer_declined);
  writer->Key("parallel_sorts");
  writer->Uint(parallel_sorts);
  writer->Key("sort_partitions");
  writer->Uint(sort_partitions);
  writer->Key("prefetch_issued");
  writer->Uint(prefetch_issued);
  writer->Key("spill_wait_seconds");
  writer->Double(spill_wait_seconds);
  writer->Key("spill_busy_seconds");
  writer->Double(spill_busy_seconds);
  writer->EndObject();
}

ParallelContext::ParallelContext(ParallelOptions options, WorkerPool* pool)
    : options_(options), pool_(options.threads > 0 ? pool : nullptr) {}

void ParallelContext::AddStats(const ParallelStats& stats) {
  MutexLock lock(&mutex_);
  stats_.MergeFrom(stats);
}

ParallelStats ParallelContext::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

void ParallelContext::PublishMetrics(Tracer* tracer) const {
  if (tracer == nullptr) return;
  ParallelStats snapshot = stats();
  MetricsRegistry* metrics = tracer->metrics();
  metrics->GetCounter("parallel_async_spills")->Add(snapshot.async_spills);
  metrics->GetCounter("parallel_sync_spills")->Add(snapshot.sync_spills);
  metrics->GetCounter("parallel_double_buffer_declined")
      ->Add(snapshot.double_buffer_declined);
  metrics->GetCounter("parallel_sorts")->Add(snapshot.parallel_sorts);
  metrics->GetCounter("parallel_sort_partitions")
      ->Add(snapshot.sort_partitions);
  metrics->GetCounter("parallel_prefetch_issued")
      ->Add(snapshot.prefetch_issued);
  // Overlap time as millisecond gauges (gauges are integral).
  metrics->GetGauge("parallel_spill_wait_ms")
      ->Set(static_cast<uint64_t>(snapshot.spill_wait_seconds * 1e3));
  metrics->GetGauge("parallel_spill_busy_ms")
      ->Set(static_cast<uint64_t>(snapshot.spill_busy_seconds * 1e3));
}

}  // namespace nexsort
