// nexbench: one measurement of the repository benchmark. Each process sets
// up a fresh file-backed SortEnv holding one ~100 MB generated document and
// does one of two things:
//
//   --mode sort    sort it once, verify the output (sortedness, element
//                  count, digest), check that the sort released its budget,
//                  runs and cache frames, and print one JSON record of the
//                  sort's metrics;
//   --mode probes  run the layer probes (parse-only, scan-only, a direct
//                  ExternalMergeSorter on wide, timed raw device calls) and
//                  print their record.
//
//   nexbench --workload bushy|wide|keypath --seed N --work-dir DIR
//            [--mode sort|probes] [--trace 0|1] [--prefetch-depth N]
//            [--trace-out FILE]
//
// --trace 1 adds per-call timers around SortedStream::Next and records
// spans, appended to --trace-out at exit. run.py in this directory runs
// the processes, takes medians and prints the benchmark result; README.md
// lists the workloads and metrics. The working file is removed on exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/buffer_pool.h"
#include "core/element_unit.h"
#include "core/keypath_xml_sort.h"
#include "core/nexsort.h"
#include "core/order_spec.h"
#include "core/sorted_check.h"
#include "core/unit_scanner.h"
#include "env/sort_env.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "obs/json_writer.h"
#include "parallel/parallel.h"
#include "sort/external_merge_sort.h"
#include "sort/sorted_stream.h"
#include "util/status.h"
#include "xml/dictionary.h"
#include "xml/generator.h"
#include "xml/sax_parser.h"

namespace nexsort {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr size_t kBlockSize = 64 * 1024;  // the paper's block size

enum class Algorithm { kNexSort, kKeyPath };

/// One benchmark workload: the document shape and the sort environment.
struct Workload {
  const char* name;
  std::vector<uint64_t> fanouts;  // ShapeGenerator fan-out per level
  Algorithm algorithm;
  uint64_t memory_blocks;  // M
  uint32_t threads;
  uint64_t cache_frames;
  uint32_t prefetch_depth;
};

// bushy and keypath sort the same document, so their outputs must match.
const Workload kWorkloads[] = {
    {"bushy", {137, 85, 60}, Algorithm::kNexSort, 128, 0, 0, 0},
    {"wide", {700000}, Algorithm::kNexSort, 32, 0, 0, 0},
    {"keypath", {137, 85, 60}, Algorithm::kKeyPath, 64, 2, 16, 4},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

OrderSpec SortOrder() { return OrderSpec::ByAttribute("id", /*numeric=*/true); }

GeneratorOptions GeneratorFor(uint64_t seed) {
  GeneratorOptions options;
  options.seed = seed * 0x9E3779B97F4A7C15ull + 0x5EEDull;
  options.element_bytes = 150;
  return options;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into the library.

/// Call count and summed duration of one public function, timed per call.
struct CallTimes {
  uint64_t calls = 0;
  double seconds = 0;
};

/// Runs `fn` and, when `times` is non-null, adds its duration to `times`.
template <typename Fn>
auto TimeCall(CallTimes* times, Fn&& fn) {
  if (times == nullptr) return fn();
  Clock::time_point start = Clock::now();
  auto result = fn();
  times->seconds += Since(start);
  ++times->calls;
  return result;
}

/// In-memory span log. Spans nest by a stack: a span's parent is the span
/// open when it began. Per-call aggregates attach to the open span.
class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}

  /// RAII span; a null trace makes it a no-op.
  class Span {
   public:
    Span(Trace* trace, std::string name) : trace_(trace) {
      if (trace_ != nullptr) id_ = trace_->Begin(std::move(name));
    }
    ~Span() { Close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void Close() {
      if (trace_ != nullptr && !closed_) trace_->End(id_);
      closed_ = true;
    }

   private:
    Trace* trace_;
    size_t id_ = 0;
    bool closed_ = false;
  };

  /// Attach per-call totals of `name` to the innermost open span.
  void AddCalls(std::string name, const CallTimes& times) {
    int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    calls_.push_back({std::move(name), parent, times});
  }

  /// Append one JSON object per line: spans first, then per-call
  /// aggregates. Span ids and parents are local to the process `pid`;
  /// times are seconds since the Trace was made.
  bool AppendJsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "a");
    if (out == nullptr) return false;
    const int pid = static_cast<int>(getpid());
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(out,
                   "{\"pid\":%d,\"span\":%zu,\"name\":\"%s\",\"parent\":%d,"
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   pid, i, r.name.c_str(), r.parent, r.start, r.end);
    }
    for (const CallRecord& c : calls_) {
      std::fprintf(out,
                   "{\"pid\":%d,\"calls_of\":\"%s\",\"parent\":%d,"
                   "\"calls\":%" PRIu64 ",\"busy_s\":%.9f}\n",
                   pid, c.name.c_str(), c.parent, c.times.calls,
                   c.times.seconds);
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Record {
    std::string name;
    int parent;
    double start;
    double end;
  };
  struct CallRecord {
    std::string name;
    int parent;
    CallTimes times;
  };

  size_t Begin(std::string name) {
    int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    records_.push_back({std::move(name), parent, Since(epoch_), 0});
    open_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }
  void End(size_t id) {
    records_[id].end = Since(epoch_);
    open_.erase(std::find(open_.begin(), open_.end(), id));
  }

  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<size_t> open_;
  std::vector<CallRecord> calls_;
};

// ---------------------------------------------------------------------------
// Helpers.

/// Removes the working file on every exit path.
class WorkFile {
 public:
  explicit WorkFile(std::string path) : path_(std::move(path)) {}
  ~WorkFile() { std::remove(path_.c_str()); }
  WorkFile(const WorkFile&) = delete;
  WorkFile& operator=(const WorkFile&) = delete;

 private:
  std::string path_;
};

/// ByteSource forwarding to another while taking an FNV-1a digest of every
/// byte that passes, so verification reads the output once.
class DigestSource final : public ByteSource {
 public:
  explicit DigestSource(ByteSource* inner) : inner_(inner) {}

  Status Read(char* buf, size_t n, size_t* out) override {
    RETURN_IF_ERROR(inner_->Read(buf, n, out));
    for (size_t i = 0; i < *out; ++i) {
      digest_ = (digest_ ^ static_cast<unsigned char>(buf[i])) *
                0x100000001B3ull;
    }
    bytes_ += *out;
    return Status::OK();
  }

  uint64_t digest() const { return digest_; }
  uint64_t bytes() const { return bytes_; }

 private:
  ByteSource* inner_;
  uint64_t digest_ = 0xCBF29CE484222325ull;
  uint64_t bytes_ = 0;
};

uint64_t CategoryIos(const IoStats& io, IoCategory category) {
  int i = static_cast<int>(category);
  return io.category_reads[i].load() + io.category_writes[i].load();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// A workload instance: a fresh file-backed SortEnv holding the generated
// input document.

struct Setup {
  std::unique_ptr<WorkFile> file;
  std::unique_ptr<SortEnv> env;
  ByteRange input;
  GeneratorStats generated;
  double env_create_s = 0;
  double setup_s = 0;  // env creation + input generation
};

Status MakeSetup(const Workload& w, uint64_t seed, const std::string& path,
                 Setup* setup) {
  setup->file = std::make_unique<WorkFile>(path);
  Clock::time_point start = Clock::now();
  SortEnvBuilder builder;
  builder.BlockSize(kBlockSize).MemoryBlocks(w.memory_blocks).File(path);
  if (w.cache_frames > 0) builder.Cache(w.cache_frames);
  if (w.threads > 0) builder.Threads(w.threads);
  if (w.prefetch_depth > 0) builder.PrefetchDepth(w.prefetch_depth);
  ASSIGN_OR_RETURN(setup->env, builder.Build());
  setup->env_create_s = Since(start);

  SortEnv* env = setup->env.get();
  ShapeGenerator generator(w.fanouts, GeneratorFor(seed));
  {
    BlockStreamWriter writer(env->device(), env->budget(), IoCategory::kOther);
    RETURN_IF_ERROR(writer.init_status());
    RETURN_IF_ERROR(generator.Generate(&writer));
    RETURN_IF_ERROR(writer.Finish(&setup->input));
  }
  RETURN_IF_ERROR(env->Flush());
  setup->generated = generator.stats();
  setup->setup_s = Since(start);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One measured sort.

/// Everything one sort reports. Times in seconds; I/O from the physical
/// device (real block transfers, below the cache).
struct SortResult {
  double setup_s = 0;
  double env_create_s = 0;
  double stream_s = 0;  // SortStream call: everything before output begins
  double ttfb_s = 0;    // SortStream call -> first sorted chunk
  double drain_s = 0;   // SortedStream::Next drain through the last flush
  double total_s = 0;   // SortStream call -> last output byte flushed
  uint64_t input_bytes = 0;
  uint64_t input_blocks = 0;
  IoStats io;
  uint64_t allocated_blocks = 0;
  uint64_t budget_peak_blocks = 0;
  uint64_t live_runs = 0;  // in the job's run store once the drain ended
  double peak_rss_mb = 0;  // process high-water mark through the sort
  uint64_t digest = 0;
  uint64_t elements = 0;
  NexSortStats nexsort;
  KeyPathSortStats keypath;
  CacheStats cache;
  ParallelStats parallel;
  SessionStats session;
};

/// Pulls the sorted stream into `sink`, timing each Next when traced.
Status Drain(SortedStream* stream, ByteSink* sink, Clock::time_point start,
             CallTimes* next_times, SortResult* result) {
  std::string_view chunk;
  bool first = true;
  while (true) {
    StatusOr<bool> more = TimeCall(next_times, [&] { return stream->Next(&chunk); });
    if (!more.ok()) return more.status();
    if (!*more) break;
    if (first) {
      result->ttfb_s = Since(start);
      first = false;
    }
    RETURN_IF_ERROR(sink->Append(chunk));
  }
  return Status::OK();
}

/// Sort the setup's input with `Sorter`, in a caller-made session, then
/// check that the sort left nothing behind.
template <typename Sorter, typename Options>
Status RunSorter(Setup* setup, Options options, Trace* trace,
                 ByteRange* output, SortResult* result) {
  SortEnv* env = setup->env.get();
  MemoryBudget* budget = env->budget();
  SortEnv::Session session = env->NewSession();
  RunStore* store = session.run_store();
  const uint64_t used_before = budget->used_blocks();
  {
    BlockStreamReader reader(env->device(), budget, setup->input,
                             IoCategory::kInput);
    BlockStreamWriter writer(env->device(), budget, IoCategory::kOutput);
    RETURN_IF_ERROR(reader.init_status());
    RETURN_IF_ERROR(writer.init_status());
    Sorter sorter(std::move(session), std::move(options));

    Trace::Span sort_span(trace, "SortStream+drain");
    Clock::time_point start = Clock::now();
    std::unique_ptr<SortedStream> stream;
    {
      Trace::Span span(trace, "SortStream");
      ASSIGN_OR_RETURN(stream, sorter.SortStream(&reader));
    }
    result->stream_s = Since(start);
    CallTimes next_times;
    {
      Trace::Span span(trace, "drain");
      RETURN_IF_ERROR(Drain(stream.get(), &writer, start,
                            trace != nullptr ? &next_times : nullptr, result));
      RETURN_IF_ERROR(writer.Finish(output));
      RETURN_IF_ERROR(env->Flush());
      if (trace != nullptr) trace->AddCalls("SortedStream::Next", next_times);
    }
    result->total_s = Since(start);
    result->drain_s = result->total_s - result->stream_s;
    sort_span.Close();

    result->cache = sorter.cache_stats();
    result->parallel = sorter.parallel_stats();
    // No scratch run may survive the sort. NexSorter's output is a tree of
    // sorted runs (one per complete-subtree sort) that stays in the job's
    // run store until the session closes; every other run must be freed.
    uint64_t tree_runs = 0;
    if constexpr (std::is_same_v<Sorter, NexSorter>) {
      result->nexsort = sorter.stats();
      tree_runs = result->nexsort.subtree_sorts + result->nexsort.fragment_runs;
    } else {
      result->keypath = sorter.stats();
    }
    result->live_runs = store->live_runs();
    if (result->live_runs != tree_runs) {
      return Status::Corruption(
          "live runs after the sort: " + std::to_string(result->live_runs) +
          ", run tree " + std::to_string(tree_runs));
    }
  }
  // The sorter, its session, the reader and the writer are gone: every
  // budget block they took must be back.
  if (budget->used_blocks() != used_before) {
    return Status::Corruption("budget not restored: " +
                              std::to_string(budget->used_blocks()) + " vs " +
                              std::to_string(used_before));
  }
  if (budget->release_underflows() != 0) {
    return Status::Corruption("budget release underflow");
  }
  if (BufferPool* pool = env->buffer_pool(); pool != nullptr) {
    if (pool->pinned_frames() != 0 || pool->dirty_frames() != 0) {
      return Status::Corruption("pinned or dirty cache frames after the sort");
    }
  }
  std::vector<SessionStats> sessions = env->session_stats();
  if (!sessions.empty()) result->session = sessions.back();
  return Status::OK();
}

/// Read the output back: sortedness, element count, digest.
Status Verify(Setup* setup, ByteRange output, SortResult* result) {
  SortEnv* env = setup->env.get();
  BlockStreamReader reader(env->device(), env->budget(), output,
                           IoCategory::kOther);
  RETURN_IF_ERROR(reader.init_status());
  DigestSource digest(&reader);
  ASSIGN_OR_RETURN(SortednessReport report, CheckSorted(&digest, SortOrder()));
  if (!report.sorted) {
    return Status::Corruption("output not sorted: " + report.violation);
  }
  if (digest.bytes() != output.byte_size) {
    return Status::Corruption("verification did not read the whole output");
  }
  if (report.elements != setup->generated.elements) {
    return Status::Corruption(
        "element count " + std::to_string(report.elements) + " != generated " +
        std::to_string(setup->generated.elements));
  }
  result->digest = digest.digest();
  result->elements = report.elements;
  return Status::OK();
}

/// Set up a fresh env, sort once with the workload's sorter, verify, and
/// tear everything down (the working file included).
Status SortOnce(const Workload& w, uint64_t seed, const std::string& path,
                Trace* trace, SortResult* result) {
  Setup setup;
  {
    Trace::Span span(trace, "setup");
    RETURN_IF_ERROR(MakeSetup(w, seed, path, &setup));
  }
  result->setup_s = setup.setup_s;
  result->env_create_s = setup.env_create_s;
  result->input_bytes = setup.input.byte_size;
  result->input_blocks = (setup.input.byte_size + kBlockSize - 1) / kBlockSize;

  BlockDevice* physical = setup.env->physical_device();
  physical->mutable_stats()->Clear();
  const uint64_t blocks_before = physical->num_blocks();
  ByteRange output;
  if (w.algorithm == Algorithm::kNexSort) {
    NexSortOptions options;
    options.order = SortOrder();
    RETURN_IF_ERROR(RunSorter<NexSorter>(&setup, options, trace, &output, result));
  } else {
    KeyPathSortOptions options;
    options.order = SortOrder();
    RETURN_IF_ERROR(
        RunSorter<KeyPathXmlSorter>(&setup, options, trace, &output, result));
  }
  result->io = physical->stats();
  result->allocated_blocks = physical->num_blocks() - blocks_before;
  result->budget_peak_blocks = setup.env->budget()->peak_blocks();
  result->peak_rss_mb = PeakRssMb();
  // A workload without cache or threads must bypass both mechanisms.
  const CacheStats& c = result->cache;
  if (w.cache_frames == 0 &&
      c.hits + c.misses + c.evictions + c.writebacks + c.prefetches != 0) {
    return Status::Corruption("cache counters moved without a cache");
  }
  const ParallelStats& p = result->parallel;
  if (w.threads == 0 &&
      p.async_spills + p.parallel_sorts + p.prefetch_issued != 0) {
    return Status::Corruption("parallel counters moved in a serial env");
  }

  Trace::Span span(trace, "verify");
  return Verify(&setup, output, result);
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only). Each runs on one shared setup.

struct ProbeResults {
  double parse_s = 0;
  uint64_t events = 0;
  double scan_s = 0;
  CallTimes add, next;
  double finish_s = 0;
  double block_read_us = 0;
  double block_write_us = 0;
};

/// Parse-only pass: SaxParser::Next over the input, nothing else.
Status ProbeParse(Setup* setup, Trace* trace, ProbeResults* probes) {
  SortEnv* env = setup->env.get();
  BlockStreamReader reader(env->device(), env->budget(), setup->input,
                           IoCategory::kInput);
  RETURN_IF_ERROR(reader.init_status());
  SaxParser parser(&reader);
  XmlEvent event;
  Trace::Span span(trace, "xml.parse-only");
  Clock::time_point start = Clock::now();
  while (true) {
    ASSIGN_OR_RETURN(bool more, parser.Next(&event));
    if (!more) break;
    ++probes->events;
  }
  probes->parse_s = Since(start);
  trace->AddCalls("SaxParser::Next", {probes->events, probes->parse_s});
  return Status::OK();
}

/// Scan-only pass: UnitScanner::Next (parse + unit construction + keys).
Status ProbeScan(Setup* setup, Trace* trace, ProbeResults* probes) {
  SortEnv* env = setup->env.get();
  BlockStreamReader reader(env->device(), env->budget(), setup->input,
                           IoCategory::kInput);
  RETURN_IF_ERROR(reader.init_status());
  OrderSpec order = SortOrder();
  UnitScanner scanner(&reader, &order);
  ScanEvent event;
  uint64_t calls = 0;
  Trace::Span span(trace, "core.scan-only");
  Clock::time_point start = Clock::now();
  while (true) {
    ASSIGN_OR_RETURN(bool more, scanner.Next(&event));
    if (!more) break;
    ++calls;
  }
  probes->scan_s = Since(start);
  trace->AddCalls("UnitScanner::Next", {calls, probes->scan_s});
  return Status::OK();
}

/// ExternalMergeSorter driven directly with the document's child records
/// (key = numeric id key + sequence, value = the child's encoded units),
/// Add/Finish/Next timed per call. Checks the drained order and count.
Status ProbeExternalSort(Setup* setup, Trace* trace, ProbeResults* probes) {
  SortEnv* env = setup->env.get();
  MemoryBudget* budget = env->budget();
  SortEnv::Session session = env->NewSession();
  const uint64_t used_before = budget->used_blocks();
  uint64_t records = 0;
  {
    BlockStreamReader reader(env->device(), budget, setup->input,
                             IoCategory::kInput);
    RETURN_IF_ERROR(reader.init_status());
    ExtSortOptions options;
    options.memory_blocks = budget->available_blocks() - 1;
    options.parallel = session.parallel();
    options.buffer_pool = session.buffer_pool();
    ExternalMergeSorter sorter(session.run_store(), options);
    RETURN_IF_ERROR(sorter.init_status());

    OrderSpec order = SortOrder();
    UnitScanner scanner(&reader, &order);
    UnitFormat format;
    NameDictionary dictionary;
    ScanEvent event;
    std::string key, value;
    auto flush = [&]() -> Status {
      if (key.empty()) return Status::OK();
      ++records;
      Status st = TimeCall(&probes->add, [&] { return sorter.Add(key, value); });
      key.clear();
      value.clear();
      return st;
    };

    Trace::Span span(trace, "sort.direct-external-sort");
    {
      Trace::Span feed(trace, "scan+Add");
      while (true) {
        ASSIGN_OR_RETURN(bool more, scanner.Next(&event));
        if (!more) break;
        const ElementUnit& unit = event.unit;
        if (event.kind == ScanEvent::Kind::kStart && unit.level == 2) {
          RETURN_IF_ERROR(flush());
          key = unit.key;
          for (int shift = 56; shift >= 0; shift -= 8) {
            key.push_back(static_cast<char>(unit.seq >> shift));
          }
          AppendUnit(&value, unit, format, &dictionary);
        } else if (event.kind != ScanEvent::Kind::kEnd && unit.level > 2) {
          AppendUnit(&value, unit, format, &dictionary);
        }
      }
      RETURN_IF_ERROR(flush());
      trace->AddCalls("ExternalMergeSorter::Add", probes->add);
    }
    {
      Trace::Span finish(trace, "ExternalMergeSorter::Finish");
      Clock::time_point start = Clock::now();
      RETURN_IF_ERROR(sorter.Finish());
      probes->finish_s = Since(start);
    }
    {
      Trace::Span drain(trace, "drain");
      std::string prev, got_key, got_value;
      uint64_t drained = 0;
      while (true) {
        StatusOr<bool> more = TimeCall(
            &probes->next, [&] { return sorter.Next(&got_key, &got_value); });
        if (!more.ok()) return more.status();
        if (!*more) break;
        if (drained > 0 && got_key < prev) {
          return Status::Corruption("direct external sort out of order");
        }
        prev.swap(got_key);
        ++drained;
      }
      trace->AddCalls("ExternalMergeSorter::Next", probes->next);
      if (drained != records) {
        return Status::Corruption("direct external sort lost records");
      }
    }
  }
  if (session.run_store()->live_runs() != 0) {
    return Status::Corruption("direct external sort left live runs");
  }
  if (budget->used_blocks() != used_before) {
    return Status::Corruption("direct external sort did not restore budget");
  }
  return Status::OK();
}

/// Timed sequential BlockDevice::Write then Read of fresh blocks on the
/// workload's file (the physical device, below any cache).
Status ProbeDevice(Setup* setup, Trace* trace, ProbeResults* probes) {
  constexpr uint64_t kProbeBlocks = 256;  // 16 MiB
  SortEnv* env = setup->env.get();
  uint64_t first = 0;
  RETURN_IF_ERROR(env->device()->Allocate(kProbeBlocks, &first));
  BlockDevice* physical = env->physical_device();
  std::string block(kBlockSize, '\0');
  CallTimes writes, reads;
  Trace::Span span(trace, "extmem.device");
  for (uint64_t i = 0; i < kProbeBlocks; ++i) {
    std::memcpy(block.data(), &i, sizeof(i));
    RETURN_IF_ERROR(TimeCall(&writes, [&] {
      return physical->Write(first + i, block.data(), IoCategory::kOther);
    }));
  }
  for (uint64_t i = 0; i < kProbeBlocks; ++i) {
    RETURN_IF_ERROR(TimeCall(&reads, [&] {
      return physical->Read(first + i, block.data(), IoCategory::kOther);
    }));
    uint64_t tag = 0;
    std::memcpy(&tag, block.data(), sizeof(tag));
    if (tag != i) return Status::Corruption("device probe read back wrong block");
  }
  trace->AddCalls("BlockDevice::Write", writes);
  trace->AddCalls("BlockDevice::Read", reads);
  probes->block_write_us = writes.seconds / writes.calls * 1e6;
  probes->block_read_us = reads.seconds / reads.calls * 1e6;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Records: one flat JSON object per process, keyed by metric name
// (README.md). run.py takes medians across processes.

void WriteSortRecord(const Workload& w, const SortResult& r, JsonWriter* out) {
  const bool nex = w.algorithm == Algorithm::kNexSort;
  const NexSortStats& ns = r.nexsort;
  const KeyPathSortStats& ks = r.keypath;
  const IoStats& io = r.io;
  const MergePlanStats& plan = nex ? ns.sorts.merge_plan : ks.sort.plan;
  const double reads = static_cast<double>(io.reads.load());
  auto number = [&](const char* key, double value) {
    out->Key(key);
    out->Double(value);
  };
  auto count = [&](const char* key, uint64_t value) {
    out->Key(key);
    out->Uint(value);
  };
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, r.digest);
  out->Key("digest");
  out->String(digest);
  count("elements", r.elements);

  number("throughput_mb_s", r.input_bytes / 1e6 / r.total_s);
  number("ttfb_s", r.ttfb_s);
  count("block_ios", io.total());
  number("modeled_disk_s", io.modeled_seconds.load());
  number("disk_amplification", static_cast<double>(r.allocated_blocks) /
                                   static_cast<double>(r.input_blocks));
  count("budget_peak_blocks", r.budget_peak_blocks);
  number("peak_rss_mb", r.peak_rss_mb);
  number("setup_s", r.setup_s);

  number("env.create_s", r.env_create_s);
  number("core.sorting_phase_s", nex ? r.stream_s : 0);
  number("core.output_phase_s", nex ? r.drain_s : 0);
  count("core.subtree_sorts", ns.subtree_sorts);
  count("core.external_sorts", ns.sorts.external_sorts);
  count("core.pointer_units", ns.pointer_units);
  count("core.data_stack_peak_bytes", ns.data_stack_peak);
  count("core.run_tree_runs", r.live_runs);
  number("sort.stream_s", nex ? 0 : r.stream_s);
  number("sort.final_merge_s", nex ? 0 : r.drain_s);
  count("sort.initial_runs",
        nex ? ns.sorts.run_formation.runs_formed : ks.sort.initial_runs);
  count("sort.merge_passes", nex ? ns.sorts.merge_passes : ks.sort.merge_passes);
  count("sort.merge_steps", plan.steps);
  count("sort.merged_bytes", plan.actual_bytes);
  number("sort.plan_accuracy",
         plan.predicted_bytes == 0 ? 0
                                   : static_cast<double>(plan.actual_bytes) /
                                         static_cast<double>(plan.predicted_bytes));
  count("sort.key_path_bytes", ks.key_path_bytes);
  count("sort.spilled_bytes", r.session.spilled_bytes);
  count("extmem.run_ios", CategoryIos(io, IoCategory::kRunRead) +
                              CategoryIos(io, IoCategory::kRunWrite) +
                              CategoryIos(io, IoCategory::kSortTemp));
  count("extmem.stack_ios", CategoryIos(io, IoCategory::kDataStack) +
                                CategoryIos(io, IoCategory::kPathStack) +
                                CategoryIos(io, IoCategory::kOutputStack));
  number("extmem.seq_read_share",
         reads == 0 ? 0 : static_cast<double>(io.sequential_reads.load()) / reads);
  number("cache.hit_rate", r.cache.hit_rate());
  count("cache.misses", r.cache.misses);
  count("cache.evictions", r.cache.evictions);
  count("cache.prefetches", r.cache.prefetches);
  count("parallel.async_spills", r.parallel.async_spills);
  number("parallel.spill_wait_s", r.parallel.spill_wait_seconds);
  number("parallel.spill_busy_s", r.parallel.spill_busy_seconds);
  count("parallel.prefetch_issued", r.parallel.prefetch_issued);
}

void WriteProbeRecord(const ProbeResults& p, JsonWriter* out) {
  auto number = [&](const char* key, double value) {
    out->Key(key);
    out->Double(value);
  };
  number("xml.parse_s", p.parse_s);
  out->Key("xml.events");
  out->Uint(p.events);
  number("core.scan_s", p.scan_s);
  number("sort.add_s", p.add.seconds);
  number("sort.finish_s", p.finish_s);
  number("sort.next_s", p.next.seconds);
  number("extmem.block_read_us", p.block_read_us);
  number("extmem.block_write_us", p.block_write_us);
}

/// The layer probes, on one fresh setup of the workload.
Status RunProbes(const Workload& w, uint64_t seed, const std::string& path,
                 Trace* trace, ProbeResults* probes) {
  Trace::Span span(trace, "probes");
  Setup setup;
  RETURN_IF_ERROR(MakeSetup(w, seed, path, &setup));
  RETURN_IF_ERROR(ProbeParse(&setup, trace, probes));
  RETURN_IF_ERROR(ProbeScan(&setup, trace, probes));
  // wide's flat document is exactly a list of (key, child) records.
  if (std::string_view(w.name) == "wide") {
    RETURN_IF_ERROR(ProbeExternalSort(&setup, trace, probes));
  }
  return ProbeDevice(&setup, trace, probes);
}

struct Args {
  Workload workload;
  bool probes = false;
  uint64_t seed = 1;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  const Workload* workload = nullptr;
  int prefetch_depth = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      workload = FindWorkload(value);
    } else if (flag == "--mode") {
      if (value != "sort" && value != "probes") return false;
      args->probes = value == "probes";
    } else if (flag == "--seed") {
      args->seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--prefetch-depth") {
      prefetch_depth = std::atoi(argv[i + 1]);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || workload == nullptr || args->work_dir.empty()) {
    return false;
  }
  args->workload = *workload;
  if (prefetch_depth >= 0) args->workload.prefetch_depth = prefetch_depth;
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nexbench --workload bushy|wide|keypath --seed N "
                 "--work-dir DIR [--mode sort|probes] [--trace 0|1] "
                 "[--prefetch-depth N] [--trace-out FILE]\n");
    return 2;
  }
  const Workload& w = args.workload;
  const std::string path = args.work_dir + "/" + w.name + ".work";
  Trace trace;
  Trace* tracer = args.trace ? &trace : nullptr;
  JsonWriter record;
  record.BeginObject();
  Status st;
  if (args.probes) {
    ProbeResults probes;
    st = RunProbes(w, args.seed, path, &trace, &probes);
    if (st.ok()) WriteProbeRecord(probes, &record);
  } else {
    SortResult result;
    st = SortOnce(w, args.seed, path, tracer, &result);
    if (st.ok()) WriteSortRecord(w, result, &record);
  }
  record.EndObject();
  if (!args.trace_out.empty() && (args.trace || args.probes) &&
      !trace.AppendJsonl(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s %s failed: %s\n", w.name,
                 args.probes ? "probes" : "sort", st.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", record.text().c_str());
  return 0;
}

}  // namespace
}  // namespace nexsort

int main(int argc, char** argv) { return nexsort::Main(argc, argv); }
