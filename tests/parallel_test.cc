// Parallel-pipeline tests: bounded-queue shutdown semantics, worker-pool
// execution, AsyncSpiller ordering and sticky-error propagation (a failing
// background spill write must surface from Finish), budget exactness under
// concurrent Acquire/Release, and determinism property tests asserting the
// overlapped pipeline (threads in {1,2,4}, with and without merge
// prefetching) produces byte-identical output — and, where the device is
// uncached, identical logical I/O — to the serial pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/keypath_xml_sort.h"
#include "core/nexsort.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "parallel/async_spiller.h"
#include "parallel/bounded_queue.h"
#include "parallel/parallel.h"
#include "parallel/worker_pool.h"
#include "sort/external_merge_sort.h"
#include "tests/test_util.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueue, DeliversInFifoOrder) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_TRUE(queue.Push(3));
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 1);
  EXPECT_TRUE(queue.TryPop(&value));
  EXPECT_EQ(value, 2);
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 3);
  EXPECT_FALSE(queue.TryPop(&value));
}

TEST(BoundedQueue, CloseDrainsQueuedItemsThenReportsEmpty) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(7));
  ASSERT_TRUE(queue.Push(8));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  // Items enqueued before Close still come out; pushes are rejected.
  EXPECT_FALSE(queue.Push(9));
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 8);
  EXPECT_FALSE(queue.Pop(&value));
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(2);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    int value = 0;
    bool got = queue.Pop(&value);  // blocks: queue is empty
    EXPECT_FALSE(got);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(popped.load());
  queue.Close();
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedQueue, FullQueueExertsBackpressureUntilPop) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // blocks: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 2);
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndDropsItem) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(queue.Push(2));  // blocked on full queue, then closed
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // The dropped item never entered the queue.
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 1);
  EXPECT_FALSE(queue.Pop(&value));
}

// ---------------------------------------------------------------------------
// WorkerPool

TEST(WorkerPool, ZeroThreadsRunsTasksInlineOnCaller) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::thread::id ran_on;
  EXPECT_TRUE(pool.Submit([&] { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(WorkerPool, ExecutesEverySubmittedTaskBeforeDestruction) {
  std::atomic<int> executed{0};
  {
    WorkerPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.Submit([&] {
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
  }  // the destructor drains the queue and joins the workers
  EXPECT_EQ(executed.load(), 200);
}

TEST(WorkerPool, TasksActuallyRunOffTheSubmittingThread) {
  WorkerPool pool(1);
  std::thread::id ran_on;
  std::atomic<bool> done{false};
  ASSERT_TRUE(pool.Submit([&] {
    ran_on = std::this_thread::get_id();
    done.store(true, std::memory_order_release);
  }));
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// AsyncSpiller

TEST(AsyncSpiller, RunsJobsInSubmissionOrder) {
  WorkerPool pool(2);
  AsyncSpiller spiller(&pool);
  std::mutex mutex;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    NEX_ASSERT_OK(spiller.Submit([&, i] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
      return Status();
    }));
  }
  NEX_ASSERT_OK(spiller.Drain());
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  EXPECT_GE(spiller.busy_seconds(), 0.0);
}

TEST(AsyncSpiller, NullPoolRunsJobsInline) {
  AsyncSpiller spiller(nullptr);
  bool ran = false;
  NEX_ASSERT_OK(spiller.Submit([&] {
    ran = true;
    return Status();
  }));
  EXPECT_TRUE(ran);
  NEX_ASSERT_OK(spiller.Drain());
}

TEST(AsyncSpiller, ErrorIsStickyAndLaterJobsNeverRun) {
  WorkerPool pool(1);
  AsyncSpiller spiller(&pool);
  NEX_ASSERT_OK(spiller.Submit([] { return Status(); }));
  NEX_ASSERT_OK(
      spiller.Submit([] { return Status::IOError("lost spill write"); }));
  // The failing job is in flight (or done); every later submission must
  // report the error and must not run its job.
  bool ran = false;
  Status st;
  for (int i = 0; i < 10 && st.ok(); ++i) {
    st = spiller.Submit([&] {
      ran = true;
      return Status();
    });
  }
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("lost spill write"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(ran);
  Status drained = spiller.Drain();
  EXPECT_FALSE(drained.ok());
  EXPECT_NE(drained.ToString().find("lost spill write"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MemoryBudget under concurrency

TEST(MemoryBudgetConcurrency, ConcurrentAcquireReleaseStaysExact) {
  MemoryBudget budget(64);
  constexpr int kThreads = 4;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) + 1);
      for (int i = 0; i < kIterations; ++i) {
        uint64_t count = 1 + rng() % 4;
        if (budget.Acquire(count).ok()) {
          budget.Release(count);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(budget.used_blocks(), 0u);
  EXPECT_EQ(budget.release_underflows(), 0u);
  EXPECT_LE(budget.peak_blocks(), 64u);
}

// ---------------------------------------------------------------------------
// ExternalMergeSorter: overlapped run formation

struct SortRun {
  std::vector<std::pair<std::string, std::string>> records;
  ExtSortStats stats;
  ParallelStats pstats;
};

// Sort a deterministic record set through ExternalMergeSorter with the
// given worker count, small enough blocks to force several spills and
// large enough buffers to trigger partitioned sorts (>= 4096 records per
// buffer) when workers are available.
SortRun RunExtSort(uint32_t threads, size_t record_count) {
  SortRun result;
  auto device = NewMemoryBlockDevice(4096);
  MemoryBudget budget(100);
  RunStore store(device.get(), &budget);

  WorkerPool pool(threads);
  ParallelContext context(ParallelOptions{.threads = threads}, &pool);
  ExtSortOptions options;
  options.memory_blocks = 32;
  if (threads > 0) options.parallel = &context;

  ExternalMergeSorter sorter(&store, options);
  EXPECT_TRUE(sorter.init_status().ok()) << sorter.init_status().ToString();

  std::mt19937 rng(1234);
  for (size_t i = 0; i < record_count; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "%08u",
                  static_cast<unsigned>(rng() % 10000000));
    char value[16];
    std::snprintf(value, sizeof(value), "v%zu", i);
    Status st = sorter.Add(key, value);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  Status st = sorter.Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();

  std::string key, value;
  while (true) {
    auto more = sorter.Next(&key, &value);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    result.records.emplace_back(key, value);
  }
  result.stats = sorter.stats();
  result.pstats = sorter.parallel_stats();
  return result;
}

TEST(ParallelExtSort, WorkersProduceIdenticalRecordStream) {
  constexpr size_t kRecords = 20000;
  SortRun serial = RunExtSort(0, kRecords);
  ASSERT_EQ(serial.records.size(), kRecords);
  EXPECT_GT(serial.stats.initial_runs, 1u);  // the workload really spilled
  EXPECT_EQ(serial.pstats.async_spills, 0u);
  EXPECT_EQ(serial.pstats.parallel_sorts, 0u);

  for (uint32_t threads : {1u, 2u, 4u}) {
    SortRun parallel = RunExtSort(threads, kRecords);
    EXPECT_EQ(parallel.records, serial.records) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.initial_runs, serial.stats.initial_runs);
    EXPECT_EQ(parallel.stats.merge_passes, serial.stats.merge_passes);
    // The pipeline genuinely engaged: spills went to the background and
    // buffer sorts were partitioned across the pool (with >= 2 workers).
    EXPECT_GT(parallel.pstats.async_spills, 0u) << "threads=" << threads;
    if (threads >= 2) {
      EXPECT_GT(parallel.pstats.parallel_sorts, 0u) << "threads=" << threads;
      EXPECT_GE(parallel.pstats.sort_partitions,
                2 * parallel.pstats.parallel_sorts);
    }
  }
}

TEST(ParallelExtSort, TinyBudgetDeclinesDoubleBufferingAndStaysSerial) {
  auto device = NewMemoryBlockDevice(512);
  // 8 blocks total: the sorter's 7-block buffer + 1 writer block leave
  // nothing for a second buffer, so engagement must be declined.
  MemoryBudget budget(8);
  RunStore store(device.get(), &budget);
  WorkerPool pool(2);
  ParallelContext context(ParallelOptions{.threads = 2}, &pool);
  ExtSortOptions options;
  options.memory_blocks = 8;
  options.parallel = &context;
  ExternalMergeSorter sorter(&store, options);
  NEX_ASSERT_OK(sorter.init_status());

  std::mt19937 rng(99);
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "%06u",
                  static_cast<unsigned>(rng() % 1000000));
    NEX_ASSERT_OK(sorter.Add(key, "x"));
  }
  NEX_ASSERT_OK(sorter.Finish());

  const ParallelStats& pstats = sorter.parallel_stats();
  EXPECT_EQ(pstats.async_spills, 0u);
  EXPECT_GT(pstats.sync_spills, 0u);
  EXPECT_GT(pstats.double_buffer_declined, 0u);

  // The output is still fully sorted.
  std::string key, value, previous;
  while (true) {
    auto more = sorter.Next(&key, &value);
    NEX_ASSERT_OK(more.status());
    if (!*more) break;
    EXPECT_LE(previous, key);
    previous = key;
  }
}

TEST(ParallelExtSort, FailingBackgroundSpillWriteSurfacesFromFinish) {
  auto device = NewMemoryBlockDevice(512);
  MemoryBudget budget(32);
  RunStore store(device.get(), &budget);
  WorkerPool pool(2);
  ParallelContext context(ParallelOptions{.threads = 2}, &pool);
  ExtSortOptions options;
  options.memory_blocks = 4;  // 3-block buffer: spills early and often
  options.parallel = &context;
  ExternalMergeSorter sorter(&store, options);
  NEX_ASSERT_OK(sorter.init_status());

  // Every run write fails. The first spill happens on a background worker;
  // its error must not vanish — either a later Add observes the sticky
  // status or Finish returns it.
  device->FailAfterOps(0, 1 << 20, BlockDevice::FailOps::kWrites);

  std::mt19937 rng(7);
  Status add_status;
  for (int i = 0; i < 5000 && add_status.ok(); ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "%06u",
                  static_cast<unsigned>(rng() % 1000000));
    add_status = sorter.Add(key, "payload");
  }
  Status finish_status = sorter.Finish();
  EXPECT_FALSE(add_status.ok() && finish_status.ok())
      << "a failed background spill write was silently dropped";
}

// ---------------------------------------------------------------------------
// End-to-end determinism properties

// Sort one fig5-style random document through NexSorter with the given
// parallel configuration, returning output bytes plus device I/O counters.
std::string RunNexSort(const std::string& xml, const OrderSpec& spec,
                       uint32_t threads, uint32_t prefetch_depth,
                       uint64_t cache_frames, IoStats* io,
                       ParallelStats* pstats) {
  SortEnvOptions env_options;
  env_options.block_size = 512;
  env_options.memory_blocks = 64;
  // Pin a small sort allowance so (a) serial and parallel runs share the
  // same run structure (the auto mode would halve it for the second
  // buffer) and (b) large subtrees really go external and spill runs.
  env_options.sort_memory_blocks = 4;
  env_options.parallel.threads = threads;
  env_options.cache = {.frames = cache_frames,
                       .prefetch_depth = prefetch_depth};
  Env env(env_options);
  NexSortOptions options;
  options.order = spec;
  std::string out;
  {
    NexSorter sorter(env.get(), options);
    StringByteSource source(xml);
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (io != nullptr) *io = env.env->physical_device()->stats();
    if (pstats != nullptr) *pstats = sorter.parallel_stats();
  }
  // The sorter released everything it acquired; the env-owned cache keeps
  // its frames resident until the env itself is destroyed.
  EXPECT_EQ(env.budget()->used_blocks(), cache_frames);
  EXPECT_EQ(env.budget()->release_underflows(), 0u);
  return out;
}

// Totals and per-category counts must match; the sequential_* subsets and
// modeled_seconds legitimately depend on physical interleaving.
void ExpectSameLogicalIo(const IoStats& got, const IoStats& want,
                         const std::string& label) {
  EXPECT_EQ(got.reads.load(), want.reads.load()) << label;
  EXPECT_EQ(got.writes.load(), want.writes.load()) << label;
  for (int c = 0; c < kNumIoCategories; ++c) {
    EXPECT_EQ(got.category_reads[c].load(), want.category_reads[c].load())
        << label << " category " << c << " reads";
    EXPECT_EQ(got.category_writes[c].load(), want.category_writes[c].load())
        << label << " category " << c << " writes";
  }
}

TEST(ParallelDeterminism, NexSortThreadsMatchSerialOutputAndLogicalIo) {
  RandomTreeGenerator generator(/*height=*/6, /*max_fanout=*/6,
                                {.seed = 17, .element_bytes = 100});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  IoStats serial_io;
  std::string serial =
      RunNexSort(*xml, spec, 0, 0, 0, &serial_io, nullptr);
  ASSERT_FALSE(serial.empty());

  for (uint32_t threads : {1u, 2u, 4u}) {
    IoStats io;
    ParallelStats pstats;
    std::string out = RunNexSort(*xml, spec, threads, 0, 0, &io, &pstats);
    EXPECT_EQ(out, serial) << "threads=" << threads;
    ExpectSameLogicalIo(io, serial_io,
                        "threads=" + std::to_string(threads));
    // Double buffering engaged at least once on this workload.
    EXPECT_GT(pstats.async_spills + pstats.sync_spills, 0u);
  }
}

// Read-ahead moves physical loads, never bytes: every combination of
// look-ahead depth {0, 4} and threads {0, 2} over a cache sorts to the
// uncached serial output. Whether a load ran on a worker or inline is a
// scheduling detail the BufferPool tests pin down deterministically.
TEST(ParallelDeterminism, NexSortPrefetchingMatchesSerialOutput) {
  RandomTreeGenerator generator(/*height=*/6, /*max_fanout=*/6,
                                {.seed = 23, .element_bytes = 100});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  std::string serial = RunNexSort(*xml, spec, 0, 0, 0, nullptr, nullptr);
  ASSERT_FALSE(serial.empty());
  for (uint32_t depth : {0u, 4u}) {
    for (uint32_t threads : {0u, 2u}) {
      std::string out = RunNexSort(*xml, spec, threads, depth,
                                   /*cache_frames=*/16, nullptr, nullptr);
      EXPECT_EQ(out, serial) << "depth=" << depth << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, KeyPathSortThreadsMatchSerialOutputAndLogicalIo) {
  RandomTreeGenerator generator(/*height=*/4, /*max_fanout=*/7,
                                {.seed = 31, .element_bytes = 50});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();

  auto run = [&](uint32_t threads, IoStats* io) {
    SortEnvOptions env_options;
    env_options.block_size = 512;
    env_options.memory_blocks = 64;
    env_options.sort_memory_blocks = 8;
    env_options.parallel.threads = threads;
    Env env(env_options);
    KeyPathSortOptions options;
    options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
    KeyPathXmlSorter sorter(env.get(), options);
    StringByteSource source(*xml);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (io != nullptr) *io = env.device()->stats();
    return out;
  };

  IoStats serial_io;
  std::string serial = run(0, &serial_io);
  ASSERT_FALSE(serial.empty());
  for (uint32_t threads : {1u, 2u, 4u}) {
    IoStats io;
    std::string out = run(threads, &io);
    EXPECT_EQ(out, serial) << "threads=" << threads;
    ExpectSameLogicalIo(io, serial_io,
                        "keypath threads=" + std::to_string(threads));
  }
}

// The key-path baseline merges many runs through the cache, so its merge
// steps and drain are advised scans; output stays byte-identical across
// look-ahead depth {0, 4} and threads {0, 2}.
TEST(ParallelDeterminism, KeyPathSortPrefetchingMatchesSerialOutput) {
  RandomTreeGenerator generator(/*height=*/4, /*max_fanout=*/7,
                                {.seed = 37, .element_bytes = 50});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();

  auto run = [&](uint32_t threads, uint32_t depth, uint64_t frames,
                 CacheStats* cache) {
    SortEnvOptions env_options;
    env_options.block_size = 512;
    env_options.memory_blocks = 64;
    env_options.sort_memory_blocks = 8;
    env_options.parallel.threads = threads;
    env_options.cache = {.frames = frames, .prefetch_depth = depth};
    Env env(env_options);
    KeyPathSortOptions options;
    options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
    KeyPathXmlSorter sorter(env.get(), options);
    StringByteSource source(*xml);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (cache != nullptr) *cache = env.env->cache_stats();
    return out;
  };

  std::string serial = run(0, 0, 0, nullptr);
  ASSERT_FALSE(serial.empty());
  for (uint32_t depth : {0u, 4u}) {
    for (uint32_t threads : {0u, 2u}) {
      CacheStats cache;
      std::string out = run(threads, depth, /*frames=*/16, &cache);
      EXPECT_EQ(out, serial) << "depth=" << depth << " threads=" << threads;
      // Inline loads are deterministic: look-ahead engages iff depth > 0.
      if (threads == 0) {
        EXPECT_EQ(cache.prefetches > 0, depth > 0) << "depth=" << depth;
      }
    }
  }
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
