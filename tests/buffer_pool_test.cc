// Buffer-pool subsystem tests: pin/unpin reference counting, CLOCK
// eviction, dirty write-back (category-preserving, deferred-failure
// surfacing), advised read-ahead (window sharing, concurrent advisers,
// handle lifetime), budget accounting, and a randomized property test
// that a CachedBlockDevice leaves the backing device byte-identical to
// an uncached run under interleaved readers, writers, and read advice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cache/buffer_pool.h"
#include "core/nexsort.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/stream.h"
#include "parallel/worker_pool.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

constexpr size_t kBlock = 256;

std::string Fill(char c) { return std::string(kBlock, c); }

TEST(BufferPool, BudgetChargedForFramesAndReleased) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(16);
  {
    BufferPool pool(device.get(), &budget, {.frames = 6});
    NEX_ASSERT_OK(pool.init_status());
    EXPECT_EQ(budget.used_blocks(), 6u);
    EXPECT_EQ(budget.peak_blocks(), 6u);
  }
  EXPECT_EQ(budget.used_blocks(), 0u);
  EXPECT_EQ(budget.release_underflows(), 0u);
}

TEST(BufferPool, OutOfMemoryReportsRequestedUsedTotal) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  NEX_ASSERT_OK(budget.Acquire(3));
  BufferPool pool(device.get(), &budget, {.frames = 7});
  ASSERT_TRUE(pool.init_status().IsOutOfMemory());
  const std::string& msg = pool.init_status().message();
  EXPECT_NE(msg.find("requested 7"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3 of 8 in use"), std::string::npos) << msg;
  budget.Release(3);
}

TEST(BufferPool, ZeroFramesRejected) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  BufferPool pool(device.get(), &budget, {.frames = 0});
  EXPECT_TRUE(pool.init_status().IsInvalidArgument());
}

TEST(BufferPool, PinnedFramesAreNeverEvicted) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(4, &first));
  BufferPool pool(device.get(), &budget, {.frames = 2});
  NEX_ASSERT_OK(pool.init_status());

  auto a = pool.Pin(0, IoCategory::kOther, /*load=*/true);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = pool.Pin(1, IoCategory::kOther, /*load=*/true);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(pool.pinned_frames(), 2u);

  // Both frames pinned: a third block has nowhere to go.
  auto c = pool.Pin(2, IoCategory::kOther, /*load=*/true);
  EXPECT_TRUE(c.status().IsOutOfMemory());

  // Re-pinning a resident block is fine (refcount, not a new frame).
  auto a2 = pool.Pin(0, IoCategory::kOther, /*load=*/true);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(*a2, *a);
  pool.Unpin(*a2, /*mark_dirty=*/false);
  EXPECT_EQ(pool.pinned_frames(), 2u);  // block 0 still pinned once

  pool.Unpin(*b, /*mark_dirty=*/false);
  auto c2 = pool.Pin(2, IoCategory::kOther, /*load=*/true);
  ASSERT_TRUE(c2.ok()) << c2.status().ToString();
  pool.Unpin(*c2, /*mark_dirty=*/false);
  pool.Unpin(*a, /*mark_dirty=*/false);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPool, ClockGivesRecentlyUsedFramesASecondChance) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(6, &first));
  BufferPool pool(device.get(), &budget, {.frames = 3});
  NEX_ASSERT_OK(pool.init_status());

  std::string buf(kBlock, '\0');
  // Fill the pool; every frame is referenced.
  NEX_ASSERT_OK(pool.ReadBlock(0, buf.data(), IoCategory::kOther));
  NEX_ASSERT_OK(pool.ReadBlock(1, buf.data(), IoCategory::kOther));
  NEX_ASSERT_OK(pool.ReadBlock(2, buf.data(), IoCategory::kOther));
  // All referenced: the sweep clears every bit and evicts at the hand
  // (block 0). Blocks 1 and 2 are now resident but unreferenced.
  NEX_ASSERT_OK(pool.ReadBlock(3, buf.data(), IoCategory::kOther));
  EXPECT_EQ(pool.stats().evictions, 1u);

  // Touch block 2: its referenced bit is its second chance.
  NEX_ASSERT_OK(pool.ReadBlock(2, buf.data(), IoCategory::kOther));
  EXPECT_EQ(pool.stats().hits, 1u);

  // Next eviction must pick the not-recently-used block 1, sparing 2.
  NEX_ASSERT_OK(pool.ReadBlock(4, buf.data(), IoCategory::kOther));
  EXPECT_EQ(pool.stats().evictions, 2u);
  uint64_t reads_before = device->stats().reads;
  NEX_ASSERT_OK(pool.ReadBlock(2, buf.data(), IoCategory::kOther));
  NEX_ASSERT_OK(pool.ReadBlock(3, buf.data(), IoCategory::kOther));
  EXPECT_EQ(device->stats().reads, reads_before);  // both still resident
  EXPECT_EQ(pool.stats().hits, 3u);
}

TEST(BufferPool, EvictionWritesBackUnderWritersCategory) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(4, &first));
  BufferPool pool(device.get(), &budget, {.frames = 1});
  NEX_ASSERT_OK(pool.init_status());

  std::string data = Fill('d');
  NEX_ASSERT_OK(pool.WriteBlock(0, data.data(), IoCategory::kDataStack));
  EXPECT_EQ(device->stats().writes, 0u);  // deferred

  // Reading block 1 evicts the dirty frame: one physical write, attributed
  // to the data stack even though the read runs under run-read.
  std::string buf(kBlock, '\0');
  NEX_ASSERT_OK(pool.ReadBlock(1, buf.data(), IoCategory::kRunRead));
  EXPECT_EQ(device->stats().writes, 1u);
  EXPECT_EQ(
      device->stats().category_writes[static_cast<int>(IoCategory::kDataStack)],
      1u);
  EXPECT_EQ(pool.stats().writebacks, 1u);
  EXPECT_EQ(pool.stats().evictions, 1u);

  std::string back(kBlock, '\0');
  NEX_ASSERT_OK(device->Read(0, back.data()));
  EXPECT_EQ(back, data);
}

TEST(BufferPool, FlushWritesAllDirtyFramesOnce) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(4, &first));
  BufferPool pool(device.get(), &budget, {.frames = 4});
  NEX_ASSERT_OK(pool.init_status());

  for (uint64_t id = 0; id < 3; ++id) {
    std::string data = Fill(static_cast<char>('a' + id));
    NEX_ASSERT_OK(pool.WriteBlock(id, data.data(), IoCategory::kOther));
  }
  EXPECT_EQ(device->stats().writes, 0u);
  NEX_ASSERT_OK(pool.Flush());
  EXPECT_EQ(device->stats().writes, 3u);
  NEX_ASSERT_OK(pool.Flush());  // everything clean: no more I/O
  EXPECT_EQ(device->stats().writes, 3u);
  for (uint64_t id = 0; id < 3; ++id) {
    std::string back(kBlock, '\0');
    NEX_ASSERT_OK(device->Read(id, back.data()));
    EXPECT_EQ(back, Fill(static_cast<char>('a' + id)));
  }
}

// `count` blocks on a fresh memory device, block i filled with 'A' + i%26.
std::unique_ptr<BlockDevice> FilledDevice(uint64_t count) {
  auto device = NewMemoryBlockDevice(kBlock);
  uint64_t first = 0;
  EXPECT_TRUE(device->Allocate(count, &first).ok());
  for (uint64_t id = 0; id < count; ++id) {
    std::string data = Fill(static_cast<char>('A' + (id % 26)));
    EXPECT_TRUE(device->Write(id, data.data()).ok());
  }
  device->mutable_stats()->Clear();
  return device;
}

std::vector<uint64_t> Iota(uint64_t first, uint64_t count) {
  std::vector<uint64_t> ids(count);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

TEST(BufferPool, AdvisedScanPrefetchesWithoutDuplicateReads) {
  auto device = FilledDevice(32);
  MemoryBudget budget(16);
  BufferPool pool(device.get(), &budget, {.frames = 8, .prefetch_depth = 4});
  NEX_ASSERT_OK(pool.init_status());
  BufferPool::ReadAdvice advice = pool.AdviseReadSequence(Iota(0, 32));
  std::string buf(kBlock, '\0');
  for (uint64_t id = 0; id < 32; ++id) {
    NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kInput));
    EXPECT_EQ(buf, Fill(static_cast<char>('A' + (id % 26))));
  }
  // The window opens on the second read, so only the first two reads
  // miss; every later block was loaded ahead.
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 30u);
  EXPECT_EQ(pool.stats().prefetches, 30u);
  // Every physical read happened exactly once: 32 logical reads cost 32
  // physical reads total (read-ahead shifts them earlier, never repeats).
  EXPECT_EQ(device->stats().reads, 32u);
  EXPECT_EQ(advice.Release(), 0u) << "no worker pool, so nothing offloaded";
}

TEST(BufferPool, RandomAccessDoesNotPrefetch) {
  auto device = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(16);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(16, &first));
  BufferPool pool(device.get(), &budget, {.frames = 4, .prefetch_depth = 4});
  NEX_ASSERT_OK(pool.init_status());
  std::string buf(kBlock, '\0');
  // Without advice there is no look-ahead at all — not even for the
  // id-adjacent reads 0, 1, 2.
  for (uint64_t id : {0, 7, 2, 11, 5, 13, 1, 9, 0, 1, 2}) {
    NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kOther));
  }
  EXPECT_EQ(pool.stats().prefetches, 0u);
}

// The window is min(depth, (frames / 2) / live advised scans), reached
// by a ramp of one more block per read: a merge as wide as keypath's
// 23-input steps on 16 frames gets no look-ahead, while a lone scan on
// the same pool ends up loading `depth` blocks ahead.
TEST(BufferPool, WindowSharesHalfTheFramesAmongLiveScans) {
  constexpr uint64_t kScans = 23;
  constexpr uint64_t kRunBlocks = 4;
  constexpr uint64_t kLoneFirst = kScans * kRunBlocks;  // never touched
  auto device = FilledDevice(kLoneFirst + 12);
  MemoryBudget budget(32);
  BufferPool pool(device.get(), &budget,
                  {.frames = 16, .prefetch_depth = 4});
  NEX_ASSERT_OK(pool.init_status());
  std::string buf(kBlock, '\0');
  {
    std::vector<BufferPool::ReadAdvice> merge;
    for (uint64_t i = 0; i < kScans; ++i) {
      merge.push_back(
          pool.AdviseReadSequence(Iota(i * kRunBlocks, kRunBlocks)));
    }
    for (uint64_t block = 0; block < kRunBlocks; ++block) {
      for (uint64_t i = 0; i < kScans; ++i) {
        NEX_ASSERT_OK(pool.ReadBlock(i * kRunBlocks + block, buf.data(),
                                     IoCategory::kRunRead));
      }
    }
    EXPECT_EQ(pool.stats().prefetches, 0u);
  }
  BufferPool::ReadAdvice lone =
      pool.AdviseReadSequence(Iota(kLoneFirst, 12));
  // Reads at positions 0, 1, 2, 3, 4 open windows of 0, 1, 2, 3, 4
  // blocks: positions 2..8 are loaded, exactly `depth` past the last read.
  const uint64_t ramp[] = {0, 1, 3, 5, 7};
  for (uint64_t pos = 0; pos < 5; ++pos) {
    NEX_ASSERT_OK(
        pool.ReadBlock(kLoneFirst + pos, buf.data(), IoCategory::kRunRead));
    EXPECT_EQ(pool.stats().prefetches, ramp[pos]) << "position " << pos;
  }
  // At full width, each further read extends the window by one block.
  NEX_ASSERT_OK(
      pool.ReadBlock(kLoneFirst + 5, buf.data(), IoCategory::kRunRead));
  EXPECT_EQ(pool.stats().prefetches, 8u);
}

// Two scans advised at once keep their own sequences: neither advice
// replaces the other, and releasing one leaves the other's in force.
TEST(BufferPool, ConcurrentAdvisersDoNotOverwriteEachOther) {
  auto device = FilledDevice(16);
  MemoryBudget budget(32);
  BufferPool pool(device.get(), &budget,
                  {.frames = 16, .prefetch_depth = 2});
  NEX_ASSERT_OK(pool.init_status());
  BufferPool::ReadAdvice a = pool.AdviseReadSequence(Iota(0, 8));
  BufferPool::ReadAdvice b = pool.AdviseReadSequence(Iota(8, 8));
  std::string buf(kBlock, '\0');
  for (uint64_t i = 0; i < 4; ++i) {
    NEX_ASSERT_OK(pool.ReadBlock(i, buf.data(), IoCategory::kRunRead));
    NEX_ASSERT_OK(pool.ReadBlock(8 + i, buf.data(), IoCategory::kRunRead));
  }
  // Each scan read positions 0..3 with windows 0, 1, 2, 2: positions 2..5
  // were loaded ahead for each.
  EXPECT_EQ(pool.stats().prefetches, 8u);
  // Releasing a leaves b's advice in force: b keeps reading ahead to its
  // end, while a's unread tail is no longer loaded ahead.
  a.Release();
  for (uint64_t i = 4; i < 8; ++i) {
    NEX_ASSERT_OK(pool.ReadBlock(8 + i, buf.data(), IoCategory::kRunRead));
  }
  NEX_ASSERT_OK(pool.ReadBlock(6, buf.data(), IoCategory::kRunRead));
  NEX_ASSERT_OK(pool.ReadBlock(7, buf.data(), IoCategory::kRunRead));
  EXPECT_EQ(pool.stats().misses, 6u) << "two cold misses per scan, a6, a7";
  EXPECT_EQ(pool.stats().hits, 8u);
  EXPECT_EQ(pool.stats().prefetches, 10u);
  EXPECT_EQ(device->stats().reads, 16u);
}

// Test device that holds a read of one block until the test opens the
// gate, so a look-ahead load can be caught in flight deterministically.
class GatedDevice final : public BlockDevice {
 public:
  GatedDevice(BlockDevice* inner, uint64_t gated_block)
      : BlockDevice(inner->block_size(), DiskModel{}),
        inner_(inner),
        gated_block_(gated_block) {
    SyncNumBlocks(inner->num_blocks());
  }

  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 protected:
  Status DoRead(uint64_t block_id, char* buf, IoCategory category) override {
    if (block_id == gated_block_) {
      std::unique_lock<std::mutex> lock(mu_);
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return inner_->Read(block_id, buf, category);
  }
  Status DoWrite(uint64_t block_id, const char* buf,
                 IoCategory category) override {
    return inner_->Write(block_id, buf, category);
  }
  Status DoAllocate(uint64_t /*count*/) override {
    return Status::InvalidArgument("GatedDevice does not allocate");
  }

 private:
  BlockDevice* inner_;
  const uint64_t gated_block_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool open_ = false;
};

// Releasing a handle while one of its loads runs on a worker returns only
// once that load has finished, and no load touches its blocks afterwards
// — the rule that lets a merge free its input runs right after.
TEST(BufferPool, ReleaseWaitsForInFlightLoadAndStopsTheRest) {
  auto base = FilledDevice(8);
  GatedDevice gated(base.get(), /*gated_block=*/2);
  MemoryBudget budget(32);
  auto workers = std::make_unique<WorkerPool>(1);
  BufferPool pool(&gated, &budget, {.frames = 16, .prefetch_depth = 2});
  NEX_ASSERT_OK(pool.init_status());
  pool.set_workers(workers.get());

  BufferPool::ReadAdvice advice = pool.AdviseReadSequence(Iota(0, 8));
  std::string buf(kBlock, '\0');
  // Read 0 opens no window; read 1 queues block 2 on the worker, which
  // stalls in that load. Read 6 queues block 7 behind it.
  NEX_ASSERT_OK(pool.ReadBlock(0, buf.data(), IoCategory::kRunRead));
  NEX_ASSERT_OK(pool.ReadBlock(1, buf.data(), IoCategory::kRunRead));
  gated.WaitUntilHeld();
  NEX_ASSERT_OK(pool.ReadBlock(6, buf.data(), IoCategory::kRunRead));

  std::atomic<bool> released{false};
  uint64_t offloaded = 0;
  std::thread releaser([&] {
    offloaded = advice.Release();
    released = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load()) << "Release returned with a load in flight";
  gated.Open();
  releaser.join();
  const uint64_t prefetches = pool.stats().prefetches;
  const uint64_t reads = base->stats().reads;
  EXPECT_GE(prefetches, 1u) << "block 2's load finished before Release";
  EXPECT_EQ(offloaded, prefetches) << "every worker load counted once";

  // Nothing loads the released scan's blocks afterwards: draining the
  // worker (block 7's batch was queued) and reading on leave the load
  // counts where Release left them.
  pool.set_workers(nullptr);
  workers.reset();
  const uint64_t hits = pool.stats().hits;
  NEX_ASSERT_OK(pool.ReadBlock(2, buf.data(), IoCategory::kRunRead));
  EXPECT_EQ(pool.stats().hits, hits + 1) << "block 2 stayed resident";
  NEX_ASSERT_OK(pool.ReadBlock(3, buf.data(), IoCategory::kRunRead));
  EXPECT_EQ(pool.stats().prefetches, prefetches);
  EXPECT_EQ(base->stats().reads, reads + 1) << "only block 3's miss";
}

TEST(CachedBlockDevice, LogicalStatsOnWrapperPhysicalOnBase) {
  auto base = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  CachedBlockDevice cached(base.get(), &budget, {.frames = 4});
  NEX_ASSERT_OK(cached.init_status());

  uint64_t first = 0;
  NEX_ASSERT_OK(cached.Allocate(2, &first));
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(base->num_blocks(), 2u);

  std::string data = Fill('x');
  NEX_ASSERT_OK(cached.Write(0, data.data()));
  std::string back(kBlock, '\0');
  for (int i = 0; i < 5; ++i) {
    NEX_ASSERT_OK(cached.Read(0, back.data()));
    EXPECT_EQ(back, data);
  }
  // 1 logical write + 5 logical reads; physically nothing yet (the write
  // is deferred and every read hit the dirty frame).
  EXPECT_EQ(cached.stats().writes, 1u);
  EXPECT_EQ(cached.stats().reads, 5u);
  EXPECT_EQ(base->stats().total(), 0u);
  EXPECT_EQ(cached.pool()->stats().hits, 5u);

  NEX_ASSERT_OK(cached.Flush());
  EXPECT_EQ(base->stats().writes, 1u);
}

TEST(CachedBlockDevice, CategoryScopesReachTheBaseDevice) {
  auto base = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  CachedBlockDevice cached(base.get(), &budget, {.frames = 2});
  NEX_ASSERT_OK(cached.init_status());
  uint64_t first = 0;
  NEX_ASSERT_OK(cached.Allocate(2, &first));
  std::string buf(kBlock, '\0');
  {
    IoCategoryScope scope(&cached, IoCategory::kPathStack);
    NEX_ASSERT_OK(cached.Read(1, buf.data()));  // miss: physical load
  }
  EXPECT_EQ(
      base->stats().category_reads[static_cast<int>(IoCategory::kPathStack)],
      1u);
}

TEST(CachedBlockDevice, AdoptsBlocksAllocatedBeforeWrapping) {
  auto base = NewMemoryBlockDevice(kBlock);
  uint64_t first = 0;
  NEX_ASSERT_OK(base->Allocate(3, &first));
  std::string data = Fill('p');
  NEX_ASSERT_OK(base->Write(2, data.data()));

  MemoryBudget budget(8);
  CachedBlockDevice cached(base.get(), &budget, {.frames = 2});
  NEX_ASSERT_OK(cached.init_status());
  EXPECT_EQ(cached.num_blocks(), 3u);
  std::string back(kBlock, '\0');
  NEX_ASSERT_OK(cached.Read(2, back.data()));
  EXPECT_EQ(back, data);
  NEX_ASSERT_OK(cached.Allocate(1, &first));
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(base->num_blocks(), 4u);
}

TEST(BlockDevice, FailureInjectionFiltersByOpType) {
  auto device = NewMemoryBlockDevice(kBlock);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(1, &first));
  std::string buf = Fill('z');

  device->FailNextOps(1, BlockDevice::FailOps::kReads);
  NEX_EXPECT_OK(device->Write(0, buf.data()));  // writes unaffected
  EXPECT_TRUE(device->Read(0, buf.data()).IsIOError());
  NEX_EXPECT_OK(device->Read(0, buf.data()));  // injection consumed

  device->FailNextOps(1, BlockDevice::FailOps::kWrites);
  NEX_EXPECT_OK(device->Read(0, buf.data()));  // reads unaffected
  EXPECT_TRUE(device->Write(0, buf.data()).IsIOError());
  NEX_EXPECT_OK(device->Write(0, buf.data()));

  // FailAfterOps counts only matching operations.
  device->FailAfterOps(1, 1, BlockDevice::FailOps::kWrites);
  NEX_EXPECT_OK(device->Read(0, buf.data()));
  NEX_EXPECT_OK(device->Write(0, buf.data()));  // skipped one write
  EXPECT_TRUE(device->Write(0, buf.data()).IsIOError());
}

TEST(CachedBlockDevice, DeferredWritebackFailureSurfacesFromFlush) {
  auto base = NewMemoryBlockDevice(kBlock);
  MemoryBudget budget(8);
  CachedBlockDevice cached(base.get(), &budget, {.frames = 2});
  NEX_ASSERT_OK(cached.init_status());
  uint64_t first = 0;
  NEX_ASSERT_OK(cached.Allocate(4, &first));

  std::string data = Fill('w');
  NEX_ASSERT_OK(cached.Write(0, data.data()));  // dirty frame, no I/O yet

  // From here every physical *write* fails; reads keep working.
  base->FailNextOps(100, BlockDevice::FailOps::kWrites);

  // These reads force evictions. The dirty frame's write-back fails, but
  // the reads themselves succeed (a clean victim is found) — the failure
  // is deferred, not swallowed.
  std::string buf(kBlock, '\0');
  NEX_ASSERT_OK(cached.Read(1, buf.data()));
  NEX_ASSERT_OK(cached.Read(2, buf.data()));
  NEX_ASSERT_OK(cached.Read(3, buf.data()));
  EXPECT_GT(cached.pool()->stats().writeback_failures, 0u);

  // Flush surfaces the deferred failure (and its own retry also fails).
  EXPECT_TRUE(cached.Flush().IsIOError());

  // Once writes work again, Flush lands the data: nothing was lost.
  base->FailNextOps(0);
  NEX_ASSERT_OK(cached.Flush());
  std::string back(kBlock, '\0');
  NEX_ASSERT_OK(base->Read(0, back.data()));
  EXPECT_EQ(back, data);
}

// Randomized property test: a CachedBlockDevice under interleaved readers
// and writers — varied frame counts, with and without read-ahead, loads
// inline or on a worker — returns the same bytes as an uncached device
// and, after Flush, leaves the backing device byte-identical. Random read
// advice (sequential runs, shuffled orders, stale ids) is registered and
// released as the operations go, so look-ahead loads interleave with
// reads, writes, and evictions.
TEST(CachedBlockDeviceProperty, MatchesUncachedDeviceByteForByte) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Random rng(seed * 7919);
    uint64_t frames = rng.UniformRange(1, 6);
    uint64_t depth = rng.OneIn(2) ? rng.UniformRange(1, 4) : 0;

    auto plain = NewMemoryBlockDevice(kBlock);
    auto backing = NewMemoryBlockDevice(kBlock);
    MemoryBudget budget(frames + 2);
    WorkerPool workers(seed % 2);  // odd seeds load on a worker thread
    CachedBlockDevice cached(backing.get(), &budget,
                             {.frames = frames, .prefetch_depth = depth});
    NEX_ASSERT_OK(cached.init_status());
    cached.pool()->set_workers(&workers);
    std::vector<BufferPool::ReadAdvice> advice;

    uint64_t blocks = rng.UniformRange(8, 24);
    uint64_t first = 0;
    NEX_ASSERT_OK(plain->Allocate(blocks, &first));
    NEX_ASSERT_OK(cached.Allocate(blocks, &first));

    // Interleaved readers and writers: two cursors scan sequentially
    // (exercising read-ahead) while random reads/writes interleave.
    uint64_t scan_a = 0;
    uint64_t scan_b = blocks / 2;
    uint64_t ops = rng.UniformRange(100, 300);
    for (uint64_t op = 0; op < ops; ++op) {
      if (rng.OneIn(8)) {
        // Advise a random scan: ascending from a random block, or a
        // shuffled order, sometimes naming ids past the device's end.
        std::vector<uint64_t> order;
        uint64_t length = rng.UniformRange(1, blocks);
        uint64_t start = rng.Uniform(blocks);
        for (uint64_t i = 0; i < length; ++i) {
          order.push_back(rng.OneIn(2) ? (start + i) % blocks
                                       : rng.Uniform(blocks + 4));
        }
        advice.push_back(cached.pool()->AdviseReadSequence(std::move(order)));
      }
      if (!advice.empty() && rng.OneIn(10)) {
        advice.erase(advice.begin() +
                     static_cast<ptrdiff_t>(rng.Uniform(advice.size())));
      }
      uint64_t id;
      switch (rng.Uniform(4)) {
        case 0:
          id = scan_a;
          scan_a = (scan_a + 1) % blocks;
          break;
        case 1:
          id = scan_b;
          scan_b = (scan_b + 1) % blocks;
          break;
        default:
          id = rng.Uniform(blocks);
      }
      IoCategory category = static_cast<IoCategory>(rng.Uniform(
          static_cast<uint64_t>(kNumIoCategories)));
      IoCategoryScope plain_scope(plain.get(), category);
      IoCategoryScope cached_scope(&cached, category);
      if (rng.OneIn(3)) {
        std::string data(kBlock, '\0');
        for (char& c : data) c = static_cast<char>(rng.Uniform(256));
        NEX_ASSERT_OK(plain->Write(id, data.data()));
        NEX_ASSERT_OK(cached.Write(id, data.data()));
      } else {
        std::string expected(kBlock, '\0');
        std::string actual(kBlock, '\0');
        NEX_ASSERT_OK(plain->Read(id, expected.data()));
        NEX_ASSERT_OK(cached.Read(id, actual.data()));
        ASSERT_EQ(actual, expected)
            << "seed " << seed << " op " << op << " block " << id;
      }
    }

    advice.clear();
    NEX_ASSERT_OK(cached.Flush());
    // Caching must save physical I/O, never add it.
    EXPECT_LE(backing->stats().total(), cached.stats().total() +
                                            cached.pool()->stats().prefetches);
    for (uint64_t id = 0; id < blocks; ++id) {
      std::string expected(kBlock, '\0');
      std::string actual(kBlock, '\0');
      NEX_ASSERT_OK(plain->Read(id, expected.data()));
      NEX_ASSERT_OK(backing->Read(id, actual.data()));
      ASSERT_EQ(actual, expected) << "seed " << seed << " block " << id;
    }
    EXPECT_EQ(budget.used_blocks(), frames);
    EXPECT_EQ(budget.release_underflows(), 0u);
  }
}

// End-to-end: NEXSORT with a cache produces identical output, saves
// physical I/O, and stays inside the memory budget (cache frames
// included).
TEST(CachedBlockDeviceProperty, NexSortWithCacheMatchesUncachedAndSavesIo) {
  RandomTreeGenerator generator(/*height=*/5, /*max_fanout=*/6,
                                {.seed = 11, .element_bytes = 60});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  constexpr uint64_t kMemoryBlocks = 48;
  auto run = [&](uint64_t cache_frames, uint64_t depth, IoStats* io,
                 uint64_t* peak) {
    SortEnvOptions env_options;
    env_options.block_size = 512;
    env_options.memory_blocks = kMemoryBlocks;
    env_options.cache = {.frames = cache_frames, .prefetch_depth = depth};
    Env env(std::move(env_options));
    NexSortOptions options;
    options.order = spec;
    NexSorter sorter(env.get(), options);
    StringByteSource source(*xml);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    *io = env.env->physical_device()->stats();
    *peak = env.budget()->peak_blocks();
    return out;
  };

  IoStats uncached_io, cached_io;
  uint64_t uncached_peak = 0, cached_peak = 0;
  std::string uncached = run(0, 0, &uncached_io, &uncached_peak);
  std::string cached = run(16, 4, &cached_io, &cached_peak);
  EXPECT_EQ(cached, uncached);
  EXPECT_LT(cached_io.total(), uncached_io.total());
  EXPECT_LE(cached_peak, kMemoryBlocks);
  EXPECT_LE(uncached_peak, kMemoryBlocks);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
