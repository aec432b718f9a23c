// Tests for block streams (extents), the run store, budget tracking, and
// memory-budget semantics.
#include <gtest/gtest.h>

#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace nexsort {
namespace testing {
namespace {

TEST(MemoryBudget, TracksAcquireRelease) {
  MemoryBudget budget(10);
  NEX_ASSERT_OK(budget.Acquire(4));
  EXPECT_EQ(budget.used_blocks(), 4u);
  EXPECT_EQ(budget.available_blocks(), 6u);
  budget.Release(2);
  EXPECT_EQ(budget.used_blocks(), 2u);
  EXPECT_EQ(budget.peak_blocks(), 4u);
  budget.Release(2);
}

TEST(MemoryBudget, RejectsOverCommit) {
  MemoryBudget budget(3);
  NEX_ASSERT_OK(budget.Acquire(3));
  EXPECT_TRUE(budget.Acquire(1).IsOutOfMemory());
  budget.Release(3);
}

TEST(MemoryBudget, ReservationReleasesOnDestruction) {
  MemoryBudget budget(5);
  {
    BudgetReservation reservation;
    NEX_ASSERT_OK(reservation.Acquire(&budget, 5));
    EXPECT_EQ(budget.used_blocks(), 5u);
  }
  EXPECT_EQ(budget.used_blocks(), 0u);
}

TEST(MemoryBudget, ReservationMoveTransfersOwnership) {
  MemoryBudget budget(5);
  BudgetReservation a;
  NEX_ASSERT_OK(a.Acquire(&budget, 2));
  BudgetReservation b = std::move(a);
  EXPECT_EQ(budget.used_blocks(), 2u);
  b.Reset();
  EXPECT_EQ(budget.used_blocks(), 0u);
}

TEST(BlockStream, RoundTripsArbitraryBytes) {
  Env env(128, 8);
  std::string payload;
  Random rng(5);
  for (int i = 0; i < 100; ++i) payload += rng.Identifier(37);

  auto range = StoreBytes(env.device(), env.budget(), payload);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->byte_size, payload.size());

  auto back = LoadBytes(env.device(), env.budget(), *range);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);
}

TEST(BlockStream, EmptyExtent) {
  Env env;
  auto range = StoreBytes(env.device(), env.budget(), "");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->byte_size, 0u);
  auto back = LoadBytes(env.device(), env.budget(), *range);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(BlockStream, ReaderDeliversInChunks) {
  Env env(64, 8);
  std::string payload(500, 'p');
  auto range = StoreBytes(env.device(), env.budget(), payload);
  ASSERT_TRUE(range.ok());
  BlockStreamReader reader(env.device(), env.budget(), *range,
                           IoCategory::kInput);
  NEX_ASSERT_OK(reader.init_status());
  std::string got;
  char buf[33];
  while (true) {
    size_t n = 0;
    NEX_ASSERT_OK(reader.Read(buf, sizeof(buf), &n));
    if (n == 0) break;
    got.append(buf, n);
  }
  EXPECT_EQ(got, payload);
}

TEST(BlockStream, SequentialScanCostsOneIoPerBlock) {
  Env env(64, 8);
  std::string payload(640, 'q');  // exactly 10 blocks
  auto range = StoreBytes(env.device(), env.budget(), payload);
  ASSERT_TRUE(range.ok());
  uint64_t before = env.device()->stats().reads;
  auto back = LoadBytes(env.device(), env.budget(), *range);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(env.device()->stats().reads - before, 10u);
}

TEST(BlockStream, InterleavedAllocationFailsInsteadOfCorrupting) {
  // An extent is (first block, byte size); a block allocated by someone
  // else between two of its blocks must not be silently read back as part
  // of the stream.
  Env env(64, 8);
  BlockStreamWriter writer(env.device(), env.budget(), IoCategory::kOutput);
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append(std::string(64, 'a')));
  uint64_t foreign = 0;
  NEX_ASSERT_OK(env.device()->Allocate(1, &foreign));
  EXPECT_TRUE(writer.Append(std::string(64, 'b')).IsCorruption());
}

TEST(RunStore, WriteReadRoundTrip) {
  Env env(128, 8);
  RunStore store(env.device(), env.budget());
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  std::string payload;
  Random rng(9);
  for (int i = 0; i < 50; ++i) payload += rng.Identifier(61);
  NEX_ASSERT_OK(writer.Append(payload));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));
  EXPECT_EQ(handle.byte_size, payload.size());

  RunReader reader = store.OpenRun(handle);
  NEX_ASSERT_OK(reader.init_status());
  std::string back(payload.size(), '\0');
  NEX_ASSERT_OK(reader.ReadExact(back.data(), back.size()));
  EXPECT_EQ(back, payload);
  EXPECT_EQ(reader.bytes_remaining(), 0u);
}

TEST(RunStore, SeeksToOffset) {
  Env env(64, 8);
  RunStore store(env.device(), env.budget());
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  std::string payload;
  for (int i = 0; i < 100; ++i) payload += std::to_string(i) + ",";
  NEX_ASSERT_OK(writer.Append(payload));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));

  uint64_t offset = 173;
  RunReader reader = store.OpenRun(handle, offset);
  NEX_ASSERT_OK(reader.init_status());
  std::string back(payload.size() - offset, '\0');
  NEX_ASSERT_OK(reader.ReadExact(back.data(), back.size()));
  EXPECT_EQ(back, payload.substr(offset));
}

TEST(RunStore, InvalidHandleRejected) {
  Env env;
  RunStore store(env.device(), env.budget());
  RunHandle bogus;
  bogus.id = 7;
  RunReader reader = store.OpenRun(bogus);
  EXPECT_FALSE(reader.init_status().ok());
}

TEST(RunStore, OffsetPastEndRejected) {
  Env env;
  RunStore store(env.device(), env.budget());
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append("abc"));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));
  RunReader reader = store.OpenRun(handle, 4);
  EXPECT_TRUE(reader.init_status().IsInvalidArgument());
}

TEST(RunStore, FreeRunRecyclesBlocks) {
  Env env(64, 8);
  RunStore store(env.device(), env.budget());
  for (int cycle = 0; cycle < 20; ++cycle) {
    RunWriter writer = store.NewRun();
    NEX_ASSERT_OK(writer.init_status());
    NEX_ASSERT_OK(writer.Append(std::string(640, 'r')));
    RunHandle handle;
    NEX_ASSERT_OK(writer.Finish(&handle));
    NEX_ASSERT_OK(store.FreeRun(handle));
  }
  EXPECT_EQ(store.live_blocks(), 0u);
  EXPECT_LE(env.device()->num_blocks(), 10u);
}

TEST(RunStore, MultipleInterleavedRuns) {
  // NEXSORT writes a run while stacks also allocate blocks; runs must stay
  // correct even when their blocks are not contiguous on the device.
  Env env(64, 16);
  RunStore store(env.device(), env.budget());
  std::vector<RunHandle> handles;
  std::vector<std::string> payloads;
  for (int r = 0; r < 5; ++r) {
    RunWriter writer = store.NewRun();
    NEX_ASSERT_OK(writer.init_status());
    std::string payload(100 + r * 57, static_cast<char>('a' + r));
    NEX_ASSERT_OK(writer.Append(payload));
    RunHandle handle;
    NEX_ASSERT_OK(writer.Finish(&handle));
    handles.push_back(handle);
    payloads.push_back(payload);
    // Interleave an unrelated allocation to fragment the device layout.
    uint64_t id = 0;
    NEX_ASSERT_OK(env.device()->Allocate(1, &id));
  }
  for (int r = 0; r < 5; ++r) {
    RunReader reader = store.OpenRun(handles[r]);
    NEX_ASSERT_OK(reader.init_status());
    std::string back(payloads[r].size(), '\0');
    NEX_ASSERT_OK(reader.ReadExact(back.data(), back.size()));
    EXPECT_EQ(back, payloads[r]);
  }
}

TEST(RunStore, ReopeningCountsBlockAgain) {
  // Lemma 4.12 accounting: a block re-fetched after a seek is a new I/O.
  Env env(64, 8);
  RunStore store(env.device(), env.budget());
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append(std::string(64, 'z')));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));

  uint64_t before = env.device()->stats().reads;
  for (int i = 0; i < 3; ++i) {
    RunReader reader = store.OpenRun(handle);
    NEX_ASSERT_OK(reader.init_status());
    char byte = 0;
    NEX_ASSERT_OK(reader.ReadExact(&byte, 1));
  }
  EXPECT_EQ(env.device()->stats().reads - before, 3u);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
