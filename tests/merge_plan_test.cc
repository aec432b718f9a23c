// Merge-planning tests (docs/MERGE_PLANNING.md): the MergePlanner's
// guarantees (planned passes and bytes never exceed greedy, contiguous
// in-order steps, every input consumed exactly once), byte-identity of the
// two policies across every sorting entry point (raw ExternalMergeSorter,
// NEXSORT eager + streamed, key-path sort, the sort service), exact budget
// unwind on mid-merge cancellation, DFS-aware run placement (contiguous
// extents, tail return, free-list chunk reuse, relocation), and the buffer
// pool's advisory read-ahead.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/buffer_pool.h"
#include "core/keypath_xml_sort.h"
#include "core/nexsort.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "service/service.h"
#include "sort/external_merge_sort.h"
#include "sort/merge_plan.h"
#include "sort/sorted_stream.h"
#include "tests/test_util.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace nexsort {
namespace {

using nexsort::testing::Env;

using Record = std::pair<std::string, std::string>;

// ---------------------------------------------------------- planner -----

// Replay a plan over the logical run sequence: every step must consume a
// contiguous, in-order span of the current sequence (the stability
// requirement) using only ready nodes, each node exactly once; the last
// survivor must be the plan's root.
void CheckPlanShape(const MergePlan& plan, size_t num_inputs,
                    uint64_t fan_in) {
  ASSERT_EQ(plan.num_inputs, num_inputs);
  if (num_inputs <= 1) {
    EXPECT_TRUE(plan.steps.empty());
    EXPECT_EQ(plan.passes, 0u);
    return;
  }
  std::vector<uint32_t> sequence(num_inputs);
  for (uint32_t i = 0; i < num_inputs; ++i) sequence[i] = i;
  std::vector<int> consumed(plan.node_count(), 0);
  uint32_t last_pass = 0;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const MergeStep& step = plan.steps[s];
    ASSERT_GE(step.inputs.size(), 1u);
    ASSERT_LE(step.inputs.size(), fan_in);
    ASSERT_GE(step.pass, last_pass) << "steps not emitted pass by pass";
    last_pass = step.pass;
    // Locate the step's first input in the current sequence; the rest must
    // follow it immediately, in order (contiguity).
    auto at = std::find(sequence.begin(), sequence.end(), step.inputs[0]);
    ASSERT_NE(at, sequence.end()) << "step consumes an unavailable node";
    size_t pos = static_cast<size_t>(at - sequence.begin());
    ASSERT_LE(pos + step.inputs.size(), sequence.size());
    uint64_t expected_bytes = 0;
    for (size_t i = 0; i < step.inputs.size(); ++i) {
      ASSERT_EQ(sequence[pos + i], step.inputs[i])
          << "step " << s << " is not a contiguous in-order span";
      ASSERT_EQ(consumed[step.inputs[i]], 0);
      consumed[step.inputs[i]] = 1;
      expected_bytes += plan.node_bytes[step.inputs[i]];
    }
    EXPECT_EQ(plan.node_bytes[step.output], expected_bytes);
    EXPECT_EQ(step.final, s + 1 == plan.steps.size());
    sequence.erase(sequence.begin() + static_cast<long>(pos),
                   sequence.begin() + static_cast<long>(pos) +
                       static_cast<long>(step.inputs.size()));
    sequence.insert(sequence.begin() + static_cast<long>(pos), step.output);
  }
  ASSERT_EQ(sequence.size(), 1u);
  EXPECT_EQ(sequence.front(), plan.root());
  for (uint32_t i = 0; i < num_inputs; ++i) {
    EXPECT_EQ(consumed[i], 1) << "input run " << i << " never merged";
  }
}

std::vector<uint64_t> RandomRunBytes(uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<uint64_t> bytes;
  bytes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Skewed sizes: mostly small runs with occasional giants, the shape
    // replacement selection + graceful degeneration actually produce.
    uint64_t base = 1 + rng.Uniform(64);
    if (rng.Uniform(8) == 0) base *= 1 + rng.Uniform(100);
    bytes.push_back(base * 512);
  }
  return bytes;
}

TEST(MergePlanner, SingleRunYieldsEmptyPlan) {
  MergePlan plan = MergePlanner::Plan({4096}, 4, MergePolicy::kPlanned);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_EQ(plan.passes, 0u);
  EXPECT_EQ(plan.predicted_bytes_moved(), 0u);
}

TEST(MergePlanner, GreedyReproducesHistoricalPassStructure) {
  // 10 runs at fan-in 4: pass 0 = [0..3][4..7][8..9], pass 1 = the three
  // outputs — exactly the old left-to-right loop, including the trailing
  // narrow group.
  std::vector<uint64_t> bytes(10, 1024);
  MergePlan plan = MergePlanner::Plan(bytes, 4, MergePolicy::kGreedy);
  EXPECT_EQ(plan.passes, 2u);
  ASSERT_EQ(plan.steps.size(), 4u);
  EXPECT_EQ(plan.steps[0].inputs, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(plan.steps[1].inputs, (std::vector<uint32_t>{4, 5, 6, 7}));
  EXPECT_EQ(plan.steps[2].inputs, (std::vector<uint32_t>{8, 9}));
  EXPECT_EQ(plan.steps[3].inputs, (std::vector<uint32_t>{10, 11, 12}));
  EXPECT_EQ(plan.passes, MergePlanner::GreedyPassCount(10, 4));
  CheckPlanShape(plan, 10, 4);
}

TEST(MergePlanner, GracefulDegradationMergesOnlyTheCheapestWindow) {
  // One run over the fan-in: instead of greedy's full pass over everything
  // plus a second pass, the planner merges one two-run window (the
  // cheapest) and finishes at full fan-in.
  std::vector<uint64_t> bytes = {8192, 1024, 1024, 8192, 8192};
  MergePlan greedy = MergePlanner::Plan(bytes, 4, MergePolicy::kGreedy);
  MergePlan planned = MergePlanner::Plan(bytes, 4, MergePolicy::kPlanned);
  ASSERT_EQ(planned.steps.size(), 2u);
  EXPECT_EQ(planned.steps[0].inputs, (std::vector<uint32_t>{1, 2}));
  EXPECT_LE(planned.passes, greedy.passes);
  EXPECT_LT(planned.predicted_bytes_moved(), greedy.predicted_bytes_moved());
  CheckPlanShape(planned, 5, 4);
}

// The planner's contract, property-tested: for random skewed run sizes
// across fan-ins, the planned schedule is well-formed, never runs more
// passes than greedy, never moves more bytes, and never emits copy steps.
TEST(MergePlanner, PlannedNeverWorseThanGreedyProperty) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed * 977);
    size_t count = 2 + rng.Uniform(199);
    std::vector<uint64_t> bytes = RandomRunBytes(seed, count);
    for (uint64_t fan_in : {2u, 3u, 5u, 8u}) {
      MergePlan greedy = MergePlanner::Plan(bytes, fan_in,
                                            MergePolicy::kGreedy);
      MergePlan planned = MergePlanner::Plan(bytes, fan_in,
                                             MergePolicy::kPlanned);
      CheckPlanShape(greedy, count, fan_in);
      CheckPlanShape(planned, count, fan_in);
      EXPECT_EQ(greedy.passes, MergePlanner::GreedyPassCount(count, fan_in));
      EXPECT_LE(planned.passes, greedy.passes)
          << "seed=" << seed << " n=" << count << " F=" << fan_in;
      EXPECT_LE(planned.predicted_bytes_moved(),
                greedy.predicted_bytes_moved())
          << "seed=" << seed << " n=" << count << " F=" << fan_in;
      for (const MergeStep& step : planned.steps) {
        EXPECT_GE(step.inputs.size(), 2u) << "planned copy step";
      }
    }
  }
}

// ----------------------------------------------- sorter byte-identity ---

std::vector<Record> RandomRecords(uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<Record> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Heavy duplication: 25 distinct keys, so any regrouping that breaks
    // merge stability reorders values and the byte comparison catches it.
    records.emplace_back("k" + std::to_string(rng.Uniform(25)),
                         rng.Identifier(80 + rng.Uniform(120)));
  }
  return records;
}

std::vector<Record> SortWithMergePolicy(const std::vector<Record>& records,
                                        uint64_t memory_blocks,
                                        MergePolicy policy,
                                        ExtSortStats* stats = nullptr) {
  Env env;
  RunStore store(env.device(), env.budget());
  ExternalMergeSorter sorter(&store, {.memory_blocks = memory_blocks,
                                      .merge_policy = policy});
  NEX_EXPECT_OK(sorter.init_status());
  for (const Record& record : records) {
    NEX_EXPECT_OK(sorter.Add(record.first, record.second));
  }
  NEX_EXPECT_OK(sorter.Finish());
  std::vector<Record> out;
  std::string key;
  std::string value;
  while (true) {
    auto more = sorter.Next(&key, &value);
    NEX_EXPECT_OK(more.status());
    if (!more.ok() || !more.value()) break;
    out.emplace_back(key, value);
  }
  if (stats != nullptr) *stats = sorter.stats();
  return out;
}

TEST(MergePolicyIdentity, ExternalSorterByteIdenticalAcrossFanIns) {
  for (uint64_t seed : {2u, 11u}) {
    std::vector<Record> records = RandomRecords(seed, 700);
    for (uint64_t memory_blocks : {3u, 4u, 8u}) {
      ExtSortStats greedy_stats;
      ExtSortStats planned_stats;
      std::vector<Record> greedy = SortWithMergePolicy(
          records, memory_blocks, MergePolicy::kGreedy, &greedy_stats);
      std::vector<Record> planned = SortWithMergePolicy(
          records, memory_blocks, MergePolicy::kPlanned, &planned_stats);
      ASSERT_EQ(greedy.size(), records.size());
      EXPECT_EQ(greedy, planned)
          << "seed=" << seed << " M=" << memory_blocks;
      EXPECT_LE(planned_stats.merge_passes, greedy_stats.merge_passes);
      EXPECT_LE(planned_stats.plan.actual_bytes,
                greedy_stats.plan.actual_bytes);
    }
  }
}

// The merge_plan stats block must satisfy its consumed-exactly-once
// invariant after a real multi-plan job, and the planner's size
// predictions must match what the writers actually produced.
TEST(MergePolicyIdentity, PlanStatsInvariantsHold) {
  std::vector<Record> records = RandomRecords(/*seed=*/5, 900);
  for (MergePolicy policy : {MergePolicy::kGreedy, MergePolicy::kPlanned}) {
    ExtSortStats stats;
    SortWithMergePolicy(records, /*memory_blocks=*/3, policy, &stats);
    const MergePlanStats& plan = stats.plan;
    ASSERT_EQ(plan.plans, 1u);
    EXPECT_GT(plan.steps, 0u);
    EXPECT_EQ(plan.fanin_total, plan.input_runs + plan.steps - plan.plans);
    EXPECT_EQ(plan.predicted_bytes, plan.actual_bytes);
    EXPECT_GE(plan.fanin_min, policy == MergePolicy::kPlanned ? 2u : 1u);
    EXPECT_LE(plan.fanin_max, 2u);  // fan-in is memory_blocks - 1
  }
}

std::string ManyElements(size_t count, uint64_t seed = 17) {
  Random rng(seed);
  std::string xml = "<root>";
  for (size_t i = 0; i < count; ++i) {
    xml += "<item id=\"" + std::to_string(rng.Uniform(500)) + "\"><payload>" +
           rng.Identifier(60) + "</payload></item>";
  }
  xml += "</root>";
  return xml;
}

NexSortOptions ExternalNexOptions(MergePolicy policy, bool placement = true) {
  NexSortOptions options;
  OrderRule rule;
  rule.element = "*";
  rule.source = KeySource::kAttribute;
  rule.argument = "id";
  rule.numeric = true;
  options.order.AddRule(rule);
  options.sort_threshold = 2 * 1024;  // force the external subtree path
  options.merge_policy = policy;
  options.dfs_placement = placement;
  return options;
}

TEST(MergePolicyIdentity, NexSortEagerStreamedAndPlacementOff) {
  std::string xml = ManyElements(1500);
  NexSortStats greedy_stats;
  std::string greedy = nexsort::testing::NexSortString(
      xml, ExternalNexOptions(MergePolicy::kGreedy), 1024, 32, &greedy_stats);
  NexSortStats planned_stats;
  std::string planned = nexsort::testing::NexSortString(
      xml, ExternalNexOptions(MergePolicy::kPlanned), 1024, 32,
      &planned_stats);
  ASSERT_GT(greedy_stats.sorts.external_sorts, 0u)
      << "threshold failed to force external subtree sorts";
  EXPECT_EQ(planned, greedy);
  EXPECT_LE(planned_stats.sorts.merge_passes,
            greedy_stats.sorts.merge_passes);

  // Placement changes block ids only — never a byte of output.
  std::string unplaced = nexsort::testing::NexSortString(
      xml, ExternalNexOptions(MergePolicy::kPlanned, /*placement=*/false),
      1024, 32);
  EXPECT_EQ(unplaced, planned);

  // Streamed output under kPlanned matches the eager kGreedy bytes.
  Env env(1024, 32);
  NexSorter sorter(env.get(), ExternalNexOptions(MergePolicy::kPlanned));
  StringByteSource source(xml);
  auto stream_or = sorter.SortStream(&source);
  ASSERT_TRUE(stream_or.ok()) << stream_or.status().ToString();
  std::string streamed;
  std::string_view chunk;
  while (true) {
    auto more = stream_or.value()->Next(&chunk);
    NEX_ASSERT_OK(more.status());
    if (!more.value()) break;
    streamed.append(chunk);
  }
  EXPECT_EQ(streamed, greedy);
}

TEST(MergePolicyIdentity, KeyPathSorterByteIdentical) {
  std::string xml = ManyElements(1200, /*seed=*/23);
  KeyPathSortOptions options;
  OrderRule rule;
  rule.element = "*";
  rule.source = KeySource::kAttribute;
  rule.argument = "id";
  rule.numeric = true;
  options.order.AddRule(rule);
  options.merge_policy = MergePolicy::kGreedy;
  std::string greedy = nexsort::testing::KeyPathSortString(xml, options);
  options.merge_policy = MergePolicy::kPlanned;
  std::string planned = nexsort::testing::KeyPathSortString(xml, options);
  EXPECT_EQ(planned, greedy);
}

TEST(MergePolicyIdentity, ServiceJobsByteIdenticalAcrossPolicies) {
  ServiceOptions options;
  options.env.block_size = 1024;
  options.env.memory_blocks = 48;
  options.executors = 2;
  auto service_or = SortService::Create(std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();

  std::string xml = ManyElements(800, /*seed=*/31);
  std::map<std::string, std::string> outputs;
  for (const char* policy : {"greedy", "planned"}) {
    JobRequest request;
    request.order_text = "item:attr(id)n";
    request.input_text = xml;
    request.return_output = true;
    request.merge_policy = policy;
    uint64_t job_id = 0;
    NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
    auto done = service.Wait(job_id);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    ASSERT_EQ(done.value().state, JobStatus::State::kDone)
        << done.value().error;
    auto output = service.TakeOutput(job_id);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    outputs[policy] = std::move(output).value();
  }
  EXPECT_EQ(outputs["greedy"], outputs["planned"]);

  // An otherwise-valid request with an unknown policy is rejected at
  // Submit, not at execution.
  JobRequest bogus;
  bogus.order_text = "item:attr(id)n";
  bogus.input_text = "<root><item id=\"1\"/></root>";
  bogus.merge_policy = "fastest";
  uint64_t id = 0;
  EXPECT_TRUE(service.Submit(std::move(bogus), &id).IsInvalidArgument());
}

// ------------------------------------------------------- cancellation ---

// Cancelling between run formation and the merge unwinds through the plan
// executor: the step's writer, its sources, and the leftover runs all
// release; the budget returns to exactly zero.
TEST(MergePlanCancellation, MidMergeCancelUnwindsBudgetExactly) {
  for (MergePolicy policy : {MergePolicy::kGreedy, MergePolicy::kPlanned}) {
    Env env;
    CancellationToken cancel;
    {
      RunStore store(env.device(), env.budget());
      ExternalMergeSorter sorter(&store, {.memory_blocks = 4,
                                          .cancel = &cancel,
                                          .merge_policy = policy});
      NEX_ASSERT_OK(sorter.init_status());
      for (const Record& record : RandomRecords(/*seed=*/9, 600)) {
        NEX_ASSERT_OK(sorter.Add(record.first, record.second));
      }
      // Finish spills the final partial buffer inline (no poll) and then
      // enters the plan executor, whose per-record poll observes the flag
      // with a live step writer and open sources — genuinely mid-merge.
      cancel.Cancel();
      Status finished = sorter.Finish();
      EXPECT_TRUE(finished.IsCancelled()) << finished.ToString();
      EXPECT_GT(sorter.stats().initial_runs, 1u);
      EXPECT_EQ(sorter.stats().plan.plans, 1u)
          << "cancellation fired before the merge phase began";
    }
    EXPECT_EQ(env.budget()->used_blocks(), 0u) << "policy leaked budget";
    EXPECT_EQ(env.budget()->release_underflows(), 0u);
  }
}

// --------------------------------------------------------- placement ----

std::string BlockOfBytes(size_t block_size, char fill) {
  return std::string(block_size, fill);
}

TEST(RunPlacement, SequentialHintYieldsContiguousAscendingBlocks) {
  Env env;
  const size_t block_size = env.device()->block_size();
  RunStore store(env.device(), env.budget());

  RunWriter writer = store.NewRun(IoCategory::kRunWrite,
                                  PlacementHint::kSequentialOutput);
  NEX_ASSERT_OK(writer.init_status());
  for (int i = 0; i < 5; ++i) {
    NEX_ASSERT_OK(writer.Append(BlockOfBytes(block_size, 'a' + i)));
  }
  RunHandle placed;
  NEX_ASSERT_OK(writer.Finish(&placed));

  std::vector<uint64_t> blocks;
  NEX_ASSERT_OK(store.SnapshotBlocks(placed, &blocks));
  ASSERT_EQ(blocks.size(), 5u);
  for (size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i], blocks[i - 1] + 1) << "placed run not contiguous";
  }

  // Freeing the run reunites its blocks with the extent's returned tail,
  // leaving one full free extent — the next placed run must reuse it
  // (contiguously) instead of growing the device.
  NEX_ASSERT_OK(store.FreeRun(placed));
  RunWriter second = store.NewRun(IoCategory::kRunWrite,
                                  PlacementHint::kSequentialOutput);
  NEX_ASSERT_OK(second.init_status());
  for (int i = 0; i < 4; ++i) {
    NEX_ASSERT_OK(second.Append(BlockOfBytes(block_size, 'z')));
  }
  RunHandle reused;
  NEX_ASSERT_OK(second.Finish(&reused));
  std::vector<uint64_t> reused_blocks;
  NEX_ASSERT_OK(store.SnapshotBlocks(reused, &reused_blocks));
  ASSERT_EQ(reused_blocks.size(), 4u);
  for (size_t i = 1; i < reused_blocks.size(); ++i) {
    EXPECT_EQ(reused_blocks[i], reused_blocks[i - 1] + 1);
  }
  for (uint64_t id : reused_blocks) {
    EXPECT_LT(id, RunStore::kPlacementExtentBlocks)
        << "second placed run grew the device instead of reusing the "
           "recycled extent";
  }
  NEX_ASSERT_OK(store.FreeRun(reused));
  EXPECT_EQ(store.live_blocks(), 0u);
}

TEST(RunPlacement, RelocateSequentialCompactsAndPreservesContents) {
  Env env;
  const size_t block_size = env.device()->block_size();
  RunStore store(env.device(), env.budget());

  // Interleave two scratch writers so each run's blocks alternate.
  RunWriter a = store.NewRun();
  RunWriter b = store.NewRun();
  NEX_ASSERT_OK(a.init_status());
  NEX_ASSERT_OK(b.init_status());
  for (int i = 0; i < 3; ++i) {
    NEX_ASSERT_OK(a.Append(BlockOfBytes(block_size, 'A' + i)));
    NEX_ASSERT_OK(b.Append(BlockOfBytes(block_size, 'x')));
  }
  RunHandle run_a;
  RunHandle run_b;
  NEX_ASSERT_OK(a.Finish(&run_a));
  NEX_ASSERT_OK(b.Finish(&run_b));

  std::vector<uint64_t> before;
  NEX_ASSERT_OK(store.SnapshotBlocks(run_a, &before));
  bool scattered = false;
  for (size_t i = 1; i < before.size(); ++i) {
    scattered |= before[i] != before[i - 1] + 1;
  }
  ASSERT_TRUE(scattered) << "interleaving failed to scatter the run";

  const uint64_t live_before = store.live_blocks();
  const uint64_t bytes_before = run_a.byte_size;
  NEX_ASSERT_OK(store.RelocateSequential(&run_a));
  EXPECT_EQ(run_a.byte_size, bytes_before);
  EXPECT_EQ(store.live_blocks(), live_before);
  std::vector<uint64_t> after;
  NEX_ASSERT_OK(store.SnapshotBlocks(run_a, &after));
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 1; i < after.size(); ++i) {
    EXPECT_EQ(after[i], after[i - 1] + 1) << "relocation left a seam";
  }

  {
    // Scoped: the reader holds a one-block reservation until destroyed.
    RunReader reader = store.OpenRun(run_a);
    NEX_ASSERT_OK(reader.init_status());
    std::string contents(run_a.byte_size, '\0');
    NEX_ASSERT_OK(reader.ReadExact(contents.data(), contents.size()));
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(contents[static_cast<size_t>(i) * block_size],
                static_cast<char>('A' + i));
    }
  }
  NEX_ASSERT_OK(store.FreeRun(run_a));
  NEX_ASSERT_OK(store.FreeRun(run_b));
  EXPECT_EQ(env.budget()->used_blocks(), 0u);
}

// Placement must not lower the physical device's sequential-read share of
// the output phase: with DFS placement on, the end-to-end sort sees at
// least the sequential fraction of the unplaced run.
TEST(RunPlacement, SequentialReadShareDoesNotRegress) {
  std::string xml = ManyElements(1500, /*seed=*/41);
  auto fraction = [&](bool placement) {
    Env env(1024, 32);
    NexSorter sorter(env.get(),
                     ExternalNexOptions(MergePolicy::kPlanned, placement));
    StringByteSource source(xml);
    std::string out;
    StringByteSink sink(&out);
    NEX_EXPECT_OK(sorter.Sort(&source, &sink));
    const IoStats& io = env.device()->stats();
    uint64_t reads = io.reads.load();
    return reads == 0 ? 0.0
                      : static_cast<double>(io.sequential_reads.load()) /
                            static_cast<double>(reads);
  };
  EXPECT_GE(fraction(true) + 1e-9, fraction(false));
}

// ------------------------------------------------- advisory read-ahead --

TEST(AdvisoryReadAhead, PrefetchesFollowAdvisedOrderAcrossSeams) {
  auto device = NewMemoryBlockDevice(256);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(16, &first));
  MemoryBudget budget(16);
  BufferPool pool(device.get(), &budget, {.frames = 8, .prefetch_depth = 3});
  NEX_ASSERT_OK(pool.init_status());

  // A deliberately non-adjacent traversal order: id adjacency says
  // nothing about it, so every prefetch observed comes from the advice.
  std::vector<uint64_t> order = {0, 5, 2, 9, 7, 12};
  BufferPool::ReadAdvice advice = pool.AdviseReadSequence(order);
  std::vector<char> buf(256);
  for (uint64_t id : order) {
    NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kRunRead));
  }
  CacheStats stats = pool.stats();
  EXPECT_GT(stats.prefetches, 0u) << "advice triggered no prefetch";
  EXPECT_GT(stats.hits, 0u) << "advised prefetches never became hits";

  // Released advice: the same scattered order triggers nothing further.
  advice.Release();
  const uint64_t prefetches_before = stats.prefetches;
  for (uint64_t id : {1u, 6u, 3u, 10u}) {
    NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kRunRead));
  }
  EXPECT_EQ(pool.stats().prefetches, prefetches_before)
      << "stale advice outlived its handle";
}

TEST(AdvisoryReadAhead, StaleIdsAndDisabledReadaheadAreHarmless) {
  auto device = NewMemoryBlockDevice(256);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(4, &first));
  MemoryBudget budget(16);
  {
    // prefetch_depth == 0: advice must be a no-op, not a crash.
    BufferPool pool(device.get(), &budget, {.frames = 4});
    NEX_ASSERT_OK(pool.init_status());
    BufferPool::ReadAdvice advice = pool.AdviseReadSequence({0, 1, 2});
    std::vector<char> buf(256);
    for (uint64_t id : {0u, 1u, 2u}) {
      NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kRunRead));
    }
    EXPECT_EQ(pool.stats().prefetches, 0u);
    EXPECT_EQ(advice.Release(), 0u);
  }
  {
    // Advice naming blocks past the device's end skips them best-effort.
    BufferPool pool(device.get(), &budget, {.frames = 4, .prefetch_depth = 2});
    NEX_ASSERT_OK(pool.init_status());
    BufferPool::ReadAdvice advice =
        pool.AdviseReadSequence({0, 1, 999, 2, 3});
    std::vector<char> buf(256);
    for (uint64_t id : {0u, 1u, 2u, 3u}) {
      NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kRunRead));
    }
    EXPECT_GE(pool.stats().hits, 1u);
  }
}

}  // namespace
}  // namespace nexsort
