// Buffer-pool sweep on the Figure-5 workload: fixed memory budget M, an
// increasing share of it spent on block-cache frames instead of sort
// memory. Reports *physical* I/O on the backing device (the cache
// wrapper absorbs repeat accesses), the I/O saved against the uncached
// baseline, and the pool's hit rate — and checks that every cached run
// produces byte-identical output. The trade is real: frames given to the
// cache come out of the same M the subtree sorts use, so the interesting
// region is where the stacks' hot tails and merge inputs fit in cache
// without starving the sorter.
#include "bench/bench_common.h"
#include "util/string_util.h"

using namespace nexsort;
using namespace nexsort::bench;

int main(int argc, char** argv) {
  BenchJsonLog json_log(argc, argv, "cache");
  GeneratorStats doc_stats;
  std::string xml = MakeRandomDoc(/*height=*/7, /*max_fanout=*/10,
                                  /*seed=*/42, &doc_stats);
  constexpr uint64_t kMemoryBlocks = 128;
  constexpr uint64_t kPrefetchDepth = 4;
  std::printf("Buffer-pool cache sweep (fig5 workload, fixed M)\n");
  std::printf("document: %s elements, k=%llu, height=%d, %s\n",
              WithCommas(doc_stats.elements).c_str(),
              static_cast<unsigned long long>(doc_stats.max_fanout),
              doc_stats.height, HumanBytes(doc_stats.bytes).c_str());
  std::printf("block size %zu, M=%llu blocks, prefetch depth %llu\n",
              kBlockSize, static_cast<unsigned long long>(kMemoryBlocks),
              static_cast<unsigned long long>(kPrefetchDepth));

  std::string baseline_output;
  uint64_t baseline_io = 0;
  PrintHeader("Cache sweep",
              "  frames | physical I/O |    saved | saved% | hit rate | "
              "prefetch | model(s) | output");
  for (uint64_t frames : {0, 4, 8, 16, 32, 48, 64}) {
    NexSortOptions options = DefaultNexOptions();
    SortEnvOptions env_options;
    env_options.block_size = kBlockSize;
    env_options.memory_blocks = kMemoryBlocks;
    env_options.cache = {.frames = frames,
                         .prefetch_depth = frames > 0 ? kPrefetchDepth : 0};
    std::string output;
    RunResult result = RunNexSort(xml, std::move(env_options),
                                  std::move(options), json_log.enabled(),
                                  &output);
    CheckOk(result, "nexsort");
    json_log.AddRow("nexsort_cached",
                    {{"memory_blocks", kMemoryBlocks},
                     {"cache_frames", frames},
                     {"prefetch_depth", frames > 0 ? kPrefetchDepth : 0}},
                    result);
    bool identical;
    if (frames == 0) {
      baseline_output = std::move(output);
      baseline_io = result.io_total;
      identical = true;
    } else {
      identical = output == baseline_output;
    }
    uint64_t saved = baseline_io > result.io_total
                         ? baseline_io - result.io_total
                         : 0;
    std::printf("  %6llu | %12llu | %8llu | %5.1f%% | %7.1f%% | %8llu | "
                "%8.2f | %s\n",
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(result.io_total),
                static_cast<unsigned long long>(saved),
                baseline_io == 0 ? 0.0 : 100.0 * saved / baseline_io,
                result.cache.hit_rate() * 100.0,
                static_cast<unsigned long long>(result.cache.prefetches),
                result.modeled_seconds,
                identical ? "identical" : "DIFFERS!");
    if (!identical) {
      std::fprintf(stderr, "cached output differs from uncached baseline "
                           "at %llu frames\n",
                   static_cast<unsigned long long>(frames));
      return 1;
    }
  }
  std::printf(
      "\nexpected shape: physical I/O falls as frames absorb the stacks'\n"
      "hot tails, then levels off (or rebounds) once cache frames start\n"
      "starving the subtree sorts of working memory.\n");
  json_log.Write();
  return 0;
}
