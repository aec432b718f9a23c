// Micro-benchmarks (google-benchmark) for the building blocks: SAX parse
// throughput, XML escaping/unescaping, key-path encoding, normalized-key
// comparison, loser-tree merge width, external-stack paging, unit
// serialization, and the in-memory subtree sort.
#include <benchmark/benchmark.h>

#include "core/element_unit.h"
#include "core/order_spec.h"
#include "core/subtree_sorter.h"
#include "core/unit_scanner.h"
#include "env/sort_env.h"
#include "extmem/ext_stack.h"
#include "sort/key_path.h"
#include "sort/loser_tree.h"
#include "util/random.h"
#include "xml/escape.h"
#include "xml/generator.h"
#include "xml/sax_parser.h"

namespace nexsort {
namespace {

const std::string& TestDocument() {
  static const std::string doc = [] {
    RandomTreeGenerator generator(5, 8, {.seed = 1, .element_bytes = 150});
    auto xml = generator.GenerateString();
    return xml.ok() ? std::move(xml).value() : std::string();
  }();
  return doc;
}

void BM_SaxParse(benchmark::State& state) {
  const std::string& doc = TestDocument();
  for (auto _ : state) {
    StringByteSource source(doc);
    SaxParser parser(&source);
    XmlEvent event;
    uint64_t events = 0;
    while (true) {
      auto more = parser.Next(&event);
      if (!more.ok() || !*more) break;
      ++events;
    }
    benchmark::DoNotOptimize(events);
  }
  state.SetBytesProcessed(state.iterations() * doc.size());
}
BENCHMARK(BM_SaxParse);

void BM_SaxParseDepthOnly(benchmark::State& state) {
  const std::string& doc = TestDocument();
  SaxOptions options;
  options.check_tag_names = false;
  for (auto _ : state) {
    StringByteSource source(doc);
    SaxParser parser(&source, options);
    XmlEvent event;
    while (true) {
      auto more = parser.Next(&event);
      if (!more.ok() || !*more) break;
    }
  }
  state.SetBytesProcessed(state.iterations() * doc.size());
}
BENCHMARK(BM_SaxParseDepthOnly);

// Attribute values shaped like the benchmark documents': mostly clean
// padding, with the occasional byte that needs an entity.
std::vector<std::string> AttributeValues() {
  Random rng(5);
  std::vector<std::string> values;
  for (int i = 0; i < 256; ++i) {
    std::string value = rng.Identifier(8) + std::string(rng.Uniform(120), 'x');
    if (i % 8 == 0) value.insert(rng.Uniform(value.size()), "&\"<");
    values.push_back(std::move(value));
  }
  return values;
}

void BM_EscapeAttribute(benchmark::State& state) {
  const std::vector<std::string> values = AttributeValues();
  uint64_t bytes = 0;
  for (const std::string& value : values) bytes += value.size();
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const std::string& value : values) {
      AppendEscapedAttribute(&out, value);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_EscapeAttribute);

void BM_Unescape(benchmark::State& state) {
  std::vector<std::string> escaped;
  uint64_t bytes = 0;
  for (const std::string& value : AttributeValues()) {
    escaped.emplace_back();
    AppendEscapedAttribute(&escaped.back(), value);
    bytes += escaped.back().size();
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const std::string& value : escaped) {
      // Escaper output always unescapes.
      (void)AppendUnescaped(&out, value);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_Unescape);

void BM_KeyPathEncode(benchmark::State& state) {
  Random rng(2);
  std::vector<std::pair<std::string, uint64_t>> components;
  for (int i = 0; i < 64; ++i) {
    components.emplace_back(rng.Identifier(8), rng.Next());
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const auto& [key, seq] : components) {
      AppendKeyPathComponent(&out, key, seq);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * components.size());
}
BENCHMARK(BM_KeyPathEncode);

void BM_NumericKeyNormalize(benchmark::State& state) {
  OrderRule rule;
  rule.numeric = true;
  Random rng(3);
  std::vector<std::string> raw;
  for (int i = 0; i < 256; ++i) raw.push_back(std::to_string(rng.Next() % 1000000));
  size_t index = 0;
  for (auto _ : state) {
    std::string key = OrderSpec::NormalizeKey(rule, raw[index++ % raw.size()]);
    benchmark::DoNotOptimize(key.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NumericKeyNormalize);

class VectorSource final : public MergeSource {
 public:
  explicit VectorSource(const std::vector<std::string>* keys) : keys_(keys) {}
  void Reset() { index_ = 0; }
  bool exhausted() const override { return index_ >= keys_->size(); }
  std::string_view key() const override { return (*keys_)[index_]; }
  Status Advance() override {
    ++index_;
    return Status::OK();
  }

 private:
  const std::vector<std::string>* keys_;
  size_t index_ = 0;
};

void BM_LoserTreeMerge(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  Random rng(4);
  std::vector<std::vector<std::string>> runs(k);
  for (auto& run : runs) {
    for (int i = 0; i < 1000; ++i) run.push_back(rng.Identifier(8));
    std::sort(run.begin(), run.end());
  }
  for (auto _ : state) {
    std::vector<VectorSource> sources;
    sources.reserve(k);
    std::vector<MergeSource*> raw;
    for (auto& run : runs) {
      sources.emplace_back(&run);
      raw.push_back(&sources.back());
    }
    LoserTree tree(std::move(raw));
    (void)tree.Init();  // in-memory sources cannot fail
    uint64_t merged = 0;
    while (tree.Min() != nullptr) {
      ++merged;
      (void)tree.AdvanceMin();  // in-memory sources cannot fail
    }
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * k * 1000);
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_ExtStackPushPop(benchmark::State& state) {
  auto env_or =
      SortEnvBuilder().BlockSize(4096).MemoryBlocks(8).Build();
  if (!env_or.ok()) {
    state.SkipWithError("SortEnv::Create failed");
    return;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  for (auto _ : state) {
    ExtStack<uint64_t> stack(env->device(), env->budget(), 1,
                             IoCategory::kPathStack);
    for (uint64_t i = 0; i < 10000; ++i) (void)stack.Push(i);
    uint64_t value = 0;
    for (uint64_t i = 0; i < 10000; ++i) (void)stack.Pop(&value);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_ExtStackPushPop);

void BM_UnitSerialize(benchmark::State& state) {
  NameDictionary dictionary;
  ElementUnit unit;
  unit.type = UnitType::kStart;
  unit.level = 4;
  unit.seq = 123456;
  unit.name = "employee";
  unit.attributes = {{"ID", "48213"}, {"dept", "storage"}};
  unit.key = "48213";
  UnitFormat format;
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    AppendUnit(&buf, unit, format, &dictionary);
    std::string_view view = buf;
    ElementUnit back;
    // Parsing bytes AppendUnit just produced cannot fail.
    (void)ParseUnit(&view, &back, format, &dictionary);
    benchmark::DoNotOptimize(back.seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnitSerialize);

// One whole-document region sorted in memory: the subtree sort NEXSORT
// runs for every subtree that fits, minus the scan that feeds it.
void BM_SortSubtreeInMemory(benchmark::State& state) {
  auto env_or =
      SortEnvBuilder().BlockSize(64 * 1024).MemoryBlocks(64).Build();
  if (!env_or.ok()) {
    state.SkipWithError("SortEnv::Create failed");
    return;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  SortEnv::Session session = env->NewSession();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);
  NameDictionary dictionary;
  UnitFormat format;
  std::string region;
  StringByteSource source(TestDocument());
  UnitScanner scanner(&source, &spec);
  ScanEvent event;
  while (true) {
    auto more = scanner.Next(&event);
    if (!more.ok() || !*more) break;
    if (event.kind != ScanEvent::Kind::kEnd) {
      AppendUnit(&region, event.unit, format, &dictionary);
    }
  }
  SubtreeSortContext ctx;
  ctx.store = session.run_store();
  ctx.dictionary = &dictionary;
  ctx.format = format;
  ctx.memory_blocks = 32;
  SubtreeSortStats stats;
  for (auto _ : state) {
    ElementUnit root;
    auto run = SortSubtreeInMemory(ctx, region, &root, &stats);
    if (!run.ok() || !ctx.store->FreeRun(*run).ok()) {
      state.SkipWithError("subtree sort failed");
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * region.size());
}
BENCHMARK(BM_SortSubtreeInMemory);

}  // namespace
}  // namespace nexsort

BENCHMARK_MAIN();
