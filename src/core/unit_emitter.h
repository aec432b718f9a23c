// UnitXmlEmitter renders a depth-first stream of element units back into
// XML text, reconstructing the eliminated end tags from level transitions
// (paper Section 3.2): a transition from level l1 to a unit at level
// l2 <= l1 closes l1 - l2 + 1 elements. The open-tag bookkeeping lives on an
// external stack, mirroring the paper's "structure similar to the path
// stack" for the output phase. Shared by NEXSORT's output phase and the
// key-path merge-sort baseline.
#pragma once

#include <string>

#include "core/element_unit.h"
#include "extmem/block_device.h"
#include "extmem/ext_stack.h"
#include "extmem/memory_budget.h"
#include "extmem/stream.h"
#include "util/status.h"
#include "xml/dictionary.h"

namespace nexsort {

struct UnitEmitterOptions {
  /// Indent with two spaces per level; text stays inline with its element.
  bool pretty = false;
};

class UnitXmlEmitter {
 public:
  UnitXmlEmitter(BlockDevice* device, MemoryBudget* budget,
                 NameDictionary* dictionary, ByteSink* output,
                 UnitEmitterOptions options = {});

  const Status& init_status() const { return tags_.init_status(); }

  /// Emit one decoded unit (kStart or kText; kEnd units are ignored since
  /// levels already carry the structure). Units must arrive in depth-first
  /// order.
  [[nodiscard]] Status Emit(const UnitView& unit);

  /// Close all open elements and flush. Must be called exactly once.
  [[nodiscard]] Status Finish();

  uint64_t output_bytes() const { return output_bytes_; }

 private:
  struct OpenTag {
    uint32_t name_id = 0;
    uint32_t level = 0;
    uint32_t flags = 0;  // kHadElementChild | kHadText
  };
  static constexpr uint32_t kHadElementChild = 1;
  static constexpr uint32_t kHadText = 2;

  [[nodiscard]] Status CloseTo(uint32_t level);
  [[nodiscard]] Status FlushIfLarge();
  void Indent(uint32_t level);

  NameDictionary* dictionary_;
  ByteSink* output_;
  const UnitEmitterOptions options_;
  ExtStack<OpenTag> tags_;
  std::string buffer_;
  uint64_t output_bytes_ = 0;
  bool wrote_anything_ = false;
};

}  // namespace nexsort
