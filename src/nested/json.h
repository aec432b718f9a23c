// Nested data beyond XML (paper Section 6: "while discussed in the context
// of XML, our results apply to any type of nested data in general").
// This module lets NEXSORT sort JSON documents in external memory by
// translating JSON to an equivalent element tree, sorting it with the
// unchanged NEXSORT engine, and translating back.
//
// Mapping (attribute-only, so values survive whitespace normalization):
//   object            <o> ... </o>        members as <m k="name">value</m>
//   array             <a> ... </a>        item values as direct children
//   string "s"        <s v="s"/>
//   number 1.5        <n v="1.5"/>        (lexeme preserved verbatim)
//   true/false        <b v="true"/>
//   null              <z/>
// Array items additionally carry a synthesized attribute nxk holding their
// sort key (extracted during translation from the configured member path),
// which is stripped on the way back.
//
// Input is read by the tree's one JSON reader (nested/json_reader.h):
// strict RFC 8259, errors of the form "json: <what> at byte N", the same
// verdict JsonValue::Parse gives. Unlike JsonValue there is no depth cap:
// both translations keep open containers on explicit stacks, so nesting is
// bounded by the input, as XML depth is; and numbers beyond a double's
// range are kept, since only their lexeme is ever used.
#pragma once

#include <string>

#include "core/nexsort.h"
#include "env/sort_env.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/stream.h"
#include "util/status.h"

namespace nexsort {

struct JsonSortOptions {
  /// Order every object's members by member name.
  bool sort_object_members = true;

  /// Order array items by the scalar at this '/'-separated member path
  /// inside each item (e.g. "id" or "meta/id"); an empty path with
  /// sort_arrays_by_value sorts scalar arrays by their own values. Items
  /// lacking the key keep document order ahead of keyed items.
  std::string sort_arrays_by;

  /// Sort arrays of scalars by the scalar values themselves.
  bool sort_arrays_by_value = false;

  /// Compare array keys numerically.
  bool numeric_array_keys = false;
};

/// Totals from one JSON sort.
struct JsonSortStats {
  uint64_t values = 0;   // scalar + container count
  uint64_t objects = 0;
  uint64_t arrays = 0;
  NexSortStats sort;     // the underlying NEXSORT run
};

/// External-memory JSON sorter: translate, NEXSORT, translate back. The
/// translated document lives on the env's device (counted like everything
/// else); the budget is shared with the sort.
class JsonSorter {
 public:
  /// `env` is not owned and must outlive the sorter.
  JsonSorter(SortEnv* env, JsonSortOptions options);

  /// Sort JSON text from `input` into `output`. Single use.
  [[nodiscard]] Status Sort(ByteSource* input, ByteSink* output);

  const JsonSortStats& stats() const { return stats_; }

 private:
  SortEnv* env_;
  BlockDevice* device_;
  MemoryBudget* budget_;
  JsonSortOptions options_;
  JsonSortStats stats_;
  bool used_ = false;
};

/// Translate JSON text to its element-tree encoding (exposed for tests and
/// for building custom pipelines). `options` drives nxk key extraction.
[[nodiscard]] Status JsonToXml(ByteSource* input, ByteSink* output,
                 const JsonSortOptions& options, JsonSortStats* stats);

/// Translate the element-tree encoding back to compact JSON text.
[[nodiscard]] Status XmlToJson(ByteSource* input, ByteSink* output);

/// The OrderSpec matching the encoding and `options`.
OrderSpec JsonOrderSpec(const JsonSortOptions& options);

}  // namespace nexsort
