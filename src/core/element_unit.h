// ElementUnit: the unit of XML data NEXSORT pushes onto the data stack and
// stores in sorted runs. The serialized form natively implements the
// paper's compaction techniques (Section 3.2):
//   * end tags are eliminated — start units carry level numbers, and end
//     tags are reconstructed from level transitions during output;
//   * tag and attribute names are interned in a NameDictionary and stored
//     as small integers (toggle via UnitFormat for the ablation).
//
// Unit kinds:
//   kStart    — an element start tag: level, sequence number, name,
//               attributes, normalized sort key.
//   kText     — a text node (level = parent level + 1).
//   kEnd      — an element end; only materialized when the ordering uses
//               complex criteria (the resolved key rides on the end, as in
//               Section 3.2) or when the compaction ablation keeps ends.
//   kPointer  — a collapsed subtree: the root element was sorted into a run
//               and replaced by this unit carrying its key and the run
//               pointer (paper Figure 2).
//   kFragment — an incomplete sorted run for the graceful-degeneration
//               optimization: a sorted forest of children of the innermost
//               open element, to be merged at that element's sort.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/run_store.h"
#include "util/status.h"
#include "util/varint.h"
#include "xml/dictionary.h"
#include "xml/token.h"

namespace nexsort {

enum class UnitType : uint8_t {
  kStart = 1,
  kText = 2,
  kEnd = 3,
  kPointer = 4,
  kFragment = 5,
};

/// Serialization knobs shared by writers and readers of one sort.
struct UnitFormat {
  /// Store names as dictionary ids (compaction on) or inline strings.
  bool use_dictionary = true;
};

struct ElementUnit {
  UnitType type = UnitType::kStart;
  uint32_t level = 0;  // root element = 1; text nodes = parent + 1
  uint64_t seq = 0;    // document-order sequence (uniqueness + stability)

  std::string key;   // normalized sort key (kStart, kEnd, kPointer)
  std::string name;  // tag name (kStart; resolved through the dictionary)
  std::vector<XmlAttribute> attributes;  // kStart
  std::string text;                      // kText
  RunHandle run;                         // kPointer, kFragment

  /// Serialized size of this unit under `format` (for threshold math).
  size_t EncodedSize(const UnitFormat& format) const;
};

/// Zero-copy view of one serialized unit: what a subtree sort needs to
/// order units and re-emit them verbatim, without materializing an
/// ElementUnit. Fields point into the serialized bytes (names into the
/// dictionary), so a view is valid only while those are.
struct UnitView {
  UnitType type = UnitType::kStart;
  uint32_t level = 0;
  uint64_t seq = 0;
  std::string_view bytes;        // the whole serialized unit
  std::string_view key;          // kStart, kEnd, kPointer
  std::string_view name;         // kStart: tag name, resolved
  std::string_view attributes;   // kStart: encoded (name lp(value))*
  uint64_t attribute_count = 0;  // kStart
  /// kStart: resolves the attribute names' ids; null when names are inline
  /// (UnitFormat::use_dictionary off). See ForEachAttribute.
  const NameDictionary* dictionary = nullptr;
  std::string_view text;         // kText
  RunHandle run;                 // kPointer, kFragment
  /// kStart: offset of lp(key) in `bytes`. The key is a start unit's last
  /// field, so another key is spliced in after bytes[0, key_offset) (see
  /// SpliceStartKey).
  size_t key_offset = 0;
};

namespace unit_view_internal {

[[nodiscard]] inline Status Malformed() {
  return Status::Corruption("truncated or malformed unit");
}

// One name field: a dictionary id (checked against the dictionary) or an
// inline length-prefixed string.
[[nodiscard]] inline Status GetName(std::string_view* input,
                                    const UnitFormat& format,
                                    const NameDictionary* dictionary,
                                    std::string_view* name) {
  if (!format.use_dictionary) {
    return TryGetLengthPrefixed(input, name) ? Status::OK() : Malformed();
  }
  uint32_t id = 0;
  if (!TryGetVarint32(input, &id)) return Malformed();
  const std::string* resolved = dictionary->Find(id);
  if (resolved == nullptr) {
    return Status::Corruption("dictionary id out of range: " +
                              std::to_string(id));
  }
  *name = *resolved;
  return Status::OK();
}

}  // namespace unit_view_internal

/// Decode one unit from the front of *input into *view, advancing past it;
/// on failure *input is left unchanged. Accepts exactly what ParseUnit
/// accepts: ParseUnit is this decoder plus materialization.
[[nodiscard]] inline Status DecodeUnitView(std::string_view* input,
                                           UnitView* view,
                                           const UnitFormat& format,
                                           const NameDictionary* dictionary) {
  namespace in = unit_view_internal;
  const std::string_view whole = *input;
  if (whole.empty()) return Status::Corruption("empty unit");
  uint8_t type_byte = static_cast<uint8_t>(whole.front());
  if (type_byte < 1 || type_byte > 5) {
    return Status::Corruption("bad unit type " + std::to_string(type_byte));
  }
  std::string_view rest = whole.substr(1);
  *view = UnitView();
  view->type = static_cast<UnitType>(type_byte);
  if (!TryGetVarint32(&rest, &view->level) ||
      !TryGetVarint64(&rest, &view->seq)) {
    return in::Malformed();
  }
  bool ok = true;
  switch (view->type) {
    case UnitType::kStart: {
      RETURN_IF_ERROR(in::GetName(&rest, format, dictionary, &view->name));
      if (!TryGetVarint64(&rest, &view->attribute_count)) {
        return in::Malformed();
      }
      if (view->attribute_count > rest.size()) {
        return Status::Corruption("implausible attribute count");
      }
      std::string_view attributes = rest;
      for (uint64_t i = 0; i < view->attribute_count; ++i) {
        std::string_view attr_name;
        std::string_view value;
        RETURN_IF_ERROR(in::GetName(&rest, format, dictionary, &attr_name));
        if (!TryGetLengthPrefixed(&rest, &value)) return in::Malformed();
      }
      view->attributes = attributes.substr(0, attributes.size() - rest.size());
      if (format.use_dictionary) view->dictionary = dictionary;
      view->key_offset = whole.size() - rest.size();
      ok = TryGetLengthPrefixed(&rest, &view->key);
      break;
    }
    case UnitType::kText:
      ok = TryGetLengthPrefixed(&rest, &view->text);
      break;
    case UnitType::kEnd:
      ok = TryGetLengthPrefixed(&rest, &view->key);
      break;
    case UnitType::kPointer:
      ok = TryGetLengthPrefixed(&rest, &view->key) &&
           TryGetVarint32(&rest, &view->run.id) &&
           TryGetVarint64(&rest, &view->run.byte_size);
      break;
    case UnitType::kFragment:
      ok = TryGetVarint32(&rest, &view->run.id) &&
           TryGetVarint64(&rest, &view->run.byte_size);
      break;
  }
  if (!ok) return in::Malformed();
  view->bytes = whole.substr(0, whole.size() - rest.size());
  *input = rest;
  return Status::OK();
}

/// Call fn(name, value) for each attribute of decoded start unit `view`,
/// in document order. The decoder validated the attribute run, so this
/// only walks it.
template <typename Fn>
void ForEachAttribute(const UnitView& view, Fn&& fn) {
  std::string_view rest = view.attributes;
  for (uint64_t i = 0; i < view.attribute_count; ++i) {
    std::string_view name;
    std::string_view value;
    if (view.dictionary != nullptr) {
      uint32_t id = 0;
      TryGetVarint32(&rest, &id);
      name = *view.dictionary->Find(id);
    } else {
      TryGetLengthPrefixed(&rest, &name);
    }
    TryGetLengthPrefixed(&rest, &value);
    fn(name, value);
  }
}

/// Append serialized start unit `start`, whose lp(key) begins at
/// `key_offset` (UnitView::key_offset), to *dst with its key replaced by
/// `key` (a key donated by the element's kEnd unit); every other byte is
/// copied.
inline void SpliceStartKey(std::string* dst, std::string_view start,
                           size_t key_offset, std::string_view key) {
  dst->append(start.substr(0, key_offset));
  PutLengthPrefixed(dst, key);
}

/// Append the serialized unit to *dst, interning names into *dictionary
/// when format.use_dictionary.
void AppendUnit(std::string* dst, const ElementUnit& unit,
                const UnitFormat& format, NameDictionary* dictionary);

/// Parse one unit from the front of *input, advancing past it. Names are
/// resolved through `dictionary` when format.use_dictionary.
[[nodiscard]] Status ParseUnit(std::string_view* input, ElementUnit* unit,
                 const UnitFormat& format, const NameDictionary* dictionary);

/// Streaming unit reader over a sorted run. Tracks the logical byte offset
/// so the output phase can record resume points on the output location
/// stack when it follows a run pointer (paper Figure 4, lines 18-20).
class RunUnitReader {
 public:
  RunUnitReader(RunStore* store, RunHandle handle, uint64_t offset,
                const UnitFormat& format, const NameDictionary* dictionary,
                IoCategory category = IoCategory::kRunRead);

  const Status& init_status() const { return init_status_; }

  /// Read the next unit as a view into the reader's buffer, valid until the
  /// next call; returns false at end of run.
  [[nodiscard]] StatusOr<bool> Next(UnitView* view);

  RunHandle handle() const { return handle_; }

  /// Offset of the first un-consumed unit.
  uint64_t offset() const { return logical_offset_; }

 private:
  RunReader reader_;
  RunHandle handle_;
  const UnitFormat format_;
  const NameDictionary* dictionary_;
  Status init_status_;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  uint64_t logical_offset_ = 0;
};

}  // namespace nexsort
