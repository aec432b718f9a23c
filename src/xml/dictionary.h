// Tag/attribute-name dictionary implementing the paper's XML compaction
// technique (Section 3.2): "each unique string can be converted to an
// integer before sorting and back during output". NEXSORT interns tag and
// attribute names while scanning and stores 1-2 byte ids in element units
// instead of repeated strings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace nexsort {

/// Bidirectional string <-> dense id map. Ids are assigned in first-seen
/// order, so they are small varints for the handful of distinct names a
/// typical document has.
class NameDictionary {
 public:
  /// Id for `name`, interning it if new. Lookups of known names allocate
  /// nothing.
  uint32_t Intern(std::string_view name);

  /// Name for `id`; Corruption if out of range.
  [[nodiscard]] StatusOr<std::string_view> Lookup(uint32_t id) const;

  /// Name for `id`, or nullptr if out of range: Lookup for hot decoders.
  const std::string* Find(uint32_t id) const {
    return id < names_.size() ? &names_[id] : nullptr;
  }

  size_t size() const { return names_.size(); }

  /// Approximate heap footprint, for memory accounting reports.
  size_t MemoryBytes() const;

 private:
  // Transparent hash so Intern probes with the caller's string_view.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>
      index_;
  std::vector<std::string> names_;
};

}  // namespace nexsort
