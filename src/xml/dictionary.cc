#include "xml/dictionary.h"

namespace nexsort {

uint32_t NameDictionary::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

StatusOr<std::string_view> NameDictionary::Lookup(uint32_t id) const {
  if (id >= names_.size()) {
    return Status::Corruption("dictionary id out of range: " +
                              std::to_string(id));
  }
  return std::string_view(names_[id]);
}

size_t NameDictionary::MemoryBytes() const {
  size_t total = names_.capacity() * sizeof(std::string);
  for (const std::string& name : names_) total += name.capacity();
  total += index_.size() * (sizeof(std::string) + sizeof(uint32_t) + 16);
  return total;
}

}  // namespace nexsort
