#include "core/element_unit.h"

#include "extmem/block_device.h"
#include "util/varint.h"

namespace nexsort {

size_t ElementUnit::EncodedSize(const UnitFormat& format) const {
  // Exact computation is not needed — threshold comparisons tolerate a few
  // bytes of slack — but this stays within one varint of exact.
  size_t size = 1 + VarintLength(level) + VarintLength(seq);
  switch (type) {
    case UnitType::kStart:
      size += format.use_dictionary ? 2 : VarintLength(name.size()) + name.size();
      size += VarintLength(attributes.size());
      for (const XmlAttribute& attr : attributes) {
        size += format.use_dictionary
                    ? 2
                    : VarintLength(attr.name.size()) + attr.name.size();
        size += VarintLength(attr.value.size()) + attr.value.size();
      }
      size += VarintLength(key.size()) + key.size();
      break;
    case UnitType::kText:
      size += VarintLength(text.size()) + text.size();
      break;
    case UnitType::kEnd:
      size += VarintLength(key.size()) + key.size();
      break;
    case UnitType::kPointer:
      size += VarintLength(key.size()) + key.size();
      size += VarintLength(run.id) + VarintLength(run.byte_size);
      break;
    case UnitType::kFragment:
      size += VarintLength(run.id) + VarintLength(run.byte_size);
      break;
  }
  return size;
}

void AppendUnit(std::string* dst, const ElementUnit& unit,
                const UnitFormat& format, NameDictionary* dictionary) {
  dst->push_back(static_cast<char>(unit.type));
  PutVarint32(dst, unit.level);
  PutVarint64(dst, unit.seq);
  switch (unit.type) {
    case UnitType::kStart:
      if (format.use_dictionary) {
        PutVarint32(dst, dictionary->Intern(unit.name));
      } else {
        PutLengthPrefixed(dst, unit.name);
      }
      PutVarint64(dst, unit.attributes.size());
      for (const XmlAttribute& attr : unit.attributes) {
        if (format.use_dictionary) {
          PutVarint32(dst, dictionary->Intern(attr.name));
        } else {
          PutLengthPrefixed(dst, attr.name);
        }
        PutLengthPrefixed(dst, attr.value);
      }
      PutLengthPrefixed(dst, unit.key);
      break;
    case UnitType::kText:
      PutLengthPrefixed(dst, unit.text);
      break;
    case UnitType::kEnd:
      PutLengthPrefixed(dst, unit.key);
      break;
    case UnitType::kPointer:
      PutLengthPrefixed(dst, unit.key);
      PutVarint32(dst, unit.run.id);
      PutVarint64(dst, unit.run.byte_size);
      break;
    case UnitType::kFragment:
      PutVarint32(dst, unit.run.id);
      PutVarint64(dst, unit.run.byte_size);
      break;
  }
}

Status ParseUnit(std::string_view* input, ElementUnit* unit,
                 const UnitFormat& format, const NameDictionary* dictionary) {
  UnitView view;
  RETURN_IF_ERROR(DecodeUnitView(input, &view, format, dictionary));
  unit->type = view.type;
  unit->level = view.level;
  unit->seq = view.seq;
  unit->key.assign(view.key);
  unit->name.assign(view.name);
  unit->text.assign(view.text);
  unit->run = view.run;
  unit->attributes.resize(view.attribute_count);
  size_t i = 0;
  ForEachAttribute(view, [&](std::string_view name, std::string_view value) {
    unit->attributes[i].name.assign(name);
    unit->attributes[i].value.assign(value);
    ++i;
  });
  return Status::OK();
}

RunUnitReader::RunUnitReader(RunStore* store, RunHandle handle,
                             uint64_t offset, const UnitFormat& format,
                             const NameDictionary* dictionary,
                             IoCategory category)
    : reader_(store->OpenRun(handle, offset, category)),
      handle_(handle),
      format_(format),
      dictionary_(dictionary),
      logical_offset_(offset) {
  init_status_ = reader_.init_status();
}

StatusOr<bool> RunUnitReader::Next(UnitView* view) {
  // Refill so that either a whole unit is buffered or the run is drained.
  // Units written by this library are far smaller than one refill chunk, so
  // a decode failure with bytes still available means "need more", and a
  // failure at true end of run means corruption.
  constexpr size_t kRefill = 4096;
  while (true) {
    std::string_view buffered(buffer_.data() + buffer_pos_,
                              buffer_.size() - buffer_pos_);
    if (!buffered.empty()) {
      std::string_view cursor = buffered;
      Status st = DecodeUnitView(&cursor, view, format_, dictionary_);
      if (st.ok()) {
        buffer_pos_ += view->bytes.size();
        logical_offset_ += view->bytes.size();
        return true;
      }
      if (reader_.bytes_remaining() == 0) return st;
    } else if (reader_.bytes_remaining() == 0) {
      return false;
    }
    // Compact and refill.
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + kRefill);
    size_t got = 0;
    RETURN_IF_ERROR(reader_.Read(buffer_.data() + old_size, kRefill, &got));
    buffer_.resize(old_size + got);
  }
}

}  // namespace nexsort
