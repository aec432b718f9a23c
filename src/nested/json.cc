#include "nested/json.h"

#include <vector>

#include "extmem/block_device.h"
#include "extmem/run_store.h"
#include "nested/json_reader.h"
#include "obs/json_writer.h"
#include "util/string_util.h"
#include "xml/sax_parser.h"
#include "xml/writer.h"

namespace nexsort {

namespace {

using EventType = JsonEvent::Type;

bool StartsValue(EventType type) {
  return type != EventType::kEndObject && type != EventType::kEndArray &&
         type != EventType::kKey && type != EventType::kEnd;
}

// ---------------------------------------------------------------------
// JSON -> element tree
// ---------------------------------------------------------------------

// Streams reader events into the element encoding. Open containers live on
// an explicit stack, so nesting depth is bounded by the input, not by the
// call stack.
class JsonToXmlTranslator {
 public:
  JsonToXmlTranslator(const JsonSortOptions& options, XmlWriter* writer,
                      JsonSortStats* stats)
      : writer_(writer), stats_(stats) {
    for (std::string_view part : Split(options.sort_arrays_by, '/')) {
      if (!part.empty()) key_path_.emplace_back(part);
    }
    keyed_ = !key_path_.empty() || options.sort_arrays_by_value;
  }

  Status Translate(JsonReader* reader) {
    JsonEvent event;
    while (true) {
      RETURN_IF_ERROR(reader->Next(&event));
      if (event.type == EventType::kEnd) return Status::OK();
      if (!NeedsKey(event)) {
        RETURN_IF_ERROR(Emit(&event, nullptr));
        continue;
      }
      // An array item's start tag carries its sort key, so buffer the
      // whole item first. Items therefore need to fit in translation
      // memory (documents do not).
      std::vector<JsonEvent> item;
      item.push_back(std::move(event));
      while (reader->depth() > open_.size()) {
        RETURN_IF_ERROR(reader->Next(&event));
        item.push_back(std::move(event));
      }
      for (size_t i = 0; i < item.size(); ++i) {
        std::string key;
        bool has_key = NeedsKey(item[i]) && ExtractKey(item, i, &key);
        RETURN_IF_ERROR(Emit(&item[i], has_key ? &key : nullptr));
      }
    }
  }

 private:
  // Does `event` open an array item whose start tag needs an nxk key?
  bool NeedsKey(const JsonEvent& event) const {
    return keyed_ && !open_.empty() && open_.back() == 'a' &&
           StartsValue(event.type);
  }

  Status Emit(JsonEvent* event, const std::string* nxk) {
    std::vector<XmlAttribute> attrs;
    if (nxk != nullptr) attrs.push_back({"nxk", *nxk});
    const char* tag = "z";
    switch (event->type) {
      case EventType::kBeginObject:
        ++stats_->values;
        ++stats_->objects;
        open_.push_back('o');
        return writer_->StartElement("o", attrs);
      case EventType::kBeginArray:
        ++stats_->values;
        ++stats_->arrays;
        open_.push_back('a');
        return writer_->StartElement("a", attrs);
      case EventType::kEndObject:
      case EventType::kEndArray:
        open_.pop_back();
        RETURN_IF_ERROR(writer_->EndElement());
        return ValueDone();
      case EventType::kKey:
        return writer_->StartElement("m", {{"k", std::move(event->text)}});
      case EventType::kString:
        tag = "s";
        attrs.push_back({"v", std::move(event->text)});
        break;
      case EventType::kNumber:
        tag = "n";
        attrs.push_back({"v", std::move(event->text)});
        break;
      case EventType::kTrue:
      case EventType::kFalse:
        tag = "b";
        attrs.push_back(
            {"v", event->type == EventType::kTrue ? "true" : "false"});
        break;
      default:  // kNull
        break;
    }
    ++stats_->values;
    RETURN_IF_ERROR(writer_->StartElement(tag, attrs));
    RETURN_IF_ERROR(writer_->EndElement());
    return ValueDone();
  }

  // A value just ended; inside an object, close its member wrapper.
  Status ValueDone() {
    if (!open_.empty() && open_.back() == 'o') return writer_->EndElement();
    return Status::OK();
  }

  // Scalar at key_path_ inside the complete buffered value starting at
  // item[pos] (the value itself for scalar arrays). False when absent.
  bool ExtractKey(const std::vector<JsonEvent>& item, size_t pos,
                  std::string* key) const {
    for (const std::string& component : key_path_) {
      if (item[pos].type != EventType::kBeginObject) return false;
      ++pos;
      while (item[pos].type == EventType::kKey && item[pos].text != component) {
        pos = SkipValue(item, pos + 1);
      }
      if (item[pos].type != EventType::kKey) return false;  // end of object
      ++pos;
    }
    switch (item[pos].type) {
      case EventType::kString:
      case EventType::kNumber:
        *key = item[pos].text;
        return true;
      case EventType::kTrue: *key = "true"; return true;
      case EventType::kFalse: *key = "false"; return true;
      default:
        return false;  // containers and null do not key
    }
  }

  // Index just past the complete value starting at item[pos].
  static size_t SkipValue(const std::vector<JsonEvent>& item, size_t pos) {
    size_t depth = 0;
    do {
      switch (item[pos].type) {
        case EventType::kBeginObject:
        case EventType::kBeginArray: ++depth; break;
        case EventType::kEndObject:
        case EventType::kEndArray: --depth; break;
        default: break;
      }
      ++pos;
    } while (depth > 0);
    return pos;
  }

  XmlWriter* writer_;
  JsonSortStats* stats_;
  std::vector<std::string> key_path_;
  bool keyed_ = false;
  std::vector<char> open_;  // 'o' or 'a' per open container
};

}  // namespace

OrderSpec JsonOrderSpec(const JsonSortOptions& options) {
  OrderSpec spec;
  if (options.sort_object_members) {
    OrderRule member;
    member.element = "m";
    member.source = KeySource::kAttribute;
    member.argument = "k";
    spec.AddRule(member);
  }
  if (!options.sort_arrays_by.empty() || options.sort_arrays_by_value) {
    for (const char* tag : {"o", "a", "s", "n", "b", "z"}) {
      OrderRule item;
      item.element = tag;
      item.source = KeySource::kAttribute;
      item.argument = "nxk";
      item.numeric = options.numeric_array_keys;
      spec.AddRule(item);
    }
  }
  return spec;
}

Status JsonToXml(ByteSource* input, ByteSink* output,
                 const JsonSortOptions& options, JsonSortStats* stats) {
  JsonSortStats local;
  if (stats == nullptr) stats = &local;
  JsonReader reader(input);
  XmlWriter writer(output);
  JsonToXmlTranslator translator(options, &writer, stats);
  RETURN_IF_ERROR(translator.Translate(&reader));
  return writer.Finish();
}

Status XmlToJson(ByteSource* input, ByteSink* output) {
  SaxParser parser(input);
  std::string buffer;
  // Per open container: does the next child need a comma?
  struct Frame {
    char kind;  // 'o', 'a', or 'm'
    bool has_child = false;
  };
  std::vector<Frame> frames;

  auto before_child = [&]() {
    if (frames.empty()) return;
    Frame& top = frames.back();
    if (top.kind != 'm' && top.has_child) buffer.push_back(',');
    top.has_child = true;
  };
  auto flush_if_large = [&]() -> Status {
    if (buffer.size() >= 64 * 1024) {
      RETURN_IF_ERROR(output->Append(buffer));
      buffer.clear();
    }
    return Status::OK();
  };

  XmlEvent event;
  while (true) {
    ASSIGN_OR_RETURN(bool more, parser.Next(&event));
    if (!more) break;
    if (event.type == XmlEventType::kText) {
      return Status::Corruption("unexpected text in JSON encoding");
    }
    if (event.type == XmlEventType::kEndElement) {
      if (event.name == "o") {
        buffer.push_back('}');
        frames.pop_back();
      } else if (event.name == "a") {
        buffer.push_back(']');
        frames.pop_back();
      } else if (event.name == "m") {
        frames.pop_back();
      }
      RETURN_IF_ERROR(flush_if_large());
      continue;
    }
    const std::string* v = event.FindAttribute("v");
    if (event.name == "o") {
      before_child();
      buffer.push_back('{');
      frames.push_back({'o'});
    } else if (event.name == "a") {
      before_child();
      buffer.push_back('[');
      frames.push_back({'a'});
    } else if (event.name == "m") {
      const std::string* k = event.FindAttribute("k");
      if (k == nullptr) return Status::Corruption("member without a name");
      before_child();
      AppendJsonString(&buffer, *k);
      buffer.push_back(':');
      frames.push_back({'m'});
    } else if (event.name == "s") {
      before_child();
      AppendJsonString(&buffer, v != nullptr ? *v : "");
    } else if (event.name == "n" || event.name == "b") {
      if (v == nullptr) return Status::Corruption("value element without v");
      before_child();
      buffer.append(*v);
    } else if (event.name == "z") {
      before_child();
      buffer.append("null");
    } else {
      return Status::Corruption("unknown tag in JSON encoding: " +
                                event.name);
    }
    RETURN_IF_ERROR(flush_if_large());
  }
  if (!buffer.empty()) RETURN_IF_ERROR(output->Append(buffer));
  return Status::OK();
}

JsonSorter::JsonSorter(SortEnv* env, JsonSortOptions options)
    : env_(env),
      device_(env->device()),
      budget_(env->budget()),
      options_(std::move(options)) {}

Status JsonSorter::Sort(ByteSource* input, ByteSink* output) {
  if (used_) return Status::InvalidArgument("JsonSorter is single-use");
  used_ = true;

  // The encoded and the sorted document live in runs, not in contiguous
  // extents: the sorter allocates device blocks of its own while it writes
  // (a deep document's stacks spill), which would split an extent.
  RunStore store(device_, budget_);

  // Stage 1: translate JSON into the element encoding, device-resident.
  RunHandle encoded;
  {
    RunWriter writer = store.NewRun(IoCategory::kOther);
    RETURN_IF_ERROR(writer.init_status());
    RETURN_IF_ERROR(JsonToXml(input, &writer, options_, &stats_));
    RETURN_IF_ERROR(writer.Finish(&encoded));
  }

  // Stage 2: NEXSORT the encoded document.
  RunHandle sorted;
  {
    NexSortOptions sort_options;
    sort_options.order = JsonOrderSpec(options_);
    NexSorter sorter(env_, std::move(sort_options));
    RunReader reader = store.OpenRun(encoded, 0, IoCategory::kInput);
    RETURN_IF_ERROR(reader.init_status());
    RunWriter writer = store.NewRun(IoCategory::kOutput);
    RETURN_IF_ERROR(writer.init_status());
    RETURN_IF_ERROR(sorter.Sort(&reader, &writer));
    RETURN_IF_ERROR(writer.Finish(&sorted));
    stats_.sort = sorter.stats();
  }
  RETURN_IF_ERROR(store.FreeRun(encoded));

  // Stage 3: translate back to JSON text.
  {
    RunReader reader = store.OpenRun(sorted, 0, IoCategory::kInput);
    RETURN_IF_ERROR(reader.init_status());
    RETURN_IF_ERROR(XmlToJson(&reader, output));
  }
  return store.FreeRun(sorted);
}

}  // namespace nexsort
