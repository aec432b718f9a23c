#include "core/unit_scanner.h"

#include <algorithm>

#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "util/string_util.h"

namespace nexsort {

UnitScanner::UnitScanner(ByteSource* input, const OrderSpec* spec)
    : parser_(input), spec_(spec) {
  rule_paths_.resize(spec_->rules().size());
  for (size_t i = 0; i < spec_->rules().size(); ++i) {
    const OrderRule& rule = spec_->rules()[i];
    if (rule.source == KeySource::kChildText) {
      for (std::string_view part : Split(rule.argument, '/')) {
        if (!part.empty()) rule_paths_[i].emplace_back(part);
      }
    }
    // kTextContent keeps an empty path: capture the element's own text.
  }
  for (const auto& path : rule_paths_) {
    max_path_len_ = std::max(max_path_len_, static_cast<int>(path.size()));
  }
}

const std::vector<std::string>& UnitScanner::PathFor(const OrderRule* rule) {
  size_t index = static_cast<size_t>(rule - spec_->rules().data());
  return rule_paths_[index];
}

void UnitScanner::FeedStart(std::string_view tag, int depth) {
  // Evaluators are stacked by element depth; walking from the top, `rel`
  // only grows, and evaluators more than a path length above the event can
  // no longer react, so the walk is bounded by the longest rule path.
  for (auto it = evaluators_.rbegin(); it != evaluators_.rend(); ++it) {
    Evaluator& ev = *it;
    int rel = depth - ev.element_depth;
    if (rel > max_path_len_) break;
    if (rel < 1) continue;
    const auto& path = PathFor(ev.rule);
    if (static_cast<size_t>(rel) > path.size()) continue;
    if (!ev.captured && ev.matched == rel - 1 && path[rel - 1] == tag) {
      ev.matched = rel;
    }
  }
}

void UnitScanner::FeedText(std::string_view text, int depth) {
  // Text inside the element at `depth`.
  for (auto it = evaluators_.rbegin(); it != evaluators_.rend(); ++it) {
    Evaluator& ev = *it;
    int rel = depth - ev.element_depth;
    if (rel > max_path_len_) break;
    if (rel < 0) continue;
    const auto& path = PathFor(ev.rule);
    if (!ev.captured && static_cast<size_t>(ev.matched) == path.size() &&
        static_cast<size_t>(rel) == path.size()) {
      ev.captured = true;
      ev.raw.assign(text);
    }
  }
}

void UnitScanner::FeedEnd(int depth) {
  // The element at `depth` closed; retract any match that reached it.
  for (auto it = evaluators_.rbegin(); it != evaluators_.rend(); ++it) {
    Evaluator& ev = *it;
    int rel = depth - ev.element_depth;
    if (rel > max_path_len_) break;
    if (rel < 1) continue;
    const auto& path = PathFor(ev.rule);
    if (static_cast<size_t>(rel) <= path.size() && ev.matched == rel) {
      ev.matched = rel - 1;
    }
  }
}

StatusOr<bool> UnitScanner::Next(ScanEvent* event) {
  // xml_ and event->unit are reused across calls. Parsed strings are
  // swapped into the unit, handing the parser the previous unit's storage
  // to refill.
  XmlEvent& xml = xml_;
  ASSIGN_OR_RETURN(bool more, parser_.Next(&xml));
  if (!more) return false;

  ElementUnit& unit = event->unit;
  unit.key.clear();
  unit.run = RunHandle();
  event->children = 0;
  ++stats_.units;

  switch (xml.type) {
    case XmlEventType::kStartElement: {
      int depth = parser_.depth();  // depth after the start tag
      if (!open_.empty()) {
        ++open_.back().children;
        stats_.max_fanout =
            std::max(stats_.max_fanout, open_.back().children);
      }
      ++stats_.elements;
      stats_.max_depth = std::max<uint64_t>(stats_.max_depth, depth);

      event->kind = ScanEvent::Kind::kStart;
      unit.type = UnitType::kStart;
      unit.level = depth;
      unit.seq = next_seq_++;
      unit.key = spec_->KeyForStartTag(xml.name, xml.attributes);
      unit.name.swap(xml.name);
      unit.attributes.swap(xml.attributes);
      unit.text.clear();

      open_.push_back({unit.seq, 0});
      const OrderRule* rule = spec_->RuleFor(unit.name);
      if (rule != nullptr && (rule->source == KeySource::kTextContent ||
                              rule->source == KeySource::kChildText)) {
        Evaluator ev;
        ev.element_depth = depth;
        ev.rule = rule;
        evaluators_.push_back(std::move(ev));
      }
      FeedStart(unit.name, depth);
      return true;
    }
    case XmlEventType::kText: {
      int depth = parser_.depth();
      ++stats_.text_nodes;
      if (!open_.empty()) {
        ++open_.back().children;
        stats_.max_fanout =
            std::max(stats_.max_fanout, open_.back().children);
      }
      event->kind = ScanEvent::Kind::kText;
      unit.type = UnitType::kText;
      unit.level = depth + 1;  // text nodes are children
      unit.seq = next_seq_++;
      unit.key = spec_->KeyForText(xml.text);
      FeedText(xml.text, depth);
      unit.name.clear();
      unit.attributes.clear();
      unit.text.swap(xml.text);
      return true;
    }
    case XmlEventType::kEndElement: {
      int depth = parser_.depth() + 1;  // depth of the element that closed
      event->kind = ScanEvent::Kind::kEnd;
      unit.name.clear();
      unit.attributes.clear();
      unit.text.clear();
      unit.type = UnitType::kEnd;
      unit.level = depth;
      unit.seq = open_.back().seq;
      event->children = open_.back().children;
      if (!evaluators_.empty() &&
          evaluators_.back().element_depth == depth) {
        Evaluator& ev = evaluators_.back();
        if (ev.captured) {
          unit.key = OrderSpec::NormalizeKey(*ev.rule, ev.raw);
        }
        evaluators_.pop_back();
      }
      open_.pop_back();
      FeedEnd(depth);
      return true;
    }
  }
  return Status::Corruption("unknown XML event");
}

}  // namespace nexsort
