#include "selftime.hpp"

#include <algorithm>
#include <fstream>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

std::string layer_of(const std::string& span_name) {
  const std::string head = span_name.substr(0, span_name.find('.'));
  if (head == "gk") return "mcf";
  if (head == "durable" || span_name.rfind("svc.recover", 0) == 0) return "durable";
  return head;
}

bool summarize_trace(const std::string& path, TraceSummary& out) {
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0, self = 0.0;
    std::int64_t depth = 0;
  };
  std::map<std::int64_t, std::vector<Span>> by_thread;
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    flattree::obs::JsonValue v;
    if (!flattree::obs::json_parse(line, v) || !v.is_object()) return false;
    const auto* event = v.find("event");
    if (event == nullptr || !event->is_string()) return false;
    if (event->as_string() == "trace_meta") {
      if (const auto* d = v.find("dropped"); d != nullptr && d->is_number())
        out.dropped = static_cast<std::size_t>(d->as_number());
      continue;
    }
    const auto *name = v.find("name"), *tid = v.find("tid"), *depth = v.find("depth"),
               *t = v.find("t_us"), *dur = v.find("dur_us");
    if (name == nullptr || tid == nullptr || depth == nullptr || t == nullptr ||
        dur == nullptr || !name->is_string() || !tid->is_int() || !depth->is_int() ||
        !t->is_number() || !dur->is_number())
      return false;
    Span s;
    s.name = name->as_string();
    s.start = t->as_number();
    s.end = s.start + dur->as_number();
    s.self = dur->as_number();
    s.depth = depth->as_int();
    by_thread[tid->as_int()].push_back(std::move(s));
  }
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.depth < b.depth;
    });
    // Open spans of this thread, outermost first; a span's parent is the
    // innermost open span one level up.
    std::vector<Span*> open;
    for (Span& s : spans) {
      while (!open.empty() && (open.back()->depth >= s.depth || open.back()->end <= s.start))
        open.pop_back();
      if (!open.empty()) open.back()->self -= s.end - s.start;
      open.push_back(&s);
    }
    for (const Span& s : spans) {
      out.self_ms[layer_of(s.name)] += s.self / 1e3;
      out.total_ms[s.name] += (s.end - s.start) / 1e3;
      ++out.spans;
    }
  }
  return true;
}

}  // namespace perfbench
