#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/timer.h"

namespace perfbench {

namespace {

thread_local int32_t tl_open_span = -1;
thread_local int32_t tl_open_root = -1;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

std::string LayerOf(const char* name) {
  const std::string full(name);
  const size_t dot = full.find('.');
  return dot == std::string::npos ? full : full.substr(0, dot);
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  name_ = name;
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = tl_open_span;
  root_ = parent_ < 0 ? id_ : tl_open_root;
  tl_open_span = id_;
  tl_open_root = root_;
  start_ns_ = harp::NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const int64_t end_ns = harp::NowNs();
  tl_open_span = parent_;
  tl_open_root = parent_ < 0 ? -1 : root_;
  const Span span{name_, start_ns_, end_ns, id_, parent_, root_, ThreadIndex()};
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(span);
}

Tracer::SelfTimes Tracer::SelfNsByRoot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<int32_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  // Each root's name and its index among the roots of that name.
  struct RootSlot {
    std::string name;
    size_t index;
  };
  std::unordered_map<int32_t, RootSlot> roots;
  std::map<std::string, size_t> roots_per_name;
  for (const Span& s : spans_) {
    if (s.parent < 0) roots.emplace(s.id, RootSlot{s.name, roots_per_name[s.name]++});
  }
  SelfTimes out;
  for (const Span& s : spans_) {
    const auto root = roots.find(s.root);
    if (root == roots.end()) continue;  // root still open
    std::vector<double>& per_root = out[root->second.name][LayerOf(s.name)];
    per_root.resize(roots_per_name[root->second.name], 0.0);
    const auto children = child_ns.find(s.id);
    const int64_t self = (s.end_ns - s.start_ns) -
                         (children == child_ns.end() ? 0 : children->second);
    per_root[root->second.index] += static_cast<double>(self);
  }
  return out;
}

size_t Tracer::SpansUnder(const std::string& root_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<int32_t, bool> matches;
  for (const Span& s : spans_) {
    if (s.parent < 0) matches[s.id] = root_name == s.name;
  }
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
        const auto root = matches.find(s.root);
        return root != matches.end() && root->second;
      }));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t first = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) first = std::min(first, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns - first) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Tracer::MeasureSpanCostNs() {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kSpans = 20000;
  tracer.spans_.reserve(kSpans);
  const int64_t start = harp::NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Scope scope(tracer, "bench.calibrate");
  }
  return static_cast<double>(harp::NowNs() - start) / kSpans;
}

}  // namespace perfbench
