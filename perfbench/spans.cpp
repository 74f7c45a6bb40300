#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "engine/result_store.hpp"

namespace perfbench {

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto p = index.find(s.parent);
    if (s.parent == 0 || p == index.end()) continue;
    const Span& parent = spans[p->second];
    const std::int64_t lo = std::max(s.t0_ns, parent.t0_ns);
    const std::int64_t hi = std::min(s.t1_ns, parent.t1_ns);
    if (hi > lo) children[p->second].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t end = spans[i].t0_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, end);
      if (hi > from) covered += hi - from;
      end = std::max(end, hi);
    }
    self[i] = spans[i].dur_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_s += static_cast<double>(spans[i].dur_ns()) * 1e-9;
    t.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::record(Span s) {
  const std::uint64_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  s.lane = lanes_.emplace(thread, static_cast<std::uint32_t>(lanes_.size())).first->second;
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_perfetto(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  std::uint32_t lanes = 0;
  for (const Span& s : spans) lanes = std::max(lanes, s.lane + 1);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::uint32_t l = 0; l < lanes; ++l) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << l
        << ",\"args\":{\"name\":\"host thread " << l << "\"}}";
  }
  char ts[64];
  for (const Span& s : spans) {
    sep();
    std::snprintf(ts, sizeof ts, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.t0_ns) / 1e3, static_cast<double>(s.dur_ns()) / 1e3);
    out << "{\"name\":\"" << dwarn::json_escape(s.name) << "\",\"cat\":\"perfbench\",\"ph\":\"X\","
        << ts << ",\"pid\":1,\"tid\":" << s.lane << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run;
    if (!s.args_json.empty()) out << ",\"detail\":" << s.args_json;
    out << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent, std::uint64_t run,
                       std::string args_json)
    : log_(log) {
  span_.name = std::move(name);
  span_.id = log.next_id();
  span_.parent = parent;
  span_.run = run;
  span_.args_json = std::move(args_json);
  span_.t0_ns = log.now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.t1_ns = log_.now_ns();
  try {
    log_.record(std::move(span_));
  } catch (...) {
    // Out of memory while tracing: the span is lost, the run goes on.
    std::fputs("[perfbench] warning: a span could not be recorded\n", stderr);
  }
}

}  // namespace perfbench
