#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  int thread = 0;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded
std::atomic<uint64_t> g_next_span{1};

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  std::vector<uint64_t> stack;
  uint64_t parent = 0;
  RequestId request;
};

ThreadState& state() {
  thread_local ThreadState local;
  return local;
}

ThreadBuffer& buffer() {
  ThreadState& local = state();
  if (local.buffer == nullptr) {
    const std::scoped_lock lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<int>(g_buffers.size()) - 1;
    g_buffers.back()->spans.reserve(4096);
    local.buffer = g_buffers.back().get();
  }
  return *local.buffer;
}

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kFile: return "file";
    case RequestKind::kCone: return "cone";
    case RequestKind::kXmatch: return "xmatch";
    case RequestKind::kNone: break;
  }
  return "";
}

struct SelfTime {
  std::string name;
  int64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    const auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) continue;
    children[parent->second].emplace_back(span.start_ns, span.end_ns);
  }
  std::map<std::string, SelfTime> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [start, end] : intervals) {
      const int64_t lo = std::max(start, reach);
      const int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    SelfTime& total = totals[span.name];
    total.name = span.name;
    ++total.count;
    total.total_s += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    total.self_s +=
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e9;
  }
  std::vector<SelfTime> out;
  for (auto& [name, total] : totals) out.push_back(total);
  return out;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::set_request(RequestId request) { state().request = request; }

void Tracer::set_thread_parent(uint64_t parent) { state().parent = parent; }

std::vector<Span> Tracer::drain() {
  std::vector<Span> out;
  const std::scoped_lock lock(g_buffers_mu);
  for (const auto& thread_buffer : g_buffers) {
    out.insert(out.end(), thread_buffer->spans.begin(),
               thread_buffer->spans.end());
    thread_buffer->spans.clear();
  }
  return out;
}

Tracer::Scope::Scope(const char* name) {
  if (!enabled()) return;
  active_ = true;
  ThreadState& local = state();
  span_.name = name;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = local.stack.empty() ? local.parent : local.stack.back();
  span_.request = local.request;
  local.stack.push_back(span_.id);
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  ThreadState& local = state();
  local.stack.pop_back();
  ThreadBuffer& out = buffer();
  span_.thread = out.thread;
  out.spans.push_back(span_);
}

bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& file_names) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans) {
    std::string request;
    if (span.request.kind == RequestKind::kFile &&
        span.request.index >= 0 &&
        static_cast<size_t>(span.request.index) < file_names.size()) {
      request = file_names[static_cast<size_t>(span.request.index)];
    } else if (span.request.kind != RequestKind::kNone) {
      request = std::string(kind_name(span.request.kind)) + ":" +
                std::to_string(span.request.index);
    }
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":\"%s\","
                 "\"thread\":%d}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 request.c_str(), span.thread);
  }
  for (const SelfTime& total : self_times(spans)) {
    std::fprintf(out,
                 "{\"summary\":\"%s\",\"count\":%lld,\"total_s\":%.6f,"
                 "\"self_s\":%.6f}\n",
                 total.name.c_str(), static_cast<long long>(total.count),
                 total.total_s, total.self_s);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
