// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one public call the benchmark makes or intercepts (a
// session call, a query-lane admission, an HTM cover, an index probe, a
// cross-match, a WAL file read/write, a recovery). Spans are appended to a
// per-thread buffer with no lock on the hot path and collected after the
// threads that produced them have been joined. When tracing is off, a
// Scope costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

int64_t now_ns();

// What a span's request id names: the catalog file being loaded, a cone, a
// cross-match pass, or nothing in particular (set-up, restart).
enum class RequestKind : uint8_t { kNone, kFile, kCone, kXmatch };

struct RequestId {
  RequestKind kind = RequestKind::kNone;
  int64_t index = 0;
};

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  RequestId request;
  int thread = 0;
};

class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // The calling thread's request id and the parent for spans opened on it
  // while its own span stack is empty (e.g. a worker thread started by a
  // call the benchmark traced on another thread).
  static void set_request(RequestId request);
  static void set_thread_parent(uint64_t parent);

  // Moves every recorded span out of the per-thread buffers. Call only
  // when no thread is recording.
  static std::vector<Span> drain();

  // RAII span. Records nothing when tracing was off at construction.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return span_.id; }

   private:
    Span span_;
    bool active_ = false;
  };

 private:
  static std::atomic<bool> enabled_;
};

// Writes spans as JSON lines (one object per span) followed by one line per
// span name with its total and self time: duration minus the part covered
// by the union of its children's intervals (children may run on other
// threads and overlap). `file_names` resolves file request ids. Returns
// false when the file cannot be written.
bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& file_names);

}  // namespace perfbench
