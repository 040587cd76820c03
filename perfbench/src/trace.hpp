#pragma once

// Spans recorded by the benchmark around its calls into each layer's public
// functions. Each thread appends to its own buffer; buffers are read only
// after every recording thread has been joined, and written out as Chrome
// trace-event JSON (opens in Perfetto) when the run ends.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Which layer a span's self time is charged to.
enum class Layer : std::uint8_t {
  kOp,         ///< one timed benchmark op (the root of its spans)
  kCore,       ///< qmpi::Context protocol calls
  kClassical,  ///< classical::Comm::barrier
  kSimServer,  ///< SimClient call round trip through the SimServer queue
  kSimEngine,  ///< Backend work on the SimServer thread
  kService,    ///< SessionClient open / calls / close, JobService::stats
  kCount_,
};

const char* to_string(Layer layer);

struct Span {
  const char* name = "";
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint32_t op = 0;      ///< 1-based timed-op id; 0 outside timed ops
  std::uint16_t thread = 0;
  Layer layer = Layer::kOp;
};

/// Nanoseconds on the steady clock since the process started tracing.
std::int64_t now_ns();

/// Turns recording on or off. Off costs one relaxed load per scope.
void set_enabled(bool on);
bool enabled();

/// Names the calling thread's track in the trace file.
void name_thread(const std::string& name);

/// Sets the calling thread's current op id (0 = not inside a timed op).
void set_op(std::uint32_t op);
std::uint32_t current_op();

/// RAII span. With tracing off it records nothing. Without an explicit
/// parent, its parent is the innermost open scope of the calling thread
/// and it inherits that thread's op id.
class Scope {
 public:
  Scope(Layer layer, const char* name);
  /// For work done on another thread on behalf of `parent` (the SimServer
  /// executing a rank's call): explicit parent and op id.
  Scope(Layer layer, const char* name, std::uint64_t parent, std::uint32_t op);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
  bool pushed_ = false;
};

struct Collected {
  std::vector<Span> spans;
  std::vector<std::string> thread_names;  ///< indexed by Span::thread
};

/// Moves every recorded span out of the per-thread buffers. Call only
/// after all recording threads have been joined.
Collected collect();

/// Per-layer self time (span duration minus the time covered by its child
/// spans), summed over every span under a root `kOp` span recorded on a
/// thread whose name starts with `thread_prefix`. Exec spans on the
/// SimServer thread are children of the calling thread's span, so the
/// driving thread's ops account for the time they spent waiting on other
/// threads.
struct SelfTimes {
  double layer_ms[static_cast<int>(Layer::kCount_)] = {};
  double op_wall_ms = 0.0;  ///< summed duration of the root op spans
  std::uint64_t ops = 0;
};
SelfTimes self_times(const Collected& c, const std::string& thread_prefix);

/// Writes spans with op id in [1, max_op] plus every thread name as Chrome
/// trace-event JSON. Returns false when the file cannot be written.
bool write_chrome_json(const Collected& c, std::uint32_t max_op,
                       const std::string& path);

}  // namespace perfbench::trace
