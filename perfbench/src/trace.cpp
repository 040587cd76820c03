#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

struct ThreadLog {
  std::uint16_t index = 0;
  std::string name;
  std::vector<Span> spans;
  std::vector<std::uint64_t> stack;  ///< open scope ids, innermost last
  std::uint32_t op = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

ThreadLog& log() {
  thread_local ThreadLog* tl = nullptr;
  if (tl == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    const std::lock_guard<std::mutex> lock(g_logs_mu);
    owned->index = static_cast<std::uint16_t>(g_logs.size());
    owned->name = "thread " + std::to_string(owned->index);
    tl = owned.get();
    g_logs.push_back(std::move(owned));
  }
  return *tl;
}

void json_escape(std::FILE* f, const std::string& s) {
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') std::fputc('\\', f);
    std::fputc(ch, f);
  }
}

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kCore: return "core";
    case Layer::kClassical: return "classical";
    case Layer::kSimServer: return "sim.server";
    case Layer::kSimEngine: return "sim.engine";
    case Layer::kService: return "service";
    case Layer::kCount_: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void name_thread(const std::string& name) { log().name = name; }

void set_op(std::uint32_t op) { log().op = op; }
std::uint32_t current_op() { return log().op; }

Scope::Scope(Layer layer, const char* name) {
  if (!enabled()) return;
  ThreadLog& tl = log();
  active_ = true;
  pushed_ = true;
  span_.name = name;
  span_.layer = layer;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = tl.stack.empty() ? 0 : tl.stack.back();
  span_.op = tl.op;
  span_.thread = tl.index;
  tl.stack.push_back(span_.id);
  span_.t0_ns = now_ns();
}

Scope::Scope(Layer layer, const char* name, std::uint64_t parent,
             std::uint32_t op) {
  if (!enabled()) return;
  active_ = true;
  span_.name = name;
  span_.layer = layer;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.op = op;
  span_.thread = log().index;
  span_.t0_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.t1_ns = now_ns();
  ThreadLog& tl = log();
  if (pushed_) tl.stack.pop_back();
  tl.spans.push_back(span_);
}

Collected collect() {
  Collected out;
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  for (auto& tl : g_logs) {
    out.thread_names.push_back(tl->name);
    out.spans.insert(out.spans.end(), tl->spans.begin(), tl->spans.end());
    tl->spans.clear();
    tl->spans.shrink_to_fit();
  }
  return out;
}

SelfTimes self_times(const Collected& c, const std::string& thread_prefix) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(c.spans.size());
  for (std::size_t i = 0; i < c.spans.size(); ++i) by_id[c.spans[i].id] = i;

  // Child time per span, and the root op span each span descends from.
  std::vector<std::int64_t> child_ns(c.spans.size(), 0);
  for (const Span& s : c.spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it != by_id.end()) child_ns[it->second] += s.t1_ns - s.t0_ns;
  }
  auto root_of = [&](std::size_t i) -> const Span* {
    for (int depth = 0; depth < 64; ++depth) {
      const Span& s = c.spans[i];
      if (s.parent == 0) return &s;
      const auto it = by_id.find(s.parent);
      if (it == by_id.end()) return nullptr;
      i = it->second;
    }
    return nullptr;
  };

  SelfTimes out;
  for (std::size_t i = 0; i < c.spans.size(); ++i) {
    const Span* root = root_of(i);
    if (root == nullptr || root->layer != Layer::kOp || root->op == 0) {
      continue;
    }
    if (c.thread_names[root->thread].rfind(thread_prefix, 0) != 0) continue;
    const Span& s = c.spans[i];
    const double self_ms = 1e-6 * static_cast<double>(s.t1_ns - s.t0_ns -
                                                      child_ns[i]);
    out.layer_ms[static_cast<int>(s.layer)] += self_ms;
    if (&s == root) {
      out.op_wall_ms += 1e-6 * static_cast<double>(s.t1_ns - s.t0_ns);
      ++out.ops;
    }
  }
  return out;
}

bool write_chrome_json(const Collected& c, std::uint32_t max_op,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t t = 0; t < c.thread_names.size(); ++t) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"",
                 first ? "" : ",\n", t);
    json_escape(f, c.thread_names[t]);
    std::fputs("\"}}", f);
    first = false;
  }
  for (const Span& s : c.spans) {
    if (s.op == 0 || s.op > max_op) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%u}}",
                 first ? "" : ",\n", s.name, to_string(s.layer),
                 static_cast<unsigned>(s.thread), 1e-3 * static_cast<double>(s.t0_ns),
                 1e-3 * static_cast<double>(s.t1_ns - s.t0_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.op);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
