#include "host.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <thread>

#include "sim/simd.hpp"

namespace perfbench::host {
namespace {

constexpr std::size_t kControlAmps = 1u << 16;  // 1 MiB of complex doubles
constexpr int kControlPasses = 8;

double cpu_ms_of(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

void send_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k <= 0) throw std::runtime_error("loopback control: send failed");
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

void recv_all(int fd, char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k <= 0) throw std::runtime_error("loopback control: recv failed");
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

/// Closes the descriptor it holds.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

}  // namespace

Control::Control() : re_(kControlAmps), im_(kControlAmps) {
  for (std::size_t i = 0; i < kControlAmps; ++i) {
    re_[i] = 1.0 / static_cast<double>(i + 1);
    im_[i] = 0.5 / static_cast<double>(i + 2);
  }
}

double Control::sample(double* thread_cpu_ms_acc) {
  // Unit-modulus factor: the values stay bounded however often it runs.
  const double wr = 0.6;
  const double wi = 0.8;
  const double cpu0 = thread_cpu_ms();
  const auto t0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kControlPasses; ++pass) {
    double* re = re_.data();
    double* im = im_.data();
    for (std::size_t i = 0; i < kControlAmps; ++i) {
      const double r = re[i] * wr - im[i] * wi;
      const double m = re[i] * wi + im[i] * wr;
      re[i] = r;
      im[i] = m;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  *thread_cpu_ms_acc += thread_cpu_ms() - cpu0;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double loopback_rtt_us(int round_trips) {
  const Fd listener(::socket(AF_INET, SOCK_STREAM, 0));
  if (listener.fd < 0) throw std::runtime_error("loopback control: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listener.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener.fd, 1) != 0) {
    throw std::runtime_error("loopback control: bind/listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr), &len);

  constexpr std::size_t kMsg = 64;
  std::thread echo([&] {
    try {
      const Fd conn(::accept(listener.fd, nullptr, nullptr));
      if (conn.fd < 0) return;
      const int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      char buf[kMsg];
      for (int i = 0; i < round_trips; ++i) {
        recv_all(conn.fd, buf, kMsg);
        send_all(conn.fd, buf, kMsg);
      }
    } catch (const std::exception&) {
      // The pinging side reports the failure.
    }
  });

  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(round_trips));
  try {
    const Fd client(::socket(AF_INET, SOCK_STREAM, 0));
    if (client.fd < 0 ||
        ::connect(client.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("loopback control: connect");
    }
    const int one = 1;
    ::setsockopt(client.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char buf[kMsg] = {};
    for (int i = 0; i < round_trips; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      send_all(client.fd, buf, kMsg);
      recv_all(client.fd, buf, kMsg);
      us.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    }
  } catch (...) {
    ::shutdown(listener.fd, SHUT_RDWR);
    echo.join();
    throw;
  }
  echo.join();
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

double process_cpu_ms() { return cpu_ms_of(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_ms() { return cpu_ms_of(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  // VmHWM, not getrusage: ru_maxrss keeps the parent's peak across exec,
  // so a program started from Python would report Python's footprint.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string machine_json(const std::string& git_rev) {
  const auto kib = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? v / 1024 : 0;
  };
  const qmpi::sim::simd::Selection simd =
      qmpi::sim::simd::resolve(qmpi::sim::simd::Request::kAuto);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"simd\": \"%s\", \"l1d_kib\": %ld, "
                "\"l2_kib\": %ld, \"l3_kib\": %ld, \"git_rev\": \"%s\"}",
                std::thread::hardware_concurrency(),
                qmpi::sim::simd::to_string(simd.isa),
                kib(_SC_LEVEL1_DCACHE_SIZE), kib(_SC_LEVEL2_CACHE_SIZE),
                kib(_SC_LEVEL3_CACHE_SIZE), git_rev.c_str());
  return buf;
}

}  // namespace perfbench::host
