// A resident service must not hold one thread per connection it ever
// served: each ended connection is joined while the service keeps running,
// so serving many sequential sessions leaves the thread count where it was.
#include <dirent.h>
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "service/job_service.hpp"
#include "service/session_client.hpp"
#include "sim/gates.hpp"

namespace {

using qmpi::service::JobService;
using qmpi::service::ServiceConfig;
using qmpi::service::SessionClient;
using qmpi::service::SessionConfig;

/// Threads of this process, as listed in /proc/self/task.
std::size_t process_threads() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

TEST(ConnectionReaping, SequentialSessionsLeaveNoConnectionThreadsBehind) {
  ServiceConfig cfg;
  cfg.max_sessions = 1;
  cfg.executors = 2;
  JobService service(cfg);
  service.start();
  const std::size_t threads_before = process_threads();
  ASSERT_GT(threads_before, 0u) << "/proc/self/task is unreadable";

  constexpr std::uint64_t kSessions = 64;
  for (std::uint64_t i = 0; i < kSessions; ++i) {
    SessionConfig scfg;
    scfg.port = service.port();
    scfg.max_qubits = 4;
    SessionClient client(scfg);
    const std::vector<qmpi::sim::QubitId> q = client.allocate(2);
    client.apply(qmpi::sim::gate_h(), q[0]);
    client.cnot(q[0], q[1]);
    EXPECT_NEAR(client.probability_one(q[1]), 0.5, 1e-12);
    client.close();
  }

  // The last sessions' readers notice EOF asynchronously; wait for them.
  for (int i = 0; i < 500 && service.stats().active_sessions != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const qmpi::service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, kSessions);
  EXPECT_EQ(stats.active_sessions, 0u);
  // A connection that ended after the latest accept is joined at the next
  // one, so a couple may remain; one per session served may not.
  EXPECT_LE(stats.connection_threads, 2u);
  EXPECT_LE(process_threads(), threads_before + 2);
}

}  // namespace
