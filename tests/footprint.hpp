#pragma once
// Soak check shared by the daemon tests: a long-running server must join
// each finished connection's thread, so its mapping count and virtual
// size stay flat however many clients come and go.  A thread that is
// never joined keeps its stack mapped — about 2 mappings and 8 MB of
// VmSize per connection — until the server stops.

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "net/server.hpp"
#include "net/wire.hpp"
#include "support/json.hpp"

namespace gpudiff::testing {

struct Footprint {
  long maps = 0;        ///< lines of /proc/self/maps
  long vm_size_kb = 0;  ///< VmSize of /proc/self/status
};

inline Footprint process_footprint() {
  Footprint f;
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) ++f.maps;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmSize:", 0) == 0)
      std::istringstream(line.substr(7)) >> f.vm_size_kb;
  return f;
}

/// `n` one-shot connections, one after another and never two at once:
/// each sends `hello`, reads the answer and closes.  Returns how many
/// hellos were answered "ok".
inline int one_shot_hellos(int port, const support::Json& hello, int n) {
  int ok = 0;
  for (int i = 0; i < n; ++i) {
    net::Socket socket = net::connect_tcp("127.0.0.1", port, 5.0);
    support::Json response;
    if (socket.valid() &&
        net::request_response(socket, hello, 1, &response, 5.0) ==
            net::IoStatus::Ok &&
        response.get_or("ok", support::Json(false)).as_bool())
      ++ok;
  }
  return ok;
}

/// 2,000 one-shot connections to the server on `port`; one poll interval
/// after the last one closes, the process footprint must be back within
/// a small fixed margin of its value before them.
inline void expect_flat_footprint(int port, const support::Json& hello) {
  if (process_footprint().maps == 0) GTEST_SKIP() << "no /proc/self/maps";
  constexpr int kConnections = 2000;
  constexpr long kMapsMargin = 64;
  constexpr long kVmMarginKb = 256 * 1024;
  // One poll interval, doubled as slack for a loaded host.
  const auto poll = std::chrono::duration<double>(
      2 * net::Server::kIoTimeoutSeconds);
  // The first connections fault in what stays for good: the allocator's
  // per-thread arenas and the thread library's stack cache.
  ASSERT_EQ(one_shot_hellos(port, hello, 16), 16);
  std::this_thread::sleep_for(poll);
  const Footprint before = process_footprint();
  ASSERT_EQ(one_shot_hellos(port, hello, kConnections), kConnections);
  std::this_thread::sleep_for(poll);
  const Footprint after = process_footprint();
  EXPECT_LE(after.maps, before.maps + kMapsMargin)
      << "mappings grew from " << before.maps << " to " << after.maps
      << " over " << kConnections << " closed connections";
  EXPECT_LE(after.vm_size_kb, before.vm_size_kb + kVmMarginKb)
      << "VmSize grew from " << before.vm_size_kb << " kB to "
      << after.vm_size_kb << " kB over " << kConnections
      << " closed connections";
}

}  // namespace gpudiff::testing
