#pragma once
// The one server core under both daemons (the lease coordinator and
// gpudiff-serve): a listener, an accept loop, one thread per connection
// and the per-connection loop of the net/wire.hpp protocol.  A daemon
// supplies only two callbacks — how to answer a hello, and how to answer
// a request from a greeted connection.
//
// Per connection: every line is one request.  A malformed line is
// refused fatally; any op other than "hello" before a successful hello
// is refused fatally ("request before hello"); a hello that succeeds
// (answers "ok": true) fixes the connection's identity, which every
// later request is handed.  An std::invalid_argument escaping a callback
// means the client is wrong and becomes a fatal error response; any
// other std::exception is a server-side condition (disk I/O, an unknown
// key) and becomes a non-fatal, retryable one.  A connection is closed
// after any fatal response.
//
// Threads: a fleet worker holds its connection for the whole campaign,
// so each connection gets its own thread.  A connection's thread is
// joined by the accept loop within about one poll interval of the
// connection ending, so finished connections leave no thread stack
// behind; stop() joins the rest.

#include <atomic>
#include <functional>
#include <list>
#include <string>
#include <thread>

#include "net/socket.hpp"
#include "support/json.hpp"

namespace gpudiff::net {

class Server {
 public:
  /// Answer a hello.  On an "ok": true answer the server stores
  /// `*identity` as the connection's identity.
  using HelloFn = std::function<support::Json(const support::Json& request,
                                              std::string* identity)>;
  /// Answer one request of a greeted connection.
  using HandleFn = std::function<support::Json(const support::Json& request,
                                               const std::string& identity)>;

  /// Per-connection I/O timeout.  Reads and accepts poll at this
  /// granularity, so it also bounds how long a finished connection's
  /// thread waits to be joined and how long stop() takes.
  static constexpr double kIoTimeoutSeconds = 0.25;

  /// Binds host:port (port 0 binds an ephemeral port; see port()).
  /// Throws std::runtime_error if the port cannot be bound.
  Server(const std::string& host, int port, HelloFn hello, HandleFn handle);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const noexcept { return listener_.port(); }

  /// Serve on a background thread; returns immediately.
  void start();
  /// Stop accepting, join every thread (the accept loop, then the
  /// connections — each polls the stop flag at kIoTimeoutSeconds, so this
  /// returns within about one timeout), then close the listener.  Joining
  /// before closing keeps the close and the accept loop's poll off the fd
  /// at the same time.  Idempotent.
  void stop();

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop();
  /// Join the threads of connections that have ended.
  void reap();
  void serve(Socket socket);
  support::Json respond(const support::Json& request, bool* greeted,
                        std::string* identity);

  Listener listener_;
  HelloFn hello_;
  HandleFn handle_;
  std::atomic<bool> stop_{false};
  /// Touched only by the accept loop, and by stop() once that has joined.
  std::list<Connection> connections_;
  std::thread accept_thread_;
};

}  // namespace gpudiff::net
