#include "net/server.hpp"

#include <stdexcept>
#include <system_error>
#include <utility>

#include "net/wire.hpp"

namespace gpudiff::net {

using support::Json;

Server::Server(const std::string& host, int port, HelloFn hello,
               HandleFn handle)
    : hello_(std::move(hello)), handle_(std::move(handle)) {
  listener_.listen(host, port);
}

Server::~Server() { stop(); }

void Server::start() {
  if (stop_.load() || accept_thread_.joinable()) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (stop_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
  listener_.close();
}

void Server::accept_loop() {
  while (!stop_.load()) {
    reap();
    Socket socket = listener_.accept(kIoTimeoutSeconds);
    if (!socket.valid()) continue;  // timeout: poll stop_, reap again
    Connection& c = connections_.emplace_back();
    try {
      c.thread = std::thread([this, &c, s = std::move(socket)]() mutable {
        serve(std::move(s));
        c.finished.store(true);
      });
    } catch (const std::system_error&) {
      // No thread for this connection: dropping the lambda closes its
      // socket, and the client's retry policy decides what happens next.
      connections_.pop_back();
    }
  }
}

void Server::reap() {
  connections_.remove_if([](Connection& c) {
    if (!c.finished.load()) return false;
    c.thread.join();  // the thread has returned from serve(): no wait
    return true;
  });
}

void Server::serve(Socket socket) {
  bool greeted = false;
  std::string identity;
  while (!stop_.load()) {
    Json request;
    std::string malformed;
    const IoStatus status =
        recv_message(socket, &request, kIoTimeoutSeconds, &malformed);
    if (status == IoStatus::Timeout) continue;  // poll stop_
    if (status != IoStatus::Ok) {  // closed or desynchronized
      refuse_malformed(socket, malformed, kIoTimeoutSeconds);
      return;
    }
    const Json response = respond(request, &greeted, &identity);
    if (send_message(socket, response, kIoTimeoutSeconds) != IoStatus::Ok)
      return;
    if (!response.get_or("ok", Json(false)).as_bool() &&
        response.get_or("fatal", Json(false)).as_bool())
      return;  // refused connections are closed, not left to flounder
  }
}

Json Server::respond(const Json& request, bool* greeted,
                     std::string* identity) {
  try {
    if (request.get_or("op", Json("")).as_string() == "hello") {
      std::string id;
      Json response = hello_(request, &id);
      if (response.get_or("ok", Json(false)).as_bool()) {
        *greeted = true;
        *identity = std::move(id);
      }
      return response;
    }
    if (!*greeted)
      return error_response(seq_of(request), "request before hello",
                            /*fatal=*/true);
    return handle_(request, *identity);
  } catch (const std::invalid_argument& e) {
    // A malformed request shape means the client is wrong — fatal, the
    // wire contract's "do not retry".
    return error_response(seq_of(request), e.what(), /*fatal=*/true);
  } catch (const std::exception& e) {
    // A server-side condition (disk I/O, an unreadable store) or a bad
    // key: the connection is healthy and the client may retry.
    return error_response(seq_of(request), e.what(), /*fatal=*/false);
  }
}

}  // namespace gpudiff::net
