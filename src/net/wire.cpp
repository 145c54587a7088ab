#include "net/wire.hpp"

namespace gpudiff::net {

IoStatus send_message(Socket& socket, const support::Json& message,
                      double timeout_seconds) {
  std::string line = message.dump();
  line.push_back('\n');
  return socket.send_all(line, timeout_seconds);
}

IoStatus recv_message(Socket& socket, support::Json* message,
                      double timeout_seconds, std::string* malformed) {
  std::string line;
  const IoStatus status = socket.read_line(&line, timeout_seconds);
  if (status != IoStatus::Ok) return status;
  try {
    *message = support::Json::parse(line);
  } catch (const std::exception& e) {
    if (malformed) *malformed = e.what();
    return IoStatus::Error;
  }
  if (!message->is_object()) {
    if (malformed) *malformed = "message is not a JSON object";
    return IoStatus::Error;
  }
  return IoStatus::Ok;
}

void refuse_malformed(Socket& socket, const std::string& malformed,
                      double timeout_seconds) {
  if (malformed.empty()) return;  // an I/O failure, nothing to answer
  (void)send_message(socket,
                     error_response(0, "malformed message: " + malformed,
                                    /*fatal=*/true),
                     timeout_seconds);
}

IoStatus request_response(Socket& socket, support::Json request,
                          std::int64_t seq, support::Json* response,
                          double timeout_seconds) {
  request["seq"] = seq;
  IoStatus status = send_message(socket, request, timeout_seconds);
  if (status != IoStatus::Ok) return status;
  for (;;) {
    status = recv_message(socket, response, timeout_seconds);
    if (status != IoStatus::Ok) return status;
    const std::int64_t got =
        response->get_or("seq", support::Json(std::int64_t{0})).as_int();
    if (got < seq) continue;  // stale response to a duplicated frame
    if (got > seq) return IoStatus::Error;
    return IoStatus::Ok;
  }
}

support::Json ok_response(std::int64_t seq) {
  support::Json j = support::Json::object();
  j["ok"] = true;
  j["seq"] = seq;
  return j;
}

support::Json error_response(std::int64_t seq, const std::string& error,
                             bool fatal) {
  support::Json j = support::Json::object();
  j["ok"] = false;
  j["error"] = error;
  j["fatal"] = fatal;
  j["seq"] = seq;
  return j;
}

}  // namespace gpudiff::net
