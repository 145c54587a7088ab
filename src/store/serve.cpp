#include "store/serve.hpp"

#include <stdexcept>
#include <utility>

#include "net/wire.hpp"

namespace gpudiff::store {

using support::Json;

namespace {

std::int64_t seq_of(const Json& request) {
  return request.get_or("seq", Json(std::int64_t{0})).as_int();
}

std::string string_field(const Json& request, const char* key,
                         const char* fallback = nullptr) {
  if (!request.contains(key)) {
    if (fallback != nullptr) return fallback;
    throw std::invalid_argument(std::string("missing \"") + key + "\" field");
  }
  if (!request.at(key).is_string())
    throw std::invalid_argument(std::string("\"") + key +
                                "\" must be a string");
  return request.at(key).as_string();
}

}  // namespace

StoreServer::StoreServer(ServeOptions options) : options_(std::move(options)) {
  if (options_.dir.empty())
    throw std::invalid_argument("StoreServer: empty store directory");
  // Loading the directory IS recovery: the files on disk are the journal,
  // and a SIGKILL between requests loses nothing that was ingested.
  index_ = load_store(options_.dir);
  listener_.listen(options_.bind_host, options_.port);
}

StoreServer::~StoreServer() { stop(); }

void StoreServer::start() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  threads_.emplace_back([this] { accept_loop(); });
}

void StoreServer::stop() {
  if (stop_.exchange(true)) return;
  // Join before closing the listener: the accept loop polls stop_ at the
  // I/O timeout and exits on its own, and the fd is closed only once no
  // thread can still be polling it (the coordinator's ordering).
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads.swap(threads_);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
  listener_.close();
}

int StoreServer::commit_count_locked() const {
  int n = static_cast<int>(index_.populations.size());
  for (const auto& [commit, perf] : index_.perf)
    if (index_.populations.find(commit) == index_.populations.end()) ++n;
  return n;
}

int StoreServer::commit_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_count_locked();
}

void StoreServer::accept_loop() {
  while (!stop_.load()) {
    net::Socket socket = listener_.accept(options_.io_timeout_seconds);
    if (!socket.valid()) continue;  // timeout, or listener closed by stop()
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (stop_.load()) return;
    threads_.emplace_back(
        [this, s = std::move(socket)]() mutable { serve(std::move(s)); });
  }
}

void StoreServer::serve(net::Socket socket) {
  bool greeted = false;
  while (!stop_.load()) {
    Json request;
    std::string malformed;
    const net::IoStatus status = net::recv_message(
        socket, &request, options_.io_timeout_seconds, &malformed);
    if (status == net::IoStatus::Timeout) continue;  // poll stop_
    if (status != net::IoStatus::Ok) {  // closed or desynchronized
      net::refuse_malformed(socket, malformed, options_.io_timeout_seconds);
      return;
    }
    Json response;
    try {
      if (request.get_or("op", Json("")).as_string() == "hello")
        response = handle_hello(request, &greeted);
      else if (!greeted)
        response = net::error_response(seq_of(request),
                                       "request before hello", /*fatal=*/true);
      else
        response = handle(request);
    } catch (const std::invalid_argument& e) {
      // A malformed request shape means the client is wrong — fatal, the
      // wire contract's "do not retry".
      response = net::error_response(seq_of(request), e.what(), /*fatal=*/true);
    } catch (const std::exception& e) {
      // A bad key (unknown commit/fingerprint/pair) or an unreadable store
      // on refresh: the connection is healthy, the client may requery.
      response =
          net::error_response(seq_of(request), e.what(), /*fatal=*/false);
    }
    if (net::send_message(socket, response, options_.io_timeout_seconds) !=
        net::IoStatus::Ok)
      return;
    if (!response.get_or("ok", Json(false)).as_bool() &&
        response.get_or("fatal", Json(false)).as_bool())
      return;  // refused connections are closed, not left to flounder
  }
}

support::Json StoreServer::handle_hello(const Json& request, bool* greeted) {
  const std::int64_t seq = seq_of(request);
  const std::int64_t version =
      request.get_or("version", Json(std::int64_t{0})).as_int();
  if (version != net::kWireVersion)
    return net::error_response(
        seq,
        "wire version " + std::to_string(version) + " unsupported (server: " +
            std::to_string(net::kWireVersion) + ")",
        /*fatal=*/true);
  const std::int64_t store_version =
      request.get_or("store_version", Json(std::int64_t{kStoreVersion}))
          .as_int();
  if (store_version != kStoreVersion)
    return net::error_response(
        seq,
        "store version " + std::to_string(store_version) +
            " unsupported (server: " + std::to_string(kStoreVersion) + ")",
        /*fatal=*/true);
  *greeted = true;
  Json response = net::ok_response(seq);
  response["store_version"] = kStoreVersion;
  std::lock_guard<std::mutex> lock(mu_);
  response["commits"] = commit_count_locked();
  return response;
}

support::Json StoreServer::handle(const Json& request) {
  const std::int64_t seq = seq_of(request);
  const std::string op = string_field(request, "op");
  std::lock_guard<std::mutex> lock(mu_);
  Json response = net::ok_response(seq);
  if (op == "ping") {
    return response;
  } else if (op == "summary") {
    response["summary"] = summary(index_);
  } else if (op == "population") {
    response["population"] =
        population(index_, string_field(request, "commit"),
                   string_field(request, "fingerprint", ""));
  } else if (op == "pair") {
    response["drilldown"] = pair_drilldown(
        index_, string_field(request, "commit"),
        string_field(request, "fingerprint", ""), string_field(request, "pair"));
  } else if (op == "trend") {
    response["trend"] = trend(index_);
  } else if (op == "diff") {
    DiffOptions options;
    if (request.contains("max_perf_regress_pct"))
      options.max_perf_regress_pct =
          request.at("max_perf_regress_pct").as_double();
    response["diff"] = diff_commits(index_, string_field(request, "from"),
                                    string_field(request, "to"), options);
  } else if (op == "refresh") {
    // Re-scan the directory so concurrently ingested results become
    // visible; a failed load leaves the previous index in place.
    StoreIndex fresh = load_store(options_.dir);
    index_ = std::move(fresh);
    response["commits"] = commit_count_locked();
  } else {
    throw std::invalid_argument("unknown op \"" + op + "\"");
  }
  return response;
}

}  // namespace gpudiff::store
