#include "campaign/coordinator.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "campaign/scheduler.hpp"
#include "net/wire.hpp"
#include "support/lockfile.hpp"

namespace gpudiff::campaign {

namespace {

std::int64_t seq_of(const support::Json& request) {
  return request.get_or("seq", support::Json(std::int64_t{0})).as_int();
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty())
    throw std::invalid_argument("Coordinator: empty state directory");
  std::filesystem::create_directories(options_.dir);
  recover();
  listener_.listen(options_.bind_host, options_.port);
}

Coordinator::~Coordinator() { stop(); }

std::string Coordinator::claim_path(int lease) const {
  return LeaseBoard::claim_path(options_.dir, lease);
}

std::string Coordinator::done_path(int lease) const {
  return LeaseBoard::done_path(options_.dir, lease);
}

void Coordinator::recover() {
  if (!std::filesystem::exists(LeaseBoard::manifest_path(options_.dir)))
    return;  // fresh directory; the first hello will seed the manifest
  const support::Json manifest = LeaseBoard::load_manifest(options_.dir);
  config_echo_ = manifest.at("config");
  lease_size_ = static_cast<int>(manifest.at("lease_size").as_int());
  lease_count_ = static_cast<int>(manifest.at("lease_count").as_int());
  have_manifest_ = true;
  const auto now = std::chrono::steady_clock::now();
  for (int k = 0; k < lease_count_; ++k) {
    if (std::filesystem::exists(done_path(k))) done_.insert(k);
    const std::string claim = claim_path(k);
    if (!std::filesystem::exists(claim)) continue;
    try {
      const support::Json j =
          support::Json::parse(support::read_file(claim));
      // Recovered claims restart with beat = now: a live owner re-beats
      // within one heartbeat interval; a dead one ages out and is stolen.
      claims_[k] = Claim{j.at("worker").as_string(), now};
    } catch (const std::exception&) {
      // A torn claim file cannot happen through write-then-rename; treat
      // unreadable litter as no claim (worst case: duplicate work).
      support::remove_file(claim);
    }
  }
}

void Coordinator::persist_claim(int lease, const std::string& worker) {
  // Same bytes a filesystem-board worker would link into place, so the
  // state directory stays a valid lease directory.
  support::Json claim = support::Json::object();
  claim["lease"] = lease;
  claim["worker"] = worker;
  support::write_file_atomic(claim_path(lease), claim.dump(), ".tmp");
}

void Coordinator::start() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  threads_.emplace_back([this] { accept_loop(); });
}

void Coordinator::stop() {
  if (stop_.exchange(true)) return;
  // Join before closing the listener: the accept loop polls stop_ at the
  // I/O timeout, so it exits on its own, and the fd is only closed once
  // no thread can still be polling it.  Any serve thread spawned before
  // the flag flipped landed in threads_ before the swap (the accept loop
  // re-checks stop_ under threads_mu_ before emplacing).
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads.swap(threads_);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
  listener_.close();
}

int Coordinator::done_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(done_.size());
}

void Coordinator::accept_loop() {
  while (!stop_.load()) {
    net::Socket socket = listener_.accept(options_.io_timeout_seconds);
    if (!socket.valid()) continue;  // timeout, or listener closed by stop()
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (stop_.load()) return;
    threads_.emplace_back(
        [this, s = std::move(socket)]() mutable { serve(std::move(s)); });
  }
}

void Coordinator::serve(net::Socket socket) {
  std::string worker;  // empty until a hello succeeds
  while (!stop_.load()) {
    support::Json request;
    std::string malformed;
    const net::IoStatus status = net::recv_message(
        socket, &request, options_.io_timeout_seconds, &malformed);
    if (status == net::IoStatus::Timeout) continue;  // poll stop_
    if (status != net::IoStatus::Ok) {  // closed or desynchronized
      net::refuse_malformed(socket, malformed, options_.io_timeout_seconds);
      return;
    }
    support::Json response;
    try {
      if (request.get_or("op", support::Json("")).as_string() == "hello")
        response = handle_hello(request, &worker);
      else if (worker.empty())
        response = net::error_response(
            seq_of(request), "request before hello", /*fatal=*/true);
      else
        response = handle(request, worker);
    } catch (const std::exception& e) {
      // Shape errors are caught per-op and reported fatal; anything that
      // escapes to here is a server-side condition (disk I/O) the client
      // may legitimately retry.
      response = net::error_response(seq_of(request), e.what(),
                                     /*fatal=*/false);
    }
    if (net::send_message(socket, response, options_.io_timeout_seconds) !=
        net::IoStatus::Ok)
      return;
    if (!response.get_or("ok", support::Json(false)).as_bool() &&
        response.get_or("fatal", support::Json(false)).as_bool())
      return;  // refused connections are closed, not left to flounder
  }
}

support::Json Coordinator::handle_hello(const support::Json& request,
                                        std::string* worker) {
  const std::int64_t seq = seq_of(request);
  const auto refuse = [&](const std::string& error) {
    return net::error_response(seq, error, /*fatal=*/true);
  };
  const std::int64_t version =
      request.get_or("version", support::Json(std::int64_t{0})).as_int();
  if (version != net::kWireVersion)
    return refuse("wire protocol version " + std::to_string(version) +
                  " unsupported (coordinator speaks version " +
                  std::to_string(net::kWireVersion) + ")");
  if (!request.contains("worker") || !request.at("worker").is_string() ||
      request.at("worker").as_string().empty())
    return refuse("hello carries no worker id");
  if (!request.contains("config") || !request.at("config").is_object())
    return refuse("hello carries no campaign configuration");
  const int lease_size = static_cast<int>(
      request.get_or("lease_size", support::Json(std::int64_t{0})).as_int());
  const int lease_count = static_cast<int>(
      request.get_or("lease_count", support::Json(std::int64_t{-1})).as_int());
  if (lease_size < 1 || lease_count < 0)
    return refuse("hello carries no lease geometry");

  std::lock_guard<std::mutex> lock(mu_);
  if (!have_manifest_) {
    // First worker seeds the campaign.  Persist before acknowledging so a
    // coordinator killed right after the hello still refuses a different
    // campaign on restart.
    const support::Json manifest =
        make_manifest(request.at("config"), lease_size, lease_count);
    support::write_file_atomic(LeaseBoard::manifest_path(options_.dir),
                               manifest.dump(1), ".tmp");
    config_echo_ = request.at("config");
    lease_size_ = lease_size;
    lease_count_ = lease_count;
    have_manifest_ = true;
  } else {
    if (request.at("config") != config_echo_)
      return refuse("campaign configuration mismatch: this coordinator "
                    "serves a different campaign");
    if (lease_size != lease_size_ || lease_count != lease_count_)
      return refuse("lease geometry mismatch: every worker of one campaign "
                    "must agree on --lease-size");
  }
  *worker = request.at("worker").as_string();
  return net::ok_response(seq);
}

support::Json Coordinator::handle(const support::Json& request,
                                  const std::string& worker) {
  const std::int64_t seq = seq_of(request);
  const std::string op =
      request.get_or("op", support::Json("")).as_string();
  const auto lease_of = [&]() -> int {
    if (!request.contains("lease") || !request.at("lease").is_number())
      throw std::invalid_argument("request carries no lease index");
    const int k = static_cast<int>(request.at("lease").as_int());
    if (k < 0 || k >= lease_count_)
      throw std::invalid_argument("lease index out of range");
    return k;
  };

  std::lock_guard<std::mutex> lock(mu_);
  try {
    if (op == "claim") {
      const int k = lease_of();
      support::Json resp = net::ok_response(seq);
      const auto it = claims_.find(k);
      if (it == claims_.end()) {
        persist_claim(k, worker);
        claims_[k] = Claim{worker, std::chrono::steady_clock::now()};
        resp["acquired"] = true;
      } else if (it->second.worker == worker) {
        // Idempotent for the claim's own worker: a retried claim whose
        // first response was lost in flight must not read as "lost the
        // race" — the worker would skip a lease it actually owns.
        it->second.beat = std::chrono::steady_clock::now();
        resp["acquired"] = true;
      } else {
        resp["acquired"] = false;
      }
      return resp;
    }
    if (op == "age") {
      const int k = lease_of();
      support::Json resp = net::ok_response(seq);
      const auto it = claims_.find(k);
      resp["age"] =
          it == claims_.end()
              ? -1.0
              : std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - it->second.beat)
                    .count();
      return resp;
    }
    if (op == "steal") {
      const int k = lease_of();
      support::Json resp = net::ok_response(seq);
      const auto it = claims_.find(k);
      if (it == claims_.end()) {
        resp["stolen"] = false;  // nothing to steal — lost the race
      } else {
        persist_claim(k, worker);
        it->second = Claim{worker, std::chrono::steady_clock::now()};
        resp["stolen"] = true;
      }
      return resp;
    }
    if (op == "reap") {
      const int k = lease_of();
      support::Json resp = net::ok_response(seq);
      const bool existed = claims_.erase(k) > 0;
      if (existed) support::remove_file(claim_path(k));
      resp["reaped"] = existed;
      return resp;
    }
    if (op == "heartbeat") {
      const int k = lease_of();
      support::Json resp = net::ok_response(seq);
      const auto it = claims_.find(k);
      const bool beating =
          it != claims_.end() && it->second.worker == worker;
      if (beating) it->second.beat = std::chrono::steady_clock::now();
      resp["beating"] = beating;
      return resp;
    }
    if (op == "release") {
      const int k = lease_of();
      const auto it = claims_.find(k);
      if (it != claims_.end() && it->second.worker == worker) {
        claims_.erase(it);
        support::remove_file(claim_path(k));
      }
      return net::ok_response(seq);
    }
    if (op == "done") {
      const int k = lease_of();
      support::Json resp = net::ok_response(seq);
      resp["done"] = done_.count(k) > 0;
      return resp;
    }
    if (op == "list_done") {
      support::Json resp = net::ok_response(seq);
      support::Json done = support::Json::array();
      for (const int k : done_) done.push_back(k);
      resp["done"] = std::move(done);
      return resp;
    }
    if (op == "publish") {
      if (!request.contains("block") || !request.at("block").is_object())
        throw std::invalid_argument("publish carries no block");
      const support::Json& block = request.at("block");
      const int k =
          static_cast<int>(block.at("lease").at("index").as_int());
      const int count =
          static_cast<int>(block.at("lease").at("count").as_int());
      if (k < 0 || k >= lease_count_ || count != lease_count_)
        throw std::invalid_argument(
            "published block does not belong to this lease partition");
      // Done files are immutable: a duplicate publish (a paused owner and
      // its stealer both finishing, or a retried request whose first
      // response was lost) is acknowledged without rewriting — by the
      // determinism invariant the duplicate carries identical bytes.
      if (done_.count(k) == 0) {
        support::write_file_atomic(done_path(k), block.dump(1), ".tmp");
        done_.insert(k);
      }
      return net::ok_response(seq);
    }
  } catch (const std::invalid_argument& e) {
    // Malformed requests mean the client is wrong; retrying cannot help.
    return net::error_response(seq, e.what(), /*fatal=*/true);
  }
  return net::error_response(seq, "unknown op \"" + op + "\"",
                             /*fatal=*/true);
}

}  // namespace gpudiff::campaign
