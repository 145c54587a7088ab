// serve: one-shot queries against an in-process results-store daemon.
//
// Set-up runs two seeded campaigns, writes their version-2 reports and two
// Google-Benchmark-shaped perf files, ingests them under several commit
// labels and starts a store::StoreServer on loopback.  The timed loop is
// one closed-loop client issuing the `gpudiff-serve --connect` exchange —
// connect, hello, one request, close — cycling summary, population, trend
// and diff queries.  The client closes abortively, so the loop leaves no
// TIME_WAIT sockets behind to slow the next connect() or the next run.  Every wire answer must equal the in-process store::
// answer over the same directory byte for byte.
//
// The daemon keeps one thread object per connection until it stops, so a
// run restarts its server every kConnectionsPerServer connections, outside
// the timed region, to stay inside the kernel's per-process mapping limit;
// peak_rss_mb still shows the per-connection growth.

#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "campaign/checkpoint.hpp"
#include "common.hpp"
#include "diff/campaign.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"
#include "support/json.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace gpudiff;
namespace fs = std::filesystem;

constexpr int kCampaignPrograms = 96;
constexpr std::uint64_t kConnectionsPerServer = 4096;
constexpr double kTimeout = 5.0;
constexpr std::uint64_t kOpsPerRound = 64;  // a multiple of the 4 queries
// Nominal one-shot queries per second on a 4-core shared Xeon (Release),
// which set an untraced run's number of passes from --seconds.
constexpr double kQueriesPerS = 4000.0;

struct Query {
  support::Json request;
  std::string member;  ///< response member holding the answer
  /// The same question asked of an in-process index, as compact JSON.
  std::function<std::string(const store::StoreIndex&)> ask;
  std::string expected;  ///< ask() over the served store
};

/// A synthetic Google-Benchmark file: deterministic per (seed, variant).
std::string bench_file(std::uint64_t seed, int variant) {
  support::Json doc = support::Json::object();
  support::Json context = support::Json::object();
  context["date"] = "2026-01-01T00:00:00";
  doc["context"] = std::move(context);
  support::Json rows = support::Json::array();
  for (int i = 0; i < 12; ++i) {
    support::Json row = support::Json::object();
    row["name"] = "BM_Layer" + std::to_string(i);
    row["run_type"] = "iteration";
    row["iterations"] = 1000;
    const double base = 100.0 + static_cast<double>((seed >> (i % 48)) % 900);
    row["real_time"] = base * (1.0 + 0.05 * variant);
    row["cpu_time"] = base * (1.0 + 0.05 * variant);
    row["time_unit"] = "ns";
    rows.push_back(std::move(row));
  }
  doc["benchmarks"] = std::move(rows);
  return doc.dump();
}

struct Store {
  std::string dir;
  std::vector<Query> queries;
  std::unique_ptr<store::StoreServer> server;
  std::vector<std::string> ingest_paths;  ///< for the traced ingest probe
};

Store build_store(const Options& o, const fs::path& root) {
  fs::remove_all(root);
  fs::create_directories(root);
  Store s;
  s.dir = (root / "store").string();
  std::vector<std::string> reports;
  for (int k = 0; k < 2; ++k) {
    diff::CampaignConfig cfg;
    cfg.seed = derive_seed(o.seed, 0x5e00 + static_cast<std::uint64_t>(k));
    cfg.num_programs = kCampaignPrograms;
    cfg.threads = 1;
    if (k == 1) cfg.gen.precision = ir::Precision::FP32;
    const support::Json echo = campaign::config_to_json(cfg);
    const std::string path = (root / ("report-" + std::to_string(k) + ".json")).string();
    support::write_file(path, campaign::results_to_json(diff::run_campaign(cfg), &echo).dump());
    reports.push_back(path);
  }
  std::vector<std::string> benches;
  for (int v = 0; v < 2; ++v) {
    const std::string path = (root / ("BENCH_" + std::to_string(v) + ".json")).string();
    support::write_file(path, bench_file(o.seed, v));
    benches.push_back(path);
  }
  // Four commits: both populations, perf drifting between them.
  store::ingest(s.dir, "c0", {reports[0], benches[0]});
  store::ingest(s.dir, "c1", {reports[0], reports[1], benches[1]});
  store::ingest(s.dir, "c2", {reports[1], benches[0]});
  store::ingest(s.dir, "c3", {reports[0], reports[1], benches[1]});
  s.ingest_paths = {reports[0], reports[1], benches[0]};

  support::Json q = support::Json::object();
  q["op"] = "summary";
  s.queries.push_back({q, "summary", [](const store::StoreIndex& index) {
                         return store::summary(index).dump();
                       }, {}});
  q = support::Json::object();
  q["op"] = "population";
  q["commit"] = "c0";
  s.queries.push_back({q, "population", [](const store::StoreIndex& index) {
                         return store::population(index, "c0", "").dump();
                       }, {}});
  q = support::Json::object();
  q["op"] = "trend";
  s.queries.push_back({q, "trend", [](const store::StoreIndex& index) {
                         return store::trend(index).dump();
                       }, {}});
  q = support::Json::object();
  q["op"] = "diff";
  q["from"] = "c1";
  q["to"] = "c3";
  s.queries.push_back({q, "diff", [](const store::StoreIndex& index) {
                         return store::diff_commits(index, "c1", "c3").dump();
                       }, {}});
  const store::StoreIndex index = store::load_store(s.dir);
  for (Query& query : s.queries) query.expected = query.ask(index);

  store::ServeOptions sopts;
  sopts.dir = s.dir;
  s.server = std::make_unique<store::StoreServer>(sopts);
  s.server->start();
  return s;
}

struct Layers {
  std::uint32_t connect, request, close;
};

/// The `gpudiff-serve --connect` exchange.  Returns the query's response,
/// or null on any transport or protocol failure.
support::Json one_shot(int port, const Query& q, const Layers& L) {
  net::Socket socket;
  support::Json response;
  {
    Span span(L.connect);
    socket = net::connect_tcp("127.0.0.1", port, kTimeout);
    if (!socket.valid()) return {};
    support::Json hello = support::Json::object();
    hello["op"] = "hello";
    hello["version"] = net::kWireVersion;
    hello["store_version"] = store::kStoreVersion;
    if (net::request_response(socket, std::move(hello), 1, &response, kTimeout) !=
            net::IoStatus::Ok ||
        !response.get_or("ok", support::Json(false)).as_bool())
      return {};
  }
  {
    Span span(L.request);
    if (net::request_response(socket, q.request, 2, &response, kTimeout) !=
        net::IoStatus::Ok)
      return {};
  }
  Span span(L.close);
  // An abortive close (RST, no TIME_WAIT).  A user's one-shot query leaves
  // one TIME_WAIT socket behind; a closed loop of thousands per second
  // would exhaust loopback's ephemeral ports within seconds, and connect()
  // would then spend its time searching for a reusable port, slowest
  // right after another run.
  const linger abort_close{1, 0};
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_LINGER, &abort_close, sizeof(abort_close));
  socket.close();
  return response;
}

/// The answer member of a wire response, compact; empty when refused.
std::string answer_of(const support::Json& response, const Query& q) {
  if (!response.is_object() ||
      !response.get_or("ok", support::Json(false)).as_bool() ||
      !response.contains(q.member))
    return {};
  return response.at(q.member).dump();
}

}  // namespace

void run_serve_workload(const Options& o, Report& report) {
  const fs::path root = fs::path(o.work_dir) / "serve";
  pin_pass(0);
  SetupTimer<Store> setup([&](int rep) { return build_store(o, root / std::to_string(rep)); });
  Store s = setup.first();

  for (const Query& q : s.queries) report.digest_inputs(q.expected);

  Tracer& tracer = Tracer::instance();
  const Layers L{tracer.layer("net.connect"), tracer.layer("net.request"),
                 tracer.layer("net.close")};
  std::vector<double> ms;
  double measured = 0.0;
  std::uint64_t connections = 0;
  bool corrupt = o.corrupt_reference;
  OpRounds rounds(report, kOpsPerRound);
  // An untraced run asks the same sequence of queries, one server's
  // lifetime long, in as many passes as --seconds holds at the nominal
  // rate (at least kPasses), and takes each query's fastest answer; a
  // traced run goes on until its time budget is spent.
  const std::size_t passes = std::max<std::size_t>(
      kPasses, static_cast<std::size_t>(std::lround(
                   o.seconds * kQueriesPerS / static_cast<double>(kConnectionsPerServer))));
  BestPass best(kConnectionsPerServer);
  for (std::size_t i = 0;
       o.traced ? measured < o.seconds : i < passes * kConnectionsPerServer; ++i) {
    if (connections == kConnectionsPerServer) {
      // A new pass moves the client, and the server it starts anew, to the
      // pass's CPU.
      if (!o.traced) pin_pass(i / kConnectionsPerServer);
      s.server->stop();
      s.server.reset();
      store::ServeOptions sopts;
      sopts.dir = s.dir;
      s.server = std::make_unique<store::StoreServer>(sopts);
      s.server->start();
      connections = 0;
    }
    const Query& q = s.queries[i % s.queries.size()];
    const std::int64_t t0 = now_ns();
    const support::Json response = one_shot(s.server->port(), q, L);
    const double dt = seconds_between(t0, now_ns());
    const std::string answer = answer_of(response, q);
    ++connections;
    measured += dt;
    rounds.add(dt);
    ms.push_back(dt * 1e3);
    best.add(i % kConnectionsPerServer, 1, dt, {dt * 1e3});
    std::string expected = q.expected;
    if (corrupt) {
      expected += " ";
      corrupt = false;
    }
    report.check(answer == expected,
                 "wire answer differs from in-process store answer: " +
                     q.request.dump());
    if (o.traced)
      setup.between(measured, o.seconds);
    else
      setup.between(i + 1.0, static_cast<double>(passes * kConnectionsPerServer));
    if (report.failed() > 64) break;
  }

  if (!o.traced) {
    report.end_to_end(best.ops(), best.cost_s(), best.latency_ms(), setup.median_s());
    s.server->stop();
    return;
  }
  s.server->stop();

  // In-process floors, outside the query loop.
  const auto layers = tracer.totals();
  report.metric("net.connect_ms",
                layers.at("net.connect").total_s / layers.at("net.connect").count * 1e3, "ms");
  report.metric("net.request_us",
                layers.at("net.request").total_s / layers.at("net.request").count * 1e6, "us");

  std::vector<double> load_ms, query_us, ingest_ms;
  for (int rep = 0; rep < 7; ++rep) {
    std::int64_t t0 = now_ns();
    const store::StoreIndex index = store::load_store(s.dir);
    load_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    for (const Query& q : s.queries) {
      t0 = now_ns();
      const std::string answer = q.ask(index);
      query_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      report.check(answer == q.expected,
                   "in-process answer drifted: " + q.request.dump());
    }
    const std::string scratch = (root / ("ingest-" + std::to_string(rep))).string();
    t0 = now_ns();
    store::ingest(scratch, "c0", s.ingest_paths);
    ingest_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    fs::remove_all(scratch);
  }
  report.metric("store.load_ms", median(load_ms), "ms");
  report.metric("store.query_us", median(query_us), "us");
  report.metric("store.ingest_ms", median(ingest_ms), "ms");
  report.metric("setup_s", setup.median_s(), "s");
}

}  // namespace perfbench
