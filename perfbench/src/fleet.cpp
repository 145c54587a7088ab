// fleet: a lease-fleet campaign on loopback.
//
// Each round starts an in-process campaign::Coordinator on a fresh state
// directory and min(3, nproc - 1) worker threads, each running
// campaign::run_worker (threads = 1) over its own TcpLeaseTransport, with
// the shipped lease size, heartbeat and stale-after.  A round is timed
// from the first claim to the merged report (merge_lease_dir plus
// results_to_json and dump), taken as soon as the coordinator holds every
// done block.  The merged report must be byte-identical to an in-process
// diff::run_campaign of the same config.
//
// Every transport call goes through TimedTransport, a benchmark-only
// decorator that forwards each LeaseTransport virtual and records its
// duration; a traced run turns those into the campaign.* layer metrics.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/transport.hpp"
#include "common.hpp"
#include "diff/campaign.hpp"
#include "gen/generator.hpp"
#include "opt/platform.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace gpudiff;
namespace fs = std::filesystem;

constexpr int kFleetPrograms = 1024;
constexpr std::size_t kCoordinatorsPerStop = 8;
constexpr int kWarmupPrograms = 192;
constexpr std::uint64_t kWarmupSeed = 0x5e7a;  // same set-up work every seed

/// Per-operation durations and events, shared by every worker's decorator
/// (heartbeat() arrives on the heartbeat timer thread, so recording
/// locks).
struct TransportLog {
  std::mutex mu;
  std::map<std::string, std::vector<double>> op_ms;
  std::vector<double> lease_ms;  ///< claim won -> publish returned
  std::int64_t first_claim = 0;
  double transport_s = 0.0;      ///< summed over workers
  double exec_s = 0.0;           ///< claim won -> publish called, summed
  std::uint64_t leases = 0, steals = 0, errors = 0;
};

class TimedTransport final : public campaign::LeaseTransport {
 public:
  TimedTransport(campaign::LeaseTransport& inner, TransportLog& log)
      : inner_(inner), log_(log) {}

  const std::string& worker_id() const noexcept override {
    return inner_.worker_id();
  }
  void publish_or_verify_manifest(const support::Json& config_echo,
                                  int lease_size, int count) override {
    timed("manifest", [&] {
      inner_.publish_or_verify_manifest(config_echo, lease_size, count);
      return 0;
    });
  }
  bool is_done(int lease) override {
    return timed("is_done", [&] { return inner_.is_done(lease); });
  }
  std::vector<int> list_done() override {
    return timed("list_done", [&] { return inner_.list_done(); });
  }
  bool try_claim(int lease) override {
    note_first_claim();
    const bool won = timed("claim", [&] { return inner_.try_claim(lease); });
    if (won) claimed_at_[lease] = now_ns();
    return won;
  }
  double claim_age_seconds(int lease) override {
    return timed("age", [&] { return inner_.claim_age_seconds(lease); });
  }
  bool try_steal(int lease) override {
    note_first_claim();
    const bool won = timed("steal", [&] { return inner_.try_steal(lease); });
    if (won) {
      claimed_at_[lease] = now_ns();
      std::lock_guard<std::mutex> lock(log_.mu);
      ++log_.steals;
    }
    return won;
  }
  void reap_claim(int lease) override {
    timed("reap", [&] {
      inner_.reap_claim(lease);
      return 0;
    });
  }
  bool heartbeat(int lease) override {
    return timed("heartbeat", [&] { return inner_.heartbeat(lease); });
  }
  void publish_done(int lease, int count,
                    const campaign::ResultBlock& block) override {
    const std::int64_t executed = now_ns();
    timed("publish", [&] {
      inner_.publish_done(lease, count, block);
      return 0;
    });
    const auto it = claimed_at_.find(lease);
    std::lock_guard<std::mutex> lock(log_.mu);
    ++log_.leases;
    if (it != claimed_at_.end()) {
      log_.lease_ms.push_back(static_cast<double>(now_ns() - it->second) * 1e-6);
      log_.exec_s += seconds_between(it->second, executed);
    }
  }
  void release(int lease) override {
    timed("release", [&] {
      inner_.release(lease);
      return 0;
    });
  }
  void maintain(double stale_after_seconds) override {
    timed("maintain", [&] {
      inner_.maintain(stale_after_seconds);
      return 0;
    });
  }
  bool drain() override {
    return timed("drain", [&] { return inner_.drain(); });
  }

 private:
  void note_first_claim() {
    std::lock_guard<std::mutex> lock(log_.mu);
    if (log_.first_claim == 0) log_.first_claim = now_ns();
  }

  template <typename F>
  std::invoke_result_t<F&> timed(const char* op, F&& call) {
    Tracer& tracer = Tracer::instance();
    Span span(tracer.enabled() ? tracer.layer(std::string("campaign.") + op) : 0);
    const std::int64_t t0 = now_ns();
    try {
      auto result = call();
      record(op, t0);
      return result;
    } catch (const campaign::TransportError&) {
      record(op, t0);
      std::lock_guard<std::mutex> lock(log_.mu);
      ++log_.errors;
      throw;
    }
  }

  void record(const char* op, std::int64_t t0) {
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    std::lock_guard<std::mutex> lock(log_.mu);
    log_.op_ms[op].push_back(ms);
    log_.transport_s += ms * 1e-3;
  }

  campaign::LeaseTransport& inner_;
  TransportLog& log_;
  std::map<int, std::int64_t> claimed_at_;  ///< this worker's thread only
};

diff::CampaignConfig fleet_config(std::uint64_t seed, int programs) {
  diff::CampaignConfig cfg;  // paper-shaped FP64: nvcc,hipcc, 7 inputs, 5 levels
  cfg.seed = seed;
  cfg.num_programs = programs;
  cfg.threads = 1;
  return cfg;
}

unsigned worker_count() {
  const unsigned n = std::max(2u, std::thread::hardware_concurrency());
  return std::min(3u, n - 1);
}

struct RoundResult {
  double window_s = 0.0;
  double merge_s = 0.0;
  double report_ms = 0.0;
  double worker_wall_s = 0.0;  ///< summed over workers
  std::string report;
};

/// One fleet campaign.  The coordinator and workers start before the
/// window opens; the window closes when the merged report is serialized.
RoundResult run_round(const diff::CampaignConfig& cfg,
                      campaign::Coordinator& coordinator, TransportLog& log) {
  const std::string& dir = coordinator.dir();
  const int leases =
      campaign::lease_count(cfg.num_programs, campaign::WorkerOptions{}.lease_size);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::mutex error_mu;
  std::string worker_error;
  std::vector<double> wall(worker_count(), 0.0);
  const std::int64_t deadline = now_ns() + 60'000'000'000LL;
  const std::string round_tag = fs::path(dir).filename().string();
  for (unsigned w = 0; w < worker_count(); ++w)
    workers.emplace_back([&, w] {
      try {
        campaign::TcpTransportOptions topts;
        topts.host = "127.0.0.1";
        topts.port = coordinator.port();
        topts.worker_id = round_tag + "-w" + std::to_string(w);
        topts.journal_dir = dir + "-journal-" + std::to_string(w);
        campaign::TcpLeaseTransport tcp(topts);
        TimedTransport timed(tcp, log);
        campaign::WorkerOptions options;
        options.worker_id = topts.worker_id;
        options.stop_requested = [&stop] { return stop.load(); };
        const std::int64_t t0 = now_ns();
        campaign::run_worker(cfg, options, timed);
        wall[w] = seconds_between(t0, now_ns());
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        worker_error = e.what();
      }
    });

  RoundResult out;
  while (coordinator.done_count() < leases) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!worker_error.empty()) break;
    }
    if (now_ns() > deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::int64_t merge0 = now_ns();
  bool merged = false;
  if (coordinator.done_count() >= leases) {
    const diff::CampaignResults results = campaign::merge_lease_dir(dir);
    const std::int64_t json0 = now_ns();
    out.report = campaign::results_to_json(results).dump();
    const std::int64_t end = now_ns();
    out.report_ms = static_cast<double>(end - json0) * 1e-6;
    out.merge_s = seconds_between(merge0, json0);
    std::lock_guard<std::mutex> lock(log.mu);
    out.window_s = seconds_between(log.first_claim, end);
    merged = true;
  }
  // Workers idle between scans once every lease is claimed; stop them so
  // the next round does not wait out their poll interval.
  stop = true;
  for (auto& t : workers) t.join();
  for (double s : wall) out.worker_wall_s += s;
  if (!merged || !worker_error.empty())
    throw std::runtime_error("fleet round failed: " +
                             (worker_error.empty() ? "no merge" : worker_error));
  return out;
}

}  // namespace

void run_fleet_workload(const Options& o, Report& report) {
  const fs::path root = fs::path(o.work_dir) / "fleet";
  const auto start_coordinator = [](const fs::path& dir) {
    fs::remove_all(dir);
    campaign::CoordinatorOptions copts;
    copts.dir = dir.string();
    auto coordinator = std::make_unique<campaign::Coordinator>(copts);
    coordinator->start();
    return coordinator;
  };
  // Coordinator::stop() waits up to one I/O poll interval, so finished
  // coordinators are stopped together, every few rounds and at the end,
  // outside every timing.
  std::vector<std::unique_ptr<campaign::Coordinator>> finished;
  const auto stop_all = [&finished] {
    std::vector<std::thread> stoppers;
    for (auto& c : finished) stoppers.emplace_back([&c] { c->stop(); });
    for (auto& t : stoppers) t.join();
    finished.clear();
  };

  // Set-up: warm the process with a small in-process campaign of the
  // round shape, then start a coordinator on a fresh state dir.
  SetupTimer<campaign::Coordinator*> setup([&](int rep) {
    diff::run_campaign(fleet_config(kWarmupSeed, kWarmupPrograms));
    finished.push_back(start_coordinator(root / ("setup-" + std::to_string(rep))));
    return finished.back().get();
  });
  setup.first();
  {
    const diff::CampaignConfig cfg = fleet_config(derive_seed(o.seed, 1), kFleetPrograms);
    report.digest_inputs(gen::Generator(cfg.gen, cfg.seed).generate(0).dump());
  }

  double measured = 0.0, merge_s = 0.0, report_ms = 0.0, worker_wall = 0.0;
  std::uint64_t programs = 0;
  std::vector<double> lease_ms;
  TransportLog totals;
  bool corrupt = o.corrupt_reference;
  for (std::uint64_t r = 0; measured < o.seconds; ++r) {
    const diff::CampaignConfig cfg =
        fleet_config(derive_seed(o.seed, r + 1), kFleetPrograms);
    const fs::path dir = root / ("round-" + std::to_string(r));
    finished.push_back(start_coordinator(dir));
    TransportLog log;
    RoundResult round;
    try {
      round = run_round(cfg, *finished.back(), log);
    } catch (const std::exception& e) {
      report.fail(e.what());
      if (report.failed() > 3) throw;
      continue;
    }
    measured += round.window_s;
    // Workers spend the window executing leases or inside transport calls:
    // the budget is their transport plus execution time per worker, plus
    // the merge and the report.
    report.round(static_cast<std::uint64_t>(cfg.num_programs), round.window_s,
                 (log.transport_s + log.exec_s) / worker_count() + round.merge_s +
                     round.report_ms * 1e-3);
    merge_s += round.merge_s;
    report_ms += round.report_ms;
    worker_wall += round.worker_wall_s;
    programs += static_cast<std::uint64_t>(cfg.num_programs);
    lease_ms.insert(lease_ms.end(), log.lease_ms.begin(), log.lease_ms.end());
    for (auto& [op, v] : log.op_ms)
      totals.op_ms[op].insert(totals.op_ms[op].end(), v.begin(), v.end());
    totals.transport_s += log.transport_s;
    totals.exec_s += log.exec_s;
    totals.leases += log.leases;
    totals.steals += log.steals;
    totals.errors += log.errors;

    // Reference: the same config in one process, serialized the same way.
    diff::CampaignConfig ref_cfg = cfg;
    ref_cfg.threads = std::max(1u, std::thread::hardware_concurrency());
    std::string expected = campaign::results_to_json(diff::run_campaign(ref_cfg)).dump();
    if (corrupt) {
      expected.back() = ' ';
      corrupt = false;
    }
    report.check(round.report == expected,
                 "merged fleet report differs from run_campaign, round " +
                     std::to_string(r));
    setup.between(measured, o.seconds);
    if (finished.size() >= kCoordinatorsPerStop) stop_all();
  }
  const double setup_s = setup.median_s();
  stop_all();
  fs::remove_all(root);

  if (!o.traced) {
    report.end_to_end(programs, measured, lease_ms, setup_s);
    return;
  }
  const auto p50 = [&](const char* op) {
    const auto it = totals.op_ms.find(op);
    return it == totals.op_ms.end() ? 0.0 : median(it->second);
  };
  report.metric("campaign.claim_ms", p50("claim"), "ms");
  report.metric("campaign.publish_ms", p50("publish"), "ms");
  report.metric("campaign.release_ms", p50("release"), "ms");
  report.metric("campaign.heartbeat_ms", p50("heartbeat"), "ms");
  report.metric("campaign.transport_share", totals.transport_s / worker_wall, "ratio");
  report.metric("campaign.leases", static_cast<double>(totals.leases), "count");
  report.metric("campaign.steals", static_cast<double>(totals.steals), "count");
  report.metric("campaign.transport_errors", static_cast<double>(totals.errors), "count");
  report.metric("campaign.merge_s", merge_s / static_cast<double>(programs / kFleetPrograms), "s");
  report.metric("campaign.report_json_ms", report_ms / static_cast<double>(programs / kFleetPrograms), "ms");
  report.metric("setup_s", setup_s, "s");
}

}  // namespace perfbench
