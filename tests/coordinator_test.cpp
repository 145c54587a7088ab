// Network-elastic coordination tests: the TCP lease transport against the
// in-process coordinator, under fault injection.  The load-bearing
// property is the same byte-identity the scheduler tests lock down, with
// the network allowed to misbehave: however the coordinator restarts,
// connections sever, frames drop, duplicate or reorder, and workers die,
// the merged CampaignResults must be byte-identical to the single-process
// diff::run_campaign output — and the filesystem transport's output.
//
// Process-death drills (SIGKILLed coordinator, SIGKILLed worker) drive
// the real gpudiff-coordinator / gpudiff-campaign binaries as children
// (via GPUDIFF_COORDINATOR_BIN / GPUDIFF_CAMPAIGN_BIN, wired by CMake) so
// recovery runs the actual startup paths, not in-process simulations.

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/transport.hpp"
#include "diff/campaign.hpp"
#include "net/wire.hpp"
#include "support/json.hpp"
#include "support/lockfile.hpp"
#include "support/rng.hpp"

#include "fault_proxy.hpp"

namespace {

using namespace gpudiff;
using campaign::Coordinator;
using campaign::CoordinatorOptions;
using campaign::TcpLeaseTransport;
using campaign::TcpTransportOptions;
using campaign::TransportError;
using campaign::WorkerOptions;
using campaign::WorkerOutcome;
using gpudiff::testing::Direction;
using gpudiff::testing::Fault;
using gpudiff::testing::FaultKind;
using gpudiff::testing::FaultProxy;

diff::CampaignConfig small_config(int programs = 45) {
  diff::CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 5;
  cfg.seed = 1234;
  return cfg;
}

std::string canonical(const diff::CampaignResults& results) {
  return campaign::results_to_json(results).dump(1);
}

/// A scratch directory removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
};

/// Fast-cadence retry policy so fault tests converge in milliseconds, not
/// the production default's seconds.
support::RetryPolicy test_retry() {
  support::RetryPolicy p;
  p.max_attempts = 6;
  p.initial_backoff_seconds = 0.005;
  p.max_backoff_seconds = 0.05;
  return p;
}

TcpTransportOptions transport_options(int port, const std::string& worker,
                                      const std::string& journal_dir) {
  TcpTransportOptions topts;
  topts.host = "127.0.0.1";
  topts.port = port;
  topts.worker_id = worker;
  topts.journal_dir = journal_dir;
  topts.retry = test_retry();
  // Short enough that a dropped frame costs a quarter second, not the
  // production default's patient five — fault tests drop a lot of frames.
  topts.request_timeout_seconds = 0.25;
  topts.connect_timeout_seconds = 0.25;
  return topts;
}

/// Run one TCP worker to completion in this thread.
WorkerOutcome run_tcp_worker(const diff::CampaignConfig& cfg, int port,
                             const std::string& worker,
                             const std::string& journal_dir,
                             double stale_after = 1e9) {
  WorkerOptions wopts;
  wopts.coordinator = "127.0.0.1:" + std::to_string(port);
  wopts.journal_dir = journal_dir;
  wopts.lease_size = 4;
  wopts.stale_after_seconds = stale_after;
  wopts.worker_id = worker;
  wopts.retry = test_retry();
  wopts.request_timeout_seconds = 0.25;
  return campaign::run_worker(cfg, wopts);
}

bool wait_until(const std::function<bool()>& pred, double seconds = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

int count_files_with_suffix(const std::string& dir, const std::string& suffix) {
  int n = 0;
  if (!std::filesystem::is_directory(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Transport equivalence: the TCP coordinator path produces byte-identical
// results to the single process and to the filesystem board.
// ---------------------------------------------------------------------------

TEST(Coordinator, TcpWorkerMatchesSingleProcessByteForByte) {
  const auto cfg = small_config();
  TempDir state("gpudiff_coord_single");
  TempDir journal("gpudiff_coord_single_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  const WorkerOutcome outcome =
      run_tcp_worker(cfg, coordinator.port(), "tcp-w0", journal.str());
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, campaign::lease_count(45, 4));
  EXPECT_EQ(outcome.programs_executed, 45u);
  coordinator.stop();

  // The coordinator's state directory IS a lease directory: the ordinary
  // merge consumes it with no TCP-specific code path.
  EXPECT_TRUE(campaign::campaign_complete(state.str()));
  EXPECT_EQ(count_files_with_suffix(state.str(), ".claim"), 0)
      << "completed worker left claims on the coordinator";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Coordinator, TcpAndFilesystemTransportsAreByteIdentical) {
  const auto cfg = small_config();
  // Filesystem board.
  TempDir fs_dir("gpudiff_coord_fs_equiv");
  WorkerOptions fs_opts;
  fs_opts.dir = fs_dir.str();
  fs_opts.lease_size = 4;
  fs_opts.worker_id = "fs-w0";
  ASSERT_TRUE(campaign::run_worker(cfg, fs_opts).campaign_complete);
  // TCP coordinator.
  TempDir state("gpudiff_coord_tcp_equiv");
  TempDir journal("gpudiff_coord_tcp_equiv_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();
  ASSERT_TRUE(run_tcp_worker(cfg, coordinator.port(), "tcp-w0", journal.str())
                  .campaign_complete);
  coordinator.stop();

  // Same manifest bytes, same per-lease done-file bytes, same merge.
  EXPECT_EQ(support::read_file(campaign::LeaseBoard::manifest_path(fs_dir.str())),
            support::read_file(campaign::LeaseBoard::manifest_path(state.str())));
  for (int k = 0; k < campaign::lease_count(45, 4); ++k)
    EXPECT_EQ(
        support::read_file(campaign::LeaseBoard::done_path(fs_dir.str(), k)),
        support::read_file(campaign::LeaseBoard::done_path(state.str(), k)))
        << "lease " << k;
  EXPECT_EQ(canonical(campaign::merge_lease_dir(fs_dir.str())),
            canonical(campaign::merge_lease_dir(state.str())));
}

TEST(Coordinator, ThreeTcpWorkerFleetByteForByte) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_fleet");
  TempDir journal("gpudiff_coord_fleet_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  std::vector<WorkerOutcome> outcomes(3);
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      outcomes[static_cast<std::size_t>(i)] = run_tcp_worker(
          cfg, coordinator.port(), "fleet-" + std::to_string(i),
          journal.str() + "-" + std::to_string(i));
    });
  }
  for (auto& w : workers) w.join();
  coordinator.stop();

  int total_leases = 0;
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.campaign_complete);
    total_leases += o.leases_completed;
  }
  // The coordinator serializes claims, so a live fleet runs every lease
  // exactly once.
  EXPECT_EQ(total_leases, campaign::lease_count(45, 4));
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct);
}

// ---------------------------------------------------------------------------
// Hello discipline: version and config mismatches are refused at connect.
// ---------------------------------------------------------------------------

TEST(Coordinator, RefusesConfigMismatchFatally) {
  TempDir state("gpudiff_coord_mismatch");
  TempDir journal("gpudiff_coord_mismatch_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  const auto cfg_a = small_config(45);
  TcpLeaseTransport first(
      transport_options(coordinator.port(), "w-a", journal.str() + "-a"));
  first.publish_or_verify_manifest(campaign::config_to_json(cfg_a),
                                   4, campaign::lease_count(45, 4));

  const auto cfg_b = small_config(46);  // a different campaign
  TcpLeaseTransport second(
      transport_options(coordinator.port(), "w-b", journal.str() + "-b"));
  try {
    second.publish_or_verify_manifest(campaign::config_to_json(cfg_b),
                                      4, campaign::lease_count(46, 4));
    FAIL() << "mismatched campaign must be refused";
  } catch (const TransportError&) {
    FAIL() << "a config mismatch is a permanent refusal, not a transient "
              "failure to retry";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refused"), std::string::npos)
        << e.what();
  }
  coordinator.stop();
}

TEST(Coordinator, RefusesWireVersionMismatchFatally) {
  TempDir state("gpudiff_coord_version");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  net::Socket s = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  ASSERT_TRUE(s.valid());
  support::Json hello = support::Json::object();
  hello["op"] = "hello";
  hello["version"] = net::kWireVersion + 99;
  hello["worker"] = "time-traveler";
  hello["config"] = support::Json::object();
  hello["lease_size"] = 4;
  hello["lease_count"] = 1;
  hello["seq"] = 1;
  ASSERT_EQ(net::send_message(s, hello, 2.0), net::IoStatus::Ok);
  support::Json resp;
  ASSERT_EQ(net::recv_message(s, &resp, 5.0), net::IoStatus::Ok);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_TRUE(resp.at("fatal").as_bool())
      << "version skew must not be retried";
  coordinator.stop();
}

TEST(Coordinator, DeeplyNestedLineRefusedCoordinatorKeepsServing) {
  // One pre-hello line of ~2M '[' used to overflow the recursive JSON
  // parser's stack and take the coordinator down.  It must be refused as
  // a fatal wire error on that connection only.
  TempDir state("gpudiff_coord_deep");
  TempDir journal("gpudiff_coord_deep_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  net::Socket s = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  ASSERT_TRUE(s.valid());
  ASSERT_EQ(s.send_all(std::string(std::size_t{2} << 20, '[') + "\n", 10.0),
            net::IoStatus::Ok);
  support::Json resp;
  ASSERT_EQ(net::recv_message(s, &resp, 10.0), net::IoStatus::Ok);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_TRUE(resp.at("fatal").as_bool());
  EXPECT_NE(resp.at("error").as_string().find("nesting too deep"),
            std::string::npos)
      << resp.at("error").as_string();
  EXPECT_NE(net::recv_message(s, &resp, 10.0), net::IoStatus::Ok)
      << "a refused connection is closed";

  // The next client is served normally.
  TcpLeaseTransport worker(
      transport_options(coordinator.port(), "w-deep", journal.str()));
  worker.publish_or_verify_manifest(campaign::config_to_json(small_config(45)),
                                    4, campaign::lease_count(45, 4));
  EXPECT_TRUE(worker.try_claim(0));
  coordinator.stop();
}

// ---------------------------------------------------------------------------
// Durability: a coordinator restarted on its state directory recovers
// every claim and every done block.
// ---------------------------------------------------------------------------

TEST(Coordinator, RecoversClaimsAndDoneBlocksAcrossRestart) {
  const auto cfg = small_config();
  const int count = campaign::lease_count(45, 4);
  const support::Json echo = campaign::config_to_json(cfg);
  TempDir state("gpudiff_coord_restart");
  TempDir journal("gpudiff_coord_restart_journal");

  {
    CoordinatorOptions copts;
    copts.dir = state.str();
    Coordinator coordinator(copts);
    coordinator.start();
    TcpLeaseTransport t(
        transport_options(coordinator.port(), "w0", journal.str()));
    t.publish_or_verify_manifest(echo, 4, count);
    ASSERT_TRUE(t.try_claim(0));
    // Publish lease 1 the long way so the done file carries real bytes.
    ASSERT_TRUE(t.try_claim(1));
    const auto [b, e] = campaign::lease_range(45, count, 1);
    auto out = diff::run_campaign_range(cfg, b, e);
    campaign::ResultBlock block;
    block.config_echo = echo;
    block.begin = b;
    block.end = e;
    block.per_level = std::move(out.per_level);
    block.records = std::move(out.records);
    t.publish_done(1, count, block);
    t.release(1);
    coordinator.stop();
  }  // SIGKILL stand-in: no graceful shutdown protocol exists to miss

  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator revived(copts);
  revived.start();
  TcpLeaseTransport t(
      transport_options(revived.port(), "w1", journal.str() + "-b"));
  t.publish_or_verify_manifest(echo, 4, count);
  // The done block survived.
  EXPECT_TRUE(t.is_done(1));
  EXPECT_EQ(t.list_done(), std::vector<int>{1});
  // w0's claim on lease 0 survived, restarted fresh: another worker cannot
  // claim it, its age is live (>= 0), and stealing still works.
  EXPECT_FALSE(t.try_claim(0));
  EXPECT_GE(t.claim_age_seconds(0), 0.0);
  EXPECT_TRUE(t.try_steal(0));
  // A wrong-campaign hello is refused even though the manifest was seeded
  // before the restart.
  TcpLeaseTransport wrong(
      transport_options(revived.port(), "w2", journal.str() + "-c"));
  EXPECT_THROW(wrong.publish_or_verify_manifest(
                   campaign::config_to_json(small_config(46)), 4,
                   campaign::lease_count(46, 4)),
               std::runtime_error);
  revived.stop();
}

// ---------------------------------------------------------------------------
// Graceful degradation: a worker that loses the coordinator journals its
// publishes locally and republishes on reconnect.
// ---------------------------------------------------------------------------

TEST(Coordinator, DisconnectedWorkerJournalsAndRepublishes) {
  const auto cfg = small_config();
  const int count = campaign::lease_count(45, 4);
  const support::Json echo = campaign::config_to_json(cfg);
  TempDir state("gpudiff_coord_journal");
  TempDir journal("gpudiff_coord_journal_journal");

  int port = 0;
  {
    CoordinatorOptions copts;
    copts.dir = state.str();
    Coordinator coordinator(copts);
    coordinator.start();
    port = coordinator.port();
    TcpLeaseTransport t(transport_options(port, "w0", journal.str()));
    t.publish_or_verify_manifest(echo, 4, count);
    ASSERT_TRUE(t.try_claim(0));
    coordinator.stop();

    // Coordinator is gone.  The publish must not be lost — and must not
    // throw: it degrades to the local journal.
    const auto [b, e] = campaign::lease_range(45, count, 0);
    auto out = diff::run_campaign_range(cfg, b, e);
    campaign::ResultBlock block;
    block.config_echo = echo;
    block.begin = b;
    block.end = e;
    block.per_level = std::move(out.per_level);
    block.records = std::move(out.records);
    t.publish_done(0, count, block);
    EXPECT_EQ(t.journaled_blocks(), 1);
    EXPECT_FALSE(t.drain()) << "drain must not report clean while a block "
                               "is stranded locally";

    // Coordinator returns (same state dir, same port).  The reconnect
    // flushes the journal before anything else.
    CoordinatorOptions ropts;
    ropts.dir = state.str();
    ropts.port = port;
    Coordinator revived(ropts);
    revived.start();
    EXPECT_TRUE(t.drain());
    EXPECT_EQ(t.journaled_blocks(), 0);
    EXPECT_TRUE(t.is_done(0));
    revived.stop();
  }
  // The republished block landed in the durable directory with the exact
  // bytes a connected publish would have written.
  EXPECT_TRUE(std::filesystem::exists(
      campaign::LeaseBoard::done_path(state.str(), 0)));
}

// ---------------------------------------------------------------------------
// Fault injection: randomized drop/duplicate/reorder/delay through the
// proxy; the campaign must converge byte-identically, no range lost.
// ---------------------------------------------------------------------------

TEST(Coordinator, RandomizedFaultyNetworkConvergesByteForByte) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_chaos");
  TempDir journal("gpudiff_coord_chaos_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  // Deterministically seeded fault schedule: ~72% forward, 10% drop, 10%
  // duplicate, 5% reorder, 3% delayed forward, in both directions.  The
  // hello exchange (line 0 of each direction) is spared only of reorder —
  // nothing meaningful precedes it to reorder behind.
  auto rng = std::make_shared<support::SplitMix64>(0xfa017deadbeefULL);
  auto decide_mu = std::make_shared<std::mutex>();
  FaultProxy proxy(
      "127.0.0.1", coordinator.port(),
      [rng, decide_mu](Direction, int) {
        std::lock_guard<std::mutex> lock(*decide_mu);
        const std::uint64_t roll = rng->next() % 100;
        Fault f;
        if (roll < 10) f.kind = FaultKind::Drop;
        else if (roll < 20) f.kind = FaultKind::Duplicate;
        else if (roll < 25) f.kind = FaultKind::Reorder;
        else if (roll < 28) f.delay_seconds = 0.01;
        return f;
      });

  std::vector<WorkerOutcome> outcomes(2);
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      outcomes[static_cast<std::size_t>(i)] = run_tcp_worker(
          cfg, proxy.port(), "chaos-" + std::to_string(i),
          journal.str() + "-" + std::to_string(i),
          /*stale_after=*/5.0);
    });
  }
  for (auto& w : workers) w.join();
  proxy.stop();
  coordinator.stop();

  for (const auto& o : outcomes) EXPECT_TRUE(o.campaign_complete);
  // merge_lease_dir validates the blocks cover [0, 45) contiguously — a
  // lost range cannot merge, let alone merge clean.
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct);
}

TEST(Coordinator, SeveredConnectionsReconnectAndConverge) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_sever");
  TempDir journal("gpudiff_coord_sever_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  // Cut the connection on every 13th server response: workers ride the
  // sever with a reconnect (fresh hello) and a retried request.
  std::atomic<int> severs{0};
  FaultProxy proxy("127.0.0.1", coordinator.port(),
                   [&severs](Direction dir, int line) {
                     Fault f;
                     if (dir == Direction::ServerToClient && line > 0 &&
                         line % 13 == 0) {
                       f.kind = FaultKind::Sever;
                       severs.fetch_add(1);
                     }
                     return f;
                   });

  const WorkerOutcome outcome = run_tcp_worker(
      cfg, proxy.port(), "sever-w0", journal.str(), /*stale_after=*/5.0);
  proxy.stop();
  coordinator.stop();

  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_GT(severs.load(), 0) << "the drill never actually severed";
  EXPECT_GT(proxy.connections_accepted(), 1)
      << "a sever must force a real reconnect";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct);
}

// ---------------------------------------------------------------------------
// Merge hardening: crash litter and corrupt done files.
// ---------------------------------------------------------------------------

TEST(Coordinator, MergeNamesCorruptDoneFileAndQuarantineSetsItAside) {
  const auto cfg = small_config();
  TempDir dir("gpudiff_coord_corrupt");
  WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.lease_size = 4;
  wopts.worker_id = "w0";
  ASSERT_TRUE(campaign::run_worker(cfg, wopts).campaign_complete);
  const std::string direct = canonical(diff::run_campaign(cfg));

  // Truncate lease 3's done file mid-JSON — the torn write the atomic
  // rename discipline prevents, injected here as if a disk had failed.
  const std::string victim = campaign::LeaseBoard::done_path(dir.str(), 3);
  const std::string whole = support::read_file(victim);
  support::write_file(victim, whole.substr(0, whole.size() / 2));

  // Default merge: abort, naming the corrupt file.
  try {
    campaign::merge_lease_dir(dir.str());
    FAIL() << "corrupt done file must not merge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(victim), std::string::npos)
        << "diagnostic must name the corrupt file, got: " << e.what();
  }

  // Quarantine merge: the corrupt file is set aside and the diagnostic
  // says what to do next.
  campaign::LeaseMergeOptions mopts;
  mopts.quarantine = true;
  try {
    campaign::merge_lease_dir(dir.str(), mopts);
    FAIL() << "quarantine still fails the merge (the lease is missing)";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(victim), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));

  // A worker re-run regenerates the quarantined lease; the merge then
  // produces the exact single-process bytes.
  wopts.worker_id = "w1";
  ASSERT_TRUE(campaign::run_worker(cfg, wopts).campaign_complete);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), direct);
}

TEST(Coordinator, ShardMergeSkipsStaleTempLitter) {
  const auto cfg = small_config();
  TempDir dir("gpudiff_coord_tmplitter");
  campaign::ShardRunOptions sopts;
  sopts.checkpoint_dir = dir.str();
  ASSERT_TRUE(campaign::run_shard(cfg, sopts).complete());
  // Crash litter whose name would match the shard glob but for the ".tmp"
  // marker: a killed checkpointer's half-written temp.
  support::write_file(dir.str() + "/shard-0-of-1.json.tmp.999", "{\"trunc");
  support::write_file(dir.str() + "/shard-junk.tmp.json", "not json at all");
  EXPECT_EQ(canonical(campaign::merge_checkpoint_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

// ---------------------------------------------------------------------------
// Process-death drills: SIGKILL the real coordinator binary mid-campaign,
// restart it, SIGKILL a worker — the fleet still converges byte-for-byte.
// ---------------------------------------------------------------------------

const char* coordinator_binary() {
  return std::getenv("GPUDIFF_COORDINATOR_BIN");
}
const char* campaign_binary() { return std::getenv("GPUDIFF_CAMPAIGN_BIN"); }

pid_t spawn_child(const char* bin, const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    // Keep child chatter out of the gtest stream.
    std::freopen("/dev/null", "w", stdout);
    ::execv(bin, argv.data());
    std::_Exit(127);
  }
  return pid;
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Reserve an ephemeral port for a child coordinator: bind, read, close.
/// (Racy in principle; in practice the child rebinds within milliseconds
/// and SO_REUSEADDR covers the TIME_WAIT case.)
int pick_free_port() {
  net::Listener probe;
  probe.listen("127.0.0.1", 0);
  return probe.port();
}

TEST(Coordinator, KillRestartDrillMergesByteIdentical) {
  if (coordinator_binary() == nullptr || campaign_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_COORDINATOR_BIN / GPUDIFF_CAMPAIGN_BIN not set "
                    "(run under CTest)";
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_drill");
  TempDir journal("gpudiff_coord_drill_journal");
  const int port = pick_free_port();
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);

  const auto spawn_coordinator = [&] {
    return spawn_child(coordinator_binary(),
                       {"--dir", state.str(), "--port", std::to_string(port)});
  };
  const auto spawn_worker = [&](int i) {
    return spawn_child(
        campaign_binary(),
        {"--coordinator", endpoint, "--journal-dir",
         journal.str() + "-" + std::to_string(i), "--programs", "45",
         "--inputs", "5", "--seed", "1234", "--lease-size", "4",
         "--heartbeat", "0.1", "--stale-after", "3", "--worker-id",
         "drill-" + std::to_string(i)});
  };

  pid_t coord = spawn_coordinator();
  ASSERT_GT(coord, 0);
  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(spawn_worker(i));

  // Let the fleet make real progress, then SIGKILL the coordinator — no
  // shutdown path, no flush beyond what every publish already did.
  ASSERT_TRUE(wait_until([&] {
    return count_files_with_suffix(state.str(), ".done.json") >= 2;
  })) << "fleet never started publishing";
  ASSERT_EQ(::kill(coord, SIGKILL), 0);
  wait_for_exit(coord);

  // While the coordinator is down, SIGKILL one worker too.
  ASSERT_EQ(::kill(workers[0], SIGKILL), 0);
  wait_for_exit(workers[0]);

  // Restart the coordinator on the same directory and port.  The
  // survivors' retry policies reconnect; the dead worker's recovered
  // claim ages out (stale-after 3s) and is stolen.
  coord = spawn_coordinator();
  ASSERT_GT(coord, 0);

  for (std::size_t i = 1; i < workers.size(); ++i) {
    const int status = wait_for_exit(workers[i]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker " << i << " exit status " << status;
  }
  ASSERT_EQ(::kill(coord, SIGTERM), 0);
  wait_for_exit(coord);

  EXPECT_TRUE(campaign::campaign_complete(state.str()));
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct)
      << "kill/restart drill diverged from the single-process bytes";
}

}  // namespace
