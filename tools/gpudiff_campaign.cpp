// gpudiff-campaign: distributed, resumable differential-testing campaigns.
//
// One binary covers the whole paper-scale workflow.  Every distributed
// run keeps its state in one layout, a lease directory (see
// campaign/scheduler.hpp): the program range is cut into --lease-size
// leases, each finished lease is an immutable done file, and re-running
// any command against the directory skips the leases already done — so a
// killed process simply resumes, and --merge folds the directory into the
// exact results an unsharded run would produce.
//
//   # one machine, one process, nothing on disk but the report
//   gpudiff-campaign --programs 354 --report results.json
//
//   # eight machines (or eight slots of a job array), fixed carve: shard i
//   # owns a precomputed slice of the leases
//   gpudiff-campaign --shard $I/8 --checkpoint-dir ckpt --programs 3540
//   # ... after a crash on shard 3, the same command picks up where it
//   # stopped:
//   gpudiff-campaign --shard 3/8 --checkpoint-dir ckpt --programs 3540
//   # when all shards are complete:
//   gpudiff-campaign --merge --checkpoint-dir ckpt --report results.json --tables
//
//   # self-balancing fleet: any number of workers, heterogeneous machines,
//   # no carve — each claims leases from the shared dir, and a dead
//   # worker's lease is stolen once its heartbeat goes stale
//   for i in 0 1 2; do
//     gpudiff-campaign --worker lease-dir --programs 3540 &
//   done; wait
//   gpudiff-campaign --merge --checkpoint-dir lease-dir --report results.json
//
//   # the same fleet without a shared filesystem: a TCP coordinator owns
//   # the lease board (durable state dir, restartable after SIGKILL), and
//   # workers coordinate over host:port with retry/backoff — a worker that
//   # loses the coordinator finishes its lease, journals the result
//   # locally, and republishes when the connection returns
//   gpudiff-coordinator --dir coord-state --port 7070 &
//   for host in a b c; do
//     ssh $host gpudiff-campaign --coordinator head:7070 --programs 3540 &
//   done; wait
//   gpudiff-campaign --merge --checkpoint-dir coord-state --report results.json
//
// SIGINT/SIGTERM stop a directory or coordinator run gracefully: the
// process finishes and publishes the in-flight lease and releases every
// claim it holds, so it never strands claimed work and never loses more
// than one lease of it.  A run with no directory keeps the default signal
// disposition (it has nothing to save).

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "campaign/scheduler.hpp"
#include "diff/report.hpp"
#include "opt/platform.hpp"
#include "reduce/bundle.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace gpudiff;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

// Machine-readable registry dump: the same field spelling as the
// config fingerprint (campaign::config_to_json), plus the blurb — so
// store keys and external tooling agree with the fingerprint on what
// constitutes platform-set identity.
void list_platforms_json() {
  support::Json arr = support::Json::array();
  for (const opt::PlatformSpec& spec : opt::platform_registry()) {
    support::Json p = support::Json::object();
    p["name"] = spec.name;
    p["toolchain"] = opt::to_string(spec.toolchain);
    p["fast_math"] = spec.fast_math;
    p["ftz32"] = spec.force_ftz32;
    p["daz32"] = spec.force_daz32;
    p["fma"] = opt::to_string(spec.fma);
    p["div32"] = opt::to_string(spec.div32);
    p["mathlib"] = spec.mathlib;
    p["blurb"] = spec.blurb;
    arr.push_back(std::move(p));
  }
  std::printf("%s\n", arr.dump(1).c_str());
}

void list_platforms() {
  support::Table t("Platform registry (--platforms a,b,c; first = baseline)");
  t.set_header({"Name", "Toolchain", "Fast math", "FTZ32", "DAZ32", "FMA",
                "Div32", "Mathlib", "Description"},
               {support::Align::Left});
  for (const opt::PlatformSpec& spec : opt::platform_registry()) {
    t.add_row({spec.name, opt::to_string(spec.toolchain),
               spec.fast_math ? "yes" : "no", spec.force_ftz32 ? "on" : "-",
               spec.force_daz32 ? "on" : "-", opt::to_string(spec.fma),
               opt::to_string(spec.div32),
               spec.mathlib.empty() ? "(toolchain default)" : spec.mathlib,
               spec.blurb});
  }
  std::fputs(t.render().c_str(), stdout);
}

void print_summary(const diff::CampaignResults& results) {
  std::printf("programs            %d\n", results.num_programs);
  std::printf("inputs per program  %d\n", results.inputs_per_program);
  std::printf("comparisons         %llu\n",
              static_cast<unsigned long long>(results.comparisons_total()));
  std::printf("runs                %llu\n",
              static_cast<unsigned long long>(results.runs_total()));
  std::printf("discrepancies       %llu (%.4f%% of runs)\n",
              static_cast<unsigned long long>(results.discrepancies_total()),
              results.discrepancy_percent());
  std::printf("records retained    %zu\n", results.records.size());
}

// `temp_suffix` must be process-unique when several workers may finish a
// campaign simultaneously and write the same report path: their contents
// are byte-identical (deterministic results), but a shared temp file
// could be torn mid-race.
void emit_results(const diff::CampaignResults& results,
                  const std::string& report_path, bool tables,
                  const support::Json* config_echo = nullptr,
                  const std::string& temp_suffix = ".tmp") {
  print_summary(results);
  if (tables) {
    std::fputs(diff::render_per_level(results, "Discrepancies per level").c_str(),
               stdout);
    std::fputs(diff::render_adjacency(results, "Outcome adjacency").c_str(),
               stdout);
  }
  if (!report_path.empty()) {
    support::write_file_atomic(
        report_path,
        campaign::results_to_json(results, config_echo).dump(1) + "\n",
        temp_suffix);
    std::printf("report written to %s\n", report_path.c_str());
  }
}

// The --reduce-exemplars hook: shrink the exemplar records of finished
// results to 1-minimal reproducer bundles (same selection rule as a store
// population, so the bundles line up with what gpudiff-serve reports).
void reduce_exemplars_of(const diff::CampaignConfig& config,
                         const diff::CampaignResults& results,
                         const std::string& out_dir, int max_exemplars) {
  const std::vector<reduce::RecordRef> reduced = reduce::reduce_exemplars(
      config, results.records, out_dir, max_exemplars,
      [](const reduce::Reduction& r) {
        std::printf("[reduce] %s: %llu -> %llu statements, %llu -> %llu "
                    "nodes (%llu checks), %s\n",
                    r.record.key().c_str(),
                    static_cast<unsigned long long>(r.original_stmts),
                    static_cast<unsigned long long>(r.reduced_stmts),
                    static_cast<unsigned long long>(r.original_nodes),
                    static_cast<unsigned long long>(r.reduced_nodes),
                    static_cast<unsigned long long>(r.checks),
                    reduce::to_string(r.sensitivity.label));
        std::fflush(stdout);
      });
  std::printf("%zu reproducer bundle(s) written to %s\n", reduced.size(),
              out_dir.c_str());
}

// Shard checkpoints (files shard-<i>-of-<N>.json, format "gpudiff-shard")
// were a second on-disk layout that this version no longer reads.  Name it,
// rather than report a bare missing manifest, so an old directory gets an
// actionable answer.
void refuse_removed_shard_format(const std::string& dir) {
  if (std::filesystem::exists(campaign::LeaseBoard::manifest_path(dir)))
    return;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (support::starts_with(name, "shard-") &&
        name.find("-of-") != std::string::npos &&
        support::ends_with(name, ".json"))
      throw std::runtime_error(
          dir + " holds shard checkpoints (shard-<i>-of-<N>.json, format "
          "gpudiff-shard), a layout this version no longer reads; re-run the "
          "shards with --shard i/N --checkpoint-dir <new dir> and merge that");
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "gpudiff-campaign",
      "Distributed, resumable differential-testing campaigns");
  cli.add_int("programs", 'p', "number of random programs in the campaign", 354);
  cli.add_int("inputs", 'i', "inputs per program", 7);
  cli.add_int("seed", 'S', "campaign seed", 42);
  cli.add_string("precision", 'P', "fp64 or fp32", "fp64");
  cli.add_string("platforms", 'F',
                 "comma-separated platform selection; the first entry is the "
                 "comparison baseline (see --list-platforms)",
                 "nvcc,hipcc");
  cli.add_flag("list-platforms",
               "print the platform registry (name, toolchain, FP-env) and exit");
  cli.add_flag("json",
               "with --list-platforms: dump the registry as JSON (full "
               "PlatformSpec fields, fingerprint spelling)");
  cli.add_flag("hipify", "test the HIPIFY-converted binding (Tables VII/VIII)");
  cli.add_int("threads", 't', "worker threads (0 = hardware concurrency)", 0);
  cli.add_int("max-records", 'm', "cap on retained discrepancy records", 50000);
  cli.add_string("shard", 's',
                 "this process's fixed slice of the leases as i/N (e.g. 2/8); "
                 "needs --checkpoint-dir when N > 1",
                 "0/1");
  cli.add_string("checkpoint-dir", 'd',
                 "lease directory of a --shard run (re-running resumes), or "
                 "the directory to --merge",
                 "");
  cli.add_flag("merge",
               "merge the completed lease directory --checkpoint-dir instead "
               "of running");
  cli.add_string("worker", 'w',
                 "run as a self-balancing work-stealing worker against this "
                 "shared lease directory",
                 "");
  cli.add_int("lease-size", 'L',
              "programs per lease: the unit of resume, stealing and progress",
              16);
  cli.add_double("heartbeat", 'H', "seconds between lease heartbeats", 5.0);
  cli.add_double("stale-after", 'A',
                 "steal a lease whose heartbeat is older than this many "
                 "seconds",
                 60.0);
  cli.add_string("worker-id", 'W', "unique worker name (default: host-pid)",
                 "");
  cli.add_string("coordinator", 'C',
                 "run as a worker against a gpudiff-coordinator at host:port "
                 "instead of a shared lease directory",
                 "");
  cli.add_string("journal-dir", 'J',
                 "local journal for results the coordinator could not be told "
                 "about (--coordinator mode; default: per-worker temp dir)",
                 "");
  cli.add_flag("quarantine",
               "--merge only: set corrupt lease done files aside as "
               "*.quarantined instead of aborting on the first one");
  cli.add_flag("progress",
               "print a line after every finished lease (needs a directory "
               "or --coordinator)");
  cli.add_string("report", 'r', "write canonical results JSON to this path", "");
  cli.add_flag("report-v2",
               "write the version-2 report superset (embedded config "
               "fingerprint + store key); default stays the byte-stable "
               "version-1 layout");
  cli.add_flag("tables", "print the per-level and adjacency tables");
  cli.add_flag("reduce-exemplars",
               "after the campaign (or merge) completes, delta-debug each "
               "exemplar record to a 1-minimal reproducer bundle (see "
               "gpudiff-reduce)");
  cli.add_string("reduce-out", 'O',
                 "bundle directory for --reduce-exemplars (default: "
                 "<lease dir>/reduced, or ./reduced)",
                 "");
  cli.add_int("max-exemplars", 'E',
              "exemplar records per (pair, class) for --reduce-exemplars "
              "(the store's population rule)",
              5);
  if (!cli.parse(argc, argv)) return 1;

  // Refuse what the narrowing casts below would silently change (e.g.
  // --programs 4294967298 running 2 programs) before any work starts.
  const auto in_range = [&](const char* name, std::int64_t lo,
                            std::int64_t hi) {
    const std::int64_t v = cli.get_int(name);
    if (v >= lo && v <= hi) return true;
    std::fprintf(stderr, "gpudiff-campaign: --%s %lld is outside [%lld, %lld]\n",
                 name, static_cast<long long>(v), static_cast<long long>(lo),
                 static_cast<long long>(hi));
    return false;
  };
  if (!in_range("programs", 0, INT_MAX) || !in_range("inputs", 1, INT_MAX) ||
      !in_range("threads", 0, UINT_MAX) ||
      !in_range("max-records", 0, INT64_MAX) ||
      !in_range("lease-size", 1, INT_MAX) ||
      !in_range("max-exemplars", 0, INT_MAX))
    return 1;

  try {
    if (cli.get_flag("list-platforms")) {
      if (cli.get_flag("json"))
        list_platforms_json();
      else
        list_platforms();
      return 0;
    }
    const std::string checkpoint_dir = cli.get_string("checkpoint-dir");
    const std::string report_path = cli.get_string("report");
    const bool tables = cli.get_flag("tables");
    const bool report_v2 = cli.get_flag("report-v2");
    const bool reduce_exemplars = cli.get_flag("reduce-exemplars");
    const int max_exemplars = static_cast<int>(cli.get_int("max-exemplars"));
    const std::string reduce_out = cli.get_string("reduce-out");

    if (cli.get_flag("merge")) {
      if (checkpoint_dir.empty()) {
        std::fprintf(stderr, "gpudiff-campaign: --merge needs --checkpoint-dir\n");
        return 1;
      }
      refuse_removed_shard_format(checkpoint_dir);
      campaign::LeaseMergeOptions mopts;
      mopts.quarantine = cli.get_flag("quarantine");
      const diff::CampaignResults results =
          campaign::merge_lease_dir(checkpoint_dir, mopts);
      // The merged results do not carry the fingerprint; the manifest of
      // the directory that produced them does.
      const support::Json echo =
          campaign::LeaseBoard::load_manifest(checkpoint_dir).at("config");
      emit_results(results, report_path, tables, report_v2 ? &echo : nullptr);
      if (reduce_exemplars) {
        // The reducer re-derives programs and inputs, so it needs the full
        // campaign definition — the directory's config fingerprint is the
        // only trustworthy source in merge mode.
        reduce_exemplars_of(campaign::config_from_json(echo), results,
                            reduce_out.empty() ? checkpoint_dir + "/reduced"
                                               : reduce_out,
                            max_exemplars);
      }
      return 0;
    }

    campaign::ShardSpec shard;
    if (!campaign::parse_shard(cli.get_string("shard"), &shard)) {
      std::fprintf(stderr, "gpudiff-campaign: bad --shard '%s' (want i/N)\n",
                   cli.get_string("shard").c_str());
      return 1;
    }
    const std::string worker_dir = cli.get_string("worker");
    const std::string coordinator = cli.get_string("coordinator");
    if (!worker_dir.empty() && !coordinator.empty()) {
      std::fprintf(stderr,
                   "gpudiff-campaign: --worker (shared directory) and "
                   "--coordinator (TCP) are two transports for the same lease "
                   "protocol; pass one or the other\n");
      return 1;
    }
    if ((!worker_dir.empty() || !coordinator.empty()) &&
        (shard != campaign::ShardSpec{} || !checkpoint_dir.empty())) {
      std::fprintf(stderr,
                   "gpudiff-campaign: --worker/--coordinator claim from every "
                   "lease of their own board; --shard with --checkpoint-dir "
                   "runs a fixed slice; pass one or the other\n");
      return 1;
    }
    if (shard.count > 1 && checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "gpudiff-campaign: a multi-shard run needs --checkpoint-dir "
                   "(the lease directory is the merge input)\n");
      return 1;
    }
    // Refuse rather than silently drop: a process that holds only part of
    // the campaign's results cannot report on the whole.
    if ((!coordinator.empty() || shard.count > 1) &&
        (!report_path.empty() || tables || reduce_exemplars)) {
      std::fprintf(stderr,
                   "gpudiff-campaign: --report/--tables/--reduce-exemplars "
                   "need the whole campaign, and %s holds only part of it; "
                   "run --merge --checkpoint-dir <lease dir> once the "
                   "campaign is complete\n",
                   coordinator.empty() ? "one shard" : "a --coordinator worker");
      return 1;
    }
    const bool use_leases =
        !checkpoint_dir.empty() || !worker_dir.empty() || !coordinator.empty();
    if (!use_leases && cli.get_flag("progress")) {
      std::fprintf(stderr,
                   "gpudiff-campaign: --progress reports finished leases; it "
                   "needs --checkpoint-dir, --worker or --coordinator\n");
      return 1;
    }

    diff::CampaignConfig config;
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.num_programs = static_cast<int>(cli.get_int("programs"));
    config.inputs_per_program = static_cast<int>(cli.get_int("inputs"));
    config.hipify_converted = cli.get_flag("hipify");
    config.threads = static_cast<unsigned>(cli.get_int("threads"));
    config.max_records = static_cast<std::size_t>(cli.get_int("max-records"));
    // Strict platform parsing: an unknown or duplicate name aborts with a
    // message naming the entry and the registry (exit 1, not a stack
    // trace), before any directory is touched.
    try {
      config.platforms = opt::parse_platform_list(cli.get_string("platforms"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gpudiff-campaign: --%s (try --list-platforms)\n",
                   e.what());
      return 1;
    }
    const std::string precision = cli.get_string("precision");
    if (precision == "fp32" || precision == "FP32") {
      config.gen.precision = ir::Precision::FP32;
    } else if (precision != "fp64" && precision != "FP64") {
      std::fprintf(stderr, "gpudiff-campaign: bad --precision '%s'\n",
                   precision.c_str());
      return 1;
    }
    const support::Json echo = campaign::config_to_json(config);

    if (!use_leases) {
      // Nothing on disk to resume from, so nothing to save on SIGINT
      // either: the default disposition stands.
      const diff::CampaignResults results = diff::run_campaign(config);
      emit_results(results, report_path, tables, report_v2 ? &echo : nullptr);
      if (reduce_exemplars)
        reduce_exemplars_of(config, results,
                            reduce_out.empty() ? "reduced" : reduce_out,
                            max_exemplars);
      return 0;
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    campaign::WorkerOptions wopts;
    wopts.dir = worker_dir.empty() ? checkpoint_dir : worker_dir;
    wopts.coordinator = coordinator;
    wopts.journal_dir = cli.get_string("journal-dir");
    wopts.lease_size = static_cast<int>(cli.get_int("lease-size"));
    wopts.heartbeat_seconds = cli.get_double("heartbeat");
    wopts.stale_after_seconds = cli.get_double("stale-after");
    wopts.worker_id = cli.get_string("worker-id");
    wopts.shard = shard;
    wopts.stop_requested = [] {
      return g_stop.load(std::memory_order_relaxed);
    };
    if (cli.get_flag("progress")) {
      wopts.on_lease = [](const campaign::WorkerOptions::LeaseEvent& ev) {
        std::printf("[worker] lease %d done (programs [%llu, %llu))%s\n",
                    ev.lease, static_cast<unsigned long long>(ev.begin),
                    static_cast<unsigned long long>(ev.end),
                    ev.stolen ? " [reclaimed from stale claim]" : "");
        std::fflush(stdout);
      };
    }
    const campaign::WorkerOutcome outcome = campaign::run_worker(config, wopts);
    std::printf("worker finished: %d leases (%llu programs), %d reclaimed "
                "from stale claims\n",
                outcome.leases_completed,
                static_cast<unsigned long long>(outcome.programs_executed),
                outcome.leases_stolen);
    const std::string& where = coordinator.empty() ? wopts.dir : coordinator;
    if (!outcome.campaign_complete) {
      // Interrupted: the in-flight lease was still published and every
      // claim released, so re-running the command (or any worker) against
      // the same directory picks up exactly where it left off.
      std::printf("campaign incomplete; rerun against %s to continue\n",
                  where.c_str());
      return 3;
    }
    if (!coordinator.empty()) {
      // TCP mode: the done blocks live in the coordinator's state
      // directory (same layout as a lease directory) — merge there.
      std::printf("campaign complete; merge on the coordinator host with "
                  "--merge --checkpoint-dir <coordinator state dir>\n");
      return 0;
    }
    if (shard.count > 1) {
      std::printf("shard %s complete; merge all shards with --merge "
                  "--checkpoint-dir %s\n",
                  campaign::to_string(shard).c_str(), where.c_str());
      return 0;
    }
    if (!worker_dir.empty() && report_path.empty() && !tables &&
        !reduce_exemplars) {
      std::printf("campaign complete; merge with --merge --checkpoint-dir "
                  "%s\n",
                  where.c_str());
      return 0;
    }
    // This process covers the whole campaign.  Deterministic outputs make
    // emitting safe in a fleet: every worker that gets here writes
    // byte-identical results (each through its own temp file) — and with
    // --reduce-exemplars, byte-identical bundles (atomic per-file writes).
    const diff::CampaignResults results = campaign::merge_lease_dir(wopts.dir);
    emit_results(results, report_path, tables, report_v2 ? &echo : nullptr,
                 ".tmp." + std::to_string(::getpid()));
    if (reduce_exemplars)
      reduce_exemplars_of(config, results,
                          reduce_out.empty() ? wopts.dir + "/reduced"
                                             : reduce_out,
                          max_exemplars);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-campaign: %s\n", e.what());
    return 2;
  }
}
