// Tests for the campaign orchestration subsystem: deterministic shard
// partitioning, fixed-slice shards over the lease layout, resume, the merge
// stage and record-cap semantics.  The load-bearing property throughout is
// byte-identity: the canonical JSON of a merged sharded (or
// killed-and-resumed) campaign must equal the unsharded diff::run_campaign
// output exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "diff/campaign.hpp"
#include "ir/builder.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using campaign::ShardSpec;
using campaign::WorkerOptions;
using campaign::WorkerOutcome;

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

/// What `gpudiff-campaign --shard i/N --checkpoint-dir dir` runs: a lease
/// worker restricted to shard i's fixed slice of the leases.
WorkerOptions shard_options(const std::string& dir, int index, int count,
                            int lease_size = 4) {
  WorkerOptions options;
  options.dir = dir;
  options.shard = {index, count};
  options.lease_size = lease_size;
  options.worker_id = "shard-" + std::to_string(index);
  return options;
}

/// Run every shard i/N into `dir` in turn, then merge the directory.
diff::CampaignResults run_sharded(const diff::CampaignConfig& cfg, int count,
                                  const std::string& dir, int lease_size = 4) {
  for (int i = 0; i < count; ++i) {
    const WorkerOutcome outcome =
        campaign::run_worker(cfg, shard_options(dir, i, count, lease_size));
    EXPECT_TRUE(outcome.campaign_complete) << "shard " << i << "/" << count;
  }
  return campaign::merge_lease_dir(dir);
}

/// Every done file in `dir`, by name, with its bytes.
std::map<std::string, std::string> done_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 10 && name.compare(name.size() - 10, 10, ".done.json") == 0)
      files[name] = support::read_file(entry.path().string());
  }
  return files;
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

// ---------------------------------------------------------------------------
// shard partitioning
// ---------------------------------------------------------------------------

TEST(ShardSpec, PartitionCoversRangeDisjointly) {
  for (int n : {0, 1, 5, 45, 354, 3540}) {
    for (int count : {1, 2, 3, 7, 64}) {
      std::uint64_t expected_begin = 0;
      for (int i = 0; i < count; ++i) {
        const auto [begin, end] = ShardSpec{i, count}.program_range(n);
        EXPECT_EQ(begin, expected_begin) << n << " " << count << " " << i;
        EXPECT_LE(begin, end);
        // Shard sizes are balanced to within one program.
        const auto size = end - begin;
        EXPECT_LE(size, static_cast<std::uint64_t>(n) / count + 1);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, static_cast<std::uint64_t>(n));
    }
  }
}

// Property test over randomized geometries: both partitioners — the fixed
// i/N shard carve and the scheduler's lease partitioner — must produce
// ranges that are pairwise disjoint, cover exactly [0, n), and differ in
// size by at most one.
TEST(ShardSpec, RandomizedPartitionsAreDisjointCoveringAndBalanced) {
  support::Rng rng(20260726);
  const auto check_partition = [](int n, int count,
                                  const auto& range_of) {
    std::uint64_t expected_begin = 0;
    std::uint64_t min_size = ~0ull, max_size = 0;
    for (int i = 0; i < count; ++i) {
      const auto [begin, end] = range_of(i);
      // begin == previous end: disjoint and gap-free in one check.
      ASSERT_EQ(begin, expected_begin) << "n=" << n << " count=" << count
                                       << " part=" << i;
      ASSERT_LE(begin, end);
      min_size = std::min(min_size, end - begin);
      max_size = std::max(max_size, end - begin);
      expected_begin = end;
    }
    ASSERT_EQ(expected_begin, static_cast<std::uint64_t>(n)) << "coverage";
    if (count > 0) {
      ASSERT_LE(max_size - min_size, 1u)
          << "n=" << n << " count=" << count << " is unbalanced";
    }
  };

  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.below(4000));
    // Fixed carve: shard i of N.
    const int N = 1 + static_cast<int>(rng.below(48));
    check_partition(n, N, [&](int i) {
      return ShardSpec{i, N}.program_range(n);
    });
    // Lease partitioner: K = ceil(n / L) balanced ranges, none above L.
    const int L = 1 + static_cast<int>(rng.below(130));
    const int K = campaign::lease_count(n, L);
    ASSERT_EQ(K, n == 0 ? 0 : (n + L - 1) / L) << "n=" << n << " L=" << L;
    check_partition(n, K, [&](int k) {
      const auto range = campaign::lease_range(n, K, k);
      EXPECT_LE(range.second - range.first, static_cast<std::uint64_t>(L))
          << "lease " << k << " exceeds the requested lease size";
      return range;
    });
  }

  EXPECT_THROW(campaign::lease_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(campaign::lease_range(10, 3, 3), std::invalid_argument);
  EXPECT_THROW(campaign::lease_range(-1, 3, 0), std::invalid_argument);
  EXPECT_THROW(campaign::lease_count(-1, 4), std::invalid_argument);
  EXPECT_EQ(campaign::lease_count(0, 4), 0);
  EXPECT_EQ(campaign::lease_count(45, 1000), 1);
  EXPECT_EQ(campaign::lease_count(45, 0), 45) << "lease size clamps to >= 1";
}

TEST(ShardSpec, ValidatesAndParses) {
  EXPECT_THROW(ShardSpec({2, 2}).validate(), std::invalid_argument);
  EXPECT_THROW(ShardSpec({-1, 2}).validate(), std::invalid_argument);
  EXPECT_THROW(ShardSpec({0, 0}).validate(), std::invalid_argument);

  ShardSpec spec;
  EXPECT_TRUE(campaign::parse_shard("2/8", &spec));
  EXPECT_EQ(spec, (ShardSpec{2, 8}));
  EXPECT_EQ(campaign::to_string(spec), "2/8");
  for (const char* bad : {"", "3", "/4", "3/", "8/8", "-1/4", "a/4", "1/b", "1/2/3"})
    EXPECT_FALSE(campaign::parse_shard(bad, nullptr)) << bad;
}

// ---------------------------------------------------------------------------
// shard equivalence: fixed-slice shards merged == unsharded, byte for byte
// ---------------------------------------------------------------------------

TEST(ShardEquivalence, MergeMatchesUnshardedByteForByte) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  for (int count : {2, 3, 7}) {
    TempDir dir("gpudiff_shard_equiv_" + std::to_string(count));
    EXPECT_EQ(canonical(run_sharded(cfg, count, dir.str())), direct)
        << count << " shards";
  }
}

TEST(ShardEquivalence, HoldsForFp32AndHipify) {
  auto cfg = small_config(30);
  cfg.gen.precision = ir::Precision::FP32;
  cfg.hipify_converted = true;
  TempDir dir("gpudiff_shard_equiv_fp32");
  EXPECT_EQ(canonical(run_sharded(cfg, 3, dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(ShardEquivalence, MoreShardsThanLeasesStillMerges) {
  // 3 programs in 1-program leases carved 7 ways: four shards own no
  // lease at all.  An empty slice is trivially complete, and the merge
  // still accounts for every lease.
  const auto cfg = small_config(3);
  TempDir dir("gpudiff_empty_slice_shards");
  for (int i = 0; i < 7; ++i) {
    const WorkerOutcome outcome =
        campaign::run_worker(cfg, shard_options(dir.str(), i, 7, 1));
    EXPECT_TRUE(outcome.campaign_complete) << "shard " << i;
    const auto [first, last] = ShardSpec{i, 7}.program_range(3);
    EXPECT_EQ(outcome.leases_completed, static_cast<int>(last - first));
  }
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

// ---------------------------------------------------------------------------
// record-cap semantics under sharding
// ---------------------------------------------------------------------------

TEST(RecordCap, AppliedDeterministicallyAtMergeTime) {
  auto cfg = small_config();
  const auto uncapped = diff::run_campaign(cfg);
  ASSERT_GT(uncapped.records.size(), 6u) << "config produces too few records";

  cfg.max_records = 6;
  const auto direct = diff::run_campaign(cfg);
  ASSERT_EQ(direct.records.size(), 6u);
  // The capped set is the lowest (program, input, level) records: the
  // uncapped run's canonical prefix.
  for (std::size_t i = 0; i < direct.records.size(); ++i) {
    EXPECT_EQ(direct.records[i].program_index, uncapped.records[i].program_index);
    EXPECT_EQ(direct.records[i].input_index, uncapped.records[i].input_index);
    EXPECT_EQ(direct.records[i].level, uncapped.records[i].level);
  }
  // And sharding does not change it, whichever shard the records fall into.
  for (int count : {2, 3, 7}) {
    TempDir dir("gpudiff_record_cap_" + std::to_string(count));
    EXPECT_EQ(canonical(run_sharded(cfg, count, dir.str())), canonical(direct))
        << count;
  }
}

TEST(RecordCap, CanonicalOrderIsProgramInputLevel) {
  const auto results = diff::run_campaign(small_config());
  const auto& levels = results.levels;
  const auto pos = [&](opt::OptLevel l) {
    for (std::size_t i = 0; i < levels.size(); ++i)
      if (levels[i] == l) return i;
    ADD_FAILURE() << "record level not in campaign";
    return std::size_t{0};
  };
  for (std::size_t i = 1; i < results.records.size(); ++i) {
    const auto& a = results.records[i - 1];
    const auto& b = results.records[i];
    const auto ka = std::tuple(a.program_index, a.input_index, pos(a.level));
    const auto kb = std::tuple(b.program_index, b.input_index, pos(b.level));
    EXPECT_LT(ka, kb) << "record " << i << " out of canonical order";
  }
}

// ---------------------------------------------------------------------------
// resume: a re-run skips every lease whose done file exists
// ---------------------------------------------------------------------------

TEST(Checkpoint, KillAndResumeIsByteIdenticalToUninterrupted) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir dir("gpudiff_ckpt_resume");

  // First run: stop after three 4-program leases, as a SIGTERM would.
  std::set<int> first_leases;
  WorkerOptions options = shard_options(dir.str(), 0, 1);
  options.on_lease = [&](const WorkerOptions::LeaseEvent& ev) {
    first_leases.insert(ev.lease);
  };
  options.stop_requested = [&] { return first_leases.size() >= 3; };
  const WorkerOutcome killed = campaign::run_worker(cfg, options);
  EXPECT_FALSE(killed.campaign_complete);
  EXPECT_EQ(killed.leases_completed, 3);
  EXPECT_EQ(done_files(dir.str()).size(), 3u);
  const auto published = done_files(dir.str());

  // Second run: the same command finishes the campaign and executes only
  // the leases the first run did not.
  std::set<int> second_leases;
  WorkerOptions resume = shard_options(dir.str(), 0, 1);
  resume.on_lease = [&](const WorkerOptions::LeaseEvent& ev) {
    EXPECT_EQ(first_leases.count(ev.lease), 0u)
        << "lease " << ev.lease << " was re-executed";
    second_leases.insert(ev.lease);
  };
  const WorkerOutcome finished = campaign::run_worker(cfg, resume);
  EXPECT_TRUE(finished.campaign_complete);
  const int total = campaign::lease_count(cfg.num_programs, 4);
  EXPECT_EQ(finished.leases_completed, total - 3);
  EXPECT_EQ(second_leases.size() + first_leases.size(),
            static_cast<std::size_t>(total));
  const auto after = done_files(dir.str());
  for (const auto& [name, bytes] : published)
    EXPECT_EQ(after.at(name), bytes) << name << " was rewritten";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), direct);
}

TEST(Checkpoint, RerunOverCompleteDirectoryLeavesDoneFilesUntouched) {
  // Every re-run resumes, so a scheduler restarting a finished command
  // line must execute nothing and rewrite nothing.
  const auto cfg = small_config(10);
  TempDir dir("gpudiff_ckpt_rerun");
  ASSERT_TRUE(campaign::run_worker(cfg, shard_options(dir.str(), 0, 1))
                  .campaign_complete);
  const auto before = done_files(dir.str());
  std::map<std::string, std::filesystem::file_time_type> mtimes;
  for (const auto& [name, bytes] : before)
    mtimes[name] = std::filesystem::last_write_time(dir.path / name);

  const WorkerOutcome rerun =
      campaign::run_worker(cfg, shard_options(dir.str(), 0, 1));
  EXPECT_TRUE(rerun.campaign_complete);
  EXPECT_EQ(rerun.leases_completed, 0);
  EXPECT_EQ(done_files(dir.str()), before);
  for (const auto& [name, mtime] : mtimes)
    EXPECT_EQ(std::filesystem::last_write_time(dir.path / name), mtime)
        << name << " was rewritten";
}

TEST(Checkpoint, RejectsForeignAndVersionedDocuments) {
  using support::Json;
  const auto parse = [](const char* text) {
    return campaign::block_from_json(Json::parse(text), nullptr, nullptr);
  };
  EXPECT_THROW(parse("{}"), std::runtime_error);
  EXPECT_THROW(parse(R"({"format":"x"})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"format":"gpudiff-lease","version":2})"),
               std::runtime_error);
  EXPECT_THROW(parse(R"({"format":"gpudiff-lease"})"), std::runtime_error);
  // The removed shard checkpoint format is foreign, too.
  EXPECT_THROW(parse(R"({"format":"gpudiff-shard","version":1})"),
               std::runtime_error);
  EXPECT_THROW(campaign::results_from_json(Json::parse(
                   R"({"format":"gpudiff-lease","version":1})")),
               std::runtime_error);
}

TEST(Checkpoint, ShardOfAForeignConfigIsRefused) {
  // Shards of two different campaigns must never share a directory: the
  // manifest the first shard published refuses the second.
  auto cfg = small_config(10);
  TempDir dir("gpudiff_ckpt_mismatch");
  campaign::run_worker(cfg, shard_options(dir.str(), 0, 2));
  cfg.seed = 99;
  EXPECT_THROW(campaign::run_worker(cfg, shard_options(dir.str(), 1, 2)),
               std::runtime_error);
}

TEST(Checkpoint, BlockJsonRoundTrips) {
  const auto cfg = small_config(12);
  diff::RangeOutcome out = diff::run_campaign_range(cfg, 4, 8);
  campaign::ResultBlock block;
  block.config_echo = campaign::config_to_json(cfg);
  block.begin = 4;
  block.end = 8;
  block.per_level = std::move(out.per_level);
  block.records = std::move(out.records);
  const support::Json j = campaign::block_to_json(block, 1, 3);
  int index = -1;
  int count = -1;
  const campaign::ResultBlock reloaded = campaign::block_from_json(
      support::Json::parse(j.dump()), &index, &count);
  EXPECT_EQ(campaign::block_to_json(reloaded, index, count).dump(), j.dump());
  EXPECT_EQ(index, 1);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(reloaded.records.size(), block.records.size());
}

TEST(Checkpoint, ResultsJsonRoundTrips) {
  const auto results = diff::run_campaign(small_config(20));
  const support::Json j = campaign::results_to_json(results);
  const auto reloaded =
      campaign::results_from_json(support::Json::parse(j.dump(1)));
  EXPECT_EQ(campaign::results_to_json(reloaded).dump(1), j.dump(1));
  EXPECT_EQ(reloaded.discrepancies_total(), results.discrepancies_total());
}

TEST(Checkpoint, AtomicWriteLeavesNoTempFile) {
  TempDir dir("gpudiff_atomic_write");
  std::filesystem::create_directories(dir.path);
  const std::string path = (dir.path / "out.json").string();
  support::write_file_atomic(path, "{\"x\": 1}\n");
  EXPECT_EQ(support::read_file(path), "{\"x\": 1}\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// merge validation
// ---------------------------------------------------------------------------

TEST(Merge, RejectsDirectoryWithAMissingShard) {
  const auto cfg = small_config(20);
  TempDir dir("gpudiff_merge_missing_shard");
  ASSERT_TRUE(campaign::run_worker(cfg, shard_options(dir.str(), 0, 2))
                  .campaign_complete);
  EXPECT_FALSE(campaign::campaign_complete(dir.str()));
  EXPECT_THROW(campaign::merge_lease_dir(dir.str()), std::runtime_error);
  ASSERT_TRUE(campaign::run_worker(cfg, shard_options(dir.str(), 1, 2))
                  .campaign_complete);
  EXPECT_TRUE(campaign::campaign_complete(dir.str()));
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

// ---------------------------------------------------------------------------
// platform registry: golden byte-identity + N-way campaigns
// ---------------------------------------------------------------------------

// The platform-registry acceptance criterion: the default nvcc,hipcc
// selection must produce a canonical report byte-identical to the
// pre-refactor output.  tests/golden/*.json were generated by the
// two-slot-era binary (commit f1b9a23) from the exact configs below.
TEST(PlatformGolden, DefaultCampaignMatchesPreRegistryReport) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 60;
  cfg.inputs_per_program = 5;
  cfg.seed = 1234;
  const std::string got =
      campaign::results_to_json(diff::run_campaign(cfg)).dump(1) + "\n";
  EXPECT_EQ(got, support::read_file(std::string(GPUDIFF_SOURCE_DIR) +
                                    "/tests/golden/campaign_p60_i5_s1234_fp64.json"));

  diff::CampaignConfig cfg32;
  cfg32.gen.precision = ir::Precision::FP32;
  cfg32.num_programs = 40;
  cfg32.inputs_per_program = 4;
  cfg32.seed = 77;
  const std::string got32 =
      campaign::results_to_json(diff::run_campaign(cfg32)).dump(1) + "\n";
  EXPECT_EQ(got32, support::read_file(std::string(GPUDIFF_SOURCE_DIR) +
                                      "/tests/golden/campaign_p40_i4_s77_fp32.json"));
}

diff::CampaignConfig three_platform_config(int programs = 30) {
  diff::CampaignConfig cfg = small_config(programs);
  cfg.platforms = opt::parse_platform_list("nvcc,hipcc,hipcc-ftz");
  return cfg;
}

TEST(PlatformCampaign, ThreeWayCheckpointResumeMergeIsByteIdentical) {
  // An N=3 campaign through the full orchestration stack: two fixed-slice
  // shards, shard 0 stopped after three leases and re-run, then merge —
  // byte identical to the direct three-platform run.
  const auto cfg = three_platform_config();
  const diff::CampaignResults direct = diff::run_campaign(cfg);
  EXPECT_EQ(direct.platforms,
            (std::vector<std::string>{"nvcc", "hipcc", "hipcc-ftz"}));
  EXPECT_EQ(direct.runs_total(), direct.comparisons_total() * 3);
  const std::string want = canonical(direct);

  TempDir dir("gpudiff_n3_resume");
  int leases = 0;
  WorkerOptions options = shard_options(dir.str(), 0, 2);
  options.on_lease = [&](const WorkerOptions::LeaseEvent&) { ++leases; };
  options.stop_requested = [&] { return leases >= 3; };
  EXPECT_FALSE(campaign::run_worker(cfg, options).campaign_complete);

  EXPECT_TRUE(campaign::run_worker(cfg, shard_options(dir.str(), 0, 2))
                  .campaign_complete);
  EXPECT_TRUE(campaign::run_worker(cfg, shard_options(dir.str(), 1, 2))
                  .campaign_complete);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), want);
}

TEST(PlatformCampaign, ThreeWayWorkerFleetIsByteIdentical) {
  // The same N=3 campaign through the work-stealing scheduler.
  const auto cfg = three_platform_config();
  const std::string want = canonical(diff::run_campaign(cfg));
  TempDir dir("gpudiff_n3_fleet");
  for (const char* id : {"w0", "w1"}) {
    campaign::WorkerOptions wopts;
    wopts.dir = dir.str();
    wopts.lease_size = 4;
    wopts.worker_id = id;
    const auto outcome = campaign::run_worker(cfg, wopts);
    EXPECT_TRUE(outcome.campaign_complete);
  }
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), want);
}

TEST(PlatformCampaign, FingerprintCoversThePlatformSet) {
  // Same seed/counts, different platform selection: the manifest must
  // refuse to mix the two, because a block is only a pure function of
  // (fingerprint, range) when the fingerprint pins the platform set.
  const auto cfg2 = small_config(10);
  const auto cfg3 = three_platform_config(10);
  EXPECT_NE(campaign::config_to_json(cfg2), campaign::config_to_json(cfg3));

  TempDir dir("gpudiff_platform_fingerprint");
  ASSERT_TRUE(campaign::run_worker(cfg2, shard_options(dir.str(), 0, 1))
                  .campaign_complete);
  EXPECT_THROW(campaign::run_worker(cfg3, shard_options(dir.str(), 0, 1)),
               std::runtime_error);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg2)));
}

TEST(PlatformCampaign, ThreeWayResultsJsonRoundTrips) {
  auto cfg = three_platform_config(15);
  const auto results = diff::run_campaign(cfg);
  const support::Json j = campaign::results_to_json(results);
  // The general layout names its platforms; every record carries one
  // payload per platform and a per-platform class array.
  ASSERT_TRUE(j.contains("platforms"));
  const auto reloaded =
      campaign::results_from_json(support::Json::parse(j.dump(1)));
  EXPECT_EQ(campaign::results_to_json(reloaded).dump(1), j.dump(1));
  EXPECT_EQ(reloaded.platforms, results.platforms);
  for (const auto& rec : reloaded.records) {
    EXPECT_EQ(rec.printed.size(), 3u);
    EXPECT_EQ(rec.pair_cls.size(), 3u);
    EXPECT_EQ(rec.pair_cls[0], diff::DiscrepancyClass::None);
  }
}

// ---------------------------------------------------------------------------
// VM regression: lazy array materialization must not leak state across a
// batch (a store in run i, then a store-free run i+1 over the same slot).
// ---------------------------------------------------------------------------

TEST(LazyArrays, NoCrossInputContaminationInBatch) {
  // if (gate > 0) arr[0] = 99; comp += arr[0];
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int arr = b.add_array_param();
  const int gate = b.add_scalar_param();
  b.begin_if(ir::make_cmp(A, ir::CmpOp::Gt, ir::make_param(A, gate),
                          ir::make_literal(A, 0.0)));
  b.store_array(arr, ir::make_literal(A, 0.0), ir::make_literal(A, 99.0));
  b.end_block();
  b.assign_comp(ir::AssignOp::Add, ir::make_array(A, arr, ir::make_literal(A, 0.0)));
  const ir::Program p = b.build();
  const auto exe =
      opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O0, false});

  // Input 0 stores (comp = 99), input 1 must observe its own broadcast (7),
  // not the previous run's store; input 2 stores again.
  std::vector<vgpu::KernelArgs> inputs(3);
  inputs[0].fp = {0.0, 5.0, 1.0};
  inputs[1].fp = {0.0, 7.0, -1.0};
  inputs[2].fp = {0.0, 3.0, 2.0};
  for (auto& args : inputs) args.ints = {0, 0, 0};

  std::vector<vgpu::RunResult> out(inputs.size());
  vgpu::ExecContext ctx;
  exe.bytecode().run_batch(inputs, ctx, out.data());
  EXPECT_EQ(out[0].value, 99.0);
  EXPECT_EQ(out[1].value, 7.0);
  EXPECT_EQ(out[2].value, 99.0);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(out[i].value_bits, vgpu::run_kernel_tree(exe, inputs[i]).value_bits)
        << "input " << i;
}

}  // namespace
