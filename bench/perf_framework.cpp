// google-benchmark harness for the framework itself: generation, virtual
// compilation, kernel execution (bytecode VM and tree-walk oracle), the
// campaign driver, and the vendor math libraries (including the
// from-scratch Payne-Hanek reduction and both fmod algorithms).
//
// Run from a Release build and record a JSON trajectory point:
//   cmake --preset release && cmake --build --preset release --target bench
//   out=BENCH_$(git rev-parse --short HEAD).json
//   ./build-release/bench/perf_framework --benchmark_out=$out --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/shard.hpp"
#include "campaign/transport.hpp"
#include "diff/campaign.hpp"
#include "diff/runner.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "opt/pipeline.hpp"
#include "opt/platform.hpp"
#include "reduce/reduce.hpp"
#include "store/store.hpp"
#include "support/json.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"
#include "vmath/core/kernels.hpp"
#include "vmath/mathlib.hpp"

namespace {

using namespace gpudiff;

void BM_GenerateProgram(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.generate(i++ % 4096));
  }
}
BENCHMARK(BM_GenerateProgram);

void BM_CompileO3(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  const ir::Program p = g.generate(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::compile(p, {opt::Toolchain::Hipcc, opt::OptLevel::O3, false}));
  }
}
BENCHMARK(BM_CompileO3);

void BM_RunKernel(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  const auto args = ig.generate(p, 7, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::run_kernel(exe, args));
  }
}
BENCHMARK(BM_RunKernel);

void BM_RunKernelBytecode(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  const auto args = ig.generate(p, 7, 0);
  vgpu::ExecContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exe.bytecode().run(args, ctx));
  }
}
BENCHMARK(BM_RunKernelBytecode);

void BM_RunKernelTreeWalk(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  const auto args = ig.generate(p, 7, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::run_kernel_tree(exe, args));
  }
}
BENCHMARK(BM_RunKernelTreeWalk);

void BM_CompileBytecode(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::compile_bytecode(exe.program, exe.env, exe.mathlib));
  }
}
BENCHMARK(BM_CompileBytecode);

/// Generation + full per-level compilation (5 levels x 2 toolchains), the
/// per-program cost a campaign pays before any input runs.  The arena IR
/// is what this measures: program copies are flat pool copies and passes
/// allocate into the pool instead of cloning subtrees.
void BM_GenerateAndCompile(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const ir::Program p = g.generate(i++ % 4096);
    for (auto level : opt::kAllOptLevels) {
      benchmark::DoNotOptimize(diff::compile_pair(p, level, false));
    }
  }
}
BENCHMARK(BM_GenerateAndCompile)->Unit(benchmark::kMicrosecond);

/// Batched input sweep: all of a program's inputs through one VM
/// invocation loop per platform (diff::compare_batch), vs the per-input
/// compare_run loop it replaces in the campaign driver.
void BM_BatchedSweep(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 11, ii));
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(pair, inputs));
  }
}
BENCHMARK(BM_BatchedSweep)->Unit(benchmark::kMicrosecond);

/// The same sweep over a generated program with a stored-to array
/// parameter: the shape the lazy array materialization targets (the
/// per-input 256-element broadcast is hoisted; the extent-wide fill only
/// happens if a store executes).  Program 2 of seed 42 carries a guarded
/// array store.
void BM_BatchedSweepStoredArray(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(2);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 2, ii));
  diff::SweepContext sweep;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(pair, inputs, sweep));
  }
}
BENCHMARK(BM_BatchedSweepStoredArray)->Unit(benchmark::kMicrosecond);

/// Marginal cost of widening the platform set: the same 32-input sweep
/// against the first N registry platforms (N = 2 is the paper pair).  Per
/// comparison the runner executes one VM loop per platform, so wall time
/// should scale linearly in N — the per-platform marginal cost the
/// registry refactor promises to keep flat.
void BM_CompareNWay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& registry = opt::platform_registry();
  const std::vector<opt::PlatformSpec> specs(registry.begin(),
                                             registry.begin() + n);
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto set = diff::compile_set(p, specs, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 11, ii));
  diff::SweepContext sweep;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(set, inputs, sweep));
  }
}
BENCHMARK(BM_CompareNWay)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_UnbatchedSweep(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 11, ii));
  for (auto _ : state) {
    for (const auto& args : inputs)
      benchmark::DoNotOptimize(diff::compare_run(pair, args));
  }
}
BENCHMARK(BM_UnbatchedSweep)->Unit(benchmark::kMicrosecond);

/// End-to-end campaign shape: programs x inputs x all 5 levels, single
/// thread (deterministic work, no scheduler noise in the measurement).
void BM_CampaignSmall(benchmark::State& state) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 16;
  cfg.inputs_per_program = 4;
  cfg.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::run_campaign(cfg));
  }
}
BENCHMARK(BM_CampaignSmall)->Unit(benchmark::kMillisecond);

/// The same campaign as BM_CampaignSmall carved into N shards, each run on
/// its own std::thread (single-threaded internally — the scale-out shape
/// where a shard is one machine), then merged.  Compares against
/// BM_CampaignSmall to price the orchestration layer and show the
/// shard-level speedup.
void BM_CampaignSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  diff::CampaignConfig cfg;
  cfg.num_programs = 16;
  cfg.inputs_per_program = 4;
  cfg.threads = 1;
  for (auto _ : state) {
    std::vector<campaign::ShardProgress> parts(static_cast<std::size_t>(shards));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i) {
      workers.emplace_back([&, i] {
        campaign::ShardRunOptions options;
        options.shard = {i, shards};
        parts[static_cast<std::size_t>(i)] = campaign::run_shard(cfg, options);
      });
    }
    for (auto& w : workers) w.join();
    benchmark::DoNotOptimize(campaign::merge_shards(std::move(parts)));
  }
}
BENCHMARK(BM_CampaignSharded)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// Claim-path cost of the work-stealing scheduler: one
/// claim + heartbeat + release cycle against the shared lease directory,
/// no program execution.  This is the filesystem-protocol overhead a
/// worker pays per lease on top of run_campaign_range, and it bounds how
/// fine --lease-size can go before coordination dominates.
void BM_SchedulerOverhead(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "gpudiff_bm_scheduler";
  std::filesystem::remove_all(dir);
  diff::CampaignConfig cfg;
  cfg.num_programs = 64;
  campaign::LeaseBoard board(dir.string(), "bench");
  board.publish_or_verify_manifest(campaign::config_to_json(cfg), 1,
                                   campaign::lease_count(64, 1));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(board.try_claim(k));
    board.heartbeat(k);
    board.release(k);
    k = (k + 1) % 64;
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SchedulerOverhead)->Unit(benchmark::kMicrosecond);

/// The same claim + heartbeat + release cycle over the TCP coordinator on
/// localhost (in-process server, real sockets, line-framed JSON) — the
/// network transport's per-lease coordination price next to
/// BM_SchedulerOverhead's ~21µs filesystem number.  Three request
/// round-trips per iteration; the dominant term is not the wire but the
/// coordinator's durability: every claim transition is persisted with an
/// fsync'd write-then-rename, so wall time is disk-bound (hundreds of
/// microseconds) while CPU stays in the tens of microseconds.  Heartbeats
/// are memory-only by design and cost just the round-trip.
void BM_LeaseCycleTcp(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "gpudiff_bm_coord";
  const auto journal =
      std::filesystem::temp_directory_path() / "gpudiff_bm_coord_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(journal);
  diff::CampaignConfig cfg;
  cfg.num_programs = 64;
  campaign::CoordinatorOptions copts;
  copts.dir = dir.string();
  campaign::Coordinator coordinator(copts);
  coordinator.start();
  campaign::TcpTransportOptions topts;
  topts.host = "127.0.0.1";
  topts.port = coordinator.port();
  topts.worker_id = "bench";
  topts.journal_dir = journal.string();
  campaign::TcpLeaseTransport transport(std::move(topts));
  transport.publish_or_verify_manifest(campaign::config_to_json(cfg), 1,
                                       campaign::lease_count(64, 1));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.try_claim(k));
    transport.heartbeat(k);
    transport.release(k);
    k = (k + 1) % 64;
  }
  coordinator.stop();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(journal);
}
BENCHMARK(BM_LeaseCycleTcp)->Unit(benchmark::kMicrosecond);

void BM_FullComparison(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O3_FastMath);
  const auto args = ig.generate(p, 11, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_run(pair, args));
  }
}
BENCHMARK(BM_FullComparison);

/// Stationary inputs for the scalar math benchmarks: kInputTable points
/// x0, step(x0), step(step(x0)), ..., cycled, so the input range a row
/// measures does not depend on how many iterations the library picks.
constexpr std::size_t kInputTable = 1024;

template <typename T, typename Step>
std::vector<T> input_table(T x0, Step step) {
  std::vector<T> xs(kInputTable);
  for (T& x : xs) {
    x = x0;
    x0 = step(x0);
  }
  return xs;
}

void BM_SinMediumRange(benchmark::State& state) {
  const auto xs = input_table(12345.678, [](double x) { return x + 1.0; });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmath::core::sin64(
        xs[i++ % kInputTable], vmath::core::ReduceStyle::CodyWaite3));
  }
}
BENCHMARK(BM_SinMediumRange);

void BM_SinPayneHanek(benchmark::State& state) {
  // Geometric over [1e300, 1.6e308], the range the reduction serves.
  const double ratio = std::pow(1.6e8, 1.0 / (kInputTable - 1));
  const auto xs = input_table(1.0e300, [&](double x) { return x * ratio; });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmath::core::sin64(
        xs[i++ % kInputTable], vmath::core::ReduceStyle::CodyWaite3));
  }
}
BENCHMARK(BM_SinPayneHanek);

void BM_FmodExact(benchmark::State& state) {
  const auto xs = input_table(1.59e289, [](double x) { return x * 1.0000001; });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vmath::core::fmod_exact(xs[i++ % kInputTable], 1.5793e-307));
  }
}
BENCHMARK(BM_FmodExact);

void BM_FmodNvChunked(benchmark::State& state) {
  const auto& lib = vmath::nv_libdevice();
  const auto xs = input_table(1.59e289, [](double x) { return x * 1.0000001; });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lib.call64(ir::MathFn::Fmod, xs[i++ % kInputTable], 1.5793e-307));
  }
}
BENCHMARK(BM_FmodNvChunked);

void BM_Exp64(benchmark::State& state) {
  // Evenly spaced over [-700, 700).
  const auto xs = input_table(
      -700.0, [](double x) { return x + 1400.0 / kInputTable; });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmath::core::exp64(xs[i++ % kInputTable]));
  }
}
BENCHMARK(BM_Exp64);

void BM_FastSinf(benchmark::State& state) {
  const auto& lib = vmath::nv_fast();
  const auto xs = input_table(0.0f, [](float x) { return x + 0.01f; });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lib.call32(ir::MathFn::Sin, xs[i++ % kInputTable]));
  }
}
BENCHMARK(BM_FastSinf);

/// A small v2 campaign report (embedded config + fingerprint) written to
/// disk once, shared by the store benchmarks below.
const std::string& store_bench_report() {
  static const std::string path = [] {
    diff::CampaignConfig cfg;
    cfg.num_programs = 16;
    cfg.inputs_per_program = 4;
    cfg.threads = 1;
    const support::Json echo = campaign::config_to_json(cfg);
    const support::Json report =
        campaign::results_to_json(diff::run_campaign(cfg), &echo);
    const std::string p =
        (std::filesystem::temp_directory_path() / "gpudiff_bench_report.json")
            .string();
    support::write_file(p, report.dump(1) + "\n");
    return p;
  }();
  return path;
}

/// Ingest cost per commit: one campaign report folded into a population
/// document plus its atomic write (the CI trend-gate hot path).
void BM_StoreIngest(benchmark::State& state) {
  const std::string db =
      (std::filesystem::temp_directory_path() / "gpudiff_bench_store_ingest")
          .string();
  std::filesystem::remove_all(db);
  const std::string& report = store_bench_report();
  long long commit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store::ingest(db, "c" + std::to_string(commit++), {report}));
  }
  std::filesystem::remove_all(db);
}
BENCHMARK(BM_StoreIngest)->Unit(benchmark::kMicrosecond);

/// Query cost over a loaded index: the three query shapes gpudiff-serve
/// answers (summary, trend, cross-commit diff) over 8 ingested commits.
void BM_StoreQuery(benchmark::State& state) {
  const std::string db =
      (std::filesystem::temp_directory_path() / "gpudiff_bench_store_query")
          .string();
  std::filesystem::remove_all(db);
  const std::string& report = store_bench_report();
  for (int i = 0; i < 8; ++i)
    store::ingest(db, "c" + std::to_string(i), {report});
  const store::StoreIndex index = store::load_store(db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::summary(index));
    benchmark::DoNotOptimize(store::trend(index));
    benchmark::DoNotOptimize(store::diff_commits(index, "c0", "c7"));
  }
  std::filesystem::remove_all(db);
}
BENCHMARK(BM_StoreQuery)->Unit(benchmark::kMicrosecond);

/// One full delta-debugging reduction of a discrepant record — ddmin,
/// flatten/constfold/hoist/polish to fixpoint, sensitivity probe — the
/// per-record cost of --reduce-exemplars and the reduce-drill CI job.
void BM_ReduceRecord(benchmark::State& state) {
  diff::CampaignConfig cfg;
  cfg.seed = 1234;
  cfg.num_programs = 60;
  cfg.inputs_per_program = 3;
  cfg.platforms = opt::parse_platform_list("nvcc,hipcc");
  reduce::RecordRef ref;
  if (!reduce::parse_record_key("8:2:O3", &ref)) {
    state.SkipWithError("bad record key");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce::reduce_record(cfg, ref));
  }
}
BENCHMARK(BM_ReduceRecord)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
