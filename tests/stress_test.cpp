// Long-running differential stress suite: a few thousand random programs,
// both virtual toolchains, every optimization level, bytecode VM vs the
// tree-walk oracle — outputs and exception flags must be bit-identical
// everywhere.  This is the chainer-gradient_check-style self-check of the
// execution engine at campaign scale: the fast path is only trusted
// because the slow reference path keeps agreeing with it.
//
// Registered under the `stress` CTest configuration and label so tier-1
// stays fast; the nightly CI job runs it with
//
//   ctest --test-dir build -C stress -L stress --output-on-failure
//
// Program count scales with GPUDIFF_STRESS_PROGRAMS (default 2000 per
// precision).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "diff/campaign.hpp"
#include "diff/runner.hpp"
#include "ir/mutate.hpp"
#include "reduce/reduce.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "opt/pipeline.hpp"
#include "opt/platform.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;

int stress_programs() {
  if (const char* env = std::getenv("GPUDIFF_STRESS_PROGRAMS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 2000;
}

constexpr int kInputsPerProgram = 3;
constexpr std::uint64_t kSeed = 20260726;

/// Sweep `programs` random programs of one precision through every
/// (toolchain, level, input) and compare bytecode vs tree-walk bit for bit.
void run_stress(ir::Precision precision, int programs) {
  gen::GenConfig gcfg;
  gcfg.precision = precision;
  const gen::Generator generator(gcfg, kSeed);
  const gen::InputGenerator input_gen(kSeed);

  std::atomic<std::uint64_t> comparisons{0};
  std::mutex mu;
  std::vector<std::string> failures;

  support::parallel_for(
      static_cast<std::size_t>(programs),
      [&](std::size_t pi) {
        const ir::Program program = generator.generate(pi);
        std::vector<vgpu::KernelArgs> inputs;
        inputs.reserve(kInputsPerProgram);
        for (int ii = 0; ii < kInputsPerProgram; ++ii)
          inputs.push_back(input_gen.generate(program, pi, ii));
        for (const auto toolchain :
             {opt::Toolchain::Nvcc, opt::Toolchain::Hipcc}) {
          for (const auto level : opt::kAllOptLevels) {
            const opt::Executable exe =
                opt::compile(program, {toolchain, level, false});
            for (int ii = 0; ii < kInputsPerProgram; ++ii) {
              const vgpu::RunResult vm = vgpu::run_kernel(exe, inputs[ii]);
              const vgpu::RunResult oracle =
                  vgpu::run_kernel_tree(exe, inputs[ii]);
              comparisons.fetch_add(1, std::memory_order_relaxed);
              if (vm.value_bits == oracle.value_bits &&
                  vm.flags.raw() == oracle.flags.raw())
                continue;
              std::lock_guard<std::mutex> lock(mu);
              if (failures.size() < 25) {
                failures.push_back(support::format(
                    "program %zu input %d %s: vm bits %016llx flags %02x vs "
                    "oracle bits %016llx flags %02x",
                    pi, ii, exe.description().c_str(),
                    static_cast<unsigned long long>(vm.value_bits),
                    vm.flags.raw(),
                    static_cast<unsigned long long>(oracle.value_bits),
                    oracle.flags.raw()));
              }
            }
          }
        }
      });

  EXPECT_TRUE(failures.empty()) << failures.size() << "+ mismatches, first:\n"
                                << support::join(failures, "\n");
  // 2 toolchains x 5 levels x inputs per program: nothing silently skipped.
  EXPECT_EQ(comparisons.load(),
            static_cast<std::uint64_t>(programs) * 2 * 5 * kInputsPerProgram);
}

TEST(DifferentialStress, Fp64BytecodeMatchesTreeOracleBitForBit) {
  // The process-wide backend must be the bytecode VM even if the
  // environment selected the oracle — this suite compares the two.
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  run_stress(ir::Precision::FP64, stress_programs());
}

TEST(DifferentialStress, Fp32BytecodeMatchesTreeOracleBitForBit) {
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  run_stress(ir::Precision::FP32, stress_programs());
}

// ---------------------------------------------------------------------------
// Batched tier: run_kernel_batch across the whole platform registry against
// the tree oracle, values through cycle counts, and against a repeat of
// itself on the same thread's reused ExecContext.
// ---------------------------------------------------------------------------

constexpr int kBatchInputs = 9;

/// Sweep random programs through every (platform, level) batch and compare
/// the batched VM against the tree oracle bit for bit: values, flags, op
/// and cycle counts.  A second batch over the same inputs must reproduce
/// the first exactly (no state carried between batches).
void run_batch_stress(ir::Precision precision, int programs) {
  gen::GenConfig gcfg;
  gcfg.precision = precision;
  const gen::Generator generator(gcfg, kSeed);
  const gen::InputGenerator input_gen(kSeed);
  const std::vector<opt::PlatformSpec>& platforms = opt::platform_registry();

  std::atomic<std::uint64_t> comparisons{0};
  std::mutex mu;
  std::vector<std::string> failures;
  auto same = [](const vgpu::RunResult& a, const vgpu::RunResult& b) {
    return a.value_bits == b.value_bits && a.flags.raw() == b.flags.raw() &&
           a.op_count == b.op_count && a.cycle_count == b.cycle_count;
  };

  support::parallel_for(
      static_cast<std::size_t>(programs),
      [&](std::size_t pi) {
        const ir::Program program = generator.generate(pi);
        std::vector<vgpu::KernelArgs> inputs;
        inputs.reserve(kBatchInputs);
        for (int ii = 0; ii < kBatchInputs; ++ii)
          inputs.push_back(input_gen.generate(program, pi, ii));
        for (const auto level : opt::kAllOptLevels) {
          const diff::CompiledSet set =
              diff::compile_set(program, platforms, level);
          for (const opt::Executable& exe : set.exes) {
            std::vector<vgpu::RunResult> batch(inputs.size());
            std::vector<vgpu::RunResult> repeat(inputs.size());
            vgpu::run_kernel_batch(exe, inputs, batch.data());
            vgpu::run_kernel_batch(exe, inputs, repeat.data());
            for (int ii = 0; ii < kBatchInputs; ++ii) {
              const vgpu::RunResult oracle =
                  vgpu::run_kernel_tree(exe, inputs[ii]);
              comparisons.fetch_add(1, std::memory_order_relaxed);
              const vgpu::RunResult& vm = batch[static_cast<std::size_t>(ii)];
              const bool repeat_ok =
                  same(vm, repeat[static_cast<std::size_t>(ii)]);
              if (same(vm, oracle) && repeat_ok) continue;
              std::lock_guard<std::mutex> lock(mu);
              if (failures.size() < 25) {
                failures.push_back(support::format(
                    "program %zu input %d %s%s: vm bits %016llx "
                    "flags %02x ops %llu cyc %llu vs oracle bits %016llx "
                    "flags %02x ops %llu cyc %llu",
                    pi, ii, exe.description().c_str(),
                    repeat_ok ? "" : " (repeat batch differs)",
                    static_cast<unsigned long long>(vm.value_bits),
                    vm.flags.raw(),
                    static_cast<unsigned long long>(vm.op_count),
                    static_cast<unsigned long long>(vm.cycle_count),
                    static_cast<unsigned long long>(oracle.value_bits),
                    oracle.flags.raw(),
                    static_cast<unsigned long long>(oracle.op_count),
                    static_cast<unsigned long long>(oracle.cycle_count)));
              }
            }
          }
        }
      });

  EXPECT_TRUE(failures.empty()) << failures.size() << "+ mismatches, first:\n"
                                << support::join(failures, "\n");
  EXPECT_EQ(comparisons.load(), static_cast<std::uint64_t>(programs) *
                                    platforms.size() * 5 * kBatchInputs);
}

/// A quarter of the base tier: hundreds of programs times the full
/// registry at the default GPUDIFF_STRESS_PROGRAMS.
int batch_stress_programs() { return std::max(1, stress_programs() / 4); }

TEST(DifferentialStress, Fp64BatchedRegistryMatchesTreeOracleBitForBit) {
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  run_batch_stress(ir::Precision::FP64, batch_stress_programs());
}

TEST(DifferentialStress, Fp32BatchedRegistryMatchesTreeOracleBitForBit) {
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  run_batch_stress(ir::Precision::FP32, batch_stress_programs());
}

// ---------------------------------------------------------------------------
// Reducer stress tier: run the delta-debugging reducer over every
// discrepancy a campaign-scale corpus produces, then re-verify verdict
// preservation and 1-minimality with the tree-walk oracle — the reducer's
// acceptance decisions (made on the bytecode VM) must hold under the
// reference interpreter too.
// ---------------------------------------------------------------------------

/// ~500 programs per precision at the default GPUDIFF_STRESS_PROGRAMS.
int reduce_stress_programs() { return std::max(50, stress_programs() / 4); }

void run_reduce_stress(ir::Precision precision, int programs) {
  diff::CampaignConfig config;
  config.gen.precision = precision;
  config.seed = kSeed;
  config.num_programs = programs;
  config.inputs_per_program = kInputsPerProgram;
  config.platforms = opt::parse_platform_list("nvcc,hipcc");

  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  const diff::CampaignResults results = diff::run_campaign(config);
  ASSERT_FALSE(results.records.empty())
      << "stress corpus produced no discrepancies; widen the campaign";

  // Phase 1 (bytecode VM): reduce every record.
  std::vector<std::optional<reduce::Reduction>> reductions(
      results.records.size());
  std::vector<std::string> failures;
  std::mutex mu;
  auto record_failure = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(mu);
    if (failures.size() < 25) failures.push_back(message);
  };
  support::parallel_for(results.records.size(), [&](std::size_t i) {
    const diff::DiscrepancyRecord& rec = results.records[i];
    const reduce::RecordRef ref{rec.program_index, rec.input_index,
                                rec.level};
    try {
      reductions[i] = reduce::reduce_record(config, ref);
    } catch (const std::exception& e) {
      record_failure(ref.key() + ": reduce_record threw: " + e.what());
      return;
    }
    if (reductions[i]->verdict.pair_cls != rec.pair_cls)
      record_failure(ref.key() + ": verdict not preserved");
  });

  // Phase 2 (tree-walk oracle): the reproducer must reproduce its verdict
  // and be 1-minimal under the reference interpreter as well.
  vgpu::set_exec_backend(vgpu::ExecBackend::TreeWalk);
  support::parallel_for(reductions.size(), [&](std::size_t i) {
    if (!reductions[i]) return;
    const reduce::Reduction& r = *reductions[i];
    if (reduce::verdict_of(r.program, config, r.record.level, r.args) !=
        r.verdict) {
      record_failure(r.record.key() + ": oracle disagrees on the verdict");
      return;
    }
    for (const ir::StmtId id : ir::preorder_statements(r.program)) {
      const std::optional<ir::Program> dropped =
          reduce::drop_statement(r.program, id);
      if (!dropped) continue;
      reduce::Verdict v;
      try {
        v = reduce::verdict_of(*dropped, config, r.record.level, r.args);
      } catch (const std::exception&) {
        continue;
      }
      if (v == r.verdict) {
        record_failure(r.record.key() + ": not 1-minimal under the oracle");
        return;
      }
    }
  });
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);

  EXPECT_TRUE(failures.empty())
      << failures.size() << "+ failures over " << results.records.size()
      << " records, first:\n"
      << support::join(failures, "\n");
}

TEST(ReduceStress, Fp64EveryDiscrepancyReducesVerdictPreservingOneMinimal) {
  run_reduce_stress(ir::Precision::FP64, reduce_stress_programs());
}

TEST(ReduceStress, Fp32EveryDiscrepancyReducesVerdictPreservingOneMinimal) {
  run_reduce_stress(ir::Precision::FP32, reduce_stress_programs());
}

}  // namespace
