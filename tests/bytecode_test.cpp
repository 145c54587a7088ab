// Differential self-test for the bytecode VM: the register VM must be
// bit-identical to the tree-walk reference oracle — value bits, exception
// flags, op count and cycle count — for every generated program, at every
// optimization level, for both toolchains, both precisions and both
// HIPIFY modes.  Also pins the VM-specific lowering details (read-only
// array elision, short-circuit accounting, subscript clamping) and proves
// fixed-seed campaign output is backend-independent.

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "diff/campaign.hpp"
#include "diff/runner.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "ir/builder.hpp"
#include "opt/pipeline.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::ir;

void expect_identical(const vgpu::RunResult& vm, const vgpu::RunResult& tree,
                      const std::string& context) {
  EXPECT_EQ(vm.value_bits, tree.value_bits) << context;
  EXPECT_EQ(vm.flags.raw(), tree.flags.raw()) << context;
  EXPECT_EQ(vm.op_count, tree.op_count) << context;
  EXPECT_EQ(vm.cycle_count, tree.cycle_count) << context;
  EXPECT_EQ(vm.printed(), tree.printed()) << context;
}

struct DifferentialCase {
  Precision precision;
  bool hipify;
};

class BytecodeDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(BytecodeDifferential, MatchesTreeWalkOracle) {
  const auto [precision, hipify] = GetParam();
  gen::GenConfig cfg;
  cfg.precision = precision;
  const gen::Generator generator(cfg, 20240901);
  const gen::InputGenerator input_gen(20240901);

  vgpu::ExecContext ctx;
  for (std::uint64_t pi = 0; pi < 200; ++pi) {
    const Program program = generator.generate(pi);
    for (std::uint64_t ii = 0; ii < 2; ++ii) {
      const vgpu::KernelArgs args = input_gen.generate(program, pi, ii);
      for (const opt::OptLevel level : opt::kAllOptLevels) {
        for (const opt::Toolchain tc : {opt::Toolchain::Nvcc, opt::Toolchain::Hipcc}) {
          const opt::Executable exe =
              opt::compile(program, {tc, level, hipify && tc == opt::Toolchain::Hipcc});
          const vgpu::RunResult vm = exe.bytecode().run(args, ctx);
          const vgpu::RunResult tree = vgpu::run_kernel_tree(exe, args);
          expect_identical(vm, tree,
                           "program " + std::to_string(pi) + " input " +
                               std::to_string(ii) + " " + exe.description());
          if (HasFailure()) return;  // one diverging program is enough signal
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BytecodeDifferential,
    ::testing::Values(DifferentialCase{Precision::FP64, false},
                      DifferentialCase{Precision::FP64, true},
                      DifferentialCase{Precision::FP32, false},
                      DifferentialCase{Precision::FP32, true}),
    [](const auto& info) {
      return std::string(info.param.precision == Precision::FP32 ? "FP32" : "FP64") +
             (info.param.hipify ? "Hipify" : "Native");
    });

// ---------------------------------------------------------------------------
// Campaign-level equivalence: the fixed-seed campaign tables must not
// depend on the execution backend.
// ---------------------------------------------------------------------------

TEST(BytecodeCampaign, FixedSeedCampaignIdenticalAcrossBackends) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 40;
  cfg.inputs_per_program = 3;
  cfg.threads = 2;

  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  const diff::CampaignResults vm = diff::run_campaign(cfg);
  vgpu::set_exec_backend(vgpu::ExecBackend::TreeWalk);
  const diff::CampaignResults tree = diff::run_campaign(cfg);
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);

  ASSERT_EQ(vm.per_level.size(), tree.per_level.size());
  for (std::size_t li = 0; li < vm.per_level.size(); ++li) {
    EXPECT_EQ(vm.per_level[li].comparisons, tree.per_level[li].comparisons);
    EXPECT_EQ(vm.per_level[li].pairs, tree.per_level[li].pairs);
  }
  ASSERT_EQ(vm.records.size(), tree.records.size());
  for (std::size_t i = 0; i < vm.records.size(); ++i) {
    EXPECT_EQ(vm.records[i].program_index, tree.records[i].program_index);
    EXPECT_EQ(vm.records[i].input_index, tree.records[i].input_index);
    EXPECT_EQ(vm.records[i].level, tree.records[i].level);
    EXPECT_EQ(vm.records[i].cls, tree.records[i].cls);
    EXPECT_EQ(vm.records[i].printed, tree.records[i].printed);
  }
}

// ---------------------------------------------------------------------------
// Lowering details.
// ---------------------------------------------------------------------------

opt::Executable compile_o0(Program p) {
  return opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O0, false});
}

TEST(Bytecode, ShortCircuitSkipsUncountedOperand) {
  // (0 != 0) && (comp < comp + 1): the RHS Cmp and Add must not execute
  // when the LHS is false — op_count sees exactly one comparison.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  auto cond = make_bool(A, 
      BoolOp::And, make_cmp(A, CmpOp::Ne, make_literal(A, 0.0), make_literal(A, 0.0)),
      make_cmp(A, CmpOp::Lt, make_param(A, 0),
               make_bin(A, BinOp::Add, make_param(A, 0), make_literal(A, 1.0))));
  b.begin_if(std::move(cond));
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  b.end_block();
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {2.0};
  args.ints = {0};
  const auto vm = vgpu::run_kernel(exe, args);
  const auto tree = vgpu::run_kernel_tree(exe, args);
  EXPECT_EQ(vm.op_count, 1u);
  EXPECT_EQ(vm.op_count, tree.op_count);
  EXPECT_EQ(vm.cycle_count, tree.cycle_count);
}

TEST(Bytecode, ReadOnlyArrayLoadsBroadcastValue) {
  // comp = arr[3]; the array is never stored to, so the VM elides its
  // backing storage entirely — loads must still see the broadcast argument.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.assign_comp(AssignOp::Set, make_array(A, arr, make_literal(A, 3.0)));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 6.5};
  args.ints = {0, 0};
  EXPECT_EQ(vgpu::run_kernel(exe, args).value, 6.5);
  EXPECT_EQ(vgpu::run_kernel_tree(exe, args).value, 6.5);
}

TEST(Bytecode, StoredArrayRoundTrips) {
  // arr[2] = 41; comp = arr[2] + arr[1]  (arr broadcast-initialized to 1).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.store_array(arr, make_literal(A, 2.0), make_literal(A, 41.0));
  b.assign_comp(AssignOp::Set,
                make_bin(A, BinOp::Add, make_array(A, arr, make_literal(A, 2.0)),
                         make_array(A, arr, make_literal(A, 1.0))));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.0};
  args.ints = {0, 0};
  EXPECT_EQ(vgpu::run_kernel(exe, args).value, 42.0);
  EXPECT_EQ(vgpu::run_kernel_tree(exe, args).value, 42.0);
}

TEST(Bytecode, NanSubscriptIndexesElementZero) {
  // arr[0] = 9; comp = arr[0.0/0.0]: a NaN subscript must clamp to element
  // 0 in both backends (previously UB in the tree-walk interpreter).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.store_array(arr, make_literal(A, 0.0), make_literal(A, 9.0));
  b.assign_comp(
      AssignOp::Set,
      make_array(A, arr, make_bin(A, BinOp::Div, make_literal(A, 0.0), make_literal(A, 0.0))));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.0};
  args.ints = {0, 0};
  const auto vm = vgpu::run_kernel(exe, args);
  const auto tree = vgpu::run_kernel_tree(exe, args);
  EXPECT_EQ(vm.value, 9.0);
  expect_identical(vm, tree, "NaN subscript");
}

TEST(Bytecode, LoopVarAfterLoopMatchesOracle) {
  // `for (i < n) comp += 1; comp = i`: after the loop both backends must
  // observe the final iteration value (n-1), and a zero-trip loop must
  // leave the variable untouched (0 at run start).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  b.begin_for(n);
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  b.end_block();
  b.assign_comp(AssignOp::Set, make_loop_var(A, 0));
  const opt::Executable exe = compile_o0(b.build());
  for (const int bound : {3, 1, 0}) {
    vgpu::KernelArgs args;
    args.fp = {0.0, 0.0};
    args.ints = {0, bound};
    const auto vm = vgpu::run_kernel(exe, args);
    const auto tree = vgpu::run_kernel_tree(exe, args);
    EXPECT_EQ(vm.value_bits, tree.value_bits) << "bound " << bound;
    EXPECT_EQ(vm.value, bound > 0 ? bound - 1 : 0) << "bound " << bound;
  }
}

TEST(Bytecode, HugeLiteralSubscriptMatchesOracle) {
  // A literal subscript beyond long long range saturates identically in
  // both backends (previously UB in the tree-walk Literal fast path).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.store_array(arr, make_literal(A, 255.0), make_literal(A, 7.0));
  b.assign_comp(AssignOp::Set, make_array(A, arr, make_literal(A, 1e30)));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.0};
  args.ints = {0, 0};
  const auto vm = vgpu::run_kernel(exe, args);
  const auto tree = vgpu::run_kernel_tree(exe, args);
  EXPECT_EQ(vm.value, 7.0);
  EXPECT_EQ(vm.value_bits, tree.value_bits);
}

TEST(Bytecode, MalformedStatementFaultsOnlyWhenReached) {
  // A store to a non-array (scalar) parameter is structurally malformed,
  // but guarded by `if (0 != 0)` it never executes: like the tree-walk
  // oracle, the VM must run the program cleanly, and must throw the same
  // error once the guard lets the statement execute.
  const auto build = [](double guard_rhs) {
    // Raw IR assembly: ProgramBuilder (rightly) refuses to emit this.
    Arena A;
    std::vector<Param> params{{ParamKind::Comp, "comp"},
                              {ParamKind::Scalar, "var_1"}};
    std::vector<StmtId> guarded;
    guarded.push_back(
        make_store_array(A, 1, make_literal(A, 0.0), make_literal(A, 1.0)));
    std::vector<StmtId> body;
    body.push_back(make_if(
        A, make_cmp(A, CmpOp::Ne, make_literal(A, 0.0), make_literal(A, guard_rhs)),
        guarded));
    body.push_back(make_assign_comp(A, AssignOp::Add, make_literal(A, 2.0)));
    return compile_o0(Program(Precision::FP64, std::move(params), std::move(A),
                              std::move(body)));
  };
  vgpu::KernelArgs args;
  args.fp = {1.0, 3.0};
  args.ints = {0, 0};
  const opt::Executable unreachable = build(0.0);
  EXPECT_EQ(vgpu::run_kernel(unreachable, args).value, 3.0);
  EXPECT_EQ(vgpu::run_kernel_tree(unreachable, args).value, 3.0);
  const opt::Executable reachable = build(1.0);
  EXPECT_THROW((void)vgpu::run_kernel(reachable, args), std::runtime_error);
  EXPECT_THROW((void)vgpu::run_kernel_tree(reachable, args), std::runtime_error);
}

TEST(Bytecode, ArgumentCountMismatchThrows) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs bad;
  bad.fp = {1.0, 2.0};
  bad.ints = {0, 0};
  EXPECT_THROW((void)vgpu::run_kernel(exe, bad), std::runtime_error);
}

TEST(Bytecode, BatchedSweepBitIdenticalToPerRunLoop) {
  // compare_batch must be indistinguishable from the compare_run loop it
  // replaced in the campaign driver: same bits, flags, op counts and
  // classification, for both backends.
  gen::GenConfig cfg;
  const gen::Generator generator(cfg, 77);
  const gen::InputGenerator input_gen(77);
  for (std::uint64_t pi = 0; pi < 25; ++pi) {
    const Program program = generator.generate(pi);
    std::vector<vgpu::KernelArgs> inputs;
    for (int ii = 0; ii < 6; ++ii) inputs.push_back(input_gen.generate(program, pi, ii));
    for (const opt::OptLevel level : opt::kAllOptLevels) {
      const diff::CompiledSet set = diff::compile_pair(program, level);
      for (const auto backend :
           {vgpu::ExecBackend::Bytecode, vgpu::ExecBackend::TreeWalk}) {
        vgpu::set_exec_backend(backend);
        const auto batch = diff::compare_batch(set, inputs);
        ASSERT_EQ(batch.size(), inputs.size());
        for (std::size_t ii = 0; ii < inputs.size(); ++ii) {
          const auto single = diff::compare_run(set, inputs[ii]);
          EXPECT_EQ(batch[ii].platforms[0].bits, single.platforms[0].bits);
          EXPECT_EQ(batch[ii].platforms[1].bits, single.platforms[1].bits);
          EXPECT_EQ(batch[ii].platforms[0].flags.raw(),
                    single.platforms[0].flags.raw());
          EXPECT_EQ(batch[ii].platforms[1].op_count,
                    single.platforms[1].op_count);
          EXPECT_EQ(batch[ii].cls, single.cls);
        }
      }
      vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
    }
  }
}

TEST(Bytecode, BatchRejectsMismatchedArguments) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs good;
  good.fp = {1.0};
  good.ints = {0};
  vgpu::KernelArgs bad;
  bad.fp = {1.0, 2.0};
  bad.ints = {0, 0};
  const vgpu::KernelArgs inputs[] = {good, bad};
  vgpu::RunResult out[2];
  vgpu::ExecContext ctx;
  EXPECT_THROW(exe.bytecode().run_batch(inputs, ctx, out), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Batched execution: run_batch must be bit-identical to per-input run()
// and to the tree-walk oracle — values, flags, op and cycle counts —
// including under divergent control flow and for trapping inputs.
// ---------------------------------------------------------------------------

/// run_batch over `inputs` against run() per input and the tree-walk
/// oracle per input.
void expect_batch_matches(const opt::Executable& exe,
                          std::span<const vgpu::KernelArgs> inputs,
                          const std::string& context) {
  vgpu::ExecContext ctx;
  std::vector<vgpu::RunResult> batch(inputs.size());
  exe.bytecode().run_batch(inputs, ctx, batch.data());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string where = context + " input " + std::to_string(i);
    expect_identical(batch[i], exe.bytecode().run(inputs[i], ctx),
                     where + " run");
    expect_identical(batch[i], vgpu::run_kernel_tree(exe, inputs[i]),
                     where + " tree");
  }
}

TEST(BytecodeBatch, GeneratedProgramsMatchRunAndOracle) {
  // Generated programs (subnormal-heavy inputs) across opt levels and
  // platforms, fp64 and fp32.
  for (const Precision precision : {Precision::FP64, Precision::FP32}) {
    gen::GenConfig cfg;
    cfg.precision = precision;
    const gen::Generator generator(cfg, 77);
    const gen::InputGenerator input_gen(77);
    for (std::uint64_t pi = 0; pi < 25; ++pi) {
      const Program program = generator.generate(pi);
      std::vector<vgpu::KernelArgs> inputs;
      for (int ii = 0; ii < 6; ++ii)
        inputs.push_back(input_gen.generate(program, pi, ii));
      for (const opt::OptLevel level : opt::kAllOptLevels) {
        const diff::CompiledSet set = diff::compile_pair(program, level);
        for (const opt::Executable& exe : set.exes) {
          expect_batch_matches(exe, inputs,
                               "program " + std::to_string(pi) + " " +
                                   exe.description());
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(BytecodeBatch, DivergentControlFlowMatchesRunAndOracle) {
  // Per-input trip counts (including zero-trip), a data-dependent if whose
  // body re-tests every step, and div/add/mul under it — so inputs of one
  // batch run different instruction sequences — for inputs spanning
  // subnormals, zeros, infinities and NaN.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  b.begin_for(n);
  b.begin_if(make_cmp(A, CmpOp::Lt, make_param(A, 0), make_literal(A, 4.0)));
  b.assign_comp(AssignOp::Div, make_literal(A, 3.0));
  b.assign_comp(AssignOp::Add, make_literal(A, 1.25));
  b.end_block();
  b.assign_comp(AssignOp::Mul, make_literal(A, 1.125));
  b.end_block();
  b.assign_comp(AssignOp::Sub, make_loop_var(A, 0));

  const double comps[] = {0.5,    -3.0, 1e-310, 100.0,
                          -1e300, 0.0,  1e308,  std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), 2.0, 3.5, -1e-320, 7.0};
  const Program program = b.build();
  for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
    const opt::Executable exe =
        opt::compile(program, {opt::Toolchain::Nvcc, level, false});
    std::vector<vgpu::KernelArgs> inputs;
    for (std::size_t i = 0; i < std::size(comps); ++i) {
      vgpu::KernelArgs args;
      args.fp = {comps[i], 0.0};
      args.ints = {0, static_cast<int>(i % 7)};  // trip counts 0..6
      inputs.push_back(args);
    }
    expect_batch_matches(exe, inputs, exe.description());
  }
}

TEST(BytecodeBatch, BatchSizesAroundVectorWidths) {
  // Sizes around multiples of 4 and 8 (where a grouped or unrolled batch
  // loop would split into body and tail): every prefix of one input pool
  // must give the same per-input results.
  gen::GenConfig cfg;
  const gen::Generator generator(cfg, 9);
  const gen::InputGenerator input_gen(9);
  const Program program = generator.generate(3);
  const opt::Executable exe =
      opt::compile(program, {opt::Toolchain::Nvcc, opt::OptLevel::O1, false});
  std::vector<vgpu::KernelArgs> pool;
  for (int ii = 0; ii < 19; ++ii)
    pool.push_back(input_gen.generate(program, 3, ii));
  for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4}, std::size_t{5},
                                  std::size_t{8}, std::size_t{9},
                                  std::size_t{16}, std::size_t{19}})
    expect_batch_matches(
        exe, std::span<const vgpu::KernelArgs>(pool.data(), count),
        "count " + std::to_string(count));
}

TEST(BytecodeBatch, BatchThrowLeavesNoStaleOutputs) {
  // Regression for the partial-state bug: a throw mid-batch used to leave
  // whatever memory the caller handed in for the unreached outputs.  Now
  // every output is either a completed result (inputs before the faulting
  // one, in input order, equal to run() and the oracle) or a zeroed
  // RunResult{}.
  Arena A;
  std::vector<Param> params{{ParamKind::Comp, "comp"},
                            {ParamKind::Scalar, "var_1"}};
  std::vector<StmtId> guarded;
  guarded.push_back(
      make_store_array(A, 1, make_literal(A, 0.0), make_literal(A, 1.0)));
  std::vector<StmtId> body;
  body.push_back(make_if(
      A, make_cmp(A, CmpOp::Ne, make_param(A, 1), make_literal(A, 0.0)),
      guarded));
  body.push_back(make_assign_comp(A, AssignOp::Add, make_literal(A, 2.0)));
  const opt::Executable exe = compile_o0(
      Program(Precision::FP64, std::move(params), std::move(A), std::move(body)));
  std::vector<vgpu::KernelArgs> inputs;
  for (int i = 0; i < 11; ++i) {
    vgpu::KernelArgs args;
    args.fp = {1.0, i == 6 ? 1.0 : 0.0};  // input 6 reaches the trap
    args.ints = {0, 0};
    inputs.push_back(args);
  }
  std::vector<vgpu::RunResult> out(inputs.size());
  for (auto& r : out) {  // stale garbage the contract must erase
    r.value_bits = 0xDEADBEEFull;
    r.op_count = 123;
  }
  vgpu::ExecContext ctx;
  EXPECT_THROW(exe.bytecode().run_batch(inputs, ctx, out.data()),
               std::runtime_error);
  EXPECT_THROW((void)exe.bytecode().run(inputs[6], ctx), std::runtime_error);
  EXPECT_THROW((void)vgpu::run_kernel_tree(exe, inputs[6]), std::runtime_error);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i].value, 3.0) << "input " << i;
    EXPECT_GT(out[i].op_count, 0u) << "input " << i;
    expect_identical(out[i], exe.bytecode().run(inputs[i], ctx),
                     "run input " + std::to_string(i));
    expect_identical(out[i], vgpu::run_kernel_tree(exe, inputs[i]),
                     "tree input " + std::to_string(i));
  }
  for (std::size_t i = 6; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value_bits, 0u) << "input " << i;
    EXPECT_EQ(out[i].op_count, 0u) << "input " << i;
  }
}

TEST(Bytecode, CompiledProgramIsCachedOnExecutable) {
  gen::GenConfig cfg;
  const gen::Generator generator(cfg, 7);
  const opt::Executable exe = opt::compile(
      generator.generate(0), {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  ASSERT_NE(exe.bytecode_cache, nullptr);  // built eagerly by compile()
  const vgpu::BytecodeProgram* first = &exe.bytecode();
  EXPECT_EQ(first, &exe.bytecode());  // stable across calls
  const opt::Executable copy = exe;   // copies share the lowering
  EXPECT_EQ(copy.bytecode_cache.get(), exe.bytecode_cache.get());
}

}  // namespace
