// Tests for the differential-testing core: pair classification, the
// runner, campaign statistics, metadata protocol, report rendering.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "diff/campaign.hpp"
#include "diff/metadata.hpp"
#include "diff/report.hpp"
#include "diff/runner.hpp"
#include "fp/bits.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "ir/builder.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::diff;
using fp::Outcome;
using fp::OutcomeClass;

std::uint64_t bits_of(double v) { return fp::to_bits(v); }

// ---------------------------------------------------------------------------
// classify_pair: the full 4x4 outcome matrix
// ---------------------------------------------------------------------------

struct PairCase {
  const char* name;
  double a, b;
  DiscrepancyClass expected;
};

class ClassifyPair : public ::testing::TestWithParam<PairCase> {};

TEST_P(ClassifyPair, Classifies) {
  const auto& c = GetParam();
  const auto cls = classify_pair(fp::outcome_of(c.a), bits_of(c.a),
                                 fp::outcome_of(c.b), bits_of(c.b));
  EXPECT_EQ(cls, c.expected) << c.name;
  // Classification is symmetric.
  EXPECT_EQ(classify_pair(fp::outcome_of(c.b), bits_of(c.b),
                          fp::outcome_of(c.a), bits_of(c.a)),
            c.expected);
}

const double kQNaN = std::numeric_limits<double>::quiet_NaN();
const double kPInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Matrix, ClassifyPair,
    ::testing::Values(
        PairCase{"nan vs inf", kQNaN, kPInf, DiscrepancyClass::NaN_Inf},
        PairCase{"nan vs neg inf", kQNaN, -kPInf, DiscrepancyClass::NaN_Inf},
        PairCase{"nan vs zero", kQNaN, 0.0, DiscrepancyClass::NaN_Zero},
        PairCase{"nan vs num", kQNaN, 3.5, DiscrepancyClass::NaN_Num},
        PairCase{"inf vs zero", kPInf, -0.0, DiscrepancyClass::Inf_Zero},
        PairCase{"inf vs num", -kPInf, 2.0, DiscrepancyClass::Inf_Num},
        PairCase{"num vs zero", 5.0, 0.0, DiscrepancyClass::Num_Zero},
        PairCase{"num vs num", 1.0, 1.0000000000000002, DiscrepancyClass::Num_Num},
        PairCase{"subnormal vs zero", 1e-310, 0.0, DiscrepancyClass::Num_Zero},
        PairCase{"same num", 2.5, 2.5, DiscrepancyClass::None},
        PairCase{"sign of zero excluded", 0.0, -0.0, DiscrepancyClass::None},
        PairCase{"sign of inf excluded", kPInf, -kPInf, DiscrepancyClass::None},
        PairCase{"sign of nan excluded", kQNaN, -kQNaN, DiscrepancyClass::None},
        PairCase{"pos vs neg num", 1.5, -1.5, DiscrepancyClass::Num_Num}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& ch : n)
        if (ch == ' ') ch = '_';
      return n;
    });

TEST(ClassifyPair, NaNPayloadsAreNotDifferences) {
  const double qnan1 = fp::quiet_nan<double>();
  const double qnan2 = fp::from_bits<double>(fp::to_bits(qnan1) | 1);
  EXPECT_EQ(classify_pair(fp::outcome_of(qnan1), bits_of(qnan1),
                          fp::outcome_of(qnan2), bits_of(qnan2)),
            DiscrepancyClass::None);
}

TEST(ClassifyPair, IndexRoundTrip) {
  for (int i = 0; i < kDiscrepancyClassCount; ++i)
    EXPECT_EQ(class_index(class_from_index(i)), i);
}

// ---------------------------------------------------------------------------
// runner
// ---------------------------------------------------------------------------

TEST(Runner, CeilCaseStudyDivergesAtO0) {
  // Paper Fig. 5 in miniature: comp += tmp_1 / ceil(1.5955E-125).
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int t = b.decl_temp(ir::make_literal(A, 1.1147e-307, "+1.1147E-307"));
  b.assign_comp(ir::AssignOp::Add,
                ir::make_bin(A, ir::BinOp::Div, ir::make_temp(A, t),
                             ir::make_call(A, ir::MathFn::Ceil,
                                           ir::make_literal(A, 1.5955e-125,
                                                            "+1.5955E-125"))));
  const ir::Program p = b.build();
  vgpu::KernelArgs args;
  args.fp = {1.2374e-306};
  args.ints = {0};
  const auto cmp = run_differential(p, args, opt::OptLevel::O0);
  EXPECT_EQ(cmp.cls, DiscrepancyClass::Inf_Num);
  EXPECT_EQ(cmp.platforms[0].printed(), "inf");
  EXPECT_EQ(cmp.platforms[1].outcome.cls, OutcomeClass::Number);
}

TEST(Runner, IdenticalProgramsAgreeOnBenignInputs) {
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add,
                ir::make_bin(A, ir::BinOp::Mul, ir::make_param(A, x), ir::make_param(A, x)));
  const ir::Program p = b.build();
  vgpu::KernelArgs args;
  args.fp = {1.0, 3.0};
  args.ints = {0, 0};
  for (auto level : opt::kAllOptLevels) {
    const auto cmp = run_differential(p, args, level);
    EXPECT_FALSE(cmp.discrepant()) << opt::to_string(level);
    EXPECT_EQ(cmp.platforms[0].printed(), "10");
  }
}

TEST(Runner, CompiledSetReusableAcrossInputs) {
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add, ir::make_param(A, x));
  const ir::Program p = b.build();
  const CompiledSet set = compile_pair(p, opt::OptLevel::O2);
  for (double v : {1.0, -2.5, 1e300}) {
    vgpu::KernelArgs args;
    args.fp = {0.0, v};
    args.ints = {0, 0};
    const auto cmp = compare_run(set, args);
    EXPECT_FALSE(cmp.discrepant());
  }
}

// ---------------------------------------------------------------------------
// compare_batch run memo (SweepContext)
// ---------------------------------------------------------------------------

void expect_same_comparisons(const std::vector<ComparisonResult>& got,
                             const std::vector<ComparisonResult>& want,
                             const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string at = where + " input " + std::to_string(i);
    ASSERT_EQ(got[i].count, want[i].count) << at;
    for (std::uint32_t p = 0; p < want[i].count; ++p) {
      const PlatformResult& g = got[i].platforms[p];
      const PlatformResult& w = want[i].platforms[p];
      EXPECT_EQ(g.bits, w.bits) << at << " platform " << p;
      EXPECT_EQ(fp::to_bits(g.value), fp::to_bits(w.value)) << at;
      EXPECT_EQ(g.flags.raw(), w.flags.raw()) << at << " platform " << p;
      EXPECT_EQ(g.op_count, w.op_count) << at << " platform " << p;
      EXPECT_EQ(g.outcome, w.outcome) << at << " platform " << p;
      EXPECT_EQ(got[i].pair_cls[p], want[i].pair_cls[p]) << at;
    }
    EXPECT_EQ(got[i].cls, want[i].cls) << at;
  }
}

std::vector<vgpu::KernelArgs> generated_inputs(const ir::Program& program,
                                               const gen::InputGenerator& gen,
                                               std::uint64_t pi, int n) {
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < n; ++ii) inputs.push_back(gen.generate(program, pi, ii));
  return inputs;
}

// comp += x + <zero literal>: two programs that differ only in the sign of
// one literal.
ir::Program add_zero_literal_program(double zero, const char* text) {
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add,
                ir::make_bin(A, ir::BinOp::Add, ir::make_param(A, x),
                             ir::make_literal(A, zero, text)));
  return b.build();
}

// comp += x: the result carries the input's sign of zero and NaN payload.
ir::Program accumulate_program(ir::Precision precision) {
  ir::ProgramBuilder b(precision);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add, ir::make_param(A, x));
  return b.build();
}

vgpu::KernelArgs scalar_args(double comp, double x) {
  vgpu::KernelArgs args;
  args.fp = {comp, x};
  args.ints = {0, 0};
  return args;
}

TEST(RunMemo, PersistentContextMatchesFreshContext) {
  // The campaign's level-major loop with one SweepContext kept across
  // programs and levels must produce exactly what a fresh context per call
  // produces, on every registry platform, both precisions, with and without
  // the HIPIFY binding.
  const std::vector<opt::PlatformSpec>& platforms = opt::platform_registry();
  for (const ir::Precision precision :
       {ir::Precision::FP64, ir::Precision::FP32}) {
    for (const bool hipify : {false, true}) {
      gen::GenConfig gcfg;
      gcfg.precision = precision;
      const gen::Generator generator(gcfg, 31);
      const gen::InputGenerator input_gen(31);
      SweepContext sweep;
      for (std::uint64_t pi = 0; pi < 20; ++pi) {
        const ir::Program program = generator.generate(pi);
        const auto inputs = generated_inputs(program, input_gen, pi, 7);
        for (const opt::OptLevel level : opt::kAllOptLevels) {
          const CompiledSet set =
              compile_set(program, platforms, level, hipify);
          const std::string where =
              std::string(precision == ir::Precision::FP32 ? "fp32" : "fp64") +
              (hipify ? " hipify" : "") + " program " + std::to_string(pi) +
              " " + opt::to_string(level);
          expect_same_comparisons(compare_batch(set, inputs, sweep),
                                  compare_batch(set, inputs), where);
        }
      }
      EXPECT_GT(sweep.runs_reused, 0u);
    }
  }
}

TEST(RunMemo, DefaultPairReusesO2AndO3ForEveryProgram) {
  // O1, O2 and O3 run the same numerics passes, so the O2 and O3 calls of
  // the level-major loop must be served entirely from the memo.
  const gen::Generator generator(gen::GenConfig{}, 5);
  const gen::InputGenerator input_gen(5);
  SweepContext sweep;
  for (std::uint64_t pi = 0; pi < 30; ++pi) {
    const ir::Program program = generator.generate(pi);
    const auto inputs = generated_inputs(program, input_gen, pi, 7);
    for (const opt::OptLevel level : opt::kAllOptLevels) {
      const CompiledSet set = compile_pair(program, level);
      const std::uint64_t executed = sweep.runs_executed;
      const std::uint64_t reused = sweep.runs_reused;
      compare_batch(set, inputs, sweep);
      if (level != opt::OptLevel::O2 && level != opt::OptLevel::O3) continue;
      EXPECT_EQ(sweep.runs_executed, executed)
          << "program " << pi << " " << opt::to_string(level);
      EXPECT_EQ(sweep.runs_reused - reused, 2u * inputs.size())
          << "program " << pi << " " << opt::to_string(level);
    }
  }
}

TEST(RunMemo, SignOfZeroLiteralMisses) {
  const CompiledSet pos = compile_pair(
      add_zero_literal_program(0.0, "+0.0"), opt::OptLevel::O0);
  const CompiledSet neg = compile_pair(
      add_zero_literal_program(-0.0, "-0.0"), opt::OptLevel::O0);
  EXPECT_TRUE(vgpu::same_bytecode(pos.exes[0].bytecode(),
                                  pos.exes[0].bytecode()));
  EXPECT_FALSE(vgpu::same_bytecode(pos.exes[0].bytecode(),
                                   neg.exes[0].bytecode()));
  const std::vector<vgpu::KernelArgs> inputs = {scalar_args(-0.0, -0.0)};
  SweepContext sweep;
  const std::uint64_t pos_bits =
      compare_batch(pos, inputs, sweep)[0].platforms[0].bits;
  const auto& got = compare_batch(neg, inputs, sweep);
  EXPECT_EQ(sweep.runs_reused, 0u);
  EXPECT_EQ(sweep.runs_executed, 4u);
  expect_same_comparisons(got, compare_batch(neg, inputs), "-0.0 literal");
  EXPECT_NE(got[0].platforms[0].bits, pos_bits);  // -0 + -0 vs -0 + +0
}

TEST(RunMemo, InputSignOfZeroAndNaNPayloadMiss) {
  const CompiledSet set = compile_pair(
      accumulate_program(ir::Precision::FP64), opt::OptLevel::O0);
  const double nan1 = fp::from_bits<double>(0x7FF8000000000001ull);
  const double nan2 = fp::from_bits<double>(0x7FF8000000000002ull);
  const std::vector<std::vector<vgpu::KernelArgs>> batches = {
      {scalar_args(-0.0, +0.0)},
      {scalar_args(-0.0, -0.0)},
      {scalar_args(0.0, nan1)},
      {scalar_args(0.0, nan2)},
  };
  SweepContext sweep;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::uint64_t executed = sweep.runs_executed;
    expect_same_comparisons(compare_batch(set, batches[b], sweep),
                            compare_batch(set, batches[b]),
                            "batch " + std::to_string(b));
    EXPECT_EQ(sweep.runs_executed - executed, 2u) << "batch " << b;
  }
  EXPECT_EQ(sweep.runs_reused, 0u);
  // The same NaN payload again is a hit: a NaN input equals itself.
  compare_batch(set, batches.back(), sweep);
  EXPECT_EQ(sweep.runs_reused, 2u);
}

TEST(RunMemo, EnvOnlyDifferenceMisses) {
  // hipcc vs hipcc-ftz at O0 on FP32: same instructions, different FTZ/DAZ.
  const ir::Program program = accumulate_program(ir::Precision::FP32);
  const auto plain = opt::parse_platform_list("nvcc,hipcc");
  const auto ftz = opt::parse_platform_list("nvcc,hipcc-ftz");
  const CompiledSet a = compile_set(program, plain, opt::OptLevel::O0);
  const CompiledSet b = compile_set(program, ftz, opt::OptLevel::O0);
  ASSERT_EQ(a.exes[1].bytecode().insn_count(), b.exes[1].bytecode().insn_count());
  EXPECT_FALSE(vgpu::same_bytecode(a.exes[1].bytecode(), b.exes[1].bytecode()));
  const double subnormal = static_cast<double>(fp::from_bits<float>(1u));
  const std::vector<vgpu::KernelArgs> inputs = {scalar_args(0.0, subnormal)};
  SweepContext sweep;
  compare_batch(a, inputs, sweep);
  const auto& got = compare_batch(b, inputs, sweep);
  EXPECT_EQ(sweep.runs_reused, 1u);  // nvcc lane only
  EXPECT_EQ(sweep.runs_executed, 3u);
  expect_same_comparisons(got, compare_batch(b, inputs), "hipcc-ftz");
  EXPECT_EQ(got[0].pair_cls[1], DiscrepancyClass::Num_Zero);
}

TEST(RunMemo, MathlibOnlyDifferenceMisses) {
  ir::ProgramBuilder builder(ir::Precision::FP64);
  ir::Arena& A = builder.arena();
  const int x = builder.add_scalar_param();
  builder.assign_comp(ir::AssignOp::Add,
                      ir::make_call(A, ir::MathFn::Sin, ir::make_param(A, x)));
  const ir::Program program = builder.build();
  const opt::PlatformSpec nvcc = *opt::find_platform("nvcc");
  opt::PlatformSpec ocml = nvcc;
  ocml.mathlib = "amd-ocml-sim";
  const CompiledSet a = compile_set(program, {&nvcc, 1}, opt::OptLevel::O0);
  const CompiledSet b = compile_set(program, {&ocml, 1}, opt::OptLevel::O0);
  ASSERT_NE(a.exes[0].mathlib, b.exes[0].mathlib);
  ASSERT_EQ(a.exes[0].env, b.exes[0].env);
  EXPECT_FALSE(vgpu::same_bytecode(a.exes[0].bytecode(), b.exes[0].bytecode()));
  const std::vector<vgpu::KernelArgs> inputs = {scalar_args(0.0, 1e22),
                                                scalar_args(0.0, 0.5)};
  SweepContext sweep;
  compare_batch(a, inputs, sweep);
  expect_same_comparisons(compare_batch(b, inputs, sweep),
                          compare_batch(b, inputs), "amd-ocml-sim");
  EXPECT_EQ(sweep.runs_reused, 0u);
  EXPECT_EQ(sweep.runs_executed, 4u);
}

TEST(RunMemo, ThrowingBatchLeavesNoMemo) {
  // A store to a non-array parameter lowers to a trap that input 1
  // reaches; input 0 skips it.
  ir::Arena A;
  std::vector<ir::Param> params{{ir::ParamKind::Comp, "comp"},
                                {ir::ParamKind::Scalar, "var_1"}};
  std::vector<ir::StmtId> guarded;
  guarded.push_back(ir::make_store_array(A, 1, ir::make_literal(A, 0.0),
                                         ir::make_literal(A, 1.0)));
  std::vector<ir::StmtId> body;
  body.push_back(ir::make_if(
      A,
      ir::make_cmp(A, ir::CmpOp::Ne, ir::make_param(A, 1),
                   ir::make_literal(A, 0.0)),
      guarded));
  body.push_back(
      ir::make_assign_comp(A, ir::AssignOp::Add, ir::make_literal(A, 2.0)));
  const CompiledSet set = compile_pair(
      ir::Program(ir::Precision::FP64, std::move(params), std::move(A),
                  std::move(body)),
      opt::OptLevel::O0);
  const std::vector<vgpu::KernelArgs> good = {scalar_args(1.0, 0.0)};
  const std::vector<vgpu::KernelArgs> bad = {scalar_args(1.0, 0.0),
                                             scalar_args(1.0, 1.0)};
  SweepContext sweep;
  compare_batch(set, good, sweep);
  ASSERT_NE(sweep.memo[0].program, nullptr);
  EXPECT_THROW(compare_batch(set, bad, sweep), std::runtime_error);
  EXPECT_EQ(sweep.memo[0].program, nullptr);
  // The throwing lane's buffer now holds the partial batch; it must run
  // again.  The untouched lane still matches its memo.
  const std::uint64_t executed = sweep.runs_executed;
  expect_same_comparisons(compare_batch(set, good, sweep),
                          compare_batch(set, good), "after throw");
  EXPECT_EQ(sweep.runs_executed - executed, 1u);
}

TEST(RunMemo, TreeBackendReExecutes) {
  const CompiledSet set = compile_pair(
      accumulate_program(ir::Precision::FP64), opt::OptLevel::O2);
  const std::vector<vgpu::KernelArgs> inputs = {scalar_args(1.0, 2.0),
                                                scalar_args(0.0, -3.5)};
  SweepContext sweep;
  compare_batch(set, inputs, sweep);
  compare_batch(set, inputs, sweep);
  EXPECT_EQ(sweep.runs_executed, 4u);
  EXPECT_EQ(sweep.runs_reused, 4u);
  vgpu::set_exec_backend(vgpu::ExecBackend::TreeWalk);
  const auto tree = compare_batch(set, inputs, sweep);
  const auto tree_again = compare_batch(set, inputs, sweep);
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  EXPECT_EQ(sweep.runs_executed, 12u);  // the oracle ran every call
  EXPECT_EQ(sweep.runs_reused, 4u);
  expect_same_comparisons(tree, compare_batch(set, inputs), "tree");
  expect_same_comparisons(tree_again, tree, "tree again");
  compare_batch(set, inputs, sweep);  // memo was dropped under the oracle
  EXPECT_EQ(sweep.runs_executed, 16u);
}

// ---------------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------------

CampaignConfig small_config(int programs = 60) {
  CampaignConfig c;
  c.num_programs = programs;
  c.inputs_per_program = 5;
  c.seed = 1234;
  return c;
}

TEST(Campaign, AccountingIsConsistent) {
  const auto r = run_campaign(small_config());
  EXPECT_EQ(r.levels.size(), 5u);
  EXPECT_EQ(r.per_level.size(), 5u);
  for (const auto& s : r.per_level)
    EXPECT_EQ(s.comparisons, 60u * 5u);
  EXPECT_EQ(r.comparisons_total(), 60u * 5u * 5u);
  EXPECT_EQ(r.runs_total(), 2 * r.comparisons_total());
  // Records match the per-level class counts.
  std::uint64_t recorded = r.records.size();
  EXPECT_EQ(recorded, r.discrepancies_total());
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  auto cfg = small_config();
  cfg.threads = 1;
  const auto r1 = run_campaign(cfg);
  cfg.threads = 4;
  const auto r2 = run_campaign(cfg);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].program_index, r2.records[i].program_index);
    EXPECT_EQ(r1.records[i].printed, r2.records[i].printed);
  }
  for (std::size_t li = 0; li < r1.per_level.size(); ++li)
    EXPECT_EQ(r1.per_level[li].pairs, r2.per_level[li].pairs);
}

TEST(Campaign, O1ThroughO3CountsIdentical) {
  const auto r = run_campaign(small_config(120));
  const auto& o1 = r.stats_for(opt::OptLevel::O1);
  const auto& o2 = r.stats_for(opt::OptLevel::O2);
  const auto& o3 = r.stats_for(opt::OptLevel::O3);
  EXPECT_EQ(o1.pairs[0].class_counts, o2.pairs[0].class_counts);
  EXPECT_EQ(o2.pairs[0].class_counts, o3.pairs[0].class_counts);
  EXPECT_EQ(o1.pairs[0].adjacency, o3.pairs[0].adjacency);
}

TEST(Campaign, AdjacencySumsMatchClassCounts) {
  const auto r = run_campaign(small_config(120));
  for (const auto& s : r.per_level) {
    for (const auto& pair : s.pairs) {
      std::uint64_t adj_total = 0;
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) adj_total += pair.adjacency[i][j];
      EXPECT_EQ(adj_total, pair.discrepancy_total());
    }
  }
}

TEST(Campaign, LevelSubsetsWork) {
  auto cfg = small_config();
  cfg.levels = {opt::OptLevel::O0, opt::OptLevel::O3_FastMath};
  const auto r = run_campaign(cfg);
  EXPECT_EQ(r.per_level.size(), 2u);
  EXPECT_THROW(r.stats_for(opt::OptLevel::O2), std::out_of_range);
  EXPECT_NO_THROW(r.stats_for(opt::OptLevel::O3_FastMath));
}

TEST(Campaign, PaperShapeHolds) {
  // Loose qualitative assertions mirroring the paper's findings; exact
  // counts are configuration-dependent, the *shape* is load-bearing.
  CampaignConfig cfg;
  cfg.num_programs = 400;
  cfg.inputs_per_program = 7;
  cfg.seed = 42;
  const auto fp64 = run_campaign(cfg);
  const auto& o0 = fp64.stats_for(opt::OptLevel::O0);
  const auto& o3 = fp64.stats_for(opt::OptLevel::O3);
  const auto& fm = fp64.stats_for(opt::OptLevel::O3_FastMath);
  // Optimization levels add discrepancies, never remove the O0 baseline.
  EXPECT_GE(o3.discrepancy_total(), o0.discrepancy_total());
  EXPECT_GE(fm.discrepancy_total(), o3.discrepancy_total());
  // Num-Num is the most frequent class at O0 (paper §IV-C.1: "The Number
  // vs. Number discrepancies were the most frequent").
  const auto nn = o0.pairs[0].class_counts[class_index(DiscrepancyClass::Num_Num)];
  for (int ci = 0; ci < kDiscrepancyClassCount; ++ci) {
    if (class_from_index(ci) == DiscrepancyClass::Num_Num) continue;
    EXPECT_GE(nn, o0.pairs[0].class_counts[ci]) << to_string(class_from_index(ci));
  }

  auto cfg32 = cfg;
  cfg32.gen.precision = ir::Precision::FP32;
  const auto fp32 = run_campaign(cfg32);
  // FP32 fast math explodes relative to FP32 O3 (paper: 90 -> 13,877).
  EXPECT_GT(fp32.stats_for(opt::OptLevel::O3_FastMath).discrepancy_total(),
            5 * fp32.stats_for(opt::OptLevel::O3).discrepancy_total());

  // HIPIFY conversion adds discrepancies relative to native HIP
  // (paper Table IV: 2,426 -> 2,716).
  auto cfg_h = cfg;
  cfg_h.hipify_converted = true;
  const auto hip = run_campaign(cfg_h);
  EXPECT_GE(hip.discrepancies_total(), fp64.discrepancies_total());
}

// ---------------------------------------------------------------------------
// metadata (between-platform protocol)
// ---------------------------------------------------------------------------

TEST(Metadata, TwoSystemFlowMatchesDirectCampaign) {
  const auto cfg = small_config(40);
  // System 1: create + run nvcc side.  System 2: run hipcc side.
  Metadata md = Metadata::create(cfg);
  const auto& nvcc = *opt::find_platform("nvcc");
  const auto& hipcc = *opt::find_platform("hipcc");
  EXPECT_FALSE(md.has_platform(nvcc));
  md.record_platform(nvcc);
  EXPECT_TRUE(md.has_platform(nvcc));
  EXPECT_FALSE(md.has_platform(hipcc));
  md.record_platform(hipcc);
  const CampaignResults via_metadata = md.analyze();
  const CampaignResults direct = run_campaign(cfg);
  ASSERT_EQ(via_metadata.per_level.size(), direct.per_level.size());
  for (std::size_t li = 0; li < direct.per_level.size(); ++li) {
    EXPECT_EQ(via_metadata.per_level[li].pairs, direct.per_level[li].pairs)
        << "level " << li;
  }
}

TEST(Metadata, SaveLoadRoundTrip) {
  const auto cfg = small_config(10);
  Metadata md = Metadata::create(cfg);
  md.record_platform(*opt::find_platform("nvcc"));
  const auto path = std::filesystem::temp_directory_path() / "gpudiff_md_test.json";
  md.save(path.string());
  Metadata loaded = Metadata::load(path.string());
  EXPECT_EQ(loaded.json(), md.json());
  // Second system continues from the file.
  loaded.record_platform(*opt::find_platform("hipcc"));
  EXPECT_NO_THROW(loaded.analyze());
  std::filesystem::remove(path);
}

TEST(Metadata, AnalyzeRequiresAllPlatforms) {
  Metadata md = Metadata::create(small_config(5));
  EXPECT_THROW(md.analyze(), std::runtime_error);
  md.record_platform(*opt::find_platform("nvcc"));
  EXPECT_THROW(md.analyze(), std::runtime_error);
}

TEST(Metadata, TestsRegenerateFromFile) {
  const auto cfg = small_config(8);
  Metadata md = Metadata::create(cfg);
  EXPECT_EQ(md.test_count(), 8u);
  gen::Generator g(cfg.gen, cfg.seed);
  for (std::size_t i = 0; i < md.test_count(); ++i) {
    EXPECT_EQ(md.test_program(i).dump(), g.generate(i).dump());
    EXPECT_EQ(md.test_inputs(i).size(), static_cast<std::size_t>(cfg.inputs_per_program));
  }
}

TEST(Metadata, RejectsForeignJson) {
  EXPECT_THROW(Metadata::from_json(support::Json::parse(R"({"format":"other"})")),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// reports
// ---------------------------------------------------------------------------

TEST(Report, SummaryHasPaperRows) {
  const auto r64 = run_campaign(small_config(30));
  auto cfg_h = small_config(30);
  cfg_h.hipify_converted = true;
  const auto rh = run_campaign(cfg_h);
  auto cfg32 = small_config(30);
  cfg32.gen.precision = ir::Precision::FP32;
  const auto r32 = run_campaign(cfg32);
  const std::string s = render_summary(r64, rh, r32);
  EXPECT_NE(s.find("Total Programs"), std::string::npos);
  EXPECT_NE(s.find("Total Discrepancies (% of Total Runs)"), std::string::npos);
  EXPECT_NE(s.find("FP64 with HIPIFY"), std::string::npos);
  EXPECT_NE(s.find("Runs on HIPCC"), std::string::npos);
}

TEST(Report, PerLevelHasAllRowsAndTotals) {
  const auto r = run_campaign(small_config(30));
  const std::string s = render_per_level(r, "TEST TABLE");
  for (const char* row : {"O0", "O1", "O2", "O3", "O3_FM", "Total"})
    EXPECT_NE(s.find(row), std::string::npos) << row;
  for (const char* col : {"NaN, Inf", "Num, Zero", "Num, Num"})
    EXPECT_NE(s.find(col), std::string::npos) << col;
}

TEST(Report, AdjacencyRendersPerLevelMatrices) {
  const auto r = run_campaign(small_config(30));
  const std::string s = render_adjacency(r, "ADJ");
  EXPECT_NE(s.find("Opt: O0"), std::string::npos);
  EXPECT_NE(s.find("Opt: O3_FM"), std::string::npos);
  EXPECT_NE(s.find("NVCC \\ HIPCC"), std::string::npos);
  EXPECT_NE(s.find("(±) NaN"), std::string::npos);
}

TEST(Report, RecordsDrillDown) {
  const auto r = run_campaign(small_config(120));
  const std::string s = render_records(r, 5);
  EXPECT_NE(s.find("NVCC output"), std::string::npos);
}

}  // namespace
