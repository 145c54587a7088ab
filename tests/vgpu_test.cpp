// Tests for the virtual GPU: FPU semantics (with exception tracking),
// kernel interpretation, argument handling, and pseudo-assembly output.

#include <gtest/gtest.h>

#include <cmath>

#include "fp/bits.hpp"
#include "ir/builder.hpp"
#include "opt/pipeline.hpp"
#include "vgpu/args.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fpu.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/pseudo_asm.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::ir;
using namespace gpudiff::vgpu;

// ---------------------------------------------------------------------------
// Fpu
// ---------------------------------------------------------------------------

struct FpuCase {
  const char* name;
  double a, b;
  char op;  // '+', '-', '*', '/'
  double expected;           // NaN compares via isnan
  std::uint8_t expected_bits;  // exception flags that must be raised
};

class FpuSemantics : public ::testing::TestWithParam<FpuCase> {};

TEST_P(FpuSemantics, OperationAndFlags) {
  const FpuCase& c = GetParam();
  fp::FpEnv env;
  fp::ExceptionFlags flags;
  Fpu<double> fpu(env, flags);
  double r = 0;
  switch (c.op) {
    case '+': r = fpu.add(c.a, c.b); break;
    case '-': r = fpu.sub(c.a, c.b); break;
    case '*': r = fpu.mul(c.a, c.b); break;
    case '/': r = fpu.div(c.a, c.b); break;
  }
  if (std::isnan(c.expected)) {
    EXPECT_TRUE(std::isnan(r)) << c.name;
  } else {
    EXPECT_EQ(fp::to_bits(r), fp::to_bits(c.expected)) << c.name;
  }
  EXPECT_EQ(flags.raw() & c.expected_bits, c.expected_bits)
      << c.name << ": got " << flags.to_string();
}

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

INSTANTIATE_TEST_SUITE_P(
    Cases, FpuSemantics,
    ::testing::Values(
        FpuCase{"exact add", 1.0, 2.0, '+', 3.0, 0},
        FpuCase{"inexact add", 1.0, 1e-30, '+', 1.0 + 1e-30, fp::kInexact},
        FpuCase{"overflow add", 1.7e308, 1.7e308, '+', kInf,
                fp::kOverflow | fp::kInexact},
        FpuCase{"inf minus inf", kInf, kInf, '-', kNaN, fp::kInvalid},
        FpuCase{"exact mul", 1.5, 2.0, '*', 3.0, 0},
        FpuCase{"overflow mul", 1e200, 1e200, '*', kInf,
                fp::kOverflow | fp::kInexact},
        FpuCase{"underflow mul", 1e-200, 1e-200, '*', 0.0, fp::kUnderflow},
        FpuCase{"subnormal mul", 1e-160, 1e-160, '*', 1e-320, fp::kUnderflow},
        FpuCase{"zero times inf", 0.0, kInf, '*', kNaN, fp::kInvalid},
        FpuCase{"exact div", 6.0, 3.0, '/', 2.0, 0},
        FpuCase{"div by zero", 1.0, 0.0, '/', kInf, fp::kDivideByZero},
        FpuCase{"neg div by zero", -1.0, 0.0, '/', -kInf, fp::kDivideByZero},
        FpuCase{"zero over zero", 0.0, 0.0, '/', kNaN, fp::kInvalid},
        FpuCase{"inf over inf", kInf, kInf, '/', kNaN, fp::kInvalid}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& ch : n)
        if (ch == ' ') ch = '_';
      return n;
    });

TEST(Fpu, FtzAndDazFloat) {
  fp::FpEnv env;
  env.ftz32 = true;
  env.daz32 = true;
  fp::ExceptionFlags flags;
  Fpu<float> fpu(env, flags);
  // DAZ: subnormal input treated as zero -> 0 * 1e30 = 0 (not ~1e-15).
  EXPECT_EQ(fpu.mul(1e-44f, 1e30f), 0.0f);
  // FTZ: subnormal result flushed.
  EXPECT_EQ(fpu.mul(1e-30f, 1e-15f), 0.0f);
  EXPECT_TRUE(flags.underflow());
  // Sign preserved by flush.
  EXPECT_TRUE(fp::sign_bit(fpu.mul(-1e-30f, 1e-15f)));
}

TEST(Fpu, Div32Modes) {
  fp::ExceptionFlags flags;
  // NvApprox: |denominator| > 2^126 -> signed zero.
  fp::FpEnv nv_env;
  nv_env.div32 = fp::Div32Mode::NvApprox;
  Fpu<float> nv(nv_env, flags);
  EXPECT_EQ(nv.div(1.0f, 1.5e38f), 0.0f);
  EXPECT_TRUE(fp::sign_bit(nv.div(-1.0f, 1.5e38f)));
  // AmdApprox: same input stays a (tiny) number.
  fp::FpEnv amd_env;
  amd_env.div32 = fp::Div32Mode::AmdApprox;
  Fpu<float> amd(amd_env, flags);
  EXPECT_GT(amd.div(1.0f, 1.5e38f), 0.0f);
  // Both approximate modes stay close to IEEE for ordinary values.
  fp::FpEnv ieee_env;
  Fpu<float> ieee(ieee_env, flags);
  const float x = 7.3f, y = 1.9f;
  EXPECT_NEAR(nv.div(x, y), ieee.div(x, y), 1e-6f);
  EXPECT_NEAR(amd.div(x, y), ieee.div(x, y), 1e-6f);
}

TEST(Fpu, FmaSingleRounding) {
  fp::FpEnv env;
  fp::ExceptionFlags flags;
  Fpu<double> fpu(env, flags);
  const double a = 1.0 + 0x1p-52;
  const double b = 1.0 - 0x1p-52;
  EXPECT_EQ(fpu.fma_op(a, b, -1.0), -0x1p-104);
}

// ---------------------------------------------------------------------------
// KernelArgs
// ---------------------------------------------------------------------------

Program sample_program() {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  const int x = b.add_scalar_param();
  const int arr = b.add_array_param();
  b.begin_for(n);
  b.assign_comp(AssignOp::Add, make_array(A, arr, make_loop_var(A, 0)));
  b.assign_comp(AssignOp::Add, make_param(A, x));
  b.end_block();
  return b.build();
}

TEST(KernelArgs, VarityStringFormat) {
  const Program p = sample_program();
  KernelArgs args;
  args.fp = {0.0, 0.0, -1.5955e-125, 2.5};
  args.ints = {0, 5, 0, 0};
  const std::string s = args.to_varity_string(p);
  EXPECT_EQ(s, "+0.0 5 -1.59549999999999999E-125 +2.50000000000000000E+00");
}

TEST(KernelArgs, JsonRoundTrip) {
  const Program p = sample_program();
  KernelArgs args;
  args.fp = {-0.0, 0.0, 1e-310, 3.5};
  args.ints = {0, 7, 0, 0};
  const KernelArgs back = KernelArgs::from_json(args.to_json(p), p);
  EXPECT_EQ(back, args);  // bitwise: the -0.0 and the subnormal survive
}

TEST(KernelArgs, EqualityIsBitwise) {
  const auto make = [](double x) {
    KernelArgs args;
    args.fp = {0.0, x};
    args.ints = {0, 3};
    return args;
  };
  EXPECT_EQ(make(1.5), make(1.5));
  EXPECT_NE(make(0.0), make(-0.0));
  const double nan1 = fp::from_bits<double>(0x7FF8000000000001ull);
  const double nan2 = fp::from_bits<double>(0x7FF8000000000002ull);
  EXPECT_EQ(make(nan1), make(nan1));  // a NaN equals itself
  EXPECT_NE(make(nan1), make(nan2));  // but not another payload
  EXPECT_NE(make(nan1), make(-nan1));
  const double sub1 = fp::from_bits<double>(1ull);
  const double sub2 = fp::from_bits<double>(2ull);
  EXPECT_EQ(make(sub1), make(sub1));
  EXPECT_NE(make(sub1), make(sub2));
  EXPECT_NE(make(sub1), make(0.0));
  KernelArgs other_ints = make(1.5);
  other_ints.ints[1] = 4;
  EXPECT_NE(other_ints, make(1.5));
  KernelArgs shorter = make(1.5);
  shorter.fp.pop_back();
  EXPECT_NE(shorter, make(1.5));
}

TEST(KernelArgs, JsonRejectsWrongArity) {
  const Program p = sample_program();
  support::Json arr = support::Json::array();
  arr.push_back(support::Json("64:0000000000000000"));
  EXPECT_THROW(KernelArgs::from_json(arr, p), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

opt::Executable compile_o0(const Program& p,
                           opt::Toolchain t = opt::Toolchain::Nvcc) {
  return opt::compile(p, {t, opt::OptLevel::O0, false});
}

TEST(Interp, LoopAccumulation) {
  const Program p = sample_program();
  KernelArgs args;
  args.fp = {1.0, 0.0, 0.25, 2.0};  // comp=1, x=0.25, array filled with 2.0
  args.ints = {0, 4, 0, 0};
  const RunResult r = run_kernel(compile_o0(p), args);
  // comp = 1 + 4*(2.0 + 0.25) = 10
  EXPECT_EQ(r.value, 10.0);
  EXPECT_EQ(r.printed(), "10");
  EXPECT_GT(r.op_count, 0u);
}

TEST(Interp, ZeroTripLoopSkipsBody) {
  const Program p = sample_program();
  KernelArgs args;
  args.fp = {7.0, 0.0, 1.0, 1.0};
  args.ints = {0, 0, 0, 0};
  EXPECT_EQ(run_kernel(compile_o0(p), args).value, 7.0);
}

TEST(Interp, ArrayStoreAndLoad) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  const int arr = b.add_array_param();
  b.begin_for(n);
  b.store_array(arr, make_loop_var(A, 0),
                make_bin(A, BinOp::Mul, make_literal(A, 2.0),
                         make_array(A, arr, make_loop_var(A, 0))));
  b.assign_comp(AssignOp::Add, make_array(A, arr, make_loop_var(A, 0)));
  b.end_block();
  const Program p = b.build();
  KernelArgs args;
  args.fp = {0.0, 0.0, 3.0};
  args.ints = {0, 2, 0};
  // Each iteration doubles its element then adds it: 6 + 6 = 12.
  EXPECT_EQ(run_kernel(compile_o0(p), args).value, 12.0);
}

TEST(Interp, TempsAndCompoundOps) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  const int t = b.decl_temp(make_bin(A, BinOp::Add, make_param(A, x), make_literal(A, 1.0)));
  b.assign_comp(AssignOp::Set, make_temp(A, t));
  b.assign_comp(AssignOp::Mul, make_literal(A, 3.0));
  b.assign_comp(AssignOp::Div, make_literal(A, 2.0));
  b.assign_comp(AssignOp::Sub, make_literal(A, 0.5));
  const Program p = b.build();
  KernelArgs args;
  args.fp = {99.0, 3.0};  // comp ignored by Set; x=3
  args.ints = {0, 0};
  // ((3+1) * 3) / 2 - 0.5 = 5.5
  EXPECT_EQ(run_kernel(compile_o0(p), args).value, 5.5);
}

TEST(Interp, IfConditionSemanticsWithNaN) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.begin_if(make_cmp(A, CmpOp::Ge, make_param(A, x), make_literal(A, 0.0)));
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  b.end_block();
  b.begin_if(make_not(A, make_cmp(A, CmpOp::Ge, make_param(A, x), make_literal(A, 0.0))));
  b.assign_comp(AssignOp::Add, make_literal(A, 2.0));
  b.end_block();
  const Program p = b.build();
  KernelArgs args;
  args.fp = {0.0, fp::quiet_nan<double>()};
  args.ints = {0, 0};
  // NaN >= 0 is false; !(NaN >= 0) is true -> only +2 fires.
  EXPECT_EQ(run_kernel(compile_o0(p), args).value, 2.0);
}

TEST(Interp, BooleanOperatorsShortCircuitValue) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.begin_if(make_bool(A, BoolOp::Or,
                       make_cmp(A, CmpOp::Lt, make_param(A, x), make_literal(A, 0.0)),
                       make_cmp(A, CmpOp::Gt, make_param(A, x), make_literal(A, 10.0))));
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  b.end_block();
  const Program p = b.build();
  KernelArgs inside;
  inside.fp = {0.0, 5.0};
  inside.ints = {0, 0};
  EXPECT_EQ(run_kernel(compile_o0(p), inside).value, 0.0);
  KernelArgs outside;
  outside.fp = {0.0, -1.0};
  outside.ints = {0, 0};
  EXPECT_EQ(run_kernel(compile_o0(p), outside).value, 1.0);
}

TEST(Interp, Fp32ExecutesInSinglePrecision) {
  ProgramBuilder b(Precision::FP32);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(AssignOp::Add, make_bin(A, BinOp::Add, make_param(A, x), make_literal(A, 1.0)));
  const Program p = b.build();
  KernelArgs args;
  args.fp = {0.0, static_cast<double>(1e-10f)};
  args.ints = {0, 0};
  // In binary32, 1e-10 + 1 rounds to exactly 1.
  const RunResult r = run_kernel(compile_o0(p), args);
  EXPECT_EQ(r.value, 1.0);
  EXPECT_EQ(r.printed(), "1");
}

TEST(Interp, ExceptionFlagsSurface) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(AssignOp::Add, make_bin(A, BinOp::Div, make_literal(A, 1.0), make_param(A, x)));
  const Program p = b.build();
  KernelArgs args;
  args.fp = {0.0, 0.0};
  args.ints = {0, 0};
  const RunResult r = run_kernel(compile_o0(p), args);
  EXPECT_TRUE(std::isinf(r.value));
  EXPECT_TRUE(r.flags.divide_by_zero());
}

TEST(Interp, MathCallGoesThroughBoundLibrary) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_call(A, MathFn::Ceil, make_literal(A, 1.5955e-125)));
  const Program p = b.build();
  KernelArgs args;
  args.fp = {0.0};
  args.ints = {0};
  EXPECT_EQ(run_kernel(compile_o0(p, opt::Toolchain::Nvcc), args).value, 0.0);
  EXPECT_EQ(run_kernel(compile_o0(p, opt::Toolchain::Hipcc), args).value, 1.0);
}

TEST(Interp, ArgumentMismatchThrows) {
  const Program p = sample_program();
  KernelArgs bad;
  bad.fp = {1.0};
  bad.ints = {0};
  EXPECT_THROW(run_kernel(compile_o0(p), bad), std::runtime_error);
}

TEST(Interp, DeterministicAcrossRuns) {
  const Program p = sample_program();
  KernelArgs args;
  args.fp = {0.1, 0.0, 1e300, -2e-308};
  args.ints = {0, 6, 0, 0};
  const auto exe = compile_o0(p);
  const auto r1 = run_kernel(exe, args);
  const auto r2 = run_kernel(exe, args);
  EXPECT_EQ(r1.value_bits, r2.value_bits);
  EXPECT_EQ(r1.op_count, r2.op_count);
}

// ---------------------------------------------------------------------------
// Devices & pseudo-assembly
// ---------------------------------------------------------------------------

TEST(Device, DescriptorsPairToolchains) {
  EXPECT_EQ(device_for(opt::Toolchain::Nvcc).name, "V100-sim");
  EXPECT_EQ(device_for(opt::Toolchain::Hipcc).name, "MI250X-sim");
  EXPECT_EQ(nvidia_v100_sim().cluster, "Lassen");
  EXPECT_EQ(amd_mi250x_sim().cluster, "Tioga");
}

TEST(PseudoAsm, ShowsLibrarySymbolsPerVendor) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(AssignOp::Add, make_call(A, MathFn::Fmod, make_param(A, x), make_literal(A, 2.0)));
  const Program p = b.build();
  const std::string nv =
      disassemble(opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O0, false}));
  const std::string amd =
      disassemble(opt::compile(p, {opt::Toolchain::Hipcc, opt::OptLevel::O0, false}));
  EXPECT_NE(nv.find("__nv_fmod"), std::string::npos);
  EXPECT_NE(nv.find("PTX-sim"), std::string::npos);
  EXPECT_NE(amd.find("__ocml_fmod_f64"), std::string::npos);
  EXPECT_NE(amd.find("GCN-sim"), std::string::npos);
}

TEST(PseudoAsm, ShowsFmaAfterContraction) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Add, make_bin(A, BinOp::Mul, make_param(A, x), make_param(A, x)),
                         make_literal(A, 1.0)));
  const Program p = b.build();
  const std::string o0 =
      disassemble(opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O0, false}));
  EXPECT_EQ(o0.find("fma.rn.f64"), std::string::npos);
  const std::string o1 =
      disassemble(opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O1, false}));
  EXPECT_NE(o1.find("fma.rn.f64"), std::string::npos);
}

TEST(PseudoAsm, MarksIfConversion) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.begin_if(make_cmp(A, CmpOp::Gt, make_param(A, x), make_literal(A, 0.0)));
  b.assign_comp(AssignOp::Add, make_param(A, x));
  b.end_block();
  const Program p = b.build();
  const std::string amd =
      disassemble(opt::compile(p, {opt::Toolchain::Hipcc, opt::OptLevel::O1, false}));
  EXPECT_NE(amd.find("if-conversion"), std::string::npos);
  const std::string nv =
      disassemble(opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O1, false}));
  EXPECT_EQ(nv.find("if-conversion"), std::string::npos);
}

TEST(PseudoAsm, LoopsRenderLabels) {
  const Program p = sample_program();
  const std::string nv =
      disassemble(opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O0, false}));
  EXPECT_NE(nv.find("LBB_0"), std::string::npos);
  const std::string amd =
      disassemble(opt::compile(p, {opt::Toolchain::Hipcc, opt::OptLevel::O0, false}));
  EXPECT_NE(amd.find("BB_0"), std::string::npos);
  EXPECT_NE(amd.find("s_endpgm"), std::string::npos);
}

}  // namespace
