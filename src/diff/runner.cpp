#include "diff/runner.hpp"

#include <algorithm>
#include <stdexcept>

namespace gpudiff::diff {

namespace {

PlatformResult to_platform_result(const vgpu::RunResult& run,
                                  ir::Precision precision) {
  PlatformResult out;
  out.value = run.value;
  out.bits = run.value_bits;
  out.flags = run.flags;
  out.op_count = run.op_count;
  if (precision == ir::Precision::FP32) {
    out.outcome = fp::outcome_of(
        fp::from_bits<float>(static_cast<std::uint32_t>(run.value_bits)));
  } else {
    out.outcome = fp::outcome_of(fp::from_bits<double>(run.value_bits));
  }
  return out;
}

/// Classify every lane of `cmp` against lane 0 and set the representative
/// class.  One definition shared by the single-run and batched paths so
/// they cannot drift.
void classify_lanes(ComparisonResult& cmp) {
  cmp.cls = DiscrepancyClass::None;
  cmp.pair_cls[0] = DiscrepancyClass::None;
  const PlatformResult& base = cmp.platforms[0];
  for (std::uint32_t p = 1; p < cmp.count; ++p) {
    const DiscrepancyClass cls =
        classify_pair(base.outcome, base.bits, cmp.platforms[p].outcome,
                      cmp.platforms[p].bits);
    cmp.pair_cls[p] = cls;
    if (cmp.cls == DiscrepancyClass::None) cmp.cls = cls;
  }
}

}  // namespace

CompiledSet compile_set(const ir::Program& program,
                        std::span<const opt::PlatformSpec> platforms,
                        opt::OptLevel level, bool hipify_converted) {
  if (platforms.empty())
    throw std::invalid_argument("compile_set: empty platform list");
  if (platforms.size() > opt::kMaxPlatforms)
    throw std::invalid_argument("compile_set: more than kMaxPlatforms");
  CompiledSet set;
  set.exes.reserve(platforms.size());
  for (const opt::PlatformSpec& spec : platforms)
    set.exes.push_back(opt::compile(program, spec, level, hipify_converted));
  return set;
}

CompiledSet compile_pair(const ir::Program& program, opt::OptLevel level,
                         bool hipify_converted) {
  const auto platforms = opt::default_platforms();
  return compile_set(program, platforms, level, hipify_converted);
}

ComparisonResult compare_run(const CompiledSet& set, const vgpu::KernelArgs& args) {
  const ir::Precision prec = set.precision();
  ComparisonResult out;
  out.count = static_cast<std::uint32_t>(set.size());
  for (std::size_t p = 0; p < set.size(); ++p)
    out.platforms[p] = to_platform_result(vgpu::run_kernel(set.exes[p], args), prec);
  classify_lanes(out);
  return out;
}

const std::vector<ComparisonResult>& compare_batch(
    const CompiledSet& set, std::span<const vgpu::KernelArgs> inputs,
    SweepContext& ctx) {
  const ir::Precision prec = set.precision();
  if (ctx.runs.size() < set.size()) {
    ctx.runs.resize(set.size());
    ctx.memo.resize(set.size());
  }
  const bool vm = vgpu::exec_backend() == vgpu::ExecBackend::Bytecode;
  for (std::size_t p = 0; p < set.size(); ++p) {
    SweepContext::LaneMemo& memo = ctx.memo[p];
    const opt::Executable& exe = set.exes[p];
    if (vm && memo.program &&
        vgpu::same_bytecode(*memo.program, exe.bytecode()) &&
        std::equal(inputs.begin(), inputs.end(), memo.inputs.begin(),
                   memo.inputs.end())) {
      ctx.runs_reused += inputs.size();
      continue;
    }
    // Forget the lane before running: a throw must leave no memo behind.
    memo.program.reset();
    ctx.runs[p].resize(inputs.size());
    vgpu::run_kernel_batch(exe, inputs, ctx.runs[p].data(), ctx.exec);
    ctx.runs_executed += inputs.size();
    if (vm) {
      memo.inputs.assign(inputs.begin(), inputs.end());
      memo.program = exe.bytecode_cache;
    }
  }
  ctx.cmps.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ComparisonResult& cmp = ctx.cmps[i];
    cmp.count = static_cast<std::uint32_t>(set.size());
    for (std::size_t p = 0; p < set.size(); ++p)
      cmp.platforms[p] = to_platform_result(ctx.runs[p][i], prec);
    classify_lanes(cmp);
  }
  return ctx.cmps;
}

std::vector<ComparisonResult> compare_batch(
    const CompiledSet& set, std::span<const vgpu::KernelArgs> inputs) {
  SweepContext ctx;
  return compare_batch(set, inputs, ctx);
}

ComparisonResult run_differential(const ir::Program& program,
                                  const vgpu::KernelArgs& args,
                                  opt::OptLevel level, bool hipify_converted) {
  return compare_run(compile_pair(program, level, hipify_converted), args);
}

}  // namespace gpudiff::diff
