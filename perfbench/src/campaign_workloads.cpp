// paper, paper-mt and compile-heavy: in-process differential campaigns.
//
// Untraced runs call diff::run_campaign_range (the whole of run_campaign
// minus its header copy) over a seeded list of rounds, sized from the time
// budget, in several passes; each round's cost and per-program latencies
// (from the completion hook) are those of its fastest pass.  Traced runs
// cycle the same list and drive the same per-program sequence of public
// calls the campaign makes — generate, inputs, opt::compile per platform
// and level, diff::compare_batch, record building — with a span around
// each, so the named layers' self times add up to the untraced time.
// Beside every replica round the traced run also times the untraced round
// itself (run_campaign_range, which has no spans inside), alternating
// which goes first.  That reference gives trace.coverage a denominator
// taken on the same machine moment, and two checks: the replica must
// reproduce run_campaign_range's results, and its cost must stay within
// kReplicaDriftTolerance of the reference's.  This replica has to be
// updated whenever run_campaign_range changes how it does its work; the
// drift check fails when it has not been.
//
// Correctness, outside the timed region: a seeded sample of each round's
// programs is re-run through the tree-walk oracle (vgpu::run_kernel_tree),
// which must reproduce the VM's bits, flags, op counts and verdicts, and
// the round's discrepancy records; every later pass must reproduce the
// first pass's results.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "common.hpp"
#include "diff/campaign.hpp"
#include "diff/runner.hpp"
#include "emit/emit.hpp"
#include "fp/bits.hpp"
#include "fp/hexfloat.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "hipify/hipify.hpp"
#include "opt/platform.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"
#include "vmath/mathlib.hpp"

namespace perfbench {
namespace {

using namespace gpudiff;

// Paper scale is 3,540 FP64 and 2,840 FP32 programs; one round pair runs a
// tenth of each, so every whole pair keeps the paper's ratio exactly.
constexpr int kPaperFp64Programs = 354;
constexpr int kPaperFp32Programs = 284;
constexpr int kCompileHeavyPrograms = 256;
constexpr int kWarmupPrograms = 192;
// Nominal one-thread rates on a 4-core shared Xeon (Release), which size
// the untraced work list from --seconds, and the speed-up paper-mt
// nominally reaches at kMtThreads threads.
constexpr double kPaperProgramsPerS = 3000.0;
constexpr double kCompileHeavyProgramsPerS = 5000.0;
constexpr double kMtSpeedup = 3.0;
constexpr unsigned kMtThreads = 4;
// The warm-up is the same work for every seed, so setup_s compares across
// runs; the measured rounds are what the seed varies.
constexpr std::uint64_t kWarmupSeed = 0x5e7a;
constexpr int kOracleSamplesPerRound = 3;
// Median traced-replica/untraced cost ratio, minus 1, beyond which the
// replica no longer stands for run_campaign_range.  On a shared 4-core
// Xeon it read 0.02-0.06 over 15 s runs and up to 0.11 at smoke scale
// (span and aside bookkeeping); one redundant compile_set per level
// inside run_campaign_range moves it well past the tolerance.
constexpr double kReplicaDriftTolerance = 0.15;
// A traced run keeps going until it has this many rounds, however short
// its time budget, so a few slow rounds cannot decide the drift check.
constexpr std::size_t kMinDriftRounds = 32;

bool compile_heavy(const Options& o) { return o.workload == "compile-heavy"; }

diff::CampaignConfig round_config(const Options& o, ir::Precision precision,
                                  std::uint64_t seed, int programs) {
  diff::CampaignConfig cfg;
  cfg.gen.precision = precision;
  cfg.seed = seed;
  cfg.num_programs = programs;
  cfg.threads = o.threads;
  if (compile_heavy(o)) {
    // Tables VII/VIII shape: one input, every registry platform, HIPIFY
    // conversion — the front end dominates.
    cfg.inputs_per_program = 1;
    cfg.platforms =
        opt::parse_platform_list("nvcc,hipcc,hipcc-ftz,nvcc-fastmath");
    cfg.hipify_converted = true;
  } else {
    cfg.inputs_per_program = 7;
    cfg.platforms = opt::default_platforms();
  }
  return cfg;
}

/// The configs of round `r`: an FP64 and an FP32 campaign for paper
/// shapes, one FP64 campaign for compile-heavy.
std::vector<diff::CampaignConfig> round_configs(const Options& o,
                                                std::uint64_t r) {
  const std::uint64_t seed = derive_seed(o.seed, r + 1);
  if (compile_heavy(o))
    return {round_config(o, ir::Precision::FP64, seed, kCompileHeavyPrograms)};
  return {round_config(o, ir::Precision::FP64, seed, kPaperFp64Programs),
          round_config(o, ir::Precision::FP32, seed ^ 0x32, kPaperFp32Programs)};
}

/// compile-heavy's front-end pass over one program: the CUDA rendering and
/// its HIPIFY translation, which the paper's third experiment performs.
int emit_and_hipify(const ir::Program& program) {
  const std::string cuda = emit::emit_cuda(program);
  return hipify::hipify_source(cuda).replacements;
}

fp::Outcome outcome_of_bits(ir::Precision p, std::uint64_t bits) {
  if (p == ir::Precision::FP32)
    return fp::outcome_of(fp::from_bits<float>(static_cast<std::uint32_t>(bits)));
  return fp::outcome_of(fp::from_bits<double>(bits));
}

bool same_record(const diff::DiscrepancyRecord& a,
                 const diff::DiscrepancyRecord& b) {
  return a.program_index == b.program_index && a.input_index == b.input_index &&
         a.level == b.level && a.cls == b.cls && a.outcomes == b.outcomes &&
         a.printed == b.printed && a.pair_cls == b.pair_cls;
}

bool same_outcome(const diff::RangeOutcome& a, const diff::RangeOutcome& b) {
  if (a.per_level != b.per_level || a.records.size() != b.records.size())
    return false;
  for (std::size_t i = 0; i < a.records.size(); ++i)
    if (!same_record(a.records[i], b.records[i])) return false;
  return true;
}

/// Re-run sampled programs of a finished round through the tree-walk
/// oracle.  One check per (program, level, input).
void oracle_check(const diff::CampaignConfig& cfg,
                  const diff::RangeOutcome& out, support::Rng& rng,
                  bool corrupt, Report& report) {
  const gen::Generator generator(cfg.gen, cfg.seed);
  const gen::InputGenerator input_gen(cfg.seed);
  const ir::Precision prec = cfg.gen.precision;
  const bool capped = out.records.size() >= cfg.max_records;
  for (int s = 0; s < kOracleSamplesPerRound; ++s) {
    const std::uint64_t pi =
        rng.below(static_cast<std::uint64_t>(cfg.num_programs));
    const ir::Program program = generator.generate(pi);
    std::vector<vgpu::KernelArgs> inputs;
    for (int ii = 0; ii < cfg.inputs_per_program; ++ii)
      inputs.push_back(input_gen.generate(program, pi, ii));
    std::map<std::pair<int, opt::OptLevel>, const diff::DiscrepancyRecord*> recs;
    for (const auto& rec : out.records)
      if (rec.program_index == pi) recs[{rec.input_index, rec.level}] = &rec;

    for (const opt::OptLevel level : cfg.levels) {
      const diff::CompiledSet set =
          diff::compile_set(program, cfg.platforms, level, cfg.hipify_converted);
      const std::vector<diff::ComparisonResult> cmps =
          diff::compare_batch(set, inputs);
      for (int ii = 0; ii < cfg.inputs_per_program; ++ii) {
        const diff::ComparisonResult& vm = cmps[static_cast<std::size_t>(ii)];
        bool ok = vm.count == set.size();
        std::vector<vgpu::RunResult> tree;
        for (const opt::Executable& exe : set.exes)
          tree.push_back(vgpu::run_kernel_tree(exe, inputs[static_cast<std::size_t>(ii)]));
        if (corrupt) {
          tree[0].value_bits ^= 1;  // a deliberately wrong reference answer
          corrupt = false;
        }
        std::vector<diff::DiscrepancyClass> verdict(set.size(),
                                                    diff::DiscrepancyClass::None);
        const fp::Outcome base = outcome_of_bits(prec, tree[0].value_bits);
        for (std::size_t p = 0; p < set.size() && ok; ++p) {
          const diff::PlatformResult& v = vm.platforms[p];
          ok = tree[p].value_bits == v.bits &&
               tree[p].flags.raw() == v.flags.raw() &&
               tree[p].op_count == v.op_count;
          if (p > 0)
            verdict[p] = diff::classify_pair(
                base, tree[0].value_bits,
                outcome_of_bits(prec, tree[p].value_bits), tree[p].value_bits);
          ok = ok && verdict[p] == vm.pair_cls[p];
        }
        bool discrepant = false;
        for (const auto c : verdict)
          discrepant = discrepant || c != diff::DiscrepancyClass::None;
        const auto it = recs.find({ii, level});
        if (ok && it != recs.end()) {
          ok = discrepant && it->second->pair_cls == verdict;
          for (std::size_t p = 0; p < set.size() && ok; ++p)
            ok = it->second->printed[p] == fp::print_g17(tree[p].value);
        } else if (ok) {
          ok = !discrepant || capped;
        }
        char what[160];
        std::snprintf(what, sizeof what,
                      "oracle disagrees: seed %llu program %llu input %d level %s",
                      static_cast<unsigned long long>(cfg.seed),
                      static_cast<unsigned long long>(pi), ii,
                      opt::to_string(level).c_str());
        report.check(ok, what);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Untraced: run_campaign_range round after round.
// ---------------------------------------------------------------------------

/// One round as a user runs it: run_campaign_range, then for compile-heavy
/// the front-end pass over its programs.  Returns its wall time; each
/// program's front-end time goes to `front_end_ms` when it is given.
double untraced_round(const Options& o, const diff::CampaignConfig& cfg,
                      diff::RangeOutcome& out,
                      const diff::RangeHooks& hooks = {},
                      std::vector<double>* front_end_ms = nullptr) {
  const std::int64_t t0 = now_ns();
  out = diff::run_campaign_range(cfg, 0, static_cast<std::uint64_t>(cfg.num_programs),
                                 hooks);
  if (compile_heavy(o)) {
    const gen::Generator generator(cfg.gen, cfg.seed);
    for (int pi = 0; pi < cfg.num_programs; ++pi) {
      const std::int64_t p0 = now_ns();
      emit_and_hipify(generator.generate(static_cast<std::uint64_t>(pi)));
      if (front_end_ms != nullptr)
        front_end_ms->push_back(static_cast<double>(now_ns() - p0) * 1e-6);
    }
  }
  return seconds_between(t0, now_ns());
}

struct LatencyLog {
  std::mutex mu;
  std::vector<double> ms;  ///< per-program latency, completion order
  std::int64_t round_start = 0;
  std::uint64_t round_id = 0;
};

/// Passes of an untraced run.  A round on several threads lasts as long as
/// its slowest CPU takes, so it needs more passes to catch a moment when
/// every CPU it uses is free.
int passes(const Options& o) { return o.threads == 1 ? kPasses : 2 * kPasses; }

/// The untraced run's work list: rounds 0..n-1, as many as passes(o) passes
/// get through in --seconds at the nominal rate.
std::vector<diff::CampaignConfig> work_list(const Options& o) {
  const double programs_per_round =
      compile_heavy(o) ? kCompileHeavyPrograms
                       : kPaperFp64Programs + kPaperFp32Programs;
  // paper's nominal speed-up grows linearly to kMtSpeedup at kMtThreads.
  const double speedup = 1.0 + (kMtSpeedup - 1.0) * (o.threads - 1.0) / (kMtThreads - 1.0);
  const double programs_per_s =
      compile_heavy(o) ? kCompileHeavyProgramsPerS : kPaperProgramsPerS * speedup;
  std::vector<diff::CampaignConfig> list;
  const std::size_t rounds =
      list_items(o.seconds, programs_per_s / programs_per_round, passes(o));
  for (std::uint64_t r = 0; r < rounds; ++r)
    for (diff::CampaignConfig& cfg : round_configs(o, r)) list.push_back(std::move(cfg));
  return list;
}

void run_untraced(const Options& o, Report& report,
                  SetupTimer<diff::RangeOutcome>& setup) {
  support::Rng check_rng(derive_seed(o.seed, 0xc4ec));
  LatencyLog log;
  diff::RangeHooks hooks;
  hooks.on_program = [&log](std::uint64_t, std::uint64_t) {
    // Each worker thread runs its programs back to back, so the gap since
    // the thread's previous completion (or the round start) is the
    // program's latency.
    thread_local std::uint64_t seen_round = ~std::uint64_t{0};
    thread_local std::int64_t last = 0;
    const std::int64_t now = now_ns();
    if (seen_round != log.round_id) {
      seen_round = log.round_id;
      last = log.round_start;
    }
    const double ms = static_cast<double>(now - last) * 1e-6;
    last = now;
    std::lock_guard<std::mutex> lock(log.mu);
    log.ms.push_back(ms);
  };

  const std::vector<diff::CampaignConfig> list = work_list(o);
  BestPass best(list.size());
  std::vector<diff::RangeOutcome> first(list.size());
  bool corrupt = o.corrupt_reference;
  for (int pass = 0; pass < passes(o); ++pass) {
    if (o.threads == 1) pin_pass(static_cast<std::size_t>(pass));
    for (std::size_t k = 0; k < list.size(); ++k) {
      const diff::CampaignConfig& cfg = list[k];
      const auto programs = static_cast<std::uint64_t>(cfg.num_programs);
      log.ms.clear();
      ++log.round_id;
      log.round_start = now_ns();
      diff::RangeOutcome out;
      std::vector<double> front_end_ms;
      const double round_s = untraced_round(o, cfg, out, hooks, &front_end_ms);
      // Latency of program i = its campaign share + its front-end pass (one
      // thread, so completions arrive in program order).
      for (std::size_t pi = 0; pi < front_end_ms.size(); ++pi)
        log.ms[pi] += front_end_ms[pi];
      report.check(log.ms.size() == programs, "one latency sample per program");
      best.add(k, programs, round_s, std::move(log.ms));
      report.round(programs, round_s);
      if (pass == 0) {
        oracle_check(cfg, out, check_rng, corrupt, report);
        corrupt = false;
        first[k] = std::move(out);
      } else {
        report.check(same_outcome(out, first[k]),
                     "a repeated round gave other results than its first run");
      }
      setup.between(static_cast<double>(pass * list.size() + k + 1),
                    static_cast<double>(passes(o) * list.size()));
    }
  }
  report.end_to_end(best.ops(), best.cost_s(), best.latency_ms(), setup.median_s());
}

// ---------------------------------------------------------------------------
// Traced: the campaign's per-program call sequence, one span per call.
// ---------------------------------------------------------------------------

struct Layers {
  std::uint32_t program, generate, inputs, compile, compare, record, emit,
      hipify, exec, lower, count;
  static Layers intern() {
    Tracer& t = Tracer::instance();
    constexpr auto kAside = Tracer::Kind::Aside;
    return {t.layer("program", Tracer::Kind::Root),
            t.layer("gen.generate"),
            t.layer("gen.inputs"),
            t.layer("opt.compile"),
            t.layer("diff.compare"),
            t.layer("diff.record"),
            t.layer("emit.emit_cuda"),
            t.layer("hipify.hipify"),
            t.layer("vgpu.exec", kAside),
            t.layer("vgpu.lower", kAside),
            t.layer("ir.node_count", kAside)};
  }
};

struct Counters {
  std::atomic<std::uint64_t> programs{0}, inputs{0}, ir_nodes{0}, compiles{0},
      nodes_after{0}, compare_calls{0}, comparisons{0}, discrepant{0},
      runs{0}, ops{0}, emits{0}, replacements{0};
};

struct ProgramOutcome {
  std::vector<diff::LevelStats> per_level;
  std::vector<diff::DiscrepancyRecord> records;
};

/// One program exactly as run_campaign_range processes it, plus the
/// traced-only aside measurements (VM alone, an extra lowering, IR node
/// counts).  Spans cover all platforms of a level at once, which keeps the
/// tracing overhead per program small.
void traced_program(const diff::CampaignConfig& cfg, const Layers& L,
                    const gen::Generator& generator,
                    const gen::InputGenerator& input_gen, std::uint64_t pi,
                    Counters& c, ProgramOutcome& out) {
  thread_local diff::SweepContext sweep;
  thread_local vgpu::ExecContext exec_ctx;
  thread_local std::vector<vgpu::RunResult> runs;
  const std::size_t n_platforms = cfg.platforms.size();
  const auto n_inputs = static_cast<std::size_t>(cfg.inputs_per_program);

  Span root(L.program);
  ir::Program program;
  {
    Span s(L.generate);
    program = generator.generate(pi);
  }
  std::vector<vgpu::KernelArgs> inputs;
  {
    Span s(L.inputs);
    inputs.reserve(n_inputs);
    for (int ii = 0; ii < cfg.inputs_per_program; ++ii)
      inputs.push_back(input_gen.generate(program, pi, ii));
  }
  c.programs += 1;
  c.inputs += n_inputs;
  {
    Span s(L.count);
    c.ir_nodes += program.node_count();
  }

  out.per_level.assign(cfg.levels.size(), diff::LevelStats::zero(n_platforms));
  std::vector<std::pair<std::size_t, diff::DiscrepancyRecord>> found;
  for (std::size_t li = 0; li < cfg.levels.size(); ++li) {
    diff::CompiledSet set;
    set.exes.reserve(n_platforms);
    {
      Span s(L.compile);
      for (const opt::PlatformSpec& spec : cfg.platforms)
        set.exes.push_back(
            opt::compile(program, spec, cfg.levels[li], cfg.hipify_converted));
    }
    {
      Span s(L.lower);
      for (const opt::Executable& exe : set.exes)
        (void)vgpu::compile_bytecode(exe.program, exe.env, exe.mathlib);
    }
    {
      Span s(L.count);
      for (const opt::Executable& exe : set.exes)
        c.nodes_after += exe.program.node_count();
    }
    c.compiles += n_platforms;

    const std::vector<diff::ComparisonResult>* cmps = nullptr;
    {
      Span s(L.compare);
      cmps = &diff::compare_batch(set, inputs, sweep);
    }
    c.compare_calls += 1;
    runs.resize(n_inputs * n_platforms);
    {
      Span s(L.exec);
      for (std::size_t p = 0; p < n_platforms; ++p)
        vgpu::run_kernel_batch(set.exes[p], inputs, runs.data() + p * n_inputs,
                               exec_ctx);
    }
    for (const vgpu::RunResult& run : runs) c.ops += run.op_count;
    c.runs += runs.size();

    Span s(L.record);
    diff::LevelStats& stats = out.per_level[li];
    for (std::size_t ii = 0; ii < n_inputs; ++ii) {
      const diff::ComparisonResult& cmp = (*cmps)[ii];
      ++stats.comparisons;
      if (!cmp.discrepant()) continue;
      c.discrepant += 1;
      for (std::size_t p = 1; p < n_platforms; ++p) {
        const diff::DiscrepancyClass cls = cmp.pair_cls[p];
        if (cls == diff::DiscrepancyClass::None) continue;
        diff::PairStats& pair = stats.pairs[p - 1];
        ++pair.class_counts[diff::class_index(cls)];
        ++pair.adjacency[static_cast<int>(cmp.platforms[0].outcome.cls)]
                        [static_cast<int>(cmp.platforms[p].outcome.cls)];
      }
      diff::DiscrepancyRecord rec;
      rec.program_index = pi;
      rec.input_index = static_cast<int>(ii);
      rec.level = cfg.levels[li];
      rec.cls = cmp.cls;
      for (std::size_t p = 0; p < n_platforms; ++p) {
        rec.outcomes.push_back(cmp.platforms[p].outcome);
        rec.printed.push_back(cmp.platforms[p].printed());
        rec.pair_cls.push_back(cmp.pair_cls[p]);
      }
      found.emplace_back(li, std::move(rec));
    }
    c.comparisons += n_inputs;
  }
  {
    Span s(L.record);
    std::stable_sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
      if (a.second.input_index != b.second.input_index)
        return a.second.input_index < b.second.input_index;
      return a.first < b.first;
    });
    for (auto& [li, rec] : found) out.records.push_back(std::move(rec));
  }
}

/// compile-heavy's front-end pass over one program, traced.
void traced_front_end(const Layers& L, const gen::Generator& generator,
                      std::uint64_t pi, Counters& c) {
  Span root(L.program);
  ir::Program program;
  {
    Span s(L.generate);
    program = generator.generate(pi);
  }
  std::string cuda;
  {
    Span s(L.emit);
    cuda = emit::emit_cuda(program);
  }
  Span s(L.hipify);
  c.replacements += static_cast<std::uint64_t>(
      hipify::hipify_source(cuda).replacements);
  c.emits += 1;
}

diff::RangeOutcome traced_round(const diff::CampaignConfig& cfg,
                                const Layers& L, bool front_end, Counters& c) {
  const gen::Generator generator(cfg.gen, cfg.seed);
  const gen::InputGenerator input_gen(cfg.seed);
  const auto n = static_cast<std::size_t>(cfg.num_programs);
  std::vector<ProgramOutcome> outcomes(n);
  support::parallel_for(
      n,
      [&](std::size_t pi) {
        traced_program(cfg, L, generator, input_gen, pi, c, outcomes[pi]);
      },
      cfg.threads, /*chunk=*/4);
  // The same order as the untraced round: the whole campaign, then the
  // front-end pass over its programs.
  if (front_end)
    for (std::size_t pi = 0; pi < n; ++pi) traced_front_end(L, generator, pi, c);
  diff::RangeOutcome range;
  range.per_level.assign(cfg.levels.size(),
                         diff::LevelStats::zero(cfg.platforms.size()));
  for (auto& out : outcomes)
    for (std::size_t li = 0; li < cfg.levels.size(); ++li)
      range.per_level[li].merge(out.per_level[li]);
  for (auto& out : outcomes)
    diff::append_capped_records(range.records, std::move(out.records),
                                cfg.max_records);
  return range;
}

volatile std::uint64_t g_sink = 0;

/// Mean cost of one MathLib call over a stationary table: the inputs are
/// drawn once per seed from the generator's value classes and cycled, so
/// the measured input mix never depends on the iteration count.
void vmath_probe(const Options& o, Report& report) {
  support::Rng rng(derive_seed(o.seed, 0x7a7));
  constexpr int kTable = 4096;
  struct Entry64 { ir::MathFn fn; double a, b; };
  struct Entry32 { ir::MathFn fn; float a, b; };
  std::vector<Entry64> t64;
  std::vector<Entry32> t32;
  const auto pick_class = [&] { return static_cast<gen::ValueClass>(rng.below(7)); };
  for (int i = 0; i < kTable; ++i) {
    const auto fn = static_cast<ir::MathFn>(rng.below(20));
    const double a = gen::random_value(rng, pick_class(), ir::Precision::FP64);
    const double b = gen::random_value(rng, pick_class(), ir::Precision::FP64);
    t64.push_back({fn, a, b});
  }
  for (int i = 0; i < kTable; ++i) {
    const auto fn = static_cast<ir::MathFn>(rng.below(20));
    const auto a = static_cast<float>(
        gen::random_value(rng, pick_class(), ir::Precision::FP32));
    const auto b = static_cast<float>(
        gen::random_value(rng, pick_class(), ir::Precision::FP32));
    t32.push_back({fn, a, b});
  }
  constexpr int kProbePasses = 16;
  const auto time_ns = [&](auto&& pass) {
    std::vector<double> reps;
    for (int rep = 0; rep < 7; ++rep) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kProbePasses; ++i) pass();
      reps.push_back(static_cast<double>(now_ns() - t0) / (kTable * kProbePasses));
    }
    return median(reps);
  };
  const auto probe64 = [&](const vmath::MathLib& lib) {
    return time_ns([&] {
      std::uint64_t acc = 0;
      for (const Entry64& e : t64) acc ^= fp::to_bits(lib.call64(e.fn, e.a, e.b));
      g_sink = g_sink ^ acc;
    });
  };
  report.metric("vmath.call_ns.nv", probe64(vmath::nv_libdevice()), "ns");
  report.metric("vmath.call_ns.amd", probe64(vmath::amd_ocml()), "ns");
  report.metric("vmath.call_ns.compat", probe64(vmath::hip_cuda_compat()), "ns");
  report.metric("vmath.call_ns.fast", time_ns([&] {
                  std::uint64_t acc = 0;
                  const vmath::MathLib& lib = vmath::nv_fast();
                  for (const Entry32& e : t32)
                    acc ^= fp::to_bits(lib.call32(e.fn, e.a, e.b));
                  g_sink = g_sink ^ acc;
                }),
                "ns");
}

void run_traced(const Options& o, Report& report,
                SetupTimer<diff::RangeOutcome>& setup) {
  const Layers L = Layers::intern();
  Counters c;
  const Tracer& t = Tracer::instance();
  double measured = 0.0;
  std::vector<double> drift;
  bool replica_first = true;
  // The untraced run's work list, cycled, so its rounds line up with the
  // untraced run's passes.
  const std::vector<diff::CampaignConfig> list = work_list(o);
  for (std::size_t r = 0; measured < o.seconds || drift.size() < kMinDriftRounds;
       ++r) {
    const diff::CampaignConfig& cfg = list[r % list.size()];
    diff::RangeOutcome replica, reference;
    double cost = 0.0, budget = 0.0, remainder = 0.0;
    const auto run_replica = [&] {
      const double budget0 = t.budget_self_s();
      const double root0 = t.root_self_s();
      const double aside0 = t.aside_total_s();
      const std::int64_t t0 = now_ns();
      replica = traced_round(cfg, L, compile_heavy(o), c);
      // Aside work ran on every thread; charge the wall time it displaced.
      cost = seconds_between(t0, now_ns()) -
             (t.aside_total_s() - aside0) / o.threads;
      budget = t.budget_self_s() - budget0;
      remainder = t.root_self_s() - root0;
    };
    // Alternate the order so neither side always runs on caches the
    // other warmed.
    if (replica_first) run_replica();
    const double reference_s = untraced_round(o, cfg, reference);
    if (!replica_first) run_replica();
    replica_first = !replica_first;

    measured += cost;
    report.round(static_cast<std::uint64_t>(cfg.num_programs), cost, budget,
                 remainder, reference_s);
    drift.push_back(cost / reference_s - 1.0);
    report.check(same_outcome(replica, reference),
                 "traced replica differs from run_campaign_range");
  }
  const double median_drift = median(drift);
  report.metric("replica_drift", median_drift, "ratio");
  char what[160];
  std::snprintf(what, sizeof what,
                "traced replica cost drifts from run_campaign_range by %.3f "
                "(tolerance %.2f)",
                median_drift, kReplicaDriftTolerance);
  report.check(std::fabs(median_drift) <= kReplicaDriftTolerance, what);
  const auto layers = t.totals();
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const auto self_s = [&](const char* name) { return layers.at(name).self_s; };
  const auto total_s = [&](const char* name) { return layers.at(name).total_s; };
  const auto count = [&](const char* name) { return layers.at(name).count; };

  report.metric("gen.generate_us", per(self_s("gen.generate"), count("gen.generate")) * 1e6, "us");
  report.metric("gen.inputs_us", per(self_s("gen.inputs"), c.inputs) * 1e6, "us");
  report.metric("gen.ir_nodes", per(static_cast<double>(c.ir_nodes), c.programs), "count");
  if (compile_heavy(o)) {
    report.metric("emit.emit_cuda_us", per(self_s("emit.emit_cuda"), c.emits) * 1e6, "us");
    report.metric("hipify.hipify_us", per(self_s("hipify.hipify"), c.emits) * 1e6, "us");
    report.metric("hipify.replacements", per(static_cast<double>(c.replacements), c.emits), "count");
  }
  report.metric("opt.compile_us", per(self_s("opt.compile"), c.compiles) * 1e6, "us");
  report.metric("opt.ir_nodes_after", per(static_cast<double>(c.nodes_after), c.compiles), "count");
  report.metric("vgpu.lower_us", per(total_s("vgpu.lower"), c.compiles) * 1e6, "us");
  report.metric("vgpu.exec_us", per(total_s("vgpu.exec"), c.runs) * 1e6, "us");
  report.metric("vgpu.ops_per_run", per(static_cast<double>(c.ops), c.runs), "count");
  report.metric("vgpu.ns_per_op", per(total_s("vgpu.exec"), c.ops) * 1e9, "ns");
  report.metric("diff.compare_us", per(total_s("diff.compare"), c.compare_calls) * 1e6, "us");
  report.metric("diff.classify_us",
                per(total_s("diff.compare") - total_s("vgpu.exec"), c.compare_calls) * 1e6, "us");
  report.metric("diff.record_us", per(self_s("diff.record"), c.compare_calls) * 1e6, "us");
  report.metric("diff.discrepancy_rate", per(static_cast<double>(c.discrepant), c.comparisons), "ratio");
  vmath_probe(o, report);
  report.metric("setup_s", setup.median_s(), "s");
}

}  // namespace

void run_campaign_workload(const Options& o, Report& report) {
  // Set-up: build the round configs and warm the process (math tables,
  // the calling thread's VM scratch, page cache) with a small campaign of
  // the same shape, so the timed rounds start from steady state.  It runs
  // on one thread for every workload: parallel_for's extra threads live
  // for one call only, so more threads would warm nothing that lasts and
  // would only make set-up time depend on scheduling.
  if (o.threads == 1) pin_pass(0);
  SetupTimer<diff::RangeOutcome> setup([&](int) {
    diff::CampaignConfig cfg =
        round_config(o, ir::Precision::FP64, kWarmupSeed, kWarmupPrograms);
    cfg.threads = 1;
    return diff::run_campaign_range(cfg, 0, kWarmupPrograms);
  });
  setup.first();
  for (const diff::CampaignConfig& cfg : round_configs(o, 0))
    report.digest_inputs(gen::Generator(cfg.gen, cfg.seed).generate(0).dump());
  if (o.traced)
    run_traced(o, report, setup);
  else
    run_untraced(o, report, setup);
}

}  // namespace perfbench
