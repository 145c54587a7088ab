#include "diff/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <stdexcept>

#include "support/thread_pool.hpp"

namespace gpudiff::diff {

void PairStats::merge(const PairStats& other) {
  for (std::size_t i = 0; i < class_counts.size(); ++i)
    class_counts[i] += other.class_counts[i];
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) adjacency[r][c] += other.adjacency[r][c];
}

LevelStats LevelStats::zero(std::size_t n_platforms) {
  LevelStats stats;
  stats.pairs.resize(n_platforms > 0 ? n_platforms - 1 : 0);
  return stats;
}

void LevelStats::merge(const LevelStats& other) {
  comparisons += other.comparisons;
  if (pairs.empty()) pairs.resize(other.pairs.size());
  if (pairs.size() != other.pairs.size())
    throw std::invalid_argument("LevelStats::merge: platform count mismatch");
  for (std::size_t i = 0; i < pairs.size(); ++i) pairs[i].merge(other.pairs[i]);
}

std::uint64_t CampaignResults::comparisons_total() const {
  std::uint64_t n = 0;
  for (const auto& s : per_level) n += s.comparisons;
  return n;
}

std::uint64_t CampaignResults::discrepancies_total() const {
  std::uint64_t n = 0;
  for (const auto& s : per_level) n += s.discrepancy_total();
  return n;
}

double CampaignResults::discrepancy_percent() const {
  const auto runs = static_cast<double>(runs_total());
  if (runs == 0) return 0.0;
  // Paper Table IV reports discrepancies as % of total runs.
  return 100.0 * static_cast<double>(discrepancies_total()) / runs;
}

const LevelStats& CampaignResults::stats_for(opt::OptLevel level) const {
  for (std::size_t i = 0; i < levels.size(); ++i)
    if (levels[i] == level) return per_level[i];
  throw std::out_of_range("CampaignResults: level not part of campaign");
}

namespace {

struct ProgramOutcome {
  std::vector<LevelStats> per_level;
  std::vector<DiscrepancyRecord> records;  ///< canonical (input, level) order
};

}  // namespace

void append_capped_records(std::vector<DiscrepancyRecord>& dst,
                           std::vector<DiscrepancyRecord>&& src,
                           std::size_t cap) {
  if (dst.size() >= cap) return;
  const std::size_t take = std::min(src.size(), cap - dst.size());
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.begin() +
                                     static_cast<std::ptrdiff_t>(take)));
}

RangeOutcome run_campaign_range(const CampaignConfig& config,
                                std::uint64_t begin, std::uint64_t end) {
  return run_campaign_range(config, begin, end, RangeHooks{});
}

RangeOutcome run_campaign_range(const CampaignConfig& config,
                                std::uint64_t begin, std::uint64_t end,
                                const RangeHooks& hooks) {
  if (begin > end)
    throw std::invalid_argument("run_campaign_range: begin > end");
  const std::size_t n_platforms = config.platforms.size();
  if (n_platforms < 2)
    throw std::invalid_argument(
        "run_campaign_range: need a baseline plus at least one platform");
  const gen::Generator generator(config.gen, config.seed);
  const gen::InputGenerator input_gen(config.seed);

  const std::size_t n_programs = static_cast<std::size_t>(end - begin);
  std::vector<ProgramOutcome> outcomes(n_programs);
  std::atomic<std::uint64_t> completed{0};

  support::parallel_for(
      n_programs,
      [&](std::size_t oi) {
        const std::uint64_t pi = begin + oi;
        ProgramOutcome& out = outcomes[oi];
        out.per_level.assign(config.levels.size(),
                             LevelStats::zero(n_platforms));
        const ir::Program program = generator.generate(pi);

        // Materialize this program's inputs once.
        std::vector<vgpu::KernelArgs> inputs;
        inputs.reserve(static_cast<std::size_t>(config.inputs_per_program));
        for (int ii = 0; ii < config.inputs_per_program; ++ii)
          inputs.push_back(input_gen.generate(program, pi, ii));

        // The execution scratch (VM context, run/comparison buffers) lives
        // once per worker thread and is reused across every program and
        // level that thread processes within this range invocation.  (The
        // calling thread's scratch persists across invocations too;
        // parallel_for's extra workers are per-call, so in the default
        // one-thread-per-shard distribution shape reuse is total.)  Its run
        // memo also skips re-running a level whose lowered program matches
        // the previous level's (O1, O2 and O3 usually do).
        thread_local SweepContext sweep;
        // (level position, record) pairs, sorted into canonical order below.
        std::vector<std::pair<std::size_t, DiscrepancyRecord>> found;

        for (std::size_t li = 0; li < config.levels.size(); ++li) {
          const CompiledSet set =
              compile_set(program, config.platforms, config.levels[li],
                          config.hipify_converted);
          LevelStats& stats = out.per_level[li];
          // Batched sweep: all of this program's inputs through one VM
          // invocation loop per platform (arg checks amortized).
          const std::vector<ComparisonResult>& cmps =
              compare_batch(set, inputs, sweep);
          for (int ii = 0; ii < config.inputs_per_program; ++ii) {
            const ComparisonResult& cmp = cmps[static_cast<std::size_t>(ii)];
            ++stats.comparisons;
            if (!cmp.discrepant()) continue;
            for (std::size_t p = 1; p < n_platforms; ++p) {
              const DiscrepancyClass cls = cmp.pair_cls[p];
              if (cls == DiscrepancyClass::None) continue;
              PairStats& pair = stats.pairs[p - 1];
              ++pair.class_counts[class_index(cls)];
              ++pair.adjacency[static_cast<int>(cmp.platforms[0].outcome.cls)]
                              [static_cast<int>(cmp.platforms[p].outcome.cls)];
            }
            DiscrepancyRecord rec;
            rec.program_index = pi;
            rec.input_index = ii;
            rec.level = config.levels[li];
            rec.cls = cmp.cls;
            rec.outcomes.reserve(n_platforms);
            rec.printed.reserve(n_platforms);
            rec.pair_cls.reserve(n_platforms);
            for (std::size_t p = 0; p < n_platforms; ++p) {
              rec.outcomes.push_back(cmp.platforms[p].outcome);
              rec.printed.push_back(cmp.platforms[p].printed());
              rec.pair_cls.push_back(cmp.pair_cls[p]);
            }
            found.emplace_back(li, std::move(rec));
          }
        }
        // Canonical per-program record order: input-major, then level
        // position.  The emission loop above is level-major (one compiled
        // set per level), so reorder before handing the records over.
        std::stable_sort(found.begin(), found.end(),
                         [](const auto& a, const auto& b) {
                           if (a.second.input_index != b.second.input_index)
                             return a.second.input_index < b.second.input_index;
                           return a.first < b.first;
                         });
        out.records.reserve(found.size());
        for (auto& [li, rec] : found) out.records.push_back(std::move(rec));
        if (hooks.on_program) {
          const auto done = completed.fetch_add(1, std::memory_order_relaxed);
          hooks.on_program(done + 1, n_programs);
        }
      },
      config.threads, /*chunk=*/4);

  // Deterministic merge in program order.  Statistics are never capped;
  // record retention stops outright once max_records is reached instead of
  // re-entering the record loop for every remaining program.
  RangeOutcome range;
  range.per_level.assign(config.levels.size(), LevelStats::zero(n_platforms));
  for (auto& out : outcomes)
    for (std::size_t li = 0; li < config.levels.size(); ++li)
      range.per_level[li].merge(out.per_level[li]);
  for (auto& out : outcomes) {
    if (range.records.size() >= config.max_records) break;
    append_capped_records(range.records, std::move(out.records),
                          config.max_records);
  }
  return range;
}

CampaignResults run_campaign(const CampaignConfig& config) {
  CampaignResults results;
  results.seed = config.seed;
  results.precision = config.gen.precision;
  results.hipify_converted = config.hipify_converted;
  results.num_programs = config.num_programs;
  results.inputs_per_program = config.inputs_per_program;
  results.platforms = opt::platform_names(config.platforms);
  results.levels = config.levels;

  RangeOutcome range = run_campaign_range(
      config, 0, static_cast<std::uint64_t>(config.num_programs));
  results.per_level = std::move(range.per_level);
  results.records = std::move(range.records);
  return results;
}

}  // namespace gpudiff::diff
