// triage: delta-debugging reduction of a campaign's discrepancies.
//
// Set-up runs a paper-shaped campaign pair (FP64 and FP32 programs in the
// paper's 3540:2840 ratio, at a tenth of its scale) and takes every
// discrepant record as the corpus; the timed loop reduces the corpus with
// reduce::reduce_record in whole passes (a reduction is a pure function of
// (config, record), so a repeat does the same work).  An untraced run
// reports each record's fastest pass.
//
// The corpus campaign has a fixed seed and the run's seed only orders the
// visits.  Reduction cost is extremely heavy-tailed across records (most
// take a fraction of a millisecond, a few take half a second), so corpora
// drawn per seed differed several-fold in mean cost and the corpus, not
// the code, dominated run-to-run spread.
//
// A record's first reduction must give a bundle that passes
// reduce::check_bundle and a reproducer that re-verifies with
// reduce::verdict_of to the campaign's own verdict; every repeat must
// reproduce that bundle byte for byte.

#include <algorithm>
#include <cmath>
#include <map>

#include "common.hpp"
#include "diff/campaign.hpp"
#include "reduce/bundle.hpp"
#include "reduce/reduce.hpp"
#include "reduce/sensitivity.hpp"
#include "store/store.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace gpudiff;

constexpr std::uint64_t kCorpusSeed = 42;  // CampaignConfig's default seed
constexpr int kFp64Programs = 354;
constexpr int kFp32Programs = 284;
constexpr std::uint64_t kOpsPerRound = 64;
// Nominal reductions per second on a 4-core shared Xeon (Release), which
// set an untraced run's number of passes from --seconds.
constexpr double kRecordsPerS = 1000.0;

struct WorkItem {
  std::size_t config = 0;  ///< index into Seeded::configs
  diff::DiscrepancyRecord record;
};

struct Corpus {
  std::vector<diff::CampaignConfig> configs;
  std::vector<WorkItem> work;  ///< visiting order, shuffled by the run's seed
};

Corpus build_corpus(const Options& o) {
  Corpus s;
  for (const auto& [precision, programs] :
       {std::pair{ir::Precision::FP64, kFp64Programs},
        std::pair{ir::Precision::FP32, kFp32Programs}}) {
    diff::CampaignConfig cfg;
    cfg.gen.precision = precision;
    cfg.seed = kCorpusSeed;
    cfg.num_programs = programs;
    cfg.threads = 1;
    for (auto& rec : diff::run_campaign(cfg).records)
      s.work.push_back({s.configs.size(), std::move(rec)});
    s.configs.push_back(cfg);
  }
  support::Rng rng(derive_seed(o.seed, 0x7e1a));
  for (std::size_t i = s.work.size(); i > 1; --i)
    std::swap(s.work[i - 1], s.work[rng.below(i)]);
  return s;
}

}  // namespace

void run_triage_workload(const Options& o, Report& report) {
  pin_pass(0);
  SetupTimer<Corpus> setup([&](int) { return build_corpus(o); });
  const Corpus seeded = setup.first();
  if (seeded.work.empty())
    throw std::runtime_error("seeded campaign has no discrepant records");
  for (const WorkItem& item : seeded.work)
    report.digest_inputs(std::to_string(seeded.configs[item.config].seed) + "/" +
                         store::record_key(item.record));

  Tracer& tracer = Tracer::instance();
  const std::uint32_t reduce_layer = tracer.layer("reduce.reduce_record");
  const std::uint32_t sensitivity_layer = tracer.layer("reduce.sensitivity", Tracer::Kind::Aside);

  std::vector<double> ms;
  std::map<std::size_t, std::string> first_bundle;
  double measured = 0.0, sensitivity_s = 0.0;
  std::uint64_t checks = 0, original_nodes = 0, reduced_nodes = 0;
  bool corrupt = o.corrupt_reference;
  OpRounds rounds(report, kOpsPerRound);
  const std::size_t n_work = seeded.work.size();
  // Whole passes only, so every run reduces the same multiset of records:
  // an untraced run makes as many as --seconds holds at the nominal rate,
  // at least kPasses, and takes each record's fastest; a traced run goes on
  // until its time budget is spent.
  const std::size_t passes = std::max<std::size_t>(
      kPasses, static_cast<std::size_t>(std::lround(
                   o.seconds * kRecordsPerS / static_cast<double>(n_work))));
  BestPass best(n_work);
  const auto more = [&](std::size_t i) {
    if (!o.traced) return i < passes * n_work;
    return (measured < o.seconds || i % n_work != 0) && measured < 4 * o.seconds;
  };
  for (std::size_t i = 0; more(i); ++i) {
    const std::size_t w = i % n_work;
    if (!o.traced && w == 0) pin_pass(i / n_work);
    const diff::CampaignConfig& cfg = seeded.configs[seeded.work[w].config];
    const diff::DiscrepancyRecord& rec = seeded.work[w].record;
    const reduce::RecordRef ref{rec.program_index, rec.input_index, rec.level};
    const std::int64_t t0 = now_ns();
    reduce::Reduction red;
    try {
      Span span(reduce_layer);
      red = reduce::reduce_record(cfg, ref);
    } catch (const std::exception& e) {
      report.fail("reduce " + ref.key() + ": " + e.what());
      if (report.failed() > 16) break;
      continue;
    }
    const double dt = seconds_between(t0, now_ns());
    measured += dt;
    rounds.add(dt);
    ms.push_back(dt * 1e3);
    best.add(w, 1, dt, {dt * 1e3});
    checks += red.checks;
    original_nodes += red.original_nodes;
    reduced_nodes += red.reduced_nodes;

    if (o.traced) {
      const std::int64_t s0 = now_ns();
      Span span(sensitivity_layer);
      (void)reduce::probe_sensitivity(red.program, cfg, rec.level, red.args);
      sensitivity_s += seconds_between(s0, now_ns());
    }

    // Correctness, outside the timed region: a record's first reduction is
    // verified in full, and every repeat must give the same bundle byte
    // for byte.
    bool ok = true;
    std::string bundle;
    const auto first = first_bundle.find(w);
    try {
      const support::Json doc = reduce::bundle_to_json(red, cfg);
      bundle = doc.dump();
      if (first == first_bundle.end()) {
        reduce::check_bundle(doc);
        std::vector<diff::DiscrepancyClass> expected = rec.pair_cls;
        if (corrupt) {
          expected.back() = diff::DiscrepancyClass::None;
          corrupt = false;
        }
        const reduce::Verdict again =
            reduce::verdict_of(red.program, cfg, rec.level, red.args);
        ok = again == red.verdict && again.pair_cls == expected;
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (first == first_bundle.end())
      first_bundle.emplace(w, bundle);
    else
      ok = ok && first->second == bundle;
    report.check(ok, "reduction of " + ref.key() + " does not re-verify");
    if (o.traced)
      setup.between(measured, o.seconds);
    else
      setup.between(i + 1.0, static_cast<double>(passes * n_work));
  }

  if (!o.traced) {
    report.end_to_end(best.ops(), best.cost_s(), best.latency_ms(), setup.median_s());
    return;
  }
  const double n = static_cast<double>(ms.size());
  report.metric("reduce.checks_per_record", static_cast<double>(checks) / n, "count");
  report.metric("reduce.check_us", measured / static_cast<double>(checks) * 1e6, "us");
  report.metric("reduce.shrink_ratio",
                static_cast<double>(reduced_nodes) / static_cast<double>(original_nodes),
                "ratio");
  report.metric("reduce.sensitivity_ms", sensitivity_s / n * 1e3, "ms");
  report.metric("setup_s", setup.median_s(), "s");
}

}  // namespace perfbench
