// gpudiff-reduce: shrink discrepant campaign records to 1-minimal
// reproducers (the triage half of ROADMAP's "Adaptive campaigns +
// discrepancy reducer").
//
//   # one record, configuration spelled out on the command line
//   gpudiff-reduce --record 41:2:O3 --seed 1234 --programs 90 --inputs 5
//
//   # one record, configuration taken from a version-2 campaign report
//   gpudiff-reduce --record 41:2:O3 --report merged.json
//
//   # batch: every exemplar key of a results-store population, resolved
//   # against the merged report it was ingested from
//   gpudiff-reduce --from-report merged.json --store db --commit head
//
// Each reduction writes one digest-sealed bundle (reduce/bundle.hpp) into
// --out; --json additionally streams the bundle documents to stdout.  The
// whole pipeline is deterministic — same record, same bytes, regardless of
// VM backend — which the reduce-drill CI job enforces with a byte-for-byte
// cmp of two independent runs.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "opt/platform.hpp"
#include "reduce/bundle.hpp"
#include "reduce/reduce.hpp"
#include "store/store.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace {

using namespace gpudiff;

/// Campaign configuration of a report document.  Version-2 reports embed
/// the full fingerprint and reconstruct exactly; version-1 reports carry
/// only header fields, so the generator grammar and record cap fall back
/// to defaults (correct unless the producing campaign customized them —
/// warned about, and any drift is caught by the not-discrepant check of
/// the first reduction).
diff::CampaignConfig config_of_report(const support::Json& report) {
  campaign::check_format(report, "gpudiff-campaign-results",
                         "campaign report", /*max_version=*/2);
  if (report.contains("config"))
    return campaign::config_from_json(report.at("config"));

  std::fprintf(stderr,
               "gpudiff-reduce: version-1 report carries no config "
               "fingerprint; assuming the default generator grammar and "
               "record cap (re-merge with --report-v2 to pin them)\n");
  diff::CampaignConfig config;
  config.seed = static_cast<std::uint64_t>(report.at("seed").as_int());
  if (!ir::parse_precision(report.at("precision").as_string(),
                           &config.gen.precision))
    throw std::runtime_error("bad precision in report");
  config.hipify_converted = report.at("hipify_converted").as_bool();
  config.num_programs = static_cast<int>(report.at("num_programs").as_int());
  config.inputs_per_program =
      static_cast<int>(report.at("inputs_per_program").as_int());
  config.levels.clear();
  for (const auto& l : report.at("levels").as_array()) {
    opt::OptLevel level;
    if (!opt::parse_opt_level(l.as_string(), &level))
      throw std::runtime_error("bad opt level in report");
    config.levels.push_back(level);
  }
  config.platforms.clear();
  std::vector<std::string> names;
  if (report.contains("platforms")) {
    for (const auto& p : report.at("platforms").as_array())
      names.push_back(p.as_string());
  } else {
    names = {"nvcc", "hipcc"};
  }
  for (const auto& name : names) {
    const opt::PlatformSpec* spec = opt::find_platform(name);
    if (!spec)
      throw std::runtime_error("report names unknown platform \"" + name +
                               "\"");
    config.platforms.push_back(*spec);
  }
  return config;
}

void print_reduction(const reduce::Reduction& r) {
  std::printf("record %s: %llu -> %llu statements, %llu -> %llu nodes "
              "(%llu checks), %s\n",
              r.record.key().c_str(),
              static_cast<unsigned long long>(r.original_stmts),
              static_cast<unsigned long long>(r.reduced_stmts),
              static_cast<unsigned long long>(r.original_nodes),
              static_cast<unsigned long long>(r.reduced_nodes),
              static_cast<unsigned long long>(r.checks),
              reduce::to_string(r.sensitivity.label));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "gpudiff-reduce",
      "Delta-debugging reducer: discrepant records to 1-minimal "
      "reproducers");
  cli.add_string("record", 'R',
                 "reduce one record, named by its canonical key "
                 "program:input:level (e.g. 41:2:O3)",
                 "");
  cli.add_string("report", 'r',
                 "campaign report supplying the configuration (--record "
                 "mode) and the record payloads (--from-report mode)",
                 "");
  cli.add_string("from-report", 'b',
                 "batch mode: reduce every exemplar key of a results-store "
                 "population, resolved against this merged report",
                 "");
  cli.add_string("store", 'D', "results-store directory (--from-report)", "");
  cli.add_string("commit", 'c', "store commit label (--from-report)", "");
  cli.add_string("fingerprint", 'f',
                 "store population fingerprint (--from-report; default: the "
                 "commit's only population)",
                 "");
  cli.add_string("out", 'o', "directory reproducer bundles are written to",
                 "reduced");
  cli.add_flag("json", "stream the bundle document(s) to stdout");
  // Configuration flags for --record without --report (mirroring
  // gpudiff-campaign's campaign definition).
  cli.add_int("programs", 'p', "number of programs in the campaign", 354);
  cli.add_int("inputs", 'i', "inputs per program", 7);
  cli.add_int("seed", 'S', "campaign seed", 42);
  cli.add_string("precision", 'P', "fp64 or fp32", "fp64");
  cli.add_string("platforms", 'F',
                 "comma-separated platform selection; first = baseline",
                 "nvcc,hipcc");
  cli.add_flag("hipify", "the campaign tested the HIPIFY-converted binding");
  cli.add_int("max-records", 'm', "campaign record cap", 50000);
  if (!cli.parse(argc, argv)) return 1;

  try {
    const std::string record_key = cli.get_string("record");
    const std::string report_path = cli.get_string("report");
    const std::string out_dir = cli.get_string("out");
    const bool json = cli.get_flag("json");

    const std::string batch_report = cli.get_string("from-report");
    if (!batch_report.empty()) {
      const std::string store_dir = cli.get_string("store");
      const std::string commit = cli.get_string("commit");
      if (store_dir.empty() || commit.empty()) {
        std::fprintf(stderr,
                     "gpudiff-reduce: --from-report needs --store and "
                     "--commit\n");
        return 1;
      }
      const support::Json report =
          support::Json::parse(support::read_file(batch_report));
      const diff::CampaignConfig config = config_of_report(report);
      const store::StoreIndex index = store::load_store(store_dir);
      const support::Json& pop =
          store::population(index, commit, cli.get_string("fingerprint"));
      const std::string pop_name =
          store_dir + "/pop/" + commit + "/" +
          pop.at("fingerprint").as_string() + ".json";
      const std::vector<diff::DiscrepancyRecord> records =
          store::resolve_exemplars(pop, report, pop_name, batch_report);
      support::Json bundles = support::Json::array();
      const std::vector<reduce::RecordRef> reduced = reduce::reduce_records(
          config, records, out_dir,
          [&](const reduce::Reduction& r) {
            print_reduction(r);
            if (json) bundles.push_back(reduce::bundle_to_json(r, config));
          });
      std::printf("%zu reproducer bundle(s) written to %s\n", reduced.size(),
                  out_dir.c_str());
      if (json) std::printf("%s\n", bundles.dump(1).c_str());
      return 0;
    }

    if (record_key.empty()) {
      std::fprintf(stderr,
                   "gpudiff-reduce: pass --record program:input:level or "
                   "--from-report (see --help)\n");
      return 1;
    }
    reduce::RecordRef ref;
    if (!reduce::parse_record_key(record_key, &ref)) {
      std::fprintf(stderr,
                   "gpudiff-reduce: bad --record '%s' (want "
                   "program:input:level, e.g. 41:2:O3)\n",
                   record_key.c_str());
      return 1;
    }

    diff::CampaignConfig config;
    if (!report_path.empty()) {
      config = config_of_report(
          support::Json::parse(support::read_file(report_path)));
    } else {
      config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      config.num_programs = static_cast<int>(cli.get_int("programs"));
      config.inputs_per_program = static_cast<int>(cli.get_int("inputs"));
      config.hipify_converted = cli.get_flag("hipify");
      config.max_records = static_cast<std::size_t>(cli.get_int("max-records"));
      try {
        config.platforms =
            opt::parse_platform_list(cli.get_string("platforms"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gpudiff-reduce: --%s\n", e.what());
        return 1;
      }
      const std::string precision = cli.get_string("precision");
      if (precision == "fp32" || precision == "FP32") {
        config.gen.precision = ir::Precision::FP32;
      } else if (precision != "fp64" && precision != "FP64") {
        std::fprintf(stderr, "gpudiff-reduce: bad --precision '%s'\n",
                     precision.c_str());
        return 1;
      }
    }

    const reduce::Reduction reduction = reduce::reduce_record(config, ref);
    print_reduction(reduction);
    const support::Json bundle = reduce::bundle_to_json(reduction, config);
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const std::string path =
          out_dir + "/" + reduce::bundle_filename(ref);
      support::write_file_atomic(path, bundle.dump(1) + "\n");
      std::printf("bundle written to %s\n", path.c_str());
    }
    if (json)
      std::printf("%s\n", bundle.dump(1).c_str());
    else
      std::printf("%s", reduction.program.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-reduce: %s\n", e.what());
    return 2;
  }
}
