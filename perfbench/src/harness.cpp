// gpudiff-perfbench: one workload, one mode, one process.
//
//   gpudiff-perfbench --workload paper --seed 7 --seconds 5
//                     --mode untraced --work-dir .bench_build/work/x
//                     [--threads 4]
//
// Prints one JSON document on stdout: the run context (CPU, nproc, the
// resolved SIMD engine, compiler, build type), the measured metrics with
// their units, and the correctness-check counts.  run.py starts this
// binary once per (workload, mode) and aggregates.  The harness never
// sets GPUDIFF_SIMD or GPUDIFF_EXEC: every number is taken on shipped
// defaults.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "trace.hpp"
#include "vgpu/bytecode.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace json = gpudiff::support;

void Report::metric(const std::string& name, double value, const char* unit) {
  json::Json m = json::Json::object();
  m["value"] = value;
  m["unit"] = unit;
  metrics_[name] = std::move(m);
}

void Report::round(std::uint64_t ops, double cost_s, double budget_s,
                   double remainder_s, double reference_s) {
  json::Json r = json::Json::array();
  r.push_back(ops);
  r.push_back(cost_s);
  r.push_back(budget_s);
  r.push_back(remainder_s);
  r.push_back(reference_s);
  rounds_.push_back(std::move(r));
}

void Report::digest_inputs(const std::string& bytes) {
  inputs_digest_ = gpudiff::support::fnv1a64_hex(inputs_digest_ + bytes);
}

void Report::end_to_end(std::uint64_t ops, double measured_s,
                        const std::vector<double>& latency_ms, double setup_s) {
  metric("throughput_per_s", static_cast<double>(ops) / measured_s, "1/s");
  metric("latency_ms_p50", quantile(latency_ms, 0.50), "ms");
  metric("latency_ms_p90", quantile(latency_ms, 0.90), "ms");
  metric("latency_ms_p99", quantile(latency_ms, 0.99), "ms");
  metric("latency_samples", static_cast<double>(latency_ms.size()), "count");
  metric("setup_s", setup_s, "s");
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

json::Json Report::to_json(const Options& options) const {
  json::Json out = json::Json::object();
  out["workload"] = options.workload;
  out["mode"] = options.traced ? "traced" : "untraced";
  out["threads"] = static_cast<std::int64_t>(options.threads);
  out["attempted"] = attempted_;
  out["failed"] = failed_;
  json::Json failures = json::Json::array();
  for (const auto& f : failures_) failures.push_back(f);
  out["failures"] = std::move(failures);
  out["metrics"] = metrics_;
  out["rounds"] = rounds_;
  out["inputs_digest"] = inputs_digest_;
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t list_items(double seconds, double items_per_s, int passes) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds * items_per_s / passes)));
}

void BestPass::add(std::size_t item, std::uint64_t ops, double cost_s,
                   std::vector<double> latency_ms) {
  Item& it = items_.at(item);
  if (it.ops != 0 && it.cost_s <= cost_s) return;
  it = {ops, cost_s, std::move(latency_ms)};
}

std::uint64_t BestPass::ops() const {
  std::uint64_t n = 0;
  for (const Item& it : items_) n += it.ops;
  return n;
}

double BestPass::cost_s() const {
  double s = 0.0;
  for (const Item& it : items_) s += it.cost_s;
  return s;
}

std::vector<double> BestPass::latency_ms() const {
  std::vector<double> ms;
  for (const Item& it : items_) ms.insert(ms.end(), it.latency_ms.begin(), it.latency_ms.end());
  return ms;
}

void pin_pass(std::size_t pass) {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[pass % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // 0: the calling thread only
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  gpudiff::support::Rng rng(seed);
  return rng.split(salt).next();
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

json::Json context() {
  json::Json c = json::Json::object();
  c["cpu"] = cpu_model();
  c["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  c["simd_engine"] = gpudiff::vgpu::to_string(gpudiff::vgpu::simd_engine());
  c["compiler"] = compiler();
  c["build_type"] = PERFBENCH_BUILD_TYPE;
  return c;
}

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S "
               "--mode untraced|traced --work-dir DIR [--threads N] "
               "[--corrupt-reference]\n",
               argv0);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!release_build()) {
    std::fprintf(stderr,
                 "gpudiff-perfbench: built as '%s'; numbers are only reported "
                 "from a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::atof(value().c_str());
    else if (arg == "--mode") {
      const std::string mode = value();
      if (mode != "traced" && mode != "untraced") return usage(argv[0]);
      options.traced = mode == "traced";
    }
    else if (arg == "--threads") options.threads = static_cast<unsigned>(std::atoi(value().c_str()));
    else if (arg == "--work-dir") options.work_dir = value();
    else if (arg == "--corrupt-reference") options.corrupt_reference = true;
    else return usage(argv[0]);
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0.0 || options.threads == 0)
    return usage(argv[0]);
  std::filesystem::create_directories(options.work_dir);
  if (options.traced) Tracer::instance().enable();

  Report report;
  try {
    const std::string& w = options.workload;
    if (w == "paper" || w == "paper-mt" || w == "compile-heavy")
      run_campaign_workload(options, report);
    else if (w == "fleet")
      run_fleet_workload(options, report);
    else if (w == "triage")
      run_triage_workload(options, report);
    else if (w == "serve")
      run_serve_workload(options, report);
    else
      return usage(argv[0]);
    if (options.traced)
      Tracer::instance().write(options.work_dir + "/spans-" + w + ".txt");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-perfbench: %s: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  gpudiff::support::Json out = report.to_json(options);
  out["context"] = context();
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
