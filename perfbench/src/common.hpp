#pragma once
// Shared pieces of the gpudiff benchmark harness: options, the per-process
// report (metrics + correctness checks), timing and order statistics.
//
// One harness process runs one workload in one mode (untraced or traced)
// and prints a single JSON document on stdout; run.py starts one process
// per (workload, mode) so no CPU state (for example dirty upper-YMM
// registers) leaks from one measurement into the next.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;   ///< measured time budget of this process
  bool traced = false;
  unsigned threads = 1;   ///< CampaignConfig::threads for paper-shaped runs
  std::string work_dir;   ///< scratch space inside the checkout
  /// Flip one reference answer so the correctness checks must fail (the
  /// harness's own test of its checks).
  bool corrupt_reference = false;
};

/// What one harness process measured: named metrics with units plus the
/// correctness checks that feed error_rate.  Checks are counted, never
/// skipped silently: every check either passes or lands in `failed`.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// One round of the timed loop: operations, their cost in seconds and,
  /// in a traced run, the budget layers' self time, the root spans' self
  /// time (the traced time no named layer covers) and, where the workload
  /// times one, the untraced cost of the same round measured beside it in
  /// this process (0 where it does not).  Rounds are a pure
  /// function of (workload, seed, index), so run.py can line up the
  /// untraced and traced processes over the same work.
  void round(std::uint64_t ops, double cost_s, double budget_s = 0.0,
             double remainder_s = 0.0, double reference_s = 0.0);
  /// The untraced end-to-end metrics of a closed loop that completed `ops`
  /// operations in `measured_s`, one latency sample per operation.
  void end_to_end(std::uint64_t ops, double measured_s,
                  const std::vector<double>& latency_ms, double setup_s);
  void check(bool ok, const std::string& what);
  /// Fold bytes of the seeded inputs into the run's inputs_digest, which
  /// shows that the seed, and only the seed, picks the inputs.
  void digest_inputs(const std::string& bytes);
  /// An operation that threw: attempted and failed.
  void fail(const std::string& what) { check(false, what); }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  gpudiff::support::Json to_json(const Options& options) const;

 private:
  gpudiff::support::Json metrics_ = gpudiff::support::Json::object();
  gpudiff::support::Json rounds_ = gpudiff::support::Json::array();
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few, for diagnosis
  std::string inputs_digest_;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); sorts its copy.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Derive an independent 64-bit seed for stream `salt` of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Passes a run makes over its work list.
constexpr int kPasses = 10;

/// Items in a work list that `passes` passes get through in about `seconds`
/// at `items_per_s`, a nominal rate of the workload, so the work of a run is
/// a function of (seed, seconds) alone and the same on every commit.
std::size_t list_items(double seconds, double items_per_s, int passes = kPasses);

/// Pins the calling thread, for pass `pass` of a one-thread run, to one of
/// the CPUs the process was started on, taking them in turn.  On a shared
/// host one CPU ran the same code up to 43% slower than another for
/// seconds at a time, as its neighbours' load came and went; passes that
/// visit every CPU let an item's fastest pass be on a CPU that was free.
void pin_pass(std::size_t pass);

/// The timed figures of a run: its work list is fixed by the seed and done
/// in whole passes, and each item's cost and latency samples come from its
/// least-cost pass.  A shared host runs the same code 20-40% slower for
/// seconds at a time; one whole pass's cost would carry that in, while the
/// best of an item's passes, each taken at another moment, does not.
class BestPass {
 public:
  explicit BestPass(std::size_t items) : items_(items) {}
  /// Item `item` did `ops` operations in `cost_s` in one pass, with one
  /// latency sample per operation.
  void add(std::size_t item, std::uint64_t ops, double cost_s,
           std::vector<double> latency_ms);
  std::uint64_t ops() const;
  double cost_s() const;
  std::vector<double> latency_ms() const;

 private:
  struct Item {
    std::uint64_t ops = 0;
    double cost_s = 0.0;
    std::vector<double> latency_ms;
  };
  std::vector<Item> items_;  ///< ops == 0 until the item has run once
};

/// Set-ups per run; setup_s is the median of their durations.
constexpr std::size_t kSetupReps = 15;

/// Times a workload's set-up kSetupReps times.  The first repetition builds
/// what the timed region uses.  The others run between its operations,
/// outside the timed region, spread evenly over its time budget, so a burst
/// of load on a shared host at start-up cannot decide setup_s; what they
/// build is torn down at once, untimed.
template <typename T>
class SetupTimer {
 public:
  explicit SetupTimer(std::function<T(int)> make) : make_(std::move(make)) {}

  /// Repetition 0: the object the timed region uses.
  T first() { return run(); }
  /// Runs the repetitions due once `measured` of `budget` seconds are done.
  void between(double measured, double budget) {
    while (times_.size() < kSetupReps &&
           measured * kSetupReps >= budget * static_cast<double>(times_.size()))
      (void)run();
  }
  /// Runs the repetitions still due; the median duration in seconds.
  double median_s() {
    while (times_.size() < kSetupReps) (void)run();
    return median(times_);
  }

 private:
  T run() {
    const std::int64_t t0 = now_ns();
    T made = make_(static_cast<int>(times_.size()));
    times_.push_back(seconds_between(t0, now_ns()));
    return made;
  }

  std::function<T(int)> make_;
  std::vector<double> times_;
};

// Workload entry points (one translation unit each).
void run_campaign_workload(const Options& options, Report& report);
void run_fleet_workload(const Options& options, Report& report);
void run_triage_workload(const Options& options, Report& report);
void run_serve_workload(const Options& options, Report& report);

}  // namespace perfbench
