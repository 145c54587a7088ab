#pragma once
// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent) around one call into a gpudiff
// module, recorded from the benchmark's own code.  Spans stay in memory
// (one buffer per thread, so recording takes no lock) and are written to
// a file when the process ends; a layer's self time is its spans'
// duration minus the part their direct child spans cover.
//
// Layers are *budget* layers, whose self times should add up to the
// untraced wall time (trace.coverage); *aside* measurements taken only in
// the traced run (an extra bytecode lowering, a re-execution to time the
// VM alone), which are excluded from the budget and from the traced cost
// used for trace.overhead; or *root* spans that group one operation's
// calls, whose self time (the part no named span covers) is reported as
// trace.remainder and counts toward neither.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index in the same thread's buffer
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  enum class Kind : std::uint8_t { Budget, Aside, Root };
  struct LayerTotals {
    std::uint64_t count = 0;
    double self_s = 0.0;
    double total_s = 0.0;
  };

  /// The process-wide tracer; disabled (spans are no-ops) unless enabled.
  static Tracer& instance();
  void enable() noexcept { enabled_ = true; }
  bool enabled() const noexcept { return enabled_; }

  /// Intern a layer name of the given kind.
  std::uint32_t layer(const std::string& name, Kind kind = Kind::Budget);

  /// Open/close a span on the calling thread's buffer.
  std::int32_t open(std::uint32_t name);
  void close(std::int32_t index);

  /// Self/total time per layer name over every thread's spans.  Like the
  /// three sums below, call it only while no other thread records spans.
  std::map<std::string, LayerTotals> totals() const;
  /// Sum of budget layers' self time, of root layers' self time and of
  /// aside layers' total time so far; differences between two calls give
  /// one round's share.
  double budget_self_s() const;
  double root_self_s() const;
  double aside_total_s() const;

  /// Write every span as "thread name parent start_ns end_ns" lines.
  void write(const std::string& path) const;

 private:
  /// One thread's spans plus running per-layer totals, kept as spans
  /// close: a closing span adds its duration to its own layer's self time
  /// and subtracts it from its parent's.
  struct Buffer {
    std::vector<Span> spans;
    std::int32_t current = -1;
    std::vector<LayerTotals> layers;  ///< indexed by layer id
  };
  Buffer& buffer();
  double sum(Kind kind, double LayerTotals::*field) const;

  bool enabled_ = false;
  mutable std::mutex mu_;  ///< guards names_, kinds_, buffers_
  std::vector<std::string> names_;
  std::vector<Kind> kinds_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Groups the operations of a closed loop into rounds of a fixed count for
/// Report::round, each with the budget layers' self time it took.
class OpRounds {
 public:
  OpRounds(Report& report, std::uint64_t ops_per_round)
      : report_(report),
        size_(ops_per_round),
        budget0_(Tracer::instance().budget_self_s()) {}

  /// One operation finished after `seconds`.
  void add(double seconds) {
    cost_s_ += seconds;
    if (++ops_ < size_) return;
    const double budget = Tracer::instance().budget_self_s();
    report_.round(ops_, cost_s_, budget - budget0_);
    budget0_ = budget;
    ops_ = 0;
    cost_s_ = 0.0;
  }

 private:
  Report& report_;
  const std::uint64_t size_;
  double budget0_;
  std::uint64_t ops_ = 0;
  double cost_s_ = 0.0;
};

/// RAII span; free when tracing is disabled.
class Span {
 public:
  explicit Span(std::uint32_t layer)
      : index_(Tracer::instance().enabled() ? Tracer::instance().open(layer)
                                            : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace perfbench
