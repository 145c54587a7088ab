#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::layer(const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.push_back(name);
  kinds_.push_back(kind);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Buffer& Tracer::buffer() {
  // The buffer outlives its thread (the tracer owns it), so spans of
  // short-lived worker threads survive until the process writes them.
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1024);
    mine = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return *mine;
}

std::int32_t Tracer::open(std::uint32_t name) {
  Buffer& b = buffer();
  Span span;
  span.name = name;
  span.parent = b.current;
  span.start = now_ns();
  b.spans.push_back(span);
  b.current = static_cast<std::int32_t>(b.spans.size() - 1);
  return b.current;
}

void Tracer::close(std::int32_t index) {
  Buffer& b = buffer();
  Span& span = b.spans[static_cast<std::size_t>(index)];
  span.end = now_ns();
  b.current = span.parent;
  const double dur = seconds_between(span.start, span.end);
  if (b.layers.size() <= span.name) b.layers.resize(span.name + 1);
  LayerTotals& own = b.layers[span.name];
  ++own.count;
  own.self_s += dur;
  own.total_s += dur;
  if (span.parent >= 0) {
    const std::uint32_t parent = b.spans[static_cast<std::size_t>(span.parent)].name;
    if (b.layers.size() <= parent) b.layers.resize(parent + 1);
    b.layers[parent].self_s -= dur;
  }
}

std::map<std::string, Tracer::LayerTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTotals> out;
  for (const std::string& name : names_) out[name] = {};
  for (const auto& b : buffers_)
    for (std::size_t i = 0; i < b->layers.size(); ++i) {
      LayerTotals& t = out[names_[i]];
      t.count += b->layers[i].count;
      t.self_s += b->layers[i].self_s;
      t.total_s += b->layers[i].total_s;
    }
  return out;
}

double Tracer::sum(Kind kind, double LayerTotals::*field) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& b : buffers_)
    for (std::size_t i = 0; i < b->layers.size(); ++i)
      if (kinds_[i] == kind) total += b->layers[i].*field;
  return total;
}

double Tracer::budget_self_s() const { return sum(Kind::Budget, &LayerTotals::self_s); }
double Tracer::root_self_s() const { return sum(Kind::Root, &LayerTotals::self_s); }
double Tracer::aside_total_s() const { return sum(Kind::Aside, &LayerTotals::total_s); }

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  std::fprintf(f, "# thread name parent start_ns end_ns\n");
  for (std::size_t t = 0; t < buffers_.size(); ++t)
    for (const Span& s : buffers_[t]->spans)
      std::fprintf(f, "%zu %s %d %lld %lld\n", t, names_[s.name].c_str(),
                   s.parent, static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
