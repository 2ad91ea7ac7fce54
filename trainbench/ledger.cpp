#include "ledger.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace trainbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty series");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  s.median = median(values);
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  s.samples = values.size();
  return s;
}

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.voluntary_switches = ru.ru_nvcsw;
  u.peak_rss_kib = ru.ru_maxrss;
  return u;
}

namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  // Best effort: a refused pin leaves the thread where the scheduler put it.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

void CpuRotation::pin(std::size_t k) {
  if (!cpus_.empty()) set_affinity({cpus_[k % cpus_.size()]});
}

void CpuRotation::release() {
  if (!cpus_.empty()) set_affinity(cpus_);
}

std::size_t Trace::open(const std::string& name, bool with_usage) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back().id;
  spans_.push_back(std::move(span));
  const std::size_t id = spans_.size() - 1;
  OpenUsage entry{id, with_usage, with_usage ? Usage::now() : Usage{}};
  open_.push_back(entry);
  spans_[id].start = now_seconds();
  return id;
}

void Trace::close(std::size_t id) {
  const double end = now_seconds();
  if (open_.empty() || open_.back().id != id)
    throw std::logic_error("Trace::close: span " + std::to_string(id) +
                           " is not the innermost open span");
  Span& span = spans_[id];
  span.end = end;
  if (open_.back().with_usage) {
    const Usage u = Usage::now();
    span.cpu_seconds = u.cpu_seconds - open_.back().at_open.cpu_seconds;
    span.voluntary_switches =
        u.voluntary_switches - open_.back().at_open.voluntary_switches;
  }
  open_.pop_back();
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  try {
    trace_->close(id_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trainbench: %s\n", e.what());
  }
}

std::vector<double> Trace::child_durations(std::size_t parent,
                                           const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = parent + 1; i < spans_.size(); ++i)
    if (spans_[i].parent == parent && spans_[i].name == name)
      out.push_back(spans_[i].duration());
  return out;
}

double Trace::child_seconds(std::size_t parent, const std::string& name) const {
  double total = 0.0;
  for (double d : child_durations(parent, name)) total += d;
  return total;
}

double Trace::closure(std::size_t parent) const {
  double covered = 0.0;
  for (std::size_t i = parent + 1; i < spans_.size(); ++i)
    if (spans_[i].parent == parent) covered += spans_[i].duration();
  const double wall = spans_.at(parent).duration();
  return wall > 0.0 ? covered / wall : 0.0;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace trainbench
