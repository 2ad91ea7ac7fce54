// Measurement primitives of the training benchmark: run statistics, process
// resource usage, and an in-memory span trace recorded around calls into the
// library's public functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace trainbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument when `values` is empty.
double median(std::vector<double> values);

/// How every timing series of the benchmark is reported: its median and the
/// number of samples it came from, with the extremes for context.
struct Summary {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t samples = 0;
};

/// Summary of `values`; all fields zero when `values` is empty.
Summary summarize(const std::vector<double>& values);

/// Seconds on the steady clock.
double now_seconds();

/// Resource usage of the whole process (every thread) at one instant.
struct Usage {
  double cpu_seconds = 0.0;  ///< user + system time
  long voluntary_switches = 0;
  long peak_rss_kib = 0;
  static Usage now();
};

/// Moves the calling thread across the CPUs the process may use, one CPU
/// per unit of measured work, so that a run samples every CPU equally. On a
/// machine whose CPUs run at different speeds (virtual CPUs contended by
/// other guests), a single-threaded run otherwise inherits the speed of
/// whichever CPU it happened to start on. Threads created while pinned
/// inherit the pin, so build thread pools only after release().
class CpuRotation {
 public:
  /// Records the calling thread's allowed CPUs.
  CpuRotation();
  /// Restores them.
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the allowed CPU number `k` modulo their count.
  void pin(std::size_t k);
  /// Lets the calling thread run on every allowed CPU again.
  void release();

 private:
  std::vector<int> cpus_;
};

/// Spans recorded in memory while the benchmark runs. A span has a name, a
/// start and an end, and the span that was open when it began (its parent),
/// so a parent's closure — the share of its duration its children cover —
/// shows how much of a measured wall time the named stages account for.
class Trace {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = kNoParent;
    /// Process CPU time and voluntary context switches across the span;
    /// only filled for spans opened with `with_usage`.
    double cpu_seconds = 0.0;
    long voluntary_switches = 0;
    double duration() const { return end - start; }
  };

  /// Opens a span as a child of the innermost open span; returns its id.
  std::size_t open(const std::string& name, bool with_usage = false);
  /// Closes span `id`, which must be the innermost open span.
  void close(std::size_t id);

  const Span& span(std::size_t id) const { return spans_.at(id); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of `parent`'s direct children named `name`, in order.
  std::vector<double> child_durations(std::size_t parent, const std::string& name) const;
  /// Sum of child_durations(parent, name).
  double child_seconds(std::size_t parent, const std::string& name) const;
  /// Sum of the durations of all direct children of `parent`, divided by
  /// the parent's duration.
  double closure(std::size_t parent) const;

 private:
  struct OpenUsage {
    std::size_t id;
    bool with_usage;
    Usage at_open;
  };
  std::vector<Span> spans_;
  std::vector<OpenUsage> open_;
};

/// Opens a span on construction and closes it on destruction. A null trace
/// records nothing, so the untraced run executes the same code path.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name, bool with_usage = false)
      : trace_(trace), id_(trace ? trace->open(name, with_usage) : 0) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return id_; }

 private:
  Trace* trace_;
  std::size_t id_;
};

/// 64-bit FNV-1a over raw bytes, continued from `hash`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Shortest decimal text that reads back as exactly `value` (JSON number).
std::string json_number(double value);

/// `text` as a quoted JSON string.
std::string json_string(const std::string& text);

}  // namespace trainbench
