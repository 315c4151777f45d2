#pragma once

// Result plumbing shared by every workload: run arguments, the metric list
// a run prints, latency percentiles, peak memory, and the in-memory span
// recorder of traced runs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 35;
  bool trace = false;
  /// Scratch directory inside the checkout (snapshots, span dumps).
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// One reported number. `samples` is how many measurements stand behind it
/// (1 for a single measurement or a count).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 1;
};

/// Everything one workload run reports.
struct Outcome {
  size_t attempted = 0;  ///< claims the run asked the checker to verify
  /// Claims that were partial, quarantined, in a failed or misaligned
  /// document, or that failed the independent result check.
  size_t failed = 0;
  /// Failed cross-checks (determinism, staged-vs-Check identity) and the
  /// first few per-claim failures, for the log. Non-empty = incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics.push_back({name, value, unit, samples});
  }
  void Error(std::string message);
  bool correct() const { return errors.empty() && failed == 0; }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Reports `<prefix>_p50_s` and `<prefix>_p90_s`. The p90 needs at least
/// ten samples beyond it; fewer samples is recorded as an error.
void AddLatency(Outcome* outcome, const std::string& prefix,
                const std::vector<double>& samples);

/// Samples a p90 needs so that at least ten lie beyond it.
constexpr size_t kMinLatencySamples = 100;

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// \brief In-memory span recorder of a traced run.
///
/// Spans (name, start, end, parent, document id) are appended as the
/// benchmark calls into each layer and written out once the run ends. A
/// Tracer is not thread-safe: concurrent callers each own one and Merge.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;  ///< seconds since the tracer's epoch
    double end;
    int parent;  ///< index of the enclosing span, -1 for a root
    int64_t doc;
  };

  Tracer() : epoch_(Clock::now()) {}

  int Begin(const char* name, int parent, int64_t doc);
  /// Ends `span` and returns its duration in seconds.
  double End(int span);
  /// Appends `other`'s spans re-based onto this tracer's epoch.
  void Merge(const Tracer& other);
  /// Summed duration of every span called `name`.
  double Total(const char* name) const;
  bool Write(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  double Now() const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Writes the run's spans to <out_dir>/trace-<workload>-<seed>.json.
void WriteTrace(const Tracer& tracer, const RunArgs& args, Outcome* outcome);

/// Records one span for the lifetime of the scope. With a null tracer it
/// only times the scope (untraced runs record nothing).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int64_t doc)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, doc) : -1),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }
  /// Ends the span now (once) and returns its duration in seconds.
  double Close();

 private:
  Tracer* tracer_;
  int id_;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1;
};

}  // namespace perfbench
