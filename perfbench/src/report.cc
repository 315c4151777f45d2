#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Outcome::Error(std::string message) {
  // Keep the log readable: the count of failures is in `failed`; the list
  // only needs enough entries to diagnose them.
  if (errors.size() < 20) errors.push_back(std::move(message));
  else if (errors.size() == 20) errors.push_back("(further errors omitted)");
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void AddLatency(Outcome* outcome, const std::string& prefix,
                const std::vector<double>& samples) {
  if (samples.size() < kMinLatencySamples) {
    outcome->Error(prefix + ": " + std::to_string(samples.size()) +
                   " samples, a p90 needs at least " +
                   std::to_string(kMinLatencySamples));
  }
  outcome->Add(prefix + "_p50_s", Quantile(samples, 0.5), "s",
               samples.size());
  outcome->Add(prefix + "_p90_s", Quantile(samples, 0.9), "s",
               samples.size());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Tracer::Now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int Tracer::Begin(const char* name, int parent, int64_t doc) {
  spans_.push_back({name, Now(), 0.0, parent, doc});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::End(int span) {
  Span& s = spans_[static_cast<size_t>(span)];
  s.end = Now();
  return s.end - s.start;
}

double ScopedSpan::Close() {
  if (seconds_ >= 0) return seconds_;
  seconds_ = tracer_ != nullptr
                 ? tracer_->End(id_)
                 : std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  return seconds_;
}

void Tracer::Merge(const Tracer& other) {
  const double shift =
      std::chrono::duration<double>(other.epoch_ - epoch_).count();
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    span.start += shift;
    span.end += shift;
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

double Tracer::Total(const char* name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) total += span.end - span.start;
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"doc\": %lld}%s\n",
                 i, s.name, s.start, s.end, s.parent,
                 static_cast<long long>(s.doc),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

void WriteTrace(const Tracer& tracer, const RunArgs& args, Outcome* outcome) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (!tracer.Write(path)) outcome->Error("cannot write " + path);
}

}  // namespace perfbench
