#pragma once

// The four workloads. Each generates its inputs from the seed, sets up,
// measures for RunArgs::seconds, audits every output, and returns the
// end-to-end metrics (untraced) or the per-layer metrics (traced).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "corpus/corpus_case.h"
#include "corpus/metrics.h"
#include "report.h"

namespace perfbench {

Outcome RunCheckWorkload(const RunArgs& args);  // article_check, table6_check
Outcome RunFleetWorkload(const RunArgs& args);
Outcome RunIngestWorkload(const RunArgs& args);

/// The 3 embedded articles plus `generated_cases` cases of
/// corpus::GenerateCorpus at `row_scale`, minus generated cases whose ground
/// truth cannot align with detection (see the definition); each skipped
/// case is replaced by the next index, so the corpus always holds
/// `generated_cases` generated cases. A case depends only on the seed and
/// its index; without skips the first 50 are FullCorpus(seed) (row_scale
/// 1) or the Table 6 corpus (row_scale 20). `each`, when set, sees every
/// kept case as soon as it exists, before the next is generated.
std::vector<corpus::CorpusCase> GeneratedCorpus(
    uint64_t seed, size_t generated_cases, size_t row_scale,
    const std::function<void(corpus::CorpusCase*)>& each = {});

/// Row scale of the Table 6 corpus.
constexpr size_t kTable6RowScale = 20;

/// Generated cases of the article_check and table6_check corpora, four
/// times the paper's 50. The latency percentiles depend on which heavy
/// cases a seed draws: at 100 cases the table6_check p50 and p90 still
/// moved 8-10% from seed to seed on a steady host.
constexpr size_t kGeneratedCases = 200;

/// Generated cases of the ingest_recheck corpus, whose warm checkers and
/// prior reports for every case stay in memory (about 0.95 GB at 100).
/// Its documents are the first 103 of the table6_check corpus.
constexpr size_t kIngestCases = 100;

/// Check options of the Table 6 runs: 800 evaluations per claim, 30 hits
/// per fragment category, kDocumentThreads intra-document threads.
core::CheckOptions Table6Options();

/// A run repeats its set-up at least kMinSetupRepeats times and until the
/// repeats have taken kMinSetupSeconds; setup_s is their median.
constexpr int kMinSetupRepeats = 3;
constexpr double kMinSetupSeconds = 3.0;

/// Runs `setup` (which returns its own duration in seconds) as often as
/// kMinSetupRepeats / kMinSetupSeconds ask, or until it returns a negative
/// value for a failure. Returns the durations.
std::vector<double> RepeatSetup(const std::function<double()>& setup);

/// Timed passes over a workload's documents (corpus passes, fleet drains)
/// that a run makes at least, whatever --seconds is. Each document's
/// latency is its fastest request over the passes, so a run needs several
/// to step around the host's slow stretches.
constexpr size_t kMinPasses = 3;

/// \brief The end-to-end measurements every workload reports.
struct EndToEnd {
  /// Verified (non-partial) claims per second, and how many timed passes
  /// (corpus passes, fleet drains, refresh sweeps) it was taken from.
  double claims_per_s = 0;
  size_t claims_per_s_samples = 0;
  std::vector<double> doc_latency;      ///< fastest request per document
  std::vector<double> refresh_latency;  ///< ingest_recheck: per case
  std::vector<double> setup_seconds;    ///< one entry per setup repeat
  corpus::ErrorDetectionMetrics detection;  ///< printed, not a metric

  /// Emits every end-to-end metric, in a fixed order.
  void Emit(Outcome* outcome) const;
};

/// \brief Each document's fastest request over a run's timed passes.
///
/// On a shared host a pass can run up to twice as slow for tens of
/// seconds while identical passes around it do not; the fastest of a
/// document's requests drops those stretches out where the median keeps
/// them.
class FastestPass {
 public:
  explicit FastestPass(size_t documents)
      : best_(documents, std::numeric_limits<double>::infinity()) {}

  void Request(size_t document, double seconds) {
    best_[document] = std::min(best_[document], seconds);
  }
  /// Ends a pass that took `seconds` (for the log).
  void EndPass(double seconds) { pass_times_.push_back(seconds); }

  size_t passes() const { return pass_times_.size(); }
  /// Each document's fastest request; documents never timed are left out.
  std::vector<double> Latencies() const;
  /// "fastest / median / slowest pass" seconds, for the log.
  std::string Describe() const;

 private:
  std::vector<double> best_;
  std::vector<double> pass_times_;
};

}  // namespace perfbench
