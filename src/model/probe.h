#pragma once

#include <cstddef>
#include <vector>

#include "db/database.h"
#include "fragments/catalog.h"
#include "model/candidate_space.h"
#include "util/rounding.h"

namespace aggchecker {
namespace model {

/// \brief Counters of the verification-aware probe stage (DESIGN.md §17),
/// folded into TranslationResult / CheckReport and the probe bench.
struct ProbeStats {
  size_t candidates_probed = 0;  ///< candidates the probe inspected
  size_t candidates_pruned = 0;  ///< decided without evaluation
  /// probe_verify mode only: decided candidates whose real result matched
  /// the claim. Must be zero — a conflict means an unsound probe bound.
  size_t probe_conflicts = 0;
  size_t backfilled = 0;     ///< top-k results re-evaluated for reporting
  double probe_seconds = 0;  ///< wall time spent probing

  void Add(const ProbeStats& other) {
    candidates_probed += other.candidates_probed;
    candidates_pruned += other.candidates_pruned;
    probe_conflicts += other.probe_conflicts;
    backfilled += other.backfilled;
    probe_seconds += other.probe_seconds;
  }
};

/// \brief Pre-evaluation candidate prober (the magnitude family, DESIGN.md
/// §17): kills candidates whose claimed value lies outside the aggregate's
/// attainable bounds, so `matches` is provably false without evaluating.
///
/// One instance per Translate call. Per-column probe state (statistics
/// handles, table row counts) is cached across claims and EM iterations by
/// catalog fragment index, so each fragment pays its lookup once per
/// document, not once per candidate.
///
/// Soundness contract (the pruning-on/off differential tests pin this
/// down): a decided candidate's real result never matches the claim.
/// Probes only consult ColumnStats, which ingestion invalidates, so a stale
/// prune cannot survive a data-version bump.
///
/// Not thread-safe (mutates memo tables); the translator probes only from
/// its serial batch-assembly section.
class CandidateProber {
 public:
  CandidateProber(const db::Database& db,
                  const fragments::FragmentCatalog& catalog);

  /// Probes candidate (f, c, s) of `space` against `claim_interval` (the
  /// claimed value's matchable interval, see rounding::MatchableInterval).
  /// Returns true when the candidate is decided: its result cannot round to
  /// the claim. A faulted probe ("translator.probe" fault point) returns
  /// false — never a wrong kill.
  bool Probe(const CandidateSpace& space, size_t f, size_t c, size_t s,
             const rounding::MatchInterval& claim_interval,
             ProbeStats* stats);

 private:
  /// Cached per-aggregation-column-fragment probe inputs.
  struct ColumnInfo {
    bool resolved = false;
    const db::Column* column = nullptr;  ///< null for "*" or unknown columns
    size_t table_rows = 0;               ///< rows of the fragment's table
  };

  const ColumnInfo& ColumnProbe(int frag_index);

  const db::Database* db_;
  const fragments::FragmentCatalog* catalog_;
  std::vector<ColumnInfo> col_info_;  ///< per kAggColumn fragment
};

}  // namespace model
}  // namespace aggchecker
