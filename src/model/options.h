#pragma once

#include <cstddef>

#include "util/rounding.h"

namespace aggchecker {
namespace model {

/// \brief Tuning knobs of the probabilistic model (§5) and the evaluation
/// scope (§6.1). Defaults reproduce the paper's main configuration; the
/// benchmark sweeps (Figures 12 and 13, Table 5/10 ablations) vary them.
struct ModelOptions {
  /// Assumed a-priori probability of a claim being correct. Trades recall
  /// for precision (Figure 12); the paper settles on 0.999.
  double pT = 0.999;

  /// Fragments retrieved per category per claim ("# Hits" in Table 5 /
  /// Figure 13 left).
  size_t lucene_hits = 20;

  /// Maximum predicates per candidate query (m = 3 in §6.3).
  int max_predicates = 3;

  /// Predicate-column subsets kept per claim, ranked by keyword score
  /// (bounds the candidate cross product).
  size_t max_pred_subsets = 200;

  /// Aggregation-column fragments considered per claim ("# Aggregates" in
  /// Figure 13 right).
  size_t max_agg_columns = 12;

  /// Candidate queries evaluated per claim per EM iteration (PickScope's
  /// cost budget, §6.1).
  size_t max_eval_per_claim = 160;

  /// Adaptive PickScope (§6.1's cost model): scale the per-claim budget so
  /// one EM iteration costs about target_row_scans row-scans, between
  /// min_eval_per_claim and max_eval_per_claim. new_group_rate is the
  /// modeled chance an extra candidate opens a new cube group (candidates
  /// sharing predicate columns merge into one scan).
  bool adaptive_scope = false;
  double target_row_scans = 2e6;
  size_t min_eval_per_claim = 20;
  double new_group_rate = 0.05;

  /// EM iteration cap and convergence tolerance on prior change.
  int max_em_iterations = 5;
  double convergence_tol = 1e-3;

  /// Ablations of Table 10: S_c only (both false), +E_c (eval only),
  /// +Θ (both true — the full model).
  bool use_eval_results = true;
  bool use_priors = true;

  /// Record a snapshot of the priors Θ after every EM iteration in
  /// TranslationResult::prior_trace (Table 2's convergence view).
  bool trace_priors = false;

  /// Admissible rounding function rho of Definition 1 (ablation bench
  /// compares significant-digit rounding against strict and tolerance
  /// matching).
  rounding::RoundingMode rounding_mode =
      rounding::RoundingMode::kSignificantDigits;
  double rounding_tolerance = 0.05;

  /// Additive smoothing applied to relevance scores so fragments without
  /// keyword support keep non-zero probability (claims often omit the
  /// aggregation function — §7.3). Calibrated so the evaluation-result
  /// factor (pT odds) outweighs keyword sharpness, as in the paper.
  double score_smoothing = 0.10;

  /// Threads for per-claim candidate work and cube materialization.
  /// 0 = std::thread::hardware_concurrency(); 1 = fully serial (no pool).
  /// Results are bit-identical for any value (see DESIGN.md "Concurrency
  /// contract"), so this is purely a throughput knob.
  size_t num_threads = 0;

  /// Verification-aware candidate pruning (DESIGN.md §17): probe each
  /// candidate against column statistics before it enters the evaluation
  /// batch, and skip the ones that provably cannot match the claim. The
  /// translator runs it on the string path only (naive strategy, or query
  /// fingerprints off) and only under an unlimited governor. Reports are
  /// bit-identical with pruning on or off (the probe-pruning differential
  /// tests pin this down); the flag only trades probe work for scans.
  bool probe_pruning = true;

  /// Debug/differential mode: run every probe but evaluate all candidates
  /// for real anyway, counting decided candidates whose real result matches
  /// the claim in ProbeStats::probe_conflicts (must be zero — an unsound
  /// probe bound otherwise).
  bool probe_verify = false;

  /// Ranked candidates per claim whose probe-withheld results are
  /// re-evaluated after translation so reports show real values (AggChecker
  /// raises this to report_top_k). The backfill runs off-ledger: no
  /// governor charges, no new cache entries.
  size_t probe_backfill_top_k = 10;

  /// Pins PickScope's claim count to this value instead of the number of
  /// claims actually translated (0 = off, the default). Incremental
  /// re-verification (DESIGN.md §16) re-translates only the claims whose
  /// dependency tables changed but must reproduce the per-claim budget the
  /// full document was checked under — the adaptive scope divides its
  /// row-scan target by the claim count, so a smaller subset would
  /// otherwise get a larger budget and diverge from the from-scratch run.
  size_t scope_num_claims = 0;
};

}  // namespace model
}  // namespace aggchecker
