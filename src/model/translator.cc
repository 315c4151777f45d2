#include "model/translator.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "model/candidate_selection.h"
#include "model/probe.h"
#include "model/scope.h"
#include "util/fault_injection.h"
#include "util/rounding.h"
#include "util/strings.h"
#include "util/timer.h"

namespace aggchecker {
namespace model {

namespace {

struct EvalOutcome {
  std::optional<double> result;
  bool matches = false;
  /// The probe decided this candidate instead of an evaluation (DESIGN.md
  /// §17): matches is provably false, but the result itself was never
  /// computed (the top-k backfill fills it for reports).
  bool probe_decided = false;
};

/// Dependency table set of one claim (TranslationResult::dependency_tables):
/// the union of tables referenced by the claim's candidate fragments (agg
/// columns and predicate columns) plus `extra` (a pinned query's tables),
/// closed under the join paths connecting them. Closure runs per connected
/// component of the FK forest — candidates mixing disconnected tables must
/// not make the whole set fall back to "no closure".
std::vector<std::string> DependencyTables(
    const db::Database& db, const CandidateSpace& space,
    const fragments::FragmentCatalog& catalog,
    const std::vector<std::string>& extra) {
  using fragments::FragmentType;
  std::set<std::string> tables;
  for (const ScoredOption& c : space.columns()) {
    const auto& frag = catalog.fragment(FragmentType::kAggColumn, c.frag);
    if (!frag.column.table.empty()) {
      tables.insert(strings::ToLower(frag.column.table));
    }
  }
  // Each distinct predicate fragment once (a fragment sits in many
  // subsets).
  std::vector<int> pred_frags;
  for (const PredicateSubset& s : space.subsets()) {
    pred_frags.insert(pred_frags.end(), s.frags.begin(), s.frags.end());
  }
  std::sort(pred_frags.begin(), pred_frags.end());
  pred_frags.erase(std::unique(pred_frags.begin(), pred_frags.end()),
                   pred_frags.end());
  for (int f : pred_frags) {
    const auto& frag = catalog.fragment(FragmentType::kPredicate, f);
    if (!frag.column.table.empty()) {
      tables.insert(strings::ToLower(frag.column.table));
    }
  }
  for (const std::string& t : extra) tables.insert(strings::ToLower(t));

  std::set<std::string> closure;
  std::vector<std::string> pending(tables.begin(), tables.end());
  while (!pending.empty()) {
    // Greedily collect one connected component around the last table.
    std::vector<std::string> component{pending.back()};
    pending.pop_back();
    for (size_t i = 0; i < pending.size();) {
      if (db.JoinPlan({component[0], pending[i]}).ok()) {
        component.push_back(pending[i]);
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    auto plan = db.JoinPlan(component);
    if (plan.ok()) {
      closure.insert(strings::ToLower(plan->root));
      for (const auto& step : plan->steps) {
        closure.insert(strings::ToLower(step.table));
      }
    } else {
      // Cannot plan (e.g. an unknown table in a synthetic candidate): keep
      // the raw members — an under-closure beats dropping them entirely.
      for (const std::string& t : component) closure.insert(t);
    }
  }
  return std::vector<std::string>(closure.begin(), closure.end());
}

}  // namespace

db::QueryInterner::Id CandidateInterner::Encode(size_t f, size_t c, size_t s) {
  using fragments::FragmentType;
  db::AggFn fn =
      catalog_->fragment(FragmentType::kAggFunction, space_->functions()[f].frag)
          .fn;
  db::QueryInterner::Id& col = col_ids_[c];
  if (col == db::QueryInterner::kNone) {
    col = interner_->InternColumn(
        catalog_->fragment(FragmentType::kAggColumn, space_->columns()[c].frag)
            .column);
  }
  db::QueryInterner::Id& plist = predlist_ids_[s];
  if (plist == db::QueryInterner::kNone) {
    std::vector<db::QueryInterner::Id> pred_list;
    const auto& frags = space_->subsets()[s].frags;
    pred_list.reserve(frags.size());
    for (int frag : frags) {
      db::QueryInterner::Id& pid = pred_ids_[static_cast<size_t>(frag)];
      if (pid == db::QueryInterner::kNone) {
        const auto& pred = catalog_->fragment(FragmentType::kPredicate, frag);
        pid = interner_->InternPredicate(pred.column, pred.value);
      }
      pred_list.push_back(pid);
    }
    plist = interner_->InternPredList(pred_list);
  }
  return interner_->InternCandidate(fn, col, plist);
}

TranslationResult Translator::Translate(
    const std::vector<claims::Claim>& claims,
    const std::vector<claims::ClaimRelevance>& relevance,
    db::EvalEngine* engine,
    const std::vector<std::optional<db::SimpleAggregateQuery>>* pinned)
    const {
  TranslationResult result;
  const size_t n = claims.size();
  result.partial.assign(n, false);
  result.recovery.assign(n, ClaimRecovery{});
  if (n == 0) return result;

  // Folds the engine's per-query recovery records and surviving failures
  // into per-claim state; `owner_of` maps a batch index to its claim.
  // Returns false only when a hard error has no owning queries to
  // quarantine (a run-level fault) — the one case that still aborts.
  auto absorb_engine_failures =
      [&](db::EvalEngine* eng, const std::function<size_t(size_t)>& owner_of) {
        for (const auto& rec : eng->ConsumeRecoveryRecords()) {
          ClaimRecovery& cr = result.recovery[owner_of(rec.query_index)];
          cr.attempts = std::max(cr.attempts, rec.attempts);
          cr.deepest_rung = std::max(cr.deepest_rung, rec.rung);
          if (rec.recovered) cr.recovered = true;
        }
        std::vector<size_t> failed = eng->ConsumeFailedQueries();
        Status batch_error = eng->ConsumeHardError();
        if (!failed.empty()) {
          // Poison claims: quarantined partials, never erroneous — the run
          // itself continues.
          for (size_t b : failed) {
            const size_t claim_idx = owner_of(b);
            result.recovery[claim_idx].quarantined = true;
            result.partial[claim_idx] = true;
          }
          return true;
        }
        if (!batch_error.ok()) {
          // An unexpected engine error with no query attribution (not
          // exhaustion, not a malformed candidate) aborts the run: its
          // nullopt results must not masquerade as "undefined aggregate"
          // and flip verdicts.
          result.status = batch_error;
          return false;
        }
        return true;
      };

  // Cooperative cancellation: the governor (if any) is scoped to this run
  // by the caller and shared with the evaluation engine.
  const ResourceGovernor* governor = engine->governor();

  // Per-claim work (space construction, candidate selection, final
  // distributions) spreads over the engine's thread pool. Each parallel
  // region writes only its own claim's slot; anything order-sensitive
  // (stats, priors, batch assembly) stays serial, so the output is
  // bit-identical for any thread count.
  ThreadPool* pool = engine->thread_pool();
  auto run_per_claim = [pool](size_t count,
                              const std::function<void(size_t)>& body) {
    if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
      pool->ParallelFor(0, count, body);
    } else {
      for (size_t i = 0; i < count; ++i) body(i);
    }
  };

  auto is_pinned = [&](size_t i) {
    return pinned != nullptr && i < pinned->size() && (*pinned)[i].has_value();
  };
  // Evaluate pinned queries once, up front (each a one-query batch, so
  // engine failures attribute to the pinned claim directly).
  std::vector<EvalOutcome> pinned_outcomes(n);
  for (size_t i = 0; i < n; ++i) {
    if (!is_pinned(i)) continue;
    auto value = engine->Evaluate(*(*pinned)[i]);
    pinned_outcomes[i].result = value;
    pinned_outcomes[i].matches =
        value.has_value() &&
        rounding::Matches(*value, claims[i].claimed_value(),
                          options_.rounding_mode,
                          options_.rounding_tolerance);
    if (!absorb_engine_failures(engine, [i](size_t) { return i; })) {
      return result;
    }
  }

  // Build one candidate space per claim (independent per-claim work over
  // read-only db/catalog state; the catalog warmed every column dictionary
  // when it was built).
  std::vector<std::optional<CandidateSpace>> spaces(n);
  run_per_claim(n, [&](size_t i) {
    spaces[i].emplace(
        CandidateSpace::Build(*db_, *catalog_, relevance[i], options_));
  });
  for (size_t i = 0; i < n; ++i) {
    result.total_candidates += spaces[i]->TotalCandidates();
  }

  // Dependency table sets for incremental re-verification. Pinned claims
  // add their confirmed query's tables (it may sit outside the space).
  result.dependency_tables.resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> extra;
    if (is_pinned(i)) extra = (*pinned)[i]->ReferencedTables();
    result.dependency_tables[i] =
        DependencyTables(*db_, *spaces[i], *catalog_, extra);
  }

  // Evaluation outcomes per claim, keyed by candidate triple.
  std::vector<std::unordered_map<uint64_t, EvalOutcome>> outcomes(n);
  std::vector<std::vector<ScoredTriple>> selections(n);

  // Candidates ship to the engine as interned query ids, encoded through
  // per-claim memo tables that persist across iterations; the naive
  // strategy materializes them back inside the engine. Encoders are created
  // and used only in serial sections (the interner is not thread-safe); the
  // parallel final-distributions loop below sticks to
  // CandidateSpace::Materialize.
  db::QueryInterner& interner = engine->interner();
  std::vector<std::optional<CandidateInterner>> encoders(n);
  auto encoder_for = [&](size_t i) -> CandidateInterner& {
    if (!encoders[i].has_value()) {
      encoders[i].emplace(*spaces[i], *catalog_, interner);
    }
    return *encoders[i];
  };

  // Verification-aware probe stage (DESIGN.md §17): candidates are probed
  // once (per triple, cached across EM iterations via the outcomes map) as
  // they enter their first batch, and a decided candidate skips the batch
  // outright. That is work-proportional charging, so probing runs only
  // when no budget is in play (exhaustion points must not move), and only
  // on the naive strategy: per-candidate scans are where skipping pays — a
  // merged cube computes the pruned slice's neighbours in the same scan.
  // In probe_verify mode decisions are recorded and cross-checked but
  // never acted on, so everything evaluates for real.
  const bool probing =
      options_.probe_pruning &&
      engine->strategy() == db::EvalStrategy::kNaive &&
      (governor == nullptr || governor->limits().unlimited());
  std::optional<CandidateProber> prober;
  std::vector<rounding::MatchInterval> claim_intervals;
  if (probing) {
    prober.emplace(*db_, *catalog_);
    claim_intervals.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      claim_intervals.push_back(rounding::MatchableInterval(
          claims[i].claimed_value(), options_.rounding_mode,
          options_.rounding_tolerance));
    }
  }
  Priors priors = Priors::Uniform(*catalog_);
  if (options_.trace_priors) result.prior_trace.push_back(priors);
  // scope_num_claims pins the budget to the full document's claim count
  // when ReCheck re-translates a subset (see ModelOptions).
  const size_t scope_claims =
      options_.scope_num_claims > 0 ? options_.scope_num_claims : n;
  const ScopeBudget scope = PickScope(*db_, scope_claims, options_);
  const int max_iters = options_.use_priors ? options_.max_em_iterations : 1;
  std::vector<CandidateSelector> selectors;
  selectors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    selectors.emplace_back(*spaces[i], options_.use_priors,
                           scope.eval_per_claim);
  }

  for (int iter = 0; iter < max_iters; ++iter) {
    Status injected;
    AGG_FAULT_POINT_STATUS("em.iterate", injected);
    if (!injected.ok()) {
      result.status = injected;
      return result;
    }
    // Deadline/budget check between iterations: a tripped governor ends
    // refinement; whatever was evaluated so far feeds the final
    // distributions and un-evaluated claims become partial.
    if (governor != nullptr && !governor->CheckPoint().ok()) break;
    ++result.em_iterations;

    // E-step part 1: per-claim candidate selection under current priors.
    // Claims are independent here (priors are read-only until the M-step),
    // so the scoring/ranking work fans out per claim.
    run_per_claim(n, [&](size_t i) {
      if (is_pinned(i)) {
        selections[i].clear();  // fixed translation, nothing to explore
        return;
      }
      selections[i] = selectors[i].Select(
          PriorFactors::Compute(*spaces[i], priors, *catalog_));
    });

    // RefineByEval: evaluate all newly selected candidates in one batch so
    // the engine can merge across claims (§6.2).
    std::vector<db::QueryInterner::Id> batch;
    std::vector<std::pair<size_t, uint64_t>> batch_owner;
    std::vector<uint8_t> probe_batch;  // probe_verify: decided per entry
    for (size_t i = 0; i < n; ++i) {
      for (const ScoredTriple& t : selections[i]) {
        uint64_t key = TripleKey(t.f, t.c, t.s);
        if (outcomes[i].count(key) > 0) continue;
        if (probing) {
          Timer probe_timer;
          const bool decided =
              prober->Probe(*spaces[i], t.f, t.c, t.s, claim_intervals[i],
                            &result.probe_stats);
          result.probe_stats.probe_seconds += probe_timer.ElapsedSeconds();
          if (decided && !options_.probe_verify) {
            // The decided probe IS the outcome; the candidate never
            // evaluates. Sound by the verify-mode contract (the real result
            // never matches), and bit-identity still holds because the
            // top-k backfill restores withheld results before anything is
            // reported.
            EvalOutcome o;
            o.probe_decided = true;
            outcomes[i][key] = o;
            continue;
          }
          probe_batch.push_back(decided ? 1 : 0);
        }
        batch.push_back(encoder_for(i).Encode(t.f, t.c, t.s));
        batch_owner.emplace_back(i, key);
        outcomes[i][key] = EvalOutcome{};  // reserve to avoid dup enqueues
      }
    }
    if (!batch_owner.empty()) {
      result.queries_evaluated += batch_owner.size();
      auto results = engine->EvaluateInterned(batch);
      if (!absorb_engine_failures(engine, [&](size_t b) {
            return batch_owner[std::min(b, batch_owner.size() - 1)].first;
          })) {
        return result;
      }
      for (size_t b = 0; b < batch_owner.size(); ++b) {
        auto [claim_idx, key] = batch_owner[b];
        EvalOutcome& outcome = outcomes[claim_idx][key];
        outcome.result = results[b];
        outcome.matches =
            results[b].has_value() &&
            rounding::Matches(*results[b],
                              claims[claim_idx].claimed_value(),
                              options_.rounding_mode,
                              options_.rounding_tolerance);
        // Soundness (probe_verify): a decided candidate must not match.
        if (probing && probe_batch[b] != 0 && outcome.matches) {
          ++result.probe_stats.probe_conflicts;
        }
      }
    }

    // Stop refining once the budget is spent — the M-step would maximize
    // over aborted (nullopt) evaluations and corrupt the priors.
    if (governor != nullptr && governor->exhausted()) break;

    if (!options_.use_priors) break;

    // M-step: maximum-likelihood query per claim, then re-estimate priors.
    std::vector<db::SimpleAggregateQuery> ml_queries;
    ml_queries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (is_pinned(i)) {
        ml_queries.push_back(*(*pinned)[i]);
        continue;
      }
      // Quarantined claims sit out the maximization: their unevaluated
      // (nullopt) outcomes would bias the priors toward whatever happened
      // to fail, poisoning every other claim's translation.
      if (result.recovery[i].quarantined) continue;
      const ScoredTriple* best = nullptr;
      double best_post = -1;
      for (const ScoredTriple& t : selections[i]) {
        const EvalOutcome& o = outcomes[i].at(TripleKey(t.f, t.c, t.s));
        double post = t.score;
        if (options_.use_eval_results) {
          post *= o.matches ? options_.pT : (1.0 - options_.pT);
        }
        if (post > best_post) {
          best_post = post;
          best = &t;
        }
      }
      if (best != nullptr) {
        // The interned materialization is content-identical to the space's
        // (same catalog fragments), so the priors see the same queries.
        ml_queries.push_back(interner.Materialize(
            encoder_for(i).Encode(best->f, best->c, best->s)));
      }
    }
    Priors next = Priors::FromMlQueries(ml_queries, *catalog_);
    double delta = next.MaxDelta(priors);
    priors = next;
    if (options_.trace_priors) result.prior_trace.push_back(priors);
    if (delta < options_.convergence_tol) break;
  }

  // Graceful degradation: under an exhausted governor, any claim whose
  // selected candidates were not all evaluated to a concrete result is
  // partial. (A nullopt outcome in an exhausted run is indistinguishable
  // from an aborted scan, so the marking is conservative — partial, never
  // erroneous.)
  if (governor != nullptr && governor->exhausted()) {
    for (size_t i = 0; i < n; ++i) {
      if (is_pinned(i)) {
        if (!pinned_outcomes[i].result.has_value()) result.partial[i] = true;
        continue;
      }
      if (selections[i].empty()) {
        result.partial[i] = true;
        continue;
      }
      for (const ScoredTriple& t : selections[i]) {
        auto it = outcomes[i].find(TripleKey(t.f, t.c, t.s));
        // A probe-decided outcome is a *concrete* verdict (matches provably
        // false), not an aborted scan — it never marks partial.
        if (it == outcomes[i].end() || (!it->second.result.has_value() &&
                                        !it->second.probe_decided)) {
          result.partial[i] = true;
          break;
        }
      }
    }
  }

  // Final distributions from the last selection round. Per-claim and
  // independent; each claim's posterior sum runs in its own fixed
  // selection order, so floating-point results do not depend on threads.
  result.distributions.resize(n);
  run_per_claim(n, [&](size_t i) {
    ClaimDistribution& dist = result.distributions[i];
    dist.total_candidates = spaces[i]->TotalCandidates();
    if (is_pinned(i)) {
      // User-confirmed translation: a point mass.
      RankedCandidate cand;
      cand.query = *(*pinned)[i];
      cand.probability = 1.0;
      cand.result = pinned_outcomes[i].result;
      cand.matches = pinned_outcomes[i].matches;
      dist.ranked.push_back(std::move(cand));
      return;
    }
    PriorFactors factors = PriorFactors::Compute(*spaces[i], priors, *catalog_);
    double total = 0;
    for (const ScoredTriple& t : selections[i]) {
      const EvalOutcome& o = outcomes[i].at(TripleKey(t.f, t.c, t.s));
      RankedCandidate cand;
      cand.query = spaces[i]->Materialize(t.f, t.c, t.s, *catalog_);
      cand.keyword_score = spaces[i]->KeywordScore(t.f, t.c, t.s);
      cand.prior = factors.of(t.f, t.c, t.s);
      cand.result = o.result;
      cand.matches = o.matches;
      cand.probe_decided = o.probe_decided;
      double post = cand.keyword_score;
      if (options_.use_priors) post *= cand.prior;
      if (options_.use_eval_results) {
        post *= o.matches ? options_.pT : (1.0 - options_.pT);
      }
      cand.probability = post;
      total += post;
      dist.ranked.push_back(std::move(cand));
    }
    if (total > 0) {
      for (auto& cand : dist.ranked) cand.probability /= total;
    }
    std::sort(dist.ranked.begin(), dist.ranked.end(),
              [](const RankedCandidate& a, const RankedCandidate& b) {
                return a.probability > b.probability;
              });
  });

  // Top-k backfill (DESIGN.md §17): pruned candidates that made it into
  // the reported head of a distribution carry no result; evaluate them for
  // real so reports show actual values. Off-ledger by contract —
  // EvaluateProbeBackfill charges no governor, and the naive strategy
  // caches no results — so later claims and re-checks see identical state
  // either way.
  if (probing && !options_.probe_verify) {
    std::vector<db::SimpleAggregateQuery> back_queries;
    std::vector<std::pair<size_t, size_t>> back_owner;  // (claim, rank)
    for (size_t i = 0; i < n; ++i) {
      if (is_pinned(i)) continue;
      ClaimDistribution& dist = result.distributions[i];
      size_t limit = std::min(options_.probe_backfill_top_k,
                              dist.ranked.size());
      for (size_t r = 0; r < limit; ++r) {
        const RankedCandidate& cand = dist.ranked[r];
        if (!cand.probe_decided || cand.result.has_value()) continue;
        back_queries.push_back(cand.query);
        back_owner.emplace_back(i, r);
      }
    }
    if (!back_owner.empty()) {
      Timer backfill_timer;
      auto back = engine->EvaluateProbeBackfill(back_queries);
      // The backfill is best-effort cosmetics: failures leave the (already
      // correct) probe verdict in place, and must not leak into this run's
      // recovery/error ledgers.
      (void)engine->ConsumeRecoveryRecords();
      (void)engine->ConsumeFailedQueries();
      (void)engine->ConsumeHardError();
      for (size_t b = 0; b < back.size(); ++b) {
        auto [claim_idx, rank] = back_owner[b];
        RankedCandidate& cand = result.distributions[claim_idx].ranked[rank];
        cand.result = back[b];
        cand.matches =
            back[b].has_value() &&
            rounding::Matches(*back[b], claims[claim_idx].claimed_value(),
                              options_.rounding_mode,
                              options_.rounding_tolerance);
        ++result.probe_stats.backfilled;
      }
      result.probe_stats.probe_seconds += backfill_timer.ElapsedSeconds();
    }
  }

  // A claim counts as recovered only when every one of its failing queries
  // healed; a later quarantine overrides earlier successes.
  for (ClaimRecovery& cr : result.recovery) {
    if (cr.quarantined) cr.recovered = false;
  }
  return result;
}

}  // namespace model
}  // namespace aggchecker
