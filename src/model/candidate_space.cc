#include "model/candidate_space.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "util/strings.h"

namespace aggchecker {
namespace model {

namespace {

using fragments::FragmentType;

/// True when `table` sits in the FK component of some keyword-supported
/// table (or is one itself) — the scope star-column padding is allowed to
/// reach. JoinPlan succeeds exactly for connected pairs.
bool InSupportedComponent(const db::Database& db, const std::string& table,
                          const std::set<std::string>& support) {
  for (const std::string& s : support) {
    if (s == table || db.JoinPlan({table, s}).ok()) return true;
  }
  return false;
}

/// Smoothes and normalizes raw retrieval scores over a considered set.
void Normalize(std::vector<ScoredOption>* options, double smoothing) {
  double max_score = 0;
  for (const auto& o : *options) max_score = std::max(max_score, o.norm_score);
  double eps = smoothing * (max_score > 0 ? max_score : 1.0);
  double total = 0;
  for (auto& o : *options) {
    o.norm_score += eps;
    total += o.norm_score;
  }
  if (total <= 0) return;
  for (auto& o : *options) o.norm_score /= total;
}

}  // namespace

std::vector<PredicateSubset> TopPredicateSubsets(
    const fragments::FragmentCatalog& catalog,
    const std::vector<ScoredOption>& preds, int max_predicates,
    size_t max_subsets) {
  // Each retrieved predicate's catalog column, resolved once.
  std::vector<int> cols;
  cols.reserve(preds.size());
  for (const ScoredOption& p : preds) {
    cols.push_back(catalog.PredicateColumnIndex(
        catalog.fragment(FragmentType::kPredicate, p.frag).column));
  }

  // Generation: breadth-first by size from the empty subset (record 0);
  // each subset extends only with later positions, one predicate per
  // column. A record is (parent record, last position, score), so the
  // generation index of a subset is its record index.
  struct Record {
    int parent;
    int pos;
    double score;
  };
  std::vector<Record> records{Record{-1, -1, 1.0}};
  size_t level_begin = 0;
  for (int size = 1; size <= max_predicates; ++size) {
    const size_t level_end = records.size();
    for (size_t r = level_begin; r < level_end; ++r) {
      const Record parent = records[r];
      for (size_t p = static_cast<size_t>(parent.pos + 1); p < preds.size();
           ++p) {
        bool clash = false;
        for (int a = static_cast<int>(r); a > 0; a = records[a].parent) {
          clash |= cols[static_cast<size_t>(records[a].pos)] == cols[p];
        }
        if (clash) continue;
        records.push_back(Record{static_cast<int>(r), static_cast<int>(p),
                                 parent.score * preds[p].norm_score});
      }
    }
    level_begin = level_end;
  }

  // Keep the top max_subsets by score descending, then generation index
  // ascending (DESIGN.md §18), and materialize only those.
  std::vector<int> kept(records.size());
  std::iota(kept.begin(), kept.end(), 0);
  auto before = [&](int x, int y) {
    if (records[x].score != records[y].score) {
      return records[x].score > records[y].score;
    }
    return x < y;
  };
  if (kept.size() > max_subsets) {
    std::nth_element(kept.begin(), kept.begin() + max_subsets, kept.end(),
                     before);
    kept.resize(max_subsets);
  }
  std::sort(kept.begin(), kept.end(), before);
  std::vector<PredicateSubset> subsets(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    PredicateSubset& subset = subsets[i];
    subset.norm_score = records[kept[i]].score;
    for (int a = kept[i]; a > 0; a = records[a].parent) {
      subset.frags.push_back(preds[records[a].pos].frag);
      subset.restrict_cols.push_back(cols[records[a].pos]);
    }
    std::reverse(subset.frags.begin(), subset.frags.end());
    std::reverse(subset.restrict_cols.begin(), subset.restrict_cols.end());
  }
  return subsets;
}

CandidateSpace CandidateSpace::Build(
    const db::Database& db, const fragments::FragmentCatalog& catalog,
    const claims::ClaimRelevance& relevance, const ModelOptions& options) {
  CandidateSpace space;

  // --- Aggregation functions: all of them, with retrieved scores where
  // available (claims often omit the function — §7.3). ---
  {
    const auto& all_fns = catalog.fragments(FragmentType::kAggFunction);
    std::vector<double> scores(all_fns.size(), 0.0);
    for (const auto& hit : relevance.functions) {
      scores[static_cast<size_t>(hit.fragment_index)] = hit.score;
    }
    for (size_t i = 0; i < all_fns.size(); ++i) {
      space.functions_.push_back(ScoredOption{static_cast<int>(i),
                                              scores[i]});
    }
    Normalize(&space.functions_, options.score_smoothing);
  }

  // --- Aggregation columns: retrieved hits plus every table's "*" fragment
  // (so Count(*) is always reachable), capped at max_agg_columns. ---
  {
    std::vector<ScoredOption> cols;
    std::vector<bool> seen(
        catalog.fragments(FragmentType::kAggColumn).size(), false);
    for (const auto& hit : relevance.columns) {
      cols.push_back(ScoredOption{hit.fragment_index, hit.score});
      seen[static_cast<size_t>(hit.fragment_index)] = true;
    }
    // Stable: equal scores keep retrieval order (DESIGN.md §18).
    std::stable_sort(cols.begin(), cols.end(),
                     [](const ScoredOption& a, const ScoredOption& b) {
                       return a.norm_score > b.norm_score;
                     });
    if (cols.size() > options.max_agg_columns) {
      cols.resize(options.max_agg_columns);
    }
    // Star padding stays inside the FK components the claim's keywords
    // actually reached (retrieved agg columns and predicates): a claim
    // whose keywords never touch a disconnected domain gets no Count(*)
    // over it, keeping its candidate space — and thus its dependency stamp
    // for incremental re-verification (DESIGN.md §16) — confined to the
    // tables it can plausibly read. Claims with no keyword support at all
    // keep the full padding so count-only claims stay reachable. For
    // single-component databases (every corpus case) this changes nothing.
    std::set<std::string> support;
    for (const ScoredOption& c : cols) {
      const auto& frag = catalog.fragment(FragmentType::kAggColumn, c.frag);
      if (!frag.column.table.empty()) {
        support.insert(strings::ToLower(frag.column.table));
      }
    }
    for (const auto& hit : relevance.predicates) {
      const auto& frag =
          catalog.fragment(FragmentType::kPredicate, hit.fragment_index);
      if (!frag.column.table.empty()) {
        support.insert(strings::ToLower(frag.column.table));
      }
    }
    const auto& all_cols = catalog.fragments(FragmentType::kAggColumn);
    for (size_t i = 0; i < all_cols.size(); ++i) {
      if (all_cols[i].is_star_column() && !seen[i] &&
          (support.empty() ||
           InSupportedComponent(db, strings::ToLower(all_cols[i].column.table),
                                support))) {
        cols.push_back(ScoredOption{static_cast<int>(i), 0.0});
      }
    }
    space.columns_ = std::move(cols);
    Normalize(&space.columns_, options.score_smoothing);
  }

  // --- Predicate subsets: all subsets of the retrieved predicates with
  // pairwise distinct columns, up to max_predicates, ranked by the product
  // of normalized scores, capped at max_pred_subsets. ---
  {
    // Normalized scores of individual predicate fragments.
    std::vector<ScoredOption> preds;
    for (const auto& hit : relevance.predicates) {
      preds.push_back(ScoredOption{hit.fragment_index, hit.score});
    }
    Normalize(&preds, options.score_smoothing);

    space.subsets_ = TopPredicateSubsets(catalog, preds,
                                         options.max_predicates,
                                         options.max_pred_subsets);
  }

  // --- Compatibility matrix. ---
  space.compat_.assign(space.functions_.size() * space.columns_.size(),
                       false);
  space.fn_needs_predicate_.assign(space.functions_.size(), false);
  for (size_t f = 0; f < space.functions_.size(); ++f) {
    const auto& fn_frag = catalog.fragment(FragmentType::kAggFunction,
                                           space.functions_[f].frag);
    space.fn_needs_predicate_[f] =
        fn_frag.fn == db::AggFn::kConditionalProbability;
    for (size_t c = 0; c < space.columns_.size(); ++c) {
      const auto& col_frag =
          catalog.fragment(FragmentType::kAggColumn, space.columns_[c].frag);
      bool ok = true;
      if (col_frag.is_star_column()) {
        ok = fn_frag.fn == db::AggFn::kCount ||
             fn_frag.fn == db::AggFn::kPercentage ||
             fn_frag.fn == db::AggFn::kConditionalProbability;
      } else if (db::RequiresNumericColumn(fn_frag.fn)) {
        const db::Column* column = db.FindColumn(col_frag.column);
        ok = column != nullptr && column->is_numeric();
      } else if (fn_frag.fn == db::AggFn::kCount ||
                 fn_frag.fn == db::AggFn::kConditionalProbability) {
        // Canonicalization: Count over a null-free column is equivalent to
        // Count(*); keep only the canonical star form so equivalent
        // candidates do not split probability mass or steal the top rank.
        const db::Column* column = db.FindColumn(col_frag.column);
        ok = column != nullptr && column->null_count() > 0;
      }
      // Note: CountDistinct over a unique key column is numerically the
      // row count, but "270 respondents" phrasings naturally map to
      // CountDistinct(RespondentID); those candidates stay, and the
      // metrics treat count-family candidates with identical predicates
      // and identical results as the same translation.
      space.compat_[f * space.columns_.size() + c] = ok;
    }
  }
  return space;
}

size_t CandidateSpace::NumValid() const {
  size_t empty_subsets = 0;
  for (const PredicateSubset& s : subsets_) {
    if (s.frags.empty()) ++empty_subsets;
  }
  size_t valid = 0;
  for (size_t f = 0; f < functions_.size(); ++f) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (!compat_[f * columns_.size() + c]) continue;
      valid += subsets_.size() - (fn_needs_predicate_[f] ? empty_subsets : 0);
    }
  }
  return valid;
}

db::SimpleAggregateQuery CandidateSpace::Materialize(
    size_t f, size_t c, size_t s,
    const fragments::FragmentCatalog& catalog) const {
  db::SimpleAggregateQuery q;
  q.fn = catalog.fragment(FragmentType::kAggFunction, functions_[f].frag).fn;
  q.agg_column =
      catalog.fragment(FragmentType::kAggColumn, columns_[c].frag).column;
  for (int frag : subsets_[s].frags) {
    const auto& pred = catalog.fragment(FragmentType::kPredicate, frag);
    q.predicates.push_back(db::Predicate{pred.column, pred.value});
  }
  return q;
}

}  // namespace model
}  // namespace aggchecker
