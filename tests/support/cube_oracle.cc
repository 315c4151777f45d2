#include "support/cube_oracle.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "db/aggregate.h"
#include "db/joined_relation.h"
#include "db/relation_cache.h"

namespace aggchecker {
namespace db {

Status ExecuteCubeOracleInto(const Database& db, CubeResult& result,
                             ScanStats* stats,
                             const ResourceGovernor* governor,
                             RelationCache* relation_cache) {
  const std::vector<ColumnRef>& dims = result.dims();
  const std::vector<CubeAggregate>& aggregates = result.aggregates();
  if (dims.size() != result.literals().size()) {
    return Status::InvalidArgument("dims/literals size mismatch");
  }
  if (aggregates.empty()) {
    return Status::InvalidArgument("cube query needs at least one aggregate");
  }
  for (const CubeAggregate& agg : aggregates) {
    if (agg.fn == AggFn::kPercentage ||
        agg.fn == AggFn::kConditionalProbability) {
      return Status::InvalidArgument(
          "ratio aggregates must be derived from counts, not cubed directly");
    }
  }
  if (dims.size() > CubeResult::kMaxDims) {
    return Status::Unsupported("cube dimensionality above 4 not supported");
  }

  // The relation joins every table a dimension or aggregate references.
  std::set<std::string> table_set;
  for (const ColumnRef& dim : dims) table_set.insert(dim.table);
  for (const CubeAggregate& a : aggregates) {
    if (!a.column.table.empty()) table_set.insert(a.column.table);
  }
  if (table_set.empty()) {
    return Status::InvalidArgument("cube query references no table");
  }
  ResourceGovernor::Shard shard(governor);
  RelationCache::AcquireInfo join_info;
  auto acquired = AcquireOrBuildRelation(
      relation_cache, db,
      std::vector<std::string>(table_set.begin(), table_set.end()), shard,
      &join_info);
  if (stats != nullptr) {
    stats->joins_built += join_info.built ? 1 : 0;
    stats->join_cache_hits += join_info.hit ? 1 : 0;
    stats->join_seconds += join_info.build_seconds;
  }
  if (!acquired.ok()) return acquired.status();
  const JoinedRelation& rel = **acquired;

  const size_t d = dims.size();
  std::vector<JoinedRelation::Binding> dim_bindings;
  std::vector<const std::vector<int32_t>*> dim_codes;
  std::vector<std::vector<int16_t>> code_to_bucket(d);
  for (size_t i = 0; i < d; ++i) {
    auto b = rel.Bind(dims[i]);
    if (!b.ok()) return b.status();
    dim_bindings.push_back(*b);
    dim_codes.push_back(&b->column->Codes());
    const auto& distinct = b->column->DistinctValues();
    for (const Value& v : distinct) {
      code_to_bucket[i].push_back(result.BucketOf(i, v));
    }
  }
  std::vector<JoinedRelation::Binding> agg_bindings(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (aggregates[a].is_star()) continue;
    auto b = rel.Bind(aggregates[a].column);
    if (!b.ok()) return b.status();
    agg_bindings[a] = *b;
  }

  const size_t num_subsets = static_cast<size_t>(1) << d;
  const Value star_placeholder(static_cast<int64_t>(1));
  const uint64_t combo_bytes =
      kModeledComboBytes + num_subsets * sizeof(uint32_t);
  const uint64_t group_bytes =
      kModeledGroupBaseBytes + aggregates.size() * kModeledAggStateBytes;

  // Group accumulators, addressed by dense index; `group_keys` remembers
  // each group's packed bucket key for the final result assembly.
  std::vector<std::vector<Aggregator>> groups;
  std::vector<uint64_t> group_keys;
  std::unordered_map<uint64_t, uint32_t> group_index;

  // Rows sharing a bucket combination update the same 2^d groups; cache
  // the group-id fan-out per combination so the hot loop performs a single
  // hash lookup per row.
  std::unordered_map<uint64_t, uint32_t> combo_index;
  std::vector<std::vector<uint32_t>> combo_groups;

  int16_t row_buckets[CubeResult::kMaxDims] = {0, 0, 0, 0};
  int16_t key_buckets[CubeResult::kMaxDims] = {0, 0, 0, 0};

  const size_t num_rows = rel.num_rows();
  constexpr size_t kBlock = ResourceGovernor::kCheckIntervalRows;
  for (size_t r = 0; r < num_rows; ++r) {
    if ((r % kBlock) == 0) {
      Status charge =
          shard.ChargeRows(std::min<uint64_t>(kBlock, num_rows - r));
      if (!charge.ok()) return charge;
    }
    for (size_t i = 0; i < d; ++i) {
      int32_t code = (*dim_codes[i])[dim_bindings[i].base_row(r)];
      row_buckets[i] = code < 0 ? kDefaultBucket : code_to_bucket[i][code];
    }
    auto [combo_it, combo_new] =
        combo_index.try_emplace(CubeResult::PackKey(row_buckets, d),
                                static_cast<uint32_t>(combo_groups.size()));
    if (combo_new) {
      // First row with this bucket combination: resolve (creating on
      // demand) the 2^d groups it contributes to.
      Status mem = shard.ChargeMemoryBytes(combo_bytes);
      if (!mem.ok()) return mem;
      std::vector<uint32_t> fanout;
      fanout.reserve(num_subsets);
      uint64_t new_groups = 0;
      for (size_t mask = 0; mask < num_subsets; ++mask) {
        for (size_t i = 0; i < d; ++i) {
          key_buckets[i] = (mask & (1u << i)) ? row_buckets[i] : kAllBucket;
        }
        auto [it, inserted] = group_index.try_emplace(
            CubeResult::PackKey(key_buckets, d),
            static_cast<uint32_t>(groups.size()));
        if (inserted) {
          std::vector<Aggregator> accs;
          accs.reserve(aggregates.size());
          for (const CubeAggregate& a : aggregates) accs.emplace_back(a.fn);
          groups.push_back(std::move(accs));
          group_keys.push_back(it->first);
          ++new_groups;
        }
        fanout.push_back(it->second);
      }
      combo_groups.push_back(std::move(fanout));
      if (new_groups > 0) {
        Status charge = shard.ChargeCubeGroups(new_groups);
        if (!charge.ok()) return charge;
        Status gmem = shard.ChargeMemoryBytes(new_groups * group_bytes);
        if (!gmem.ok()) return gmem;
      }
    }
    for (uint32_t group : combo_groups[combo_it->second]) {
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const Value& v = aggregates[a].is_star() ? star_placeholder
                                                 : agg_bindings[a].at(r);
        groups[group][a].Add(v);
      }
    }
  }

  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t a = 0; a < groups[g].size(); ++a) {
      std::optional<double> v = groups[g][a].Finish();
      if (v.has_value()) result.SetPacked(group_keys[g], a, *v);
    }
  }
  if (stats != nullptr) stats->rows_scanned += num_rows;
  result.charges.rows = num_rows;
  result.charges.combos = combo_groups.size();
  result.charges.groups = groups.size();
  return Status::OK();
}

Result<std::shared_ptr<CubeResult>> ExecuteCubeOracle(
    const Database& db, const std::vector<ColumnRef>& dims,
    const std::vector<std::vector<Value>>& relevant_literals,
    const std::vector<CubeAggregate>& aggregates, ScanStats* stats,
    const ResourceGovernor* governor, RelationCache* relation_cache) {
  auto result =
      std::make_shared<CubeResult>(dims, relevant_literals, aggregates);
  Status status = ExecuteCubeOracleInto(db, *result, stats, governor,
                                        relation_cache);
  if (!status.ok()) return status;
  return result;
}

Result<std::optional<double>> AnswerByOracle(const Database& db,
                                             const SimpleAggregateQuery& q) {
  if (!QueryExecutor(&db).Validate(q).ok()) return std::optional<double>{};
  // Normalized predicates: one per column, sorted by column like the
  // engine's cube dimensions.
  std::vector<Predicate> preds;
  for (const Predicate& p : q.predicates) {
    auto same = std::find_if(preds.begin(), preds.end(), [&](const Predicate& o) {
      return o.column == p.column;
    });
    if (same == preds.end()) {
      preds.push_back(p);
    } else if (!(same->value == p.value)) {
      return Status::InvalidArgument("unsatisfiable predicate conjunction");
    }
  }
  std::sort(preds.begin(), preds.end(),
            [](const Predicate& a, const Predicate& b) {
              return a.column < b.column;
            });
  std::vector<ColumnRef> dims;
  std::vector<std::vector<Value>> literals;
  for (const Predicate& p : preds) {
    dims.push_back(p.column);
    literals.push_back({p.value});
  }
  const bool ratio = q.fn == AggFn::kPercentage ||
                     q.fn == AggFn::kConditionalProbability;
  CubeAggregate agg;
  agg.fn = ratio ? AggFn::kCount : q.fn;
  agg.column = q.agg_column;
  auto cube = ExecuteCubeOracle(db, dims, literals, {agg});
  if (!cube.ok()) return cube.status();

  const size_t nd = dims.size();
  std::vector<int16_t> all(nd, kAllBucket);
  std::vector<int16_t> key(nd);
  for (size_t d = 0; d < nd; ++d) key[d] = (*cube)->BucketOf(d, preds[d].value);
  auto count = [&](const std::vector<int16_t>& k) {
    return (*cube)->Lookup(k, 0).value_or(0.0);
  };
  auto quotient = [&](const std::vector<int16_t>& den_key) {
    const double den = count(den_key);
    if (den == 0.0) return std::optional<double>{};
    return std::optional<double>{count(key) * 100.0 / den};
  };
  if (q.fn == AggFn::kPercentage) {
    std::vector<int16_t> den_key = key;
    for (size_t d = 0; d < nd; ++d) {
      if (!q.is_star() && dims[d] == q.agg_column) den_key[d] = kAllBucket;
    }
    return quotient(den_key);
  }
  if (q.fn == AggFn::kConditionalProbability) {
    std::vector<int16_t> den_key = all;
    if (!q.predicates.empty()) {
      for (size_t d = 0; d < nd; ++d) {
        if (dims[d] == q.predicates[0].column) den_key[d] = key[d];
      }
    }
    return quotient(den_key);
  }
  std::optional<double> v = (*cube)->Lookup(key, 0);
  if (!v.has_value() &&
      (q.fn == AggFn::kCount || q.fn == AggFn::kCountDistinct)) {
    return std::optional<double>{0.0};
  }
  return v;
}

}  // namespace db
}  // namespace aggchecker
