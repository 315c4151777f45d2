#include "db/eval_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/query_interner.h"
#include "db/relation_cache.h"
#include "test_fixtures.h"
#include "util/resource_governor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace db {
namespace {

/// Hexfloat fingerprint of a batch result: bit-identical or nothing.
std::string ResultFingerprint(
    const std::vector<std::optional<double>>& results) {
  std::string fp;
  char buf[64];
  for (const auto& r : results) {
    if (r.has_value()) {
      std::snprintf(buf, sizeof(buf), "%a;", *r);
      fp += buf;
    } else {
      fp += "nullopt;";
    }
  }
  return fp;
}

/// Randomized two-table PK-FK database (same family as the relation-cache
/// differential test): customers(id, region) and orders(id, customer_id,
/// amount, status), with some dangling FKs.
Database MakeRandomShopDatabase(uint64_t seed) {
  Rng rng(seed);
  Database database("shop");
  const char* kRegions[] = {"east", "west", "north"};
  const char* kStatus[] = {"open", "paid", "void"};
  const int num_customers = static_cast<int>(rng.NextInt(3, 12));
  {
    Table customers("customers");
    (void)customers.AddColumn("id", ValueType::kLong);
    (void)customers.AddColumn("region", ValueType::kString);
    for (int i = 0; i < num_customers; ++i) {
      (void)customers.AddRow(
          {Value(static_cast<int64_t>(i)),
           Value(std::string(kRegions[rng.NextBounded(3)]))});
    }
    (void)database.AddTable(std::move(customers));
  }
  {
    Table orders("orders");
    (void)orders.AddColumn("id", ValueType::kLong);
    (void)orders.AddColumn("customer_id", ValueType::kLong);
    (void)orders.AddColumn("amount", ValueType::kDouble);
    (void)orders.AddColumn("status", ValueType::kString);
    const int num_orders = static_cast<int>(rng.NextInt(20, 80));
    for (int i = 0; i < num_orders; ++i) {
      int64_t cust = rng.NextBounded(10) == 0
                         ? static_cast<int64_t>(num_customers + 100)
                         : static_cast<int64_t>(
                               rng.NextBounded(
                                   static_cast<uint64_t>(num_customers)));
      (void)orders.AddRow(
          {Value(static_cast<int64_t>(i)), Value(cust),
           Value(rng.NextDouble() * 100.0 - 20.0),
           Value(std::string(kStatus[rng.NextBounded(3)]))});
    }
    (void)database.AddTable(std::move(orders));
  }
  (void)database.AddForeignKey({"orders", "customer_id"},
                               {"customers", "id"});
  return database;
}

/// A batch that exercises every merge-relevant shape: single- and two-table
/// relations, several dimension sets (including shared ones so the result
/// cache and rollup paths fire), every aggregate function, an invalid
/// query, and an unsatisfiable conjunction.
std::vector<SimpleAggregateQuery> MakeMixedBatch() {
  std::vector<SimpleAggregateQuery> batch;
  for (const char* region : {"east", "west", "north", "nowhere"}) {
    SimpleAggregateQuery q;
    q.fn = AggFn::kCount;
    q.agg_column = {"orders", ""};
    q.predicates.push_back(
        {{"customers", "region"}, Value(std::string(region))});
    batch.push_back(q);
    q.fn = AggFn::kSum;
    q.agg_column = {"orders", "amount"};
    batch.push_back(q);
    q.fn = AggFn::kAvg;
    batch.push_back(q);
    q.fn = AggFn::kMin;
    batch.push_back(q);
    q.fn = AggFn::kMax;
    batch.push_back(q);
    q.fn = AggFn::kCountDistinct;
    q.agg_column = {"orders", "status"};
    batch.push_back(q);
    // Adds orders.status as a second dimension.
    q.fn = AggFn::kCount;
    q.agg_column = {"orders", ""};
    q.predicates.push_back(
        {{"orders", "status"}, Value(std::string("paid"))});
    batch.push_back(q);
  }
  for (const char* status : {"open", "paid", "void"}) {
    SimpleAggregateQuery q;
    q.fn = AggFn::kCount;
    q.agg_column = {"orders", ""};
    q.predicates.push_back(
        {{"orders", "status"}, Value(std::string(status))});
    batch.push_back(q);
    q.fn = AggFn::kConditionalProbability;
    q.predicates.push_back(
        {{"customers", "region"}, Value(std::string("east"))});
    batch.push_back(q);
  }
  {
    // Invalid: unknown column -> nullopt on every path.
    SimpleAggregateQuery q;
    q.fn = AggFn::kSum;
    q.agg_column = {"orders", "ghost"};
    batch.push_back(q);
  }
  {
    // Unsatisfiable conjunction: same column, two values.
    SimpleAggregateQuery q;
    q.fn = AggFn::kSum;
    q.agg_column = {"orders", "amount"};
    q.predicates.push_back(
        {{"orders", "status"}, Value(std::string("open"))});
    q.predicates.push_back(
        {{"orders", "status"}, Value(std::string("paid"))});
    batch.push_back(q);
  }
  {
    // Duplicate of an earlier query: the result cache must serve it.
    SimpleAggregateQuery q;
    q.fn = AggFn::kCount;
    q.agg_column = {"orders", ""};
    q.predicates.push_back(
        {{"orders", "status"}, Value(std::string("paid"))});
    batch.push_back(q);
  }
  return batch;
}

/// Interns `batch` through `engine`'s interner, in batch order.
std::vector<QueryInterner::Id> InternAll(
    EvalEngine& engine, const std::vector<SimpleAggregateQuery>& batch) {
  std::vector<QueryInterner::Id> ids;
  ids.reserve(batch.size());
  for (const auto& q : batch) ids.push_back(engine.interner().InternQuery(q));
  return ids;
}

/// Property: the merged planner (with and without its result cache) is
/// bit-identical to the naive strategy — one independent scan per query —
/// at every thread count, across randomized schemas. The plan cache is an
/// equivalence, not an approximation.
class PlanCacheDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanCacheDiffTest, FingerprintOnOffBitIdenticalAcrossStrategies) {
  auto database = MakeRandomShopDatabase(GetParam());
  const auto batch = MakeMixedBatch();

  // Reference: the naive strategy, serial.
  std::string reference;
  {
    database.relation_cache().Clear();
    EvalEngine naive(&database, EvalStrategy::kNaive);
    reference = ResultFingerprint(naive.EvaluateBatch(batch));
    // The naive strategy plans nothing.
    EXPECT_EQ(naive.stats().plans_built, 0u);
    EXPECT_EQ(naive.stats().plan_cache_hits, 0u);
  }
  for (EvalStrategy strategy :
       {EvalStrategy::kMerged, EvalStrategy::kMergedCached}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      database.relation_cache().Clear();
      EvalEngine engine(&database, strategy);
      ThreadPool pool(threads);
      if (threads > 1) engine.SetThreadPool(&pool);
      EXPECT_EQ(ResultFingerprint(engine.EvaluateBatch(batch)), reference)
          << EvalStrategyName(strategy) << " threads=" << threads;
      // Each (relation, dim-set) plan is built at most once per engine.
      EXPECT_GT(engine.stats().plans_built, 0u);
    }
  }
}

/// Property: governor charge totals depend on neither the thread count nor
/// the entry point (EvaluateBatch over queries vs EvaluateInterned over
/// ids) — same scans, same joins, same cube shells, so charge-identical,
/// not just result-identical.
TEST_P(PlanCacheDiffTest, GovernorChargeTotalsMatchAcrossModes) {
  auto database = MakeRandomShopDatabase(GetParam());
  const auto batch = MakeMixedBatch();

  for (EvalStrategy strategy : {EvalStrategy::kNaive, EvalStrategy::kMerged,
                                EvalStrategy::kMergedCached}) {
    std::string reference_results;
    GovernorUsage reference;
    bool have_reference = false;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      for (bool by_id : {false, true}) {
        database.relation_cache().Clear();
        EvalEngine engine(&database, strategy);
        ThreadPool pool(threads);
        if (threads > 1) engine.SetThreadPool(&pool);
        ResourceGovernor governor;  // unlimited: counts, never trips
        engine.SetGovernor(&governor);
        const std::string results = ResultFingerprint(
            by_id ? engine.EvaluateInterned(InternAll(engine, batch))
                  : engine.EvaluateBatch(batch));
        const GovernorUsage usage = governor.usage();
        if (!have_reference) {
          reference_results = results;
          reference = usage;
          have_reference = true;
          continue;
        }
        const std::string where = std::string(EvalStrategyName(strategy)) +
                                  " threads=" + std::to_string(threads) +
                                  (by_id ? " EvaluateInterned"
                                         : " EvaluateBatch");
        EXPECT_EQ(results, reference_results) << where;
        EXPECT_EQ(usage.rows_charged, reference.rows_charged) << where;
        EXPECT_EQ(usage.cube_groups_charged, reference.cube_groups_charged)
            << where;
        EXPECT_EQ(usage.memory_bytes_charged, reference.memory_bytes_charged)
            << where;
      }
    }
  }
}

/// Metamorphic property of the result cache: how a workload is cut into
/// batches, and in which order its queries arrive, must not change any
/// query's result. The mixed batch split into two consecutive batches on
/// one engine, the whole batch re-run on that warm engine (served partly
/// from the halves' cached slices), and the mixed batch in reverse order
/// (a different group order, so different rollup reuse) all answer every
/// query bit-identically to the one-batch run.
TEST_P(PlanCacheDiffTest, MergedCachedResultsIgnoreBatchSplitAndOrder) {
  auto database = MakeRandomShopDatabase(GetParam());
  const auto batch = MakeMixedBatch();
  const size_t half = batch.size() / 2;
  const std::vector<SimpleAggregateQuery> first(batch.begin(),
                                                batch.begin() + half);
  const std::vector<SimpleAggregateQuery> second(batch.begin() + half,
                                                 batch.end());
  const std::vector<SimpleAggregateQuery> reversed(batch.rbegin(),
                                                   batch.rend());

  for (size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool pool(threads);
    auto make_engine = [&] {
      database.relation_cache().Clear();
      auto engine =
          std::make_unique<EvalEngine>(&database, EvalStrategy::kMergedCached);
      if (threads > 1) engine->SetThreadPool(&pool);
      return engine;
    };

    const std::vector<std::optional<double>> one_batch =
        make_engine()->EvaluateBatch(batch);
    ASSERT_EQ(one_batch.size(), batch.size());

    auto split_engine = make_engine();
    std::vector<std::optional<double>> split =
        split_engine->EvaluateBatch(first);
    const auto tail = split_engine->EvaluateBatch(second);
    split.insert(split.end(), tail.begin(), tail.end());
    EXPECT_EQ(ResultFingerprint(split), ResultFingerprint(one_batch))
        << "split, threads=" << threads;
    // The whole batch once more on the same engine: it reads slices the two
    // halves cached, and must still answer exactly like a cold engine.
    const size_t hits_before = split_engine->stats().cache_hits;
    EXPECT_EQ(ResultFingerprint(split_engine->EvaluateBatch(batch)),
              ResultFingerprint(one_batch))
        << "warm rerun, threads=" << threads;
    EXPECT_GT(split_engine->stats().cache_hits, hits_before);

    std::vector<std::optional<double>> backwards =
        make_engine()->EvaluateBatch(reversed);
    std::reverse(backwards.begin(), backwards.end());
    EXPECT_EQ(ResultFingerprint(backwards), ResultFingerprint(one_batch))
        << "reversed, threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheDiffTest,
                         ::testing::Range(uint64_t{9100}, uint64_t{9108}));

/// The point of the plan cache: a re-evaluated batch (the EM loop's steady
/// state) builds zero new plans — every group is a plan-cache hit — and
/// stays bit-identical.
TEST(PlanCacheReuseTest, SecondBatchBuildsNoNewPlans) {
  auto database = MakeRandomShopDatabase(4242);
  const auto batch = MakeMixedBatch();
  EvalEngine engine(&database, EvalStrategy::kMergedCached);
  const std::string first = ResultFingerprint(engine.EvaluateBatch(batch));
  const size_t plans_after_first = engine.stats().plans_built;
  const size_t hits_after_first = engine.stats().plan_cache_hits;
  ASSERT_GT(plans_after_first, 0u);

  const std::string second = ResultFingerprint(engine.EvaluateBatch(batch));
  EXPECT_EQ(second, first);
  EXPECT_EQ(engine.stats().plans_built, plans_after_first);
  EXPECT_GT(engine.stats().plan_cache_hits, hits_after_first);

  // ClearCache drops results, never plans: the third run re-executes cubes
  // but still plans nothing new.
  engine.ClearCache();
  const std::string third = ResultFingerprint(engine.EvaluateBatch(batch));
  EXPECT_EQ(third, first);
  EXPECT_EQ(engine.stats().plans_built, plans_after_first);
}

/// EvaluateInterned (the translator's id-shipping path) is the same
/// computation as EvaluateBatch over the materialized queries.
TEST(PlanCacheReuseTest, EvaluateInternedMatchesEvaluateBatch) {
  auto database = MakeRandomShopDatabase(4243);
  const auto batch = MakeMixedBatch();

  EvalEngine by_query(&database, EvalStrategy::kMergedCached);
  const std::string expected =
      ResultFingerprint(by_query.EvaluateBatch(batch));

  database.relation_cache().Clear();
  EvalEngine by_id(&database, EvalStrategy::kMergedCached);
  EXPECT_EQ(ResultFingerprint(by_id.EvaluateInterned(InternAll(by_id, batch))),
            expected);
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
