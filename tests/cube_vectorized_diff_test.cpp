// Differential property test for cube execution: on randomized schemas,
// joins, and cube specs — NULL-heavy columns, NaN/Inf measures, mixed
// long/double cells, high-cardinality dimensions, star aggregates — the
// production combo-partitioned pipeline must produce results
// *bit-identical* to the row-at-a-time scalar oracle (tests/support), for
// any thread count, and charge the same governor totals.

#include "db/cube.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/cube_oracle.h"
#include "util/resource_governor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace db {
namespace {

// Bit-exact comparison: nullopt only equals nullopt, values must match as
// raw bit patterns (catches sign-of-zero and NaN-payload drift that
// EXPECT_DOUBLE_EQ would miss).
bool BitEqual(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &*a, sizeof(ab));
  std::memcpy(&bb, &*b, sizeof(bb));
  return ab == bb;
}

std::string Render(const std::optional<double>& v) {
  if (!v.has_value()) return "<missing>";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", *v);
  return buf;
}

struct CubeSpec {
  std::vector<ColumnRef> dims;
  std::vector<std::vector<Value>> literals;
  std::vector<CubeAggregate> aggs;
};

// A fact table with two dimension columns and three measure columns, plus
// (in join mode) a dimension table reached through a PK-FK edge with a
// dangling foreign key thrown in. `dim_card` controls dimension
// cardinality — small values stress bucket collisions, large values stress
// the per-block dictionaries of the vectorized pass 1.
Database MakeRandomDatabase(Rng& rng, size_t rows, size_t dim_card,
                            bool join_mode) {
  Database database("fuzz");
  Table fact("fact");
  EXPECT_TRUE(fact.AddColumn("d_str", ValueType::kString).ok());
  EXPECT_TRUE(fact.AddColumn("d_long", ValueType::kLong).ok());
  EXPECT_TRUE(fact.AddColumn("m_long", ValueType::kLong).ok());
  EXPECT_TRUE(fact.AddColumn("m_double", ValueType::kDouble).ok());
  EXPECT_TRUE(fact.AddColumn("fk", ValueType::kLong).ok());
  const size_t fk_card = join_mode ? 8 : 1;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    // NULL-heavy string dimension.
    if (rng.NextBool(0.25)) {
      row.emplace_back();
    } else {
      row.emplace_back(
          "s" + std::to_string(rng.NextBounded(static_cast<uint64_t>(
                    dim_card))));
    }
    // Long dimension, occasionally NULL.
    if (rng.NextBool(0.1)) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(dim_card * 3))));
    }
    // Long measure.
    if (rng.NextBool(0.2)) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<int64_t>(rng.NextInt(-50, 50)));
    }
    // Double measure: NULLs, NaN, +/-Inf, long-typed cells in a
    // double-typed column (type coercion), and plain doubles.
    double roll = rng.NextDouble();
    if (roll < 0.1) {
      row.emplace_back();
    } else if (roll < 0.15) {
      row.emplace_back(std::numeric_limits<double>::quiet_NaN());
    } else if (roll < 0.2) {
      row.emplace_back(rng.NextBool(0.5)
                           ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity());
    } else if (roll < 0.3) {
      row.emplace_back(static_cast<int64_t>(rng.NextInt(-9, 9)));
    } else {
      row.emplace_back(rng.NextDouble() * 200.0 - 100.0);
    }
    // Foreign key; id `fk_card` dangles (no dim row), exercising the
    // inner-join row filter.
    row.emplace_back(static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(fk_card) + (join_mode ? 1 : 0))));
    EXPECT_TRUE(fact.AddRow(std::move(row)).ok());
  }
  EXPECT_TRUE(database.AddTable(std::move(fact)).ok());
  if (join_mode) {
    Table dim("dim");
    EXPECT_TRUE(dim.AddColumn("id", ValueType::kLong).ok());
    EXPECT_TRUE(dim.AddColumn("region", ValueType::kString).ok());
    const char* regions[] = {"north", "south", "east", "west"};
    for (size_t i = 0; i < fk_card; ++i) {
      EXPECT_TRUE(dim.AddRow({Value(static_cast<int64_t>(i)),
                              Value(std::string(regions[i % 4]))})
                      .ok());
    }
    EXPECT_TRUE(database.AddTable(std::move(dim)).ok());
    EXPECT_TRUE(
        database.AddForeignKey({"fact", "fk"}, {"dim", "id"}).ok());
  }
  return database;
}

void MakeRandomSpec(Rng& rng, const Database& database, bool join_mode,
                    CubeSpec* spec) {
  std::vector<ColumnRef> dim_pool = {{"fact", "d_str"}, {"fact", "d_long"}};
  if (join_mode) dim_pool.push_back({"dim", "region"});
  rng.Shuffle(&dim_pool);
  size_t nd = static_cast<size_t>(rng.NextInt(1, 3));
  for (size_t d = 0; d < nd && d < dim_pool.size(); ++d) {
    const Column* col = database.FindColumn(dim_pool[d]);
    ASSERT_NE(col, nullptr) << dim_pool[d].ToString();
    std::vector<Value> value_pool = col->DistinctValues();
    rng.Shuffle(&value_pool);
    size_t nl = std::min<size_t>(
        value_pool.size(), static_cast<size_t>(rng.NextInt(1, 4)));
    std::vector<Value> lits(value_pool.begin(), value_pool.begin() + nl);
    // Sometimes a literal that matches nothing (empty bucket).
    if (rng.NextBool(0.3)) lits.emplace_back(std::string("zzz-absent"));
    spec->dims.push_back(dim_pool[d]);
    spec->literals.push_back(std::move(lits));
  }
  // Aggregate pool covering every base function, star and column forms,
  // and both typed measures.
  auto agg = [](AggFn fn, const char* column) {
    CubeAggregate a;
    a.fn = fn;
    if (column != nullptr) a.column = {"fact", column};
    return a;
  };
  std::vector<CubeAggregate> pool = {
      agg(AggFn::kCount, nullptr),
      agg(AggFn::kCount, "m_long"),
      agg(AggFn::kCountDistinct, "m_double"),
      agg(AggFn::kCountDistinct, "d_long"),
      agg(AggFn::kSum, "m_double"),
      agg(AggFn::kSum, "m_long"),
      agg(AggFn::kAvg, "m_double"),
      agg(AggFn::kMin, "m_double"),
      agg(AggFn::kMax, "m_double"),
      agg(AggFn::kMax, "m_long"),
  };
  rng.Shuffle(&pool);
  size_t na = static_cast<size_t>(rng.NextInt(2, 6));
  spec->aggs.assign(pool.begin(),
                    pool.begin() + static_cast<long>(std::min(na, pool.size())));
}

// Enumerates every representable key (all/default/each literal, per
// dimension) and asserts bit-identical lookups across two cubes.
void ExpectCubesBitIdentical(const CubeResult& expected,
                             const CubeResult& actual,
                             const std::string& label) {
  ASSERT_EQ(expected.num_cells(), actual.num_cells()) << label;
  size_t nd = expected.dims().size();
  std::vector<std::vector<int16_t>> axis(nd);
  for (size_t d = 0; d < nd; ++d) {
    axis[d].push_back(kAllBucket);
    axis[d].push_back(kDefaultBucket);
    for (size_t i = 0; i < expected.literals()[d].size(); ++i) {
      axis[d].push_back(static_cast<int16_t>(i));
    }
  }
  std::vector<int16_t> key(nd, 0);
  std::vector<size_t> pos(nd, 0);
  size_t checked = 0;
  while (true) {
    for (size_t d = 0; d < nd; ++d) key[d] = axis[d][pos[d]];
    for (size_t a = 0; a < expected.aggregates().size(); ++a) {
      std::optional<double> want = expected.Lookup(key, a);
      std::optional<double> got = actual.Lookup(key, a);
      ASSERT_TRUE(BitEqual(want, got))
          << label << " " << expected.aggregates()[a].Key()
          << " key[" << (nd > 0 ? std::to_string(key[0]) : "") << "...]"
          << " oracle=" << Render(want) << " vectorized=" << Render(got);
      ++checked;
    }
    // Odometer increment over the key space.
    size_t d = 0;
    while (d < nd && ++pos[d] == axis[d].size()) pos[d++] = 0;
    if (d == nd) break;
    if (nd == 0) break;
  }
  ASSERT_GT(checked, 0u) << label;
}

struct ExecOutcome {
  std::shared_ptr<CubeResult> cube;
  GovernorUsage usage;
};

/// Runs the production pipeline on `pool` (nullptr = serial).
ExecOutcome RunCube(const Database& database, const CubeSpec& spec,
                    ThreadPool* pool) {
  ExecOutcome out;
  ResourceGovernor governor;
  CubeExecOptions options;
  options.pool = pool;
  auto cube = ExecuteCube(database, spec.dims, spec.literals, spec.aggs,
                          nullptr, &governor, options);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  if (cube.ok()) out.cube = *cube;
  out.usage = governor.usage();
  return out;
}

ExecOutcome RunOracle(const Database& database, const CubeSpec& spec) {
  ExecOutcome out;
  ResourceGovernor governor;
  auto cube = ExecuteCubeOracle(database, spec.dims, spec.literals, spec.aggs,
                                nullptr, &governor);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  if (cube.ok()) out.cube = *cube;
  out.usage = governor.usage();
  return out;
}

TEST(CubeVectorizedDiffTest, RandomizedCubesMatchScalarOracleBitExact) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (int trial = 0; trial < 24; ++trial) {
    Rng rng(9000 + static_cast<uint64_t>(trial));
    const bool join_mode = trial % 2 == 1;
    // Trial 0 exceeds the 4096-row block size so pass 1 runs multi-block
    // (and, with the pools below, genuinely in parallel); a high-card
    // trial stresses per-block dictionaries and the translation fold.
    const size_t rows =
        trial == 0 ? 10000
                   : static_cast<size_t>(rng.NextInt(50, 800));
    const size_t dim_card =
        trial % 5 == 2 ? 500 : static_cast<size_t>(rng.NextInt(2, 12));
    Database database = MakeRandomDatabase(rng, rows, dim_card, join_mode);
    CubeSpec spec;
    MakeRandomSpec(rng, database, join_mode, &spec);
    SCOPED_TRACE("trial " + std::to_string(trial) + " rows=" +
                 std::to_string(rows) + " card=" +
                 std::to_string(dim_card) +
                 (join_mode ? " join" : " single"));

    ExecOutcome oracle = RunOracle(database, spec);
    ExecOutcome serial = RunCube(database, spec, nullptr);
    ExecOutcome threaded2 = RunCube(database, spec, &pool2);
    ExecOutcome threaded8 = RunCube(database, spec, &pool8);
    ASSERT_TRUE(oracle.cube && serial.cube && threaded2.cube &&
                threaded8.cube);

    ExpectCubesBitIdentical(*oracle.cube, *serial.cube, "serial");
    ExpectCubesBitIdentical(*oracle.cube, *threaded2.cube, "2 threads");
    ExpectCubesBitIdentical(*oracle.cube, *threaded8.cube, "8 threads");

    // Governor accounting matches the oracle at any thread count on clean
    // runs: both model the same join/combo/group state.
    for (const ExecOutcome* other : {&serial, &threaded2, &threaded8}) {
      EXPECT_EQ(oracle.usage.rows_charged, other->usage.rows_charged);
      EXPECT_EQ(oracle.usage.cube_groups_charged,
                other->usage.cube_groups_charged);
      EXPECT_EQ(oracle.usage.memory_bytes_charged,
                other->usage.memory_bytes_charged);
      // The recorded charges a warm cache hit replays must match too.
      EXPECT_EQ(oracle.cube->charges.rows, other->cube->charges.rows);
      EXPECT_EQ(oracle.cube->charges.combos, other->cube->charges.combos);
      EXPECT_EQ(oracle.cube->charges.groups, other->cube->charges.groups);
    }
  }
}

// An all-rows-identical column collapses to one combo; an all-NULL measure
// must leave Sum/Avg/Min/Max cells missing in both backends.
TEST(CubeVectorizedDiffTest, DegenerateColumnsMatch) {
  Database database("degen");
  Table fact("fact");
  ASSERT_TRUE(fact.AddColumn("d", ValueType::kString).ok());
  ASSERT_TRUE(fact.AddColumn("m", ValueType::kDouble).ok());
  for (int r = 0; r < 100; ++r) {
    ASSERT_TRUE(fact.AddRow({Value(std::string("same")), Value()}).ok());
  }
  ASSERT_TRUE(database.AddTable(std::move(fact)).ok());
  CubeSpec spec;
  spec.dims = {{"fact", "d"}};
  spec.literals = {{Value(std::string("same"))}};
  CubeAggregate sum;
  sum.fn = AggFn::kSum;
  sum.column = {"fact", "m"};
  CubeAggregate min;
  min.fn = AggFn::kMin;
  min.column = {"fact", "m"};
  CubeAggregate count;
  spec.aggs = {count, sum, min};
  ExecOutcome oracle = RunOracle(database, spec);
  ExecOutcome vectorized = RunCube(database, spec, nullptr);
  ASSERT_TRUE(oracle.cube && vectorized.cube);
  ExpectCubesBitIdentical(*oracle.cube, *vectorized.cube, "degenerate");
  EXPECT_DOUBLE_EQ(vectorized.cube->Lookup({0}, 0).value(), 100.0);
  EXPECT_FALSE(vectorized.cube->Lookup({0}, 1).has_value());
  EXPECT_FALSE(vectorized.cube->Lookup({0}, 2).has_value());
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
