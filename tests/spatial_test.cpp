// Spatial operator battery: the zone cross-match against a brute-force
// O(n^2) oracle (including zone-boundary, ra-wrap, and polar pairs),
// parallel determinism through LoadCoordinator::task_runner(), HTM cone
// search against a full-scan oracle on both live and snapshot views, a
// cross-match running against a pinned snapshot while a loader appends,
// the fail-closed cone search on a disabled index, and the projected
// position collect (including the single-scan self-match) against a
// scan_collect oracle.
#include "db/spatial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/coordinator.h"
#include "db/engine.h"
#include "htm/htm.h"

namespace sky::db::spatial {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Uniform points on the sphere (uniform in ra and in sin(dec)).
void random_catalog(Rng& rng, size_t n, std::vector<double>* ra,
                    std::vector<double>* dec) {
  for (size_t i = 0; i < n; ++i) {
    ra->push_back(rng.uniform_range(0.0, 360.0));
    dec->push_back(std::asin(rng.uniform_range(-1.0, 1.0)) * 180.0 / kPi);
  }
}

// The O(n^2) truth the zone matcher must reproduce exactly.
std::set<std::pair<uint32_t, uint32_t>> brute_pairs(
    const std::vector<double>& a_ra, const std::vector<double>& a_dec,
    const std::vector<double>& b_ra, const std::vector<double>& b_dec,
    double radius_deg) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < a_ra.size(); ++i) {
    const htm::Vec3 a = htm::radec_to_vector(a_ra[i], a_dec[i]);
    for (size_t j = 0; j < b_ra.size(); ++j) {
      const htm::Vec3 b = htm::radec_to_vector(b_ra[j], b_dec[j]);
      if (htm::angular_distance_deg(a, b) <= radius_deg) {
        pairs.emplace(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
      }
    }
  }
  return pairs;
}

std::set<std::pair<uint32_t, uint32_t>> as_set(
    const std::vector<MatchPair>& pairs) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (const MatchPair& p : pairs) out.emplace(p.a, p.b);
  return out;
}

TEST(XmatchArraysTest, MatchesBruteForceOracle) {
  Rng rng(0xCA7A106);
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  random_catalog(rng, 300, &a_ra, &a_dec);
  random_catalog(rng, 300, &b_ra, &b_dec);
  // Guarantee real matches: every 4th B row is a perturbation of an A row,
  // some inside and some outside the radius.
  const double radius = 0.8;
  for (size_t j = 0; j + 4 <= b_ra.size(); j += 4) {
    b_ra[j] = a_ra[j];
    b_dec[j] = a_dec[j] + rng.uniform_range(-1.5 * radius, 1.5 * radius);
    b_dec[j] = std::min(89.9, std::max(-89.9, b_dec[j]));
  }

  XmatchOptions options;
  options.radius_deg = radius;
  const XmatchResult result =
      xmatch_arrays(a_ra, a_dec, b_ra, b_dec, options);
  const auto oracle = brute_pairs(a_ra, a_dec, b_ra, b_dec, radius);
  EXPECT_EQ(as_set(result.pairs), oracle);
  EXPECT_FALSE(oracle.empty());

  // Separations are the exact angular distances, and the report's funnel
  // is consistent: scanned >= candidates >= pairs == |result|.
  for (const MatchPair& p : result.pairs) {
    const double truth = htm::angular_distance_deg(
        htm::radec_to_vector(a_ra[p.a], a_dec[p.a]),
        htm::radec_to_vector(b_ra[p.b], b_dec[p.b]));
    EXPECT_DOUBLE_EQ(p.sep_deg, truth);
    EXPECT_LE(p.sep_deg, radius);
  }
  EXPECT_EQ(result.report.pairs,
            static_cast<int64_t>(result.pairs.size()));
  EXPECT_GE(result.report.costs.zone_scan_rows,
            result.report.costs.xmatch_candidates);
  EXPECT_GE(result.report.costs.xmatch_candidates,
            result.report.costs.xmatch_pairs);
  EXPECT_EQ(result.report.costs.xmatch_pairs, result.report.pairs);
}

// Pairs that straddle a zone boundary, wrap ra through 0/360, sit across
// the pole from each other, or span several zones (radius > zone height)
// are exactly the cases a naive bucketing drops.
TEST(XmatchArraysTest, BoundaryWrapAndPolarPairsSurvive) {
  // zone_height 0.5 puts boundaries at -90 + k*0.5; dec 10.0 is one.
  std::vector<double> a_ra = {20.0, 359.98, 10.0, 40.0, 200.0};
  std::vector<double> a_dec = {9.99, 0.0, 89.97, -45.0, -89.95};
  std::vector<double> b_ra = {20.0, 0.01, 190.0, 40.0, 20.0};
  std::vector<double> b_dec = {10.01, 0.0, 89.97, -43.8, -89.95};

  XmatchOptions options;
  options.radius_deg = 1.3;  // spans multiple 0.5-degree zones
  options.policy.zone_height_deg = 0.5;
  const XmatchResult result =
      xmatch_arrays(a_ra, a_dec, b_ra, b_dec, options);
  const auto oracle = brute_pairs(a_ra, a_dec, b_ra, b_dec, 1.3);
  // Every seeded pair (i, i) is a true match the matcher must keep.
  for (uint32_t i = 0; i < a_ra.size(); ++i) {
    EXPECT_TRUE(oracle.count({i, i})) << i;
  }
  EXPECT_EQ(as_set(result.pairs), oracle);
}

// The pair list must be byte-identical for any worker count and schedule:
// serial, one worker, and six workers over the real thread pool all agree,
// including the order of pairs.
TEST(XmatchArraysTest, ParallelResultIsDeterministic) {
  Rng rng(0xDE7E12);
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  random_catalog(rng, 600, &a_ra, &a_dec);
  random_catalog(rng, 600, &b_ra, &b_dec);

  XmatchOptions serial;
  serial.radius_deg = 1.0;
  const XmatchResult base = xmatch_arrays(a_ra, a_dec, b_ra, b_dec, serial);

  for (const int workers : {1, 6}) {
    XmatchOptions parallel = serial;
    parallel.policy.xmatch_workers = workers;
    parallel.fan_out = core::LoadCoordinator::task_runner();
    const XmatchResult run =
        xmatch_arrays(a_ra, a_dec, b_ra, b_dec, parallel);
    ASSERT_EQ(run.pairs.size(), base.pairs.size()) << workers;
    for (size_t i = 0; i < base.pairs.size(); ++i) {
      EXPECT_EQ(run.pairs[i].a, base.pairs[i].a);
      EXPECT_EQ(run.pairs[i].b, base.pairs[i].b);
      EXPECT_DOUBLE_EQ(run.pairs[i].sep_deg, base.pairs[i].sep_deg);
    }
    EXPECT_EQ(run.report.workers, workers);
    EXPECT_EQ(run.report.pairs, base.report.pairs);
    EXPECT_EQ(run.report.costs.xmatch_candidates,
              base.report.costs.xmatch_candidates);
  }
}

// ------------------------------------------------- engine-backed operators

Schema sky_schema() {
  Schema schema;
  for (const char* name : {"cat_a", "cat_b"}) {
    TableDef table;
    table.name = name;
    table.col("pk", ColumnType::kInt64, false);
    table.col("ra", ColumnType::kDouble, false);
    table.col("dec", ColumnType::kDouble, false);
    table.primary_key = {"pk"};
    // Columns auto-fill to {ra, dec} from the HTM spec.
    table.indexes.push_back(IndexDef{"ix_htm", {}, false,
                                     HtmIndexSpec{"ra", "dec", 12}});
    EXPECT_TRUE(schema.add_table(table).is_ok());
  }
  return schema;
}

class SpatialEngineTest : public ::testing::Test {
 protected:
  SpatialEngineTest() : engine_(sky_schema()) {
    table_a_ = engine_.table_id("cat_a").value();
    table_b_ = engine_.table_id("cat_b").value();
  }

  void load_rows(uint32_t table, int64_t pk_base,
                 const std::vector<double>& ra,
                 const std::vector<double>& dec) {
    const uint64_t txn = engine_.begin_transaction();
    for (size_t i = 0; i < ra.size(); ++i) {
      OpCosts costs;
      ASSERT_TRUE(engine_
                      .insert_row(txn, table,
                                  {Value::i64(pk_base +
                                              static_cast<int64_t>(i)),
                                   Value::f64(ra[i]), Value::f64(dec[i])},
                                  costs)
                      .is_ok());
    }
    ASSERT_TRUE(engine_.commit(txn).is_ok());
  }

  Engine engine_;
  uint32_t table_a_ = 0;
  uint32_t table_b_ = 0;
};

TEST_F(SpatialEngineTest, ConeSearchMatchesScanOracle) {
  Rng rng(0xC0DE5EA);
  std::vector<double> ra, dec;
  random_catalog(rng, 500, &ra, &dec);
  load_rows(table_a_, 0, ra, dec);

  const auto spec = resolve_spatial(engine_, table_a_);
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec->htm_index, "ix_htm");
  EXPECT_EQ(spec->ra_column, 1);
  EXPECT_EQ(spec->dec_column, 2);
  EXPECT_EQ(spec->htm_depth, 12);

  const Snapshot snap = engine_.pin_snapshot();
  for (int probe = 0; probe < 12; ++probe) {
    const double center_ra = rng.uniform_range(0.0, 360.0);
    const double center_dec =
        std::asin(rng.uniform_range(-1.0, 1.0)) * 180.0 / kPi;
    const double radius = rng.uniform_range(0.5, 12.0);
    const htm::Vec3 center = htm::radec_to_vector(center_ra, center_dec);

    std::set<int64_t> oracle;
    for (size_t i = 0; i < ra.size(); ++i) {
      const htm::Vec3 v = htm::radec_to_vector(ra[i], dec[i]);
      if (htm::angular_distance_deg(center, v) <= radius) {
        oracle.insert(static_cast<int64_t>(i));
      }
    }

    for (const bool snapshot_view : {false, true}) {
      const ReadView view =
          snapshot_view ? engine_.view_at(snap) : engine_.live_view();
      OpCosts costs;
      const auto hits =
          cone_search(view, *spec, center_ra, center_dec, radius, &costs);
      ASSERT_TRUE(hits.is_ok());
      std::set<int64_t> got;
      for (const Row& row : *hits) got.insert(row[0].as_i64());
      EXPECT_EQ(got, oracle) << "probe " << probe;
      // The cover is conservative: every returned row passed the exact
      // test, and the funnel tallies stay ordered.
      EXPECT_EQ(costs.xmatch_pairs, static_cast<int64_t>(hits->size()));
      EXPECT_GE(costs.zone_scan_rows, costs.xmatch_candidates);
      EXPECT_GE(costs.xmatch_candidates, costs.xmatch_pairs);
    }
  }
}

TEST_F(SpatialEngineTest, ConeSearchFailsClosedOnDisabledIndex) {
  std::vector<double> ra = {10.0}, dec = {10.0};
  load_rows(table_a_, 0, ra, dec);
  const auto spec = resolve_spatial(engine_, table_a_);
  ASSERT_TRUE(spec.is_ok());

  ASSERT_TRUE(engine_.set_index_enabled(table_a_, "ix_htm", false).is_ok());
  const auto live =
      cone_search(engine_.live_view(), *spec, 10.0, 10.0, 1.0);
  ASSERT_FALSE(live.is_ok());
  EXPECT_EQ(live.status().code(), ErrorCode::kFailedPrecondition);

  // A chunk committed while the index was off poisons snapshot covers of
  // that chunk the same way (the canonical fail-closed symmetry).
  load_rows(table_a_, 100, ra, dec);
  ASSERT_TRUE(engine_.set_index_enabled(table_a_, "ix_htm", true).is_ok());
  const Snapshot stale = engine_.pin_snapshot();
  const auto snapped =
      cone_search(engine_.view_at(stale), *spec, 10.0, 10.0, 1.0);
  ASSERT_FALSE(snapped.is_ok());
  EXPECT_EQ(snapped.status().code(), ErrorCode::kFailedPrecondition);
}

// The tentpole promise: a cross-match pinned at a snapshot LSN returns the
// same pairs whether or not loaders are appending underneath it.
TEST_F(SpatialEngineTest, XmatchAgainstPinnedSnapshotDuringLoad) {
  Rng rng(0xF00D);
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  random_catalog(rng, 200, &a_ra, &a_dec);
  b_ra = a_ra;  // B starts as a perturbed copy of A: plenty of matches
  b_dec = a_dec;
  for (size_t i = 0; i < b_ra.size(); ++i) {
    b_dec[i] = std::min(89.9, std::max(-89.9,
                                       b_dec[i] + rng.uniform_range(-0.2,
                                                                    0.2)));
  }
  load_rows(table_a_, 0, a_ra, a_dec);
  load_rows(table_b_, 0, b_ra, b_dec);

  const auto spec_a = resolve_spatial(engine_, table_a_);
  const auto spec_b = resolve_spatial(engine_, table_b_);
  ASSERT_TRUE(spec_a.is_ok());
  ASSERT_TRUE(spec_b.is_ok());

  const Snapshot snap = engine_.pin_snapshot();
  const uint64_t pinned_lsn = snap.read_lsn();
  const ReadView view = engine_.view_at(snap);

  XmatchOptions options;
  options.radius_deg = 0.25;
  options.policy.xmatch_workers = 4;
  options.fan_out = core::LoadCoordinator::task_runner();

  // Baseline before any new commits.
  const auto before = xmatch(view, *spec_a, view, *spec_b, options);
  ASSERT_TRUE(before.is_ok());

  // Load more rows into both tables while re-running the pinned match.
  std::thread loader([&] {
    Rng load_rng(0xBEEF);
    for (int batch = 0; batch < 5; ++batch) {
      std::vector<double> ra, dec;
      random_catalog(load_rng, 50, &ra, &dec);
      load_rows(table_a_, 1000 + batch * 100, ra, dec);
      load_rows(table_b_, 1000 + batch * 100, ra, dec);
    }
  });
  std::vector<Row> a_rows, b_rows;
  const auto during =
      xmatch(view, *spec_a, view, *spec_b, options, &a_rows, &b_rows);
  loader.join();
  const auto after = xmatch(view, *spec_a, view, *spec_b, options);

  ASSERT_TRUE(during.is_ok());
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(snap.read_lsn(), pinned_lsn);
  ASSERT_EQ(during->pairs.size(), before->pairs.size());
  ASSERT_EQ(after->pairs.size(), before->pairs.size());
  EXPECT_FALSE(before->pairs.empty());
  for (size_t i = 0; i < before->pairs.size(); ++i) {
    EXPECT_EQ(during->pairs[i].a, before->pairs[i].a);
    EXPECT_EQ(during->pairs[i].b, before->pairs[i].b);
    EXPECT_EQ(after->pairs[i].a, before->pairs[i].a);
    EXPECT_EQ(after->pairs[i].b, before->pairs[i].b);
  }

  // Pair indices resolve through the rows collected from the same view,
  // and the pinned view never saw the loader's rows.
  ASSERT_EQ(a_rows.size(), a_ra.size());
  ASSERT_EQ(b_rows.size(), b_ra.size());
  for (const MatchPair& p : during->pairs) {
    const Row& a = a_rows[p.a];
    const Row& b = b_rows[p.b];
    const double truth = htm::angular_distance_deg(
        htm::radec_to_vector(a[1].as_f64(), a[2].as_f64()),
        htm::radec_to_vector(b[1].as_f64(), b[2].as_f64()));
    EXPECT_DOUBLE_EQ(p.sep_deg, truth);
  }
  // The live view, by contrast, has moved on.
  EXPECT_GT(engine_.live_view().row_count(table_a_),
            view.row_count(table_a_));
}

// ------------------------------------- projected collect vs row oracle

// A wider table whose positions are not the leading columns: strings sit
// before, between and after ra and dec, so the projected collect must
// walk past variable-length cells to reach them.
Schema wide_schema() {
  Schema schema;
  for (const char* name : {"wide_a", "wide_b"}) {
    TableDef table;
    table.name = name;
    table.col("pk", ColumnType::kInt64, false);
    table.col("label", ColumnType::kString);
    table.col("mag", ColumnType::kDouble);
    table.col("ra", ColumnType::kDouble, false);
    table.col("note", ColumnType::kString);
    table.col("dec", ColumnType::kDouble, false);
    table.col("flags", ColumnType::kInt32);
    table.col("tail", ColumnType::kString);
    table.primary_key = {"pk"};
    table.indexes.push_back(IndexDef{"ix_htm", {}, false,
                                     HtmIndexSpec{"ra", "dec", 10}});
    EXPECT_TRUE(schema.add_table(table).is_ok());
  }
  return schema;
}

Row wide_row(Rng& rng, int64_t pk, double ra, double dec) {
  const auto text = [&] {
    return rng.uniform_int(0, 3) == 0
               ? Value::null()
               : Value::str(rng.ident(
                     static_cast<size_t>(rng.uniform_int(0, 24))));
  };
  return {Value::i64(pk),
          text(),
          rng.uniform_int(0, 2) == 0 ? Value::null()
                                     : Value::f64(rng.uniform_range(10, 25)),
          Value::f64(ra),
          text(),
          Value::f64(dec),
          rng.uniform_int(0, 2) == 0
              ? Value::null()
              : Value::i32(static_cast<int32_t>(rng.uniform_int(0, 1000))),
          text()};
}

// What xmatch returned before the projected collect: scan_collect every
// row, read ra/dec out of the Values, match the arrays.
XmatchResult scan_collect_oracle(const ReadView& view_a,
                                 const SpatialTableSpec& spec_a,
                                 const ReadView& view_b,
                                 const SpatialTableSpec& spec_b,
                                 const XmatchOptions& options,
                                 std::vector<Row>* a_rows,
                                 std::vector<Row>* b_rows) {
  const auto collect = [](const ReadView& view, const SpatialTableSpec& spec,
                          std::vector<double>& ra, std::vector<double>& dec,
                          std::vector<Row>* rows_out) {
    *rows_out = view.scan_collect(spec.table_id, [](const Row&) {
      return true;
    });
    for (const Row& row : *rows_out) {
      ra.push_back(row[static_cast<size_t>(spec.ra_column)].as_f64());
      dec.push_back(row[static_cast<size_t>(spec.dec_column)].as_f64());
    }
  };
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
  collect(view_a, spec_a, a_ra, a_dec, a_rows);
  collect(view_b, spec_b, b_ra, b_dec, b_rows);
  return xmatch_arrays(a_ra, a_dec, b_ra, b_dec, options);
}

void expect_same_pairs(const XmatchResult& got, const XmatchResult& want,
                       const std::string& label) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << label;
  for (size_t i = 0; i < want.pairs.size(); ++i) {
    ASSERT_EQ(got.pairs[i].a, want.pairs[i].a) << label << " pair " << i;
    ASSERT_EQ(got.pairs[i].b, want.pairs[i].b) << label << " pair " << i;
    ASSERT_EQ(std::memcmp(&got.pairs[i].sep_deg, &want.pairs[i].sep_deg,
                          sizeof(double)),
              0)
        << label << " pair " << i;
  }
  EXPECT_EQ(got.report.zones_occupied, want.report.zones_occupied) << label;
  EXPECT_EQ(got.report.costs.zone_scan_rows,
            want.report.costs.zone_scan_rows)
      << label;
  EXPECT_EQ(got.report.costs.xmatch_candidates,
            want.report.costs.xmatch_candidates)
      << label;
}

void expect_same_rows(const std::vector<Row>& got,
                      const std::vector<Row>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(encode_row(got[i]), encode_row(want[i])) << label << " row " << i;
  }
}

// The projected collect (and the single scan of a self-match) must give the
// pair list of the scan_collect oracle exactly: a 3-extent table filled by
// parallel sessions, positions behind string cells, live and snapshot
// views, with and without rows_out, serial and fanned out.
TEST(XmatchCollectTest, ProjectedCollectMatchesScanCollectOracle) {
  EngineOptions engine_options;
  engine_options.heap_extents = 3;
  Engine engine(wide_schema(), engine_options);
  const uint32_t table_a = engine.table_id("wide_a").value();
  const uint32_t table_b = engine.table_id("wide_b").value();

  // Three sessions per table, each its own transaction (so its own extent),
  // committing in several rounds so the snapshot holds many chunks. B
  // repeats A's positions with a jitter: plenty of pairs.
  constexpr int kSessions = 3;
  constexpr int kRounds = 4;
  constexpr int kRowsPerRound = 60;
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      Rng rng(0x5E55 + static_cast<uint64_t>(s));
      for (int round = 0; round < kRounds; ++round) {
        const uint64_t txn = engine.begin_transaction();
        for (int i = 0; i < kRowsPerRound; ++i) {
          const int64_t pk = (s * kRounds + round) * kRowsPerRound + i;
          const double ra = rng.uniform_range(0.0, 360.0);
          const double dec =
              std::asin(rng.uniform_range(-1.0, 1.0)) * 180.0 / kPi;
          const double jitter_dec = std::clamp(
              dec + rng.uniform_range(-0.3, 0.3), -89.9, 89.9);
          OpCosts costs;
          ASSERT_TRUE(engine
                          .insert_row(txn, table_a,
                                      wide_row(rng, pk, ra, dec), costs)
                          .is_ok());
          ASSERT_TRUE(engine
                          .insert_row(txn, table_b,
                                      wide_row(rng, pk, ra, jitter_dec),
                                      costs)
                          .is_ok());
        }
        ASSERT_TRUE(engine.commit(txn).is_ok());
      }
    });
  }
  for (std::thread& session : sessions) session.join();

  const auto spec_a = resolve_spatial(engine, table_a);
  const auto spec_b = resolve_spatial(engine, table_b);
  ASSERT_TRUE(spec_a.is_ok());
  ASSERT_TRUE(spec_b.is_ok());
  EXPECT_EQ(spec_a->ra_column, 3);
  EXPECT_EQ(spec_a->dec_column, 5);
  EXPECT_EQ(engine.live_view().row_count(table_a),
            kSessions * kRounds * kRowsPerRound);

  // The snapshot scan merges the chunks of three interleaved sessions back
  // into heap order: the same rows, in the same order, as the live scan.
  {
    const Snapshot pinned = engine.pin_snapshot();
    for (const uint32_t table : {table_a, table_b}) {
      const auto all = [](const Row&) { return true; };
      expect_same_rows(engine.view_at(pinned).scan_collect(table, all),
                       engine.live_view().scan_collect(table, all),
                       "snapshot vs live scan order");
    }
  }

  // Two pins with no commit between them: the same LSN, two Snapshot
  // objects — the self-match shortcut applies to one, not across both.
  const Snapshot snap = engine.pin_snapshot();
  const Snapshot twin = engine.pin_snapshot();
  ASSERT_EQ(snap.read_lsn(), twin.read_lsn());

  for (const int workers : {0, 1, 4}) {
    XmatchOptions options;
    options.radius_deg = 0.3;
    if (workers > 0) {
      options.policy.xmatch_workers = workers;
      options.fan_out = core::LoadCoordinator::task_runner();
    }
    for (const bool snapshot_view : {false, true}) {
      const ReadView view =
          snapshot_view ? engine.view_at(snap) : engine.live_view();
      const std::string mode = std::string(snapshot_view ? "snapshot" : "live") +
                               " workers=" + std::to_string(workers);
      std::vector<Row> oracle_a, oracle_b;

      // Two catalogs, with and without rows_out.
      const XmatchResult want = scan_collect_oracle(
          view, *spec_a, view, *spec_b, options, &oracle_a, &oracle_b);
      EXPECT_FALSE(want.pairs.empty());
      const auto projected = xmatch(view, *spec_a, view, *spec_b, options);
      ASSERT_TRUE(projected.is_ok());
      expect_same_pairs(*projected, want, "a-vs-b projected " + mode);
      std::vector<Row> a_rows, b_rows;
      const auto with_rows =
          xmatch(view, *spec_a, view, *spec_b, options, &a_rows, &b_rows);
      ASSERT_TRUE(with_rows.is_ok());
      expect_same_pairs(*with_rows, want, "a-vs-b rows " + mode);
      expect_same_rows(a_rows, oracle_a, "a rows " + mode);
      expect_same_rows(b_rows, oracle_b, "b rows " + mode);

      // Self-match: one view on both sides (a single scan on a snapshot
      // view), with rows on either side, both, or neither.
      const XmatchResult self_want = scan_collect_oracle(
          view, *spec_a, view, *spec_a, options, &oracle_a, &oracle_b);
      EXPECT_GE(self_want.pairs.size(), oracle_a.size());
      const auto self = xmatch(view, *spec_a, view, *spec_a, options);
      ASSERT_TRUE(self.is_ok());
      expect_same_pairs(*self, self_want, "self " + mode);
      for (const int sides : {1, 2, 3}) {
        std::vector<Row> left, right;
        const auto self_rows =
            xmatch(view, *spec_a, view, *spec_a, options,
                   (sides & 1) != 0 ? &left : nullptr,
                   (sides & 2) != 0 ? &right : nullptr);
        ASSERT_TRUE(self_rows.is_ok());
        expect_same_pairs(*self_rows, self_want, "self rows " + mode);
        if ((sides & 1) != 0) expect_same_rows(left, oracle_a, "left " + mode);
        if ((sides & 2) != 0) {
          expect_same_rows(right, oracle_b, "right " + mode);
        }
      }
    }

    // Two views pinned at the same LSN scan separately and must agree with
    // the single-scan self-match.
    const ReadView one = engine.view_at(snap);
    const ReadView other = engine.view_at(twin);
    const auto single_scan = xmatch(one, *spec_a, one, *spec_a, options);
    const auto two_scans = xmatch(one, *spec_a, other, *spec_a, options);
    ASSERT_TRUE(single_scan.is_ok());
    ASSERT_TRUE(two_scans.is_ok());
    expect_same_pairs(*two_scans, *single_scan,
                      "twin pins workers=" + std::to_string(workers));
  }
}

// A position column that does not hold doubles fails the match instead of
// being read as one, on the projected and the row path alike.
TEST(XmatchCollectTest, NonDoublePositionColumnFails) {
  Engine engine(wide_schema());
  const uint32_t table = engine.table_id("wide_a").value();
  Rng rng(0xBAD);
  const uint64_t txn = engine.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(
      engine.insert_row(txn, table, wide_row(rng, 1, 10.0, 10.0), costs)
          .is_ok());
  ASSERT_TRUE(engine.commit(txn).is_ok());
  auto spec = resolve_spatial(engine, table);
  ASSERT_TRUE(spec.is_ok());
  spec->dec_column = 0;  // the int64 primary key
  Positions positions;
  const Status projected =
      collect_positions(engine.live_view(), *spec, positions);
  EXPECT_EQ(projected.code(), ErrorCode::kInvalidArgument);
  std::vector<Row> rows;
  const Status row_path =
      collect_positions(engine.live_view(), *spec, positions, &rows);
  EXPECT_EQ(row_path.code(), ErrorCode::kInvalidArgument);
  const auto match =
      xmatch(engine.live_view(), *spec, engine.live_view(), *spec, {});
  EXPECT_EQ(match.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace sky::db::spatial
