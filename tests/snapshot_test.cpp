// Snapshot-read battery: committed-prefix visibility, frozen pins,
// quiesced equivalence with the live query family, the zero-latch
// regression guarantee, and a randomized loader/scanner property test of
// snapshot consistency under concurrency (runs under the sanitizer label).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "db/query_scheduler.h"
#include "index/key_codec.h"

namespace sky::db {
namespace {

// One table, int64 PK, non-unique secondary on batch_id: every row of a
// transaction carries (batch_id, batch_seq, batch_total) so a reader can
// prove it saw whole transactions and nothing else.
Schema batches_schema() {
  Schema schema;
  TableDef batches;
  batches.name = "batches";
  batches.col("pk", ColumnType::kInt64, false);
  batches.col("batch_id", ColumnType::kInt64, false);
  batches.col("batch_seq", ColumnType::kInt64, false);
  batches.col("batch_total", ColumnType::kInt64, false);
  batches.primary_key = {"pk"};
  batches.indexes.push_back(IndexDef{"ix_batch", {"batch_id"}, false, {}});
  EXPECT_TRUE(schema.add_table(batches).is_ok());
  return schema;
}

Row batch_row(int64_t pk, int64_t batch_id, int64_t seq, int64_t total) {
  return {Value::i64(pk), Value::i64(batch_id), Value::i64(seq),
          Value::i64(total)};
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : engine_(batches_schema()) {
    table_ = engine_.table_id("batches").value();
  }

  // Insert rows [pk_base, pk_base + total) as one committed transaction.
  void commit_batch(int64_t pk_base, int64_t batch_id, int64_t total) {
    const uint64_t txn = engine_.begin_transaction();
    for (int64_t seq = 0; seq < total; ++seq) {
      OpCosts costs;
      ASSERT_TRUE(engine_
                      .insert_row(txn, table_,
                                  batch_row(pk_base + seq, batch_id, seq,
                                            total),
                                  costs)
                      .is_ok());
    }
    ASSERT_TRUE(engine_.commit(txn).is_ok());
  }

  Engine engine_;
  uint32_t table_ = 0;
};

TEST_F(SnapshotTest, PinSeesOnlyCommittedPrefix) {
  commit_batch(0, 1, 4);
  const Snapshot before = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(before).row_count(table_), 4);

  // Uncommitted rows are live-visible (read-uncommitted two-phase insert)
  // but must not appear in any snapshot.
  const uint64_t txn = engine_.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(
      engine_.insert_row(txn, table_, batch_row(100, 2, 0, 2), costs).is_ok());
  ASSERT_TRUE(
      engine_.insert_row(txn, table_, batch_row(101, 2, 1, 2), costs).is_ok());
  EXPECT_EQ(engine_.live_view().row_count(table_), 6);  // live sees the pending rows
  EXPECT_EQ(engine_.view_at(before).row_count(table_), 4);
  const Snapshot during = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(during).row_count(table_), 4);
  EXPECT_FALSE(
      engine_.view_at(during).pk_lookup(table_, {Value::i64(100)}).is_ok());

  ASSERT_TRUE(engine_.commit(txn).is_ok());
  // Pins taken before the commit stay frozen; a fresh pin advances.
  EXPECT_EQ(engine_.view_at(before).row_count(table_), 4);
  EXPECT_EQ(engine_.view_at(during).row_count(table_), 4);
  const Snapshot after = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(after).row_count(table_), 6);
  EXPECT_GT(after.read_lsn(), during.read_lsn());
  EXPECT_TRUE(
      engine_.view_at(after).pk_lookup(table_, {Value::i64(100)}).is_ok());
}

TEST_F(SnapshotTest, RolledBackRowsNeverPublished) {
  commit_batch(0, 1, 2);
  const uint64_t txn = engine_.begin_transaction();
  OpCosts costs;
  ASSERT_TRUE(
      engine_.insert_row(txn, table_, batch_row(50, 9, 0, 1), costs).is_ok());
  ASSERT_TRUE(engine_.rollback(txn).is_ok());
  const Snapshot snap = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(snap).row_count(table_), 2);
  EXPECT_FALSE(
      engine_.view_at(snap).pk_lookup(table_, {Value::i64(50)}).is_ok());
  EXPECT_TRUE(engine_.verify_integrity().is_ok());
}

TEST_F(SnapshotTest, QuiescedEquivalenceWithLiveReads) {
  // Mixed row and columnar commits, then compare every read through a
  // snapshot view against the same read through the live view on the
  // quiesced engine.
  commit_batch(0, 1, 8);
  {
    const uint64_t txn = engine_.begin_transaction();
    ColumnBatch batch(engine_.schema().table(table_));
    for (int64_t seq = 0; seq < 16; ++seq) {
      batch.push_i64(0, 100 + seq);
      batch.push_i64(1, 2);
      batch.push_i64(2, seq);
      batch.push_i64(3, 16);
    }
    const BatchResult result = engine_.insert_column_batch(txn, table_, batch);
    ASSERT_FALSE(result.error.has_value());
    ASSERT_TRUE(engine_.commit(txn).is_ok());
  }
  commit_batch(200, 3, 4);

  const Snapshot snap = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(snap).row_count(table_),
            engine_.live_view().row_count(table_));

  const auto all_live =
      engine_.live_view().scan_collect(table_, [](const Row&) { return true; });
  const auto all_snap = engine_.view_at(snap).scan_collect(
      table_, [](const Row&) { return true; });
  EXPECT_EQ(all_live, all_snap);

  const auto live_range =
      engine_.live_view().pk_range(table_, {Value::i64(0)}, {Value::i64(150)});
  const auto snap_range =
      engine_.view_at(snap).pk_range(table_, {Value::i64(0)},
                                {Value::i64(150)});
  ASSERT_TRUE(live_range.is_ok());
  ASSERT_TRUE(snap_range.is_ok());
  EXPECT_EQ(*live_range, *snap_range);

  const auto live_ix =
      engine_.live_view().index_range(table_, "ix_batch", {Value::i64(2)},
                          {Value::i64(3)});
  const auto snap_ix = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(2)}, {Value::i64(3)});
  ASSERT_TRUE(live_ix.is_ok());
  ASSERT_TRUE(snap_ix.is_ok());
  EXPECT_EQ(live_ix->size(), 16u);
  EXPECT_EQ(*live_ix, *snap_ix);

  // An empty `hi` tuple is unbounded in both modes: the whole tail.
  const auto live_tail =
      engine_.live_view().pk_range(table_, {Value::i64(110)}, {});
  const auto snap_tail =
      engine_.view_at(snap).pk_range(table_, {Value::i64(110)}, {});
  ASSERT_TRUE(live_tail.is_ok());
  ASSERT_TRUE(snap_tail.is_ok());
  EXPECT_EQ(live_tail->size(), 10u);  // 110..115 and 200..203
  EXPECT_EQ(*live_tail, *snap_tail);

  const auto live_ix_tail =
      engine_.live_view().index_range(table_, "ix_batch", {Value::i64(2)}, {});
  const auto snap_ix_tail = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(2)}, {});
  ASSERT_TRUE(live_ix_tail.is_ok());
  ASSERT_TRUE(snap_ix_tail.is_ok());
  EXPECT_EQ(live_ix_tail->size(), 20u);  // batches 2 and 3
  EXPECT_EQ(*live_ix_tail, *snap_ix_tail);

  for (const int64_t pk : {0L, 107L, 203L}) {
    const auto live = engine_.live_view().pk_lookup(table_, {Value::i64(pk)});
    const auto snapped =
        engine_.view_at(snap).pk_lookup(table_, {Value::i64(pk)});
    ASSERT_TRUE(live.is_ok());
    ASSERT_TRUE(snapped.is_ok());
    EXPECT_EQ(*live, *snapped);
  }
  EXPECT_FALSE(
      engine_.view_at(snap).pk_lookup(table_, {Value::i64(9999)}).is_ok());

  // Physical view matches the heap exactly (quiesced).
  std::multiset<std::pair<uint32_t, std::string>> live_heap;
  ASSERT_TRUE(engine_.live_view()
                  .scan_heap(table_,
                             [&](storage::SlotId slot, std::string_view bytes) {
                               live_heap.emplace(slot.extent,
                                                 std::string(bytes));
                             })
                  .is_ok());
  std::multiset<std::pair<uint32_t, std::string>> snap_heap;
  ASSERT_TRUE(engine_
                  .view_at(snap).scan_heap(table_,
                      [&](storage::SlotId slot, std::string_view bytes) {
                        snap_heap.emplace(slot.extent, std::string(bytes));
                      })
                  .is_ok());
  EXPECT_EQ(live_heap, snap_heap);
}

TEST_F(SnapshotTest, BulkLoadSortedPublishesOneChunk) {
  std::vector<Row> rows;
  for (int64_t pk = 0; pk < 32; ++pk) {
    rows.push_back(batch_row(pk, pk % 4, pk, 32));
  }
  ASSERT_TRUE(engine_.bulk_load_sorted(table_, rows).is_ok());
  const SnapshotStats stats = engine_.stats().snapshots;
  EXPECT_EQ(stats.chunks_published, 1);
  EXPECT_EQ(stats.rows_published, 32);
  const Snapshot snap = engine_.pin_snapshot();
  EXPECT_EQ(engine_.view_at(snap).row_count(table_), 32);
  const auto by_batch = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(1)}, {Value::i64(2)});
  ASSERT_TRUE(by_batch.is_ok());
  EXPECT_EQ(by_batch->size(), 8u);
}

TEST_F(SnapshotTest, ChunkPredatingIndexFailsClosed) {
  commit_batch(0, 1, 4);
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", false).is_ok());
  commit_batch(100, 2, 4);  // chunk committed with the index disabled
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", true).is_ok());
  ASSERT_TRUE(engine_.rebuild_index(table_, "ix_batch").is_ok());
  commit_batch(200, 3, 4);

  // The live index was rebuilt and serves everything; the snapshot chain
  // still contains the index-less chunk and must fail closed rather than
  // silently miss its rows.
  const auto live = engine_.live_view().index_range(table_, "ix_batch", {Value::i64(2)},
                                        {Value::i64(3)});
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(live->size(), 4u);
  const Snapshot snap = engine_.pin_snapshot();
  const auto snapped = engine_.view_at(snap).index_range(
      table_, "ix_batch", {Value::i64(2)}, {Value::i64(3)});
  ASSERT_FALSE(snapped.is_ok());
  EXPECT_EQ(snapped.status().code(), ErrorCode::kFailedPrecondition);
  // PK reads are unaffected.
  const auto pk = engine_.view_at(snap).pk_range(table_, {Value::i64(0)},
                                            {Value::i64(1000)});
  ASSERT_TRUE(pk.is_ok());
  EXPECT_EQ(pk->size(), 12u);
}

// A long chain — one chunk per commit — whose chunks' key spans are
// disjoint, touching and interleaved, on both the PK and the secondary.
// Snapshot reads skip a chunk whose span misses the range; every read must
// still equal the quiesced live read, at span edges and in the gaps.
TEST_F(SnapshotTest, LongChainReadsMatchLiveAtEverySpanEdge) {
  // Commit (pk, batch_id) rows as one transaction; row path or columnar.
  int64_t seq = 0;
  const auto commit_rows =
      [&](const std::vector<std::pair<int64_t, int64_t>>& rows,
          bool columnar) {
        const uint64_t txn = engine_.begin_transaction();
        if (columnar) {
          ColumnBatch batch(engine_.schema().table(table_));
          for (const auto& [pk, batch_id] : rows) {
            batch.push_i64(0, pk);
            batch.push_i64(1, batch_id);
            batch.push_i64(2, seq++);
            batch.push_i64(3, 0);
          }
          const BatchResult result =
              engine_.insert_column_batch(txn, table_, batch);
          ASSERT_FALSE(result.error.has_value());
        } else {
          for (const auto& [pk, batch_id] : rows) {
            OpCosts costs;
            ASSERT_TRUE(engine_
                            .insert_row(txn, table_,
                                        batch_row(pk, batch_id, seq++, 0),
                                        costs)
                            .is_ok());
          }
        }
        ASSERT_TRUE(engine_.commit(txn).is_ok());
      };
  int commits = 0;
  // Disjoint: PK blocks 100 apart, one batch id each.
  for (int64_t i = 0; i < 15; ++i) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (int64_t k = 0; k < 8; ++k) rows.emplace_back(100 * i + k, i);
    commit_rows(rows, i % 2 == 0);
    ++commits;
  }
  // Touching: consecutive PK blocks end to end, and each commit's last
  // batch id is the next commit's first.
  for (int64_t i = 0; i < 15; ++i) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (int64_t k = 0; k < 8; ++k) {
      rows.emplace_back(5000 + 8 * i + k, 100 + i + (k < 4 ? 0 : 1));
    }
    commit_rows(rows, i % 3 == 0);
    ++commits;
  }
  // Interleaved: strided PKs, so every chunk's span overlaps the others'.
  Rng rng(4242);
  for (int64_t i = 0; i < 15; ++i) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (int64_t k = 0; k < 8; ++k) {
      rows.emplace_back(9000 + i + 16 * k, rng.uniform_int(0, 120));
    }
    commit_rows(rows, i % 2 == 1);
    ++commits;
  }
  ASSERT_GE(commits, 40);

  const Snapshot snap = engine_.pin_snapshot();
  const ReadView live = engine_.live_view();
  const ReadView pinned = engine_.view_at(snap);
  ASSERT_EQ(pinned.row_count(table_), live.row_count(table_));

  // Probe bounds: every span edge and its neighbours, gaps, and beyond.
  std::set<int64_t> pk_points = {-5, 0, 9000, 9300, 20000};
  for (int64_t i = 0; i < 15; ++i) {
    for (const int64_t edge : {100 * i, 100 * i + 7, 5000 + 8 * i,
                               5000 + 8 * i + 7, 9000 + i, 9000 + i + 112}) {
      pk_points.insert({edge - 1, edge, edge + 1});
    }
  }
  std::set<int64_t> batch_points = {-1, 0};
  for (int64_t b = 0; b <= 130; b += 3) batch_points.insert({b, b + 1});

  const auto encode = [](int64_t v) {
    index::KeyEncoder enc;
    enc.append_int64(v);
    return enc.take();
  };
  const auto same = [](const Result<std::vector<Row>>& a,
                       const Result<std::vector<Row>>& b) {
    return a.is_ok() && b.is_ok() && *a == *b;
  };
  int64_t rows_seen = 0;
  for (const int64_t lo : pk_points) {
    for (const int64_t hi : {lo, lo + 1, lo + 8, lo + 150, lo + 5000}) {
      const auto expected =
          live.pk_range(table_, {Value::i64(lo)}, {Value::i64(hi)});
      ASSERT_TRUE(expected.is_ok());
      rows_seen += static_cast<int64_t>(expected->size());
      EXPECT_TRUE(same(
          expected, pinned.pk_range(table_, {Value::i64(lo)}, {Value::i64(hi)})))
          << "pk [" << lo << ", " << hi << ")";
      EXPECT_TRUE(same(expected,
                       pinned.pk_encoded_range(table_, encode(lo), encode(hi))))
          << "encoded pk [" << lo << ", " << hi << ")";
    }
    EXPECT_TRUE(same(live.pk_range(table_, {Value::i64(lo)}, {}),
                     pinned.pk_range(table_, {Value::i64(lo)}, {})))
        << "pk [" << lo << ", inf)";
    EXPECT_TRUE(same(live.pk_encoded_range(table_, encode(lo), ""),
                     pinned.pk_encoded_range(table_, encode(lo), "")))
        << "encoded pk [" << lo << ", inf)";
    const auto live_row = live.pk_lookup(table_, {Value::i64(lo)});
    const auto pinned_row = pinned.pk_lookup(table_, {Value::i64(lo)});
    ASSERT_EQ(live_row.is_ok(), pinned_row.is_ok()) << "pk " << lo;
    if (live_row.is_ok()) {
      EXPECT_EQ(*live_row, *pinned_row) << "pk " << lo;
    } else {
      EXPECT_EQ(pinned_row.status().code(), ErrorCode::kNotFound);
    }
  }
  for (const int64_t lo : batch_points) {
    for (const int64_t hi : {lo, lo + 1, lo + 2, lo + 20, lo + 200}) {
      const auto expected = live.index_range(table_, "ix_batch",
                                             {Value::i64(lo)}, {Value::i64(hi)});
      ASSERT_TRUE(expected.is_ok());
      rows_seen += static_cast<int64_t>(expected->size());
      EXPECT_TRUE(same(expected,
                       pinned.index_range(table_, "ix_batch", {Value::i64(lo)},
                                          {Value::i64(hi)})))
          << "ix_batch [" << lo << ", " << hi << ")";
      EXPECT_TRUE(same(expected, pinned.index_encoded_range(
                                     table_, "ix_batch", encode(lo), encode(hi))))
          << "encoded ix_batch [" << lo << ", " << hi << ")";
    }
    EXPECT_TRUE(same(
        live.index_range(table_, "ix_batch", {Value::i64(lo)}, {}),
        pinned.index_range(table_, "ix_batch", {Value::i64(lo)}, {})))
        << "ix_batch [" << lo << ", inf)";
    EXPECT_TRUE(same(
        live.index_encoded_range(table_, "ix_batch", encode(lo), ""),
        pinned.index_encoded_range(table_, "ix_batch", encode(lo), "")))
        << "encoded ix_batch [" << lo << ", inf)";
  }
  EXPECT_GT(rows_seen, 0);
}

// The span skip comes after the fail-closed check: a chunk committed while
// the index was disabled fails every snapshot read of that index, even one
// whose range lies wholly outside the chunk's keys.
TEST_F(SnapshotTest, IndexlessChunkFailsClosedOutsideItsSpan) {
  commit_batch(0, 1, 4);
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", false).is_ok());
  commit_batch(100, 50, 4);  // batch 50, PKs 100..103: no ix_batch run
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", true).is_ok());
  ASSERT_TRUE(engine_.rebuild_index(table_, "ix_batch").is_ok());
  commit_batch(200, 2, 4);

  const Snapshot snap = engine_.pin_snapshot();
  const ReadView pinned = engine_.view_at(snap);
  index::KeyEncoder enc;
  enc.append_int64(1);
  const std::string lo = enc.take();
  enc.clear();
  enc.append_int64(3);
  const std::string hi = enc.take();
  EXPECT_EQ(pinned.index_range(table_, "ix_batch", {Value::i64(1)},
                               {Value::i64(3)})
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pinned.index_encoded_range(table_, "ix_batch", lo, hi)
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  // PK reads that miss the index-less chunk's span, and point lookups on
  // either side of it, are unaffected.
  const auto pk = pinned.pk_range(table_, {Value::i64(0)}, {Value::i64(50)});
  ASSERT_TRUE(pk.is_ok());
  EXPECT_EQ(pk->size(), 4u);
  EXPECT_TRUE(pinned.pk_lookup(table_, {Value::i64(101)}).is_ok());
  EXPECT_TRUE(pinned.pk_lookup(table_, {Value::i64(203)}).is_ok());
  EXPECT_EQ(pinned.pk_lookup(table_, {Value::i64(150)}).status().code(),
            ErrorCode::kNotFound);
}

// Fail-closed symmetry: an index that cannot serve a read reports one
// canonical code — kFailedPrecondition — on every secondary read spelling,
// live or snapshot, value-tuple or encoded-key. The live reads fail because
// the index is disabled right now; the snapshot reads fail because a chunk
// in the pinned chain was committed without index entries. Callers branch
// on the code only (never the message), so the four paths must agree.
TEST_F(SnapshotTest, IndexUnavailableIsSymmetricAcrossReadPaths) {
  commit_batch(0, 1, 4);
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", false).is_ok());
  commit_batch(100, 2, 4);  // chunk committed with the index disabled
  const Snapshot stale = engine_.pin_snapshot();

  index::KeyEncoder enc;
  enc.append_int64(1);
  const std::string lo = enc.take();
  enc.clear();
  enc.append_int64(3);
  const std::string hi = enc.take();

  struct ReadCase {
    const char* name;
    bool snapshot;  // read through the stale pin instead of the live state
    bool encoded;   // encoded-key spelling instead of value tuples
  };
  const ReadCase kCases[] = {
      {"live/index_range", false, false},
      {"live/index_encoded_range", false, true},
      {"snapshot/index_range", true, false},
      {"snapshot/index_encoded_range", true, true},
  };
  const auto probe = [&](const ReadCase& c) {
    const ReadView view =
        c.snapshot ? engine_.view_at(stale) : engine_.live_view();
    return c.encoded
               ? view.index_encoded_range(table_, "ix_batch", lo, hi).status()
               : view.index_range(table_, "ix_batch", {Value::i64(1)},
                                  {Value::i64(3)})
                     .status();
  };

  for (const ReadCase& c : kCases) {
    EXPECT_EQ(probe(c).code(), ErrorCode::kFailedPrecondition) << c.name;
  }

  // Re-enabling and rebuilding heals the live paths only: the stale pin
  // still chains over the index-less chunk and keeps failing closed.
  ASSERT_TRUE(engine_.set_index_enabled(table_, "ix_batch", true).is_ok());
  ASSERT_TRUE(engine_.rebuild_index(table_, "ix_batch").is_ok());
  for (const ReadCase& c : kCases) {
    if (c.snapshot) {
      EXPECT_EQ(probe(c).code(), ErrorCode::kFailedPrecondition) << c.name;
    } else {
      EXPECT_TRUE(probe(c).is_ok()) << c.name;
    }
  }
}

// Regression for the tentpole guarantee: a snapshot read completes without
// touching any latch even while a loader holds the extent latch inside a
// long modeled append. Live reads would block here; the snapshot path's
// lock-wait cost and the scheduler's gate-wait counters must stay zero.
TEST_F(SnapshotTest, ScanAcquiresZeroLatchesWhileLoaderHoldsExtent) {
  EngineOptions options;
  options.heap_extents = 1;  // one extent: any latch share would collide
  options.latency.extent_append_write = 30 * kMillisecond;
  Engine engine(batches_schema(), options);
  const uint32_t table = engine.table_id("batches").value();
  {
    const uint64_t txn = engine.begin_transaction();
    for (int64_t seq = 0; seq < 4; ++seq) {
      OpCosts costs;
      ASSERT_TRUE(
          engine.insert_row(txn, table, batch_row(seq, 1, seq, 4), costs)
              .is_ok());
    }
    ASSERT_TRUE(engine.commit(txn).is_ok());
  }

  QueryScheduler scheduler(engine);
  std::atomic<bool> loader_started{false};
  std::thread loader([&] {
    const uint64_t txn = engine.begin_transaction();
    std::vector<Row> rows;
    for (int64_t seq = 0; seq < 20; ++seq) {
      rows.push_back(batch_row(100 + seq, 2, seq, 20));
    }
    loader_started.store(true);
    // ~600 ms of extent-latch holds (30 ms per appended row).
    const BatchResult result = engine.insert_batch(txn, table, rows);
    ASSERT_FALSE(result.error.has_value());
    ASSERT_TRUE(engine.commit(txn).is_ok());
  });
  while (!loader_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  OpCosts costs;
  const auto begin = std::chrono::steady_clock::now();
  const Admission admission =
      scheduler.admit(QueryLane::kInteractive, &costs);
  const auto rows = engine.view_at(admission.snapshot())
                        .scan_collect(table, [](const Row&) { return true; },
                                      &costs);
  const auto hit =
      engine.view_at(admission.snapshot()).pk_lookup(table, {Value::i64(0)});
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_EQ(rows.size(), 4u);  // the committed prefix only
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(costs.lock_wait_ns, 0);
  EXPECT_EQ(scheduler.stats().interactive.gate.waits, 0u);
  // Far below a single 30 ms extent hold — the reads queued on nothing.
  EXPECT_LT(elapsed, 400);
  loader.join();
}

// Randomized property: under concurrent loaders (mixed row/columnar
// batches, occasional rollbacks), every pin observes exactly a set of whole
// committed transactions — no torn batch, no rolled-back row, unique PKs —
// and re-pins are monotone (read_lsn, row count, batch-id set).
TEST_F(SnapshotTest, ConcurrentLoadersSnapshotConsistencyProperty) {
  constexpr int kLoaders = 4;
  constexpr int kScanners = 2;
  constexpr int kTxnsPerLoader = 60;
  Engine engine(batches_schema(), EngineOptions{});
  const uint32_t table = engine.table_id("batches").value();

  std::atomic<int64_t> next_pk{0};
  std::atomic<int64_t> next_batch{1};
  std::atomic<int> loaders_done{0};
  std::mutex ledger_mu;
  std::set<int64_t> committed_ids;
  std::set<int64_t> rolled_back_ids;

  std::vector<std::thread> threads;
  for (int w = 0; w < kLoaders; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(7000 + static_cast<uint64_t>(w));
      for (int t = 0; t < kTxnsPerLoader; ++t) {
        const int64_t total = rng.uniform_int(1, 24);
        const int64_t pk_base = next_pk.fetch_add(total);
        const int64_t batch_id = next_batch.fetch_add(1);
        const uint64_t txn = engine.begin_transaction();
        if (rng.bernoulli(0.5)) {
          ColumnBatch batch(engine.schema().table(table));
          for (int64_t seq = 0; seq < total; ++seq) {
            batch.push_i64(0, pk_base + seq);
            batch.push_i64(1, batch_id);
            batch.push_i64(2, seq);
            batch.push_i64(3, total);
          }
          const BatchResult result =
              engine.insert_column_batch(txn, table, batch);
          ASSERT_FALSE(result.error.has_value());
        } else {
          std::vector<Row> rows;
          for (int64_t seq = 0; seq < total; ++seq) {
            rows.push_back(batch_row(pk_base + seq, batch_id, seq, total));
          }
          const BatchResult result = engine.insert_batch(txn, table, rows);
          ASSERT_FALSE(result.error.has_value());
        }
        if (rng.bernoulli(0.1)) {
          ASSERT_TRUE(engine.rollback(txn).is_ok());
          const std::scoped_lock lock(ledger_mu);
          rolled_back_ids.insert(batch_id);
        } else {
          ASSERT_TRUE(engine.commit(txn).is_ok());
          const std::scoped_lock lock(ledger_mu);
          committed_ids.insert(batch_id);
        }
      }
      loaders_done.fetch_add(1);
    });
  }

  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(31000 + static_cast<uint64_t>(s));
      uint64_t last_lsn = 0;
      int64_t last_rows = 0;
      std::set<int64_t> last_ids;
      while (loaders_done.load() < kLoaders) {
        const Snapshot snap = engine.pin_snapshot();
        ASSERT_GE(snap.read_lsn(), last_lsn);
        const int64_t rows = engine.view_at(snap).row_count(table);
        ASSERT_GE(rows, last_rows);

        std::map<int64_t, std::pair<int64_t, int64_t>> seen;  // id -> (n,total)
        std::set<int64_t> pks;
        int64_t visited = 0;
        const auto all = engine.view_at(snap).scan_collect(
            table, [](const Row&) { return true; });
        for (const Row& row : all) {
          ++visited;
          ASSERT_TRUE(pks.insert(row[0].as_i64()).second)
              << "duplicate pk in one snapshot";
          auto& [n, batch_total] = seen[row[1].as_i64()];
          ++n;
          batch_total = row[3].as_i64();
        }
        ASSERT_EQ(visited, rows);
        std::set<int64_t> ids;
        for (const auto& [batch_id, counts] : seen) {
          ASSERT_EQ(counts.first, counts.second)
              << "torn batch " << batch_id << " in snapshot at lsn "
              << snap.read_lsn();
          ids.insert(batch_id);
        }
        for (const int64_t batch_id : last_ids) {
          ASSERT_TRUE(ids.count(batch_id) > 0)
              << "batch " << batch_id << " vanished on re-pin";
        }
        // Spot-check the secondary-index path under load: a batch that the
        // scan proved visible must be fully readable through ix_batch.
        if (!ids.empty() && rng.bernoulli(0.5)) {
          const int64_t probe = *ids.begin();
          const auto by_index = engine.view_at(snap).index_range(
              table, "ix_batch", {Value::i64(probe)},
              {Value::i64(probe + 1)});
          ASSERT_TRUE(by_index.is_ok());
          ASSERT_EQ(static_cast<int64_t>(by_index->size()),
                    seen[probe].second);
        }
        last_lsn = snap.read_lsn();
        last_rows = rows;
        last_ids = std::move(ids);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Quiesced: the final pin is the committed ledger exactly, and matches
  // the live scan.
  const Snapshot final_snap = engine.pin_snapshot();
  const auto all = engine.view_at(final_snap).scan_collect(
      table, [](const Row&) { return true; });
  std::set<int64_t> final_ids;
  for (const Row& row : all) final_ids.insert(row[1].as_i64());
  EXPECT_EQ(final_ids, committed_ids);
  for (const int64_t batch_id : rolled_back_ids) {
    EXPECT_EQ(final_ids.count(batch_id), 0u);
  }
  const auto live =
      engine.live_view().scan_collect(table, [](const Row&) { return true; });
  EXPECT_EQ(all, live);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
  const SnapshotStats stats = engine.stats().snapshots;
  EXPECT_EQ(stats.active_pins, 1);  // final_snap
  EXPECT_EQ(stats.rows_published, engine.live_view().row_count(table));
}

}  // namespace
}  // namespace sky::db
