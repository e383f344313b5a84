// ReadView: the one read handle over the engine.
//
// Every read operation is spelled once and served in either of two modes,
// chosen when the view is constructed:
//
//   db::ReadView live = engine.live_view();        // latch-shared, freshest
//   db::Snapshot snap = engine.pin_snapshot();
//   db::ReadView pinned = engine.view_at(snap);    // latch-free, committed
//                                                  // prefix at pin time
//
// Live reads synchronize with writers on the engine rwlock and the index
// latch (shared); snapshot reads touch only the pinned chunk data
// (db/snapshot.h). Two primitives carry the mode: key_range (private; an
// encoded-key range over the PK or one secondary index) and scan_heap (the
// physical visit). The range reads and scan_collect are built on them, and
// only row_count and pk_lookup's probe branch on the mode besides — so both
// modes return the same rows on a quiesced engine.
//
// Operators written against ReadView (spatial::cone_search,
// spatial::xmatch, the query planner) serve both modes for free, and
// QueryScheduler::Admission::view() hands an admitted query the right mode
// per QueryPolicy::use_snapshots without branching at the call site.
//
// A ReadView is a non-owning handle: it must not outlive the engine, and a
// snapshot view must not outlive the Snapshot it was constructed from (the
// typical shape — pin, build the view, query, drop both — makes this
// natural). Copying a view is free; it carries no state beyond the two
// pointers.
//
// Error contract: reads over an unavailable secondary index fail closed
// with the same canonical code in both modes — kFailedPrecondition, whether
// the index is disabled right now (live) or a visible chunk was committed
// while it was disabled (snapshot). See index_unavailable_error in
// engine.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "db/op_costs.h"
#include "db/row.h"
#include "storage/sharded_heap.h"

namespace sky::db {

class Engine;
class Snapshot;
class Table;

class ReadView {
 public:
  // An empty view; every query on it fails with kFailedPrecondition.
  ReadView() = default;

  bool valid() const { return engine_ != nullptr; }
  // Reading a pinned snapshot (latch-free committed prefix) vs. live state?
  bool is_snapshot() const { return snap_ != nullptr; }
  // The engine under this view (valid views only — callers resolve schema
  // metadata, e.g. table ids and index definitions, through this).
  const Engine& engine() const { return *engine_; }
  // The pinned snapshot under a snapshot view (nullptr on live views).
  const Snapshot* snapshot() const { return snap_; }

  // Rows of the table visible to this view.
  int64_t row_count(uint32_t table_id) const;
  // Look up one row by full primary key.
  Result<Row> pk_lookup(uint32_t table_id, const Row& pk_values) const;
  // All rows whose PK is in [lo, hi) — keys built from value tuples. A
  // tuple shorter than the key is a prefix bound (`hi` = {5} on a two-column
  // key stops before the first key starting with 5); an empty `hi` is
  // unbounded. The same holds for index_range.
  Result<std::vector<Row>> pk_range(uint32_t table_id, const Row& lo,
                                    const Row& hi) const;
  // Range over a secondary index: [lo, hi) on the indexed columns. On an
  // HTM-keyed index (IndexDef::htm) the tuples are single int64 trixel ids,
  // not (ra, dec) pairs.
  Result<std::vector<Row>> index_range(uint32_t table_id,
                                       std::string_view index_name,
                                       const Row& lo, const Row& hi) const;
  // Encoded-key ranges for the query planner: [lo, hi) over pre-encoded
  // keys (index::KeyEncoder order); empty `hi` means unbounded.
  Result<std::vector<Row>> pk_encoded_range(uint32_t table_id,
                                            const std::string& lo,
                                            const std::string& hi) const;
  Result<std::vector<Row>> index_encoded_range(uint32_t table_id,
                                               std::string_view index_name,
                                               const std::string& lo,
                                               const std::string& hi) const;
  // Full scan with predicate. `costs` (optional) tallies rows visited
  // (rows_applied) and heap bytes decoded, in both modes.
  std::vector<Row> scan_collect(uint32_t table_id,
                                const std::function<bool(const Row&)>& pred,
                                OpCosts* costs = nullptr) const;
  // Physical visit in heap order (extent, page, slot ascending).
  Status scan_heap(
      uint32_t table_id,
      const std::function<void(storage::SlotId, std::string_view)>& fn) const;

 private:
  friend class Engine;
  ReadView(const Engine* engine, const Snapshot* snap)
      : engine_(engine), snap_(snap) {}

  // The table behind an id: kFailedPrecondition on an empty view, kNotFound
  // for a bad id. Lock-free: the engine's tables are fixed at construction.
  Result<const Table*> table_at(uint32_t table_id) const;
  // The first mode primitive: rows whose encoded key is in [lo, hi) (empty
  // `hi` = unbounded) over the PK (`secondary` < 0) or the secondary index
  // in that slot, in key order. `index_name` labels the fail-closed error.
  Result<std::vector<Row>> key_range(uint32_t table_id, int secondary,
                                     std::string_view index_name,
                                     const std::string& lo,
                                     const std::string& hi) const;

  const Engine* engine_ = nullptr;
  const Snapshot* snap_ = nullptr;
};

}  // namespace sky::db
