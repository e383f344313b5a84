// ReadView implementation: every read operation once, over two mode
// primitives — key_range (an encoded-key range over the PK or one secondary
// index) and scan_heap (the physical visit). Only they, row_count and
// pk_lookup's probe branch on the mode: live reads take the engine rwlock
// and the index latch shared (synchronizing with writers), snapshot reads
// walk the pinned chunk chains latch-free. See read_view.h for the contract.
#include "db/read_view.h"

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <shared_mutex>
#include <tuple>

#include "db/engine.h"
#include "db/snapshot.h"
#include "db/table.h"
#include "index/key_codec.h"

namespace sky::db {

namespace {

Status no_such_index(std::string_view index_name) {
  return Status(ErrorCode::kNotFound,
                "no such index: " + std::string(index_name));
}

// Slot of the named secondary index in Table::secondaries(), or -1. Index
// definitions are immutable after construction, so no latch is needed.
int secondary_slot(const Table& table, std::string_view index_name) {
  for (size_t s = 0; s < table.secondaries().size(); ++s) {
    if (table.secondaries()[s].def.name == index_name) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

// Key of a value tuple over the given columns. A tuple shorter than the
// column list encodes a prefix; an empty one, the empty key.
std::string encode_tuple_key(const TableDef& def,
                             const std::vector<int>& column_indices,
                             const Row& values) {
  index::KeyEncoder encoder;
  for (size_t i = 0; i < values.size() && i < column_indices.size(); ++i) {
    const int idx = column_indices[i];
    append_value_to_key(encoder, values[i],
                        def.columns[static_cast<size_t>(idx)].type);
  }
  return encoder.take();
}

// Probe key for an HTM-keyed index: the bound tuple is a single int64
// trixel id (IndexDef::htm), not values of the underlying ra/dec columns.
// An empty tuple encodes as the empty key (unbounded).
std::string encode_htm_probe_key(const Row& values) {
  index::KeyEncoder encoder;
  if (!values.empty() && !values[0].is_null()) {
    encoder.append_int64(values[0].as_i64());
  }
  return encoder.take();
}

Result<Row> row_at(const Table& table, uint64_t row_id) {
  SKY_ASSIGN_OR_RETURN(const std::string_view bytes,
                       table.heap().read(row_id_slot(row_id)));
  return decode_row(bytes);
}

using KeyRun = std::vector<std::pair<std::string, uint32_t>>;

// Can a chunk's sorted key run hold a key in [lo, hi) (empty hi =
// unbounded)? Its first and last keys bound its span, so a chunk whose span
// misses the range is skipped without a binary search.
bool span_meets(const KeyRun& run, const std::string& lo,
                const std::string& hi) {
  return !run.empty() && !(run.back().first < lo) &&
         (hi.empty() || run.front().first < hi);
}

// First entry of a sorted run with key >= lo.
KeyRun::const_iterator run_lower_bound(const KeyRun& run,
                                       const std::string& lo) {
  return std::lower_bound(
      run.begin(), run.end(), lo,
      [](const std::pair<std::string, uint32_t>& entry, const std::string& k) {
        return entry.first < k;
      });
}

// Snapshot mode of key_range: collect [lo, hi) (empty hi = unbounded) from
// each visible chunk's PK run (secondary < 0) or the given secondary run,
// merge by key order, decode. `index_name` labels the fail-closed error
// when a chunk predates the secondary index.
Result<std::vector<Row>> collect_chunk_range(const Snapshot& snap,
                                             uint32_t table_id, int secondary,
                                             std::string_view index_name,
                                             const std::string& lo,
                                             const std::string& hi) {
  // (encoded key, row bytes) hits across all visible chunks, walked newest
  // first. Keys are globally unique — PKs by constraint, non-unique
  // secondary keys by their row-id suffix — so a plain sort yields
  // live-index order whatever the walk order.
  std::vector<std::pair<std::string_view, std::string_view>> hits;
  for (const SnapshotNode* node = snap.visible_head(table_id); node != nullptr;
       node = node->prev.get()) {
    const SnapshotChunk& chunk = node->chunk;
    const KeyRun* run = &chunk.pk;
    if (secondary >= 0) {
      const auto s = static_cast<size_t>(secondary);
      if (s >= chunk.secondaries.size() || !chunk.secondaries[s].has_value()) {
        return index_unavailable_error(
            index_name,
            "snapshot chunk predates index: committed while it was disabled");
      }
      run = &*chunk.secondaries[s];
    }
    // After the fail-closed check: a chunk without the run fails the read
    // whatever its span.
    if (!span_meets(*run, lo, hi)) continue;
    for (auto it = run_lower_bound(*run, lo); it != run->end(); ++it) {
      if (!hi.empty() && it->first >= hi) break;
      hits.emplace_back(it->first, chunk.rows[it->second].bytes);
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Row> rows;
  rows.reserve(hits.size());
  for (const auto& [key, bytes] : hits) {
    SKY_ASSIGN_OR_RETURN(Row row, decode_row(bytes));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

Result<const Table*> ReadView::table_at(uint32_t table_id) const {
  if (engine_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "read on an empty ReadView");
  }
  if (table_id >= engine_->tables_.size()) {
    return Status(ErrorCode::kNotFound, "bad table id");
  }
  return &engine_->tables_[table_id];
}

Result<std::vector<Row>> ReadView::key_range(uint32_t table_id, int secondary,
                                             std::string_view index_name,
                                             const std::string& lo,
                                             const std::string& hi) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, table_at(table_id));
  if (snap_ != nullptr) {
    // `enabled` is deliberately NOT consulted: visibility is per chunk.
    return collect_chunk_range(*snap_, table_id, secondary, index_name, lo,
                               hi);
  }
  const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
  const index::BPlusTree* tree = &table->pk_tree();
  if (secondary >= 0) {
    const SecondaryIndex& index =
        table->secondaries()[static_cast<size_t>(secondary)];
    if (!index.enabled) {
      return index_unavailable_error(index_name, "index is disabled");
    }
    tree = &index.tree;
  }
  // Tree reads synchronize with row publication on the index latch; each
  // heap read inside row_at() takes its extent latch underneath.
  const std::shared_lock<std::shared_mutex> latch(table->index_latch());
  const std::vector<uint64_t> row_ids =
      hi.empty() ? tree->range_lookup_unbounded(lo)
                 : tree->range_lookup(lo, hi);
  std::vector<Row> rows;
  rows.reserve(row_ids.size());
  for (const uint64_t row_id : row_ids) {
    SKY_ASSIGN_OR_RETURN(Row row, row_at(*table, row_id));
    rows.push_back(std::move(row));
  }
  return rows;
}

int64_t ReadView::row_count(uint32_t table_id) const {
  const Result<const Table*> table = table_at(table_id);
  if (!table.is_ok()) return 0;
  if (snap_ != nullptr) return snap_->row_count(table_id);
  const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
  // Heap counters are latch-free atomics (storage/sharded_heap.h).
  return (*table)->heap().row_count();
}

Result<Row> ReadView::pk_lookup(uint32_t table_id, const Row& pk_values) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, table_at(table_id));
  if (pk_values.size() != table->pk_column_indices().size()) {
    return Status(ErrorCode::kInvalidArgument, "pk tuple arity mismatch");
  }
  const std::string key =
      encode_tuple_key(table->def(), table->pk_column_indices(), pk_values);
  if (snap_ != nullptr) {
    // Newest chunk first; PKs are unique, so the first hit is the row.
    // key + '\0' is the key's immediate successor: [key, after) is the key.
    const std::string after = key + '\0';
    for (const SnapshotNode* node = snap_->visible_head(table_id);
         node != nullptr; node = node->prev.get()) {
      const SnapshotChunk& chunk = node->chunk;
      if (!span_meets(chunk.pk, key, after)) continue;
      const auto it = run_lower_bound(chunk.pk, key);
      if (it != chunk.pk.end() && it->first == key) {
        return decode_row(chunk.rows[it->second].bytes);
      }
    }
  } else {
    const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
    const std::shared_lock<std::shared_mutex> latch(table->index_latch());
    if (const auto row_id = table->pk_tree().lookup(key); row_id.has_value()) {
      return row_at(*table, *row_id);
    }
  }
  return Status(ErrorCode::kNotFound, "no row with given primary key");
}

Result<std::vector<Row>> ReadView::pk_range(uint32_t table_id, const Row& lo,
                                            const Row& hi) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, table_at(table_id));
  const TableDef& def = table->def();
  const std::vector<int>& columns = table->pk_column_indices();
  return key_range(table_id, -1, {}, encode_tuple_key(def, columns, lo),
                   encode_tuple_key(def, columns, hi));
}

Result<std::vector<Row>> ReadView::index_range(uint32_t table_id,
                                               std::string_view index_name,
                                               const Row& lo,
                                               const Row& hi) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, table_at(table_id));
  const int s = secondary_slot(*table, index_name);
  if (s < 0) return no_such_index(index_name);
  const SecondaryIndex& index = table->secondaries()[static_cast<size_t>(s)];
  const auto encode = [&](const Row& values) {
    return index.def.htm.has_value()
               ? encode_htm_probe_key(values)
               : encode_tuple_key(table->def(), index.column_indices, values);
  };
  return key_range(table_id, s, index_name, encode(lo), encode(hi));
}

Result<std::vector<Row>> ReadView::pk_encoded_range(uint32_t table_id,
                                                    const std::string& lo,
                                                    const std::string& hi)
    const {
  return key_range(table_id, -1, {}, lo, hi);
}

Result<std::vector<Row>> ReadView::index_encoded_range(
    uint32_t table_id, std::string_view index_name, const std::string& lo,
    const std::string& hi) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, table_at(table_id));
  const int s = secondary_slot(*table, index_name);
  if (s < 0) return no_such_index(index_name);
  return key_range(table_id, s, index_name, lo, hi);
}

std::vector<Row> ReadView::scan_collect(
    uint32_t table_id, const std::function<bool(const Row&)>& pred,
    OpCosts* costs) const {
  OpCosts scratch;
  OpCosts& tally = costs != nullptr ? *costs : scratch;
  std::vector<Row> rows;
  // An empty view or a bad table id scans nothing.
  (void)scan_heap(table_id, [&](storage::SlotId, std::string_view bytes) {
    ++tally.rows_applied;
    tally.heap_bytes += static_cast<int64_t>(bytes.size());
    auto row = decode_row(bytes);
    if (row.is_ok() && pred(*row)) rows.push_back(std::move(*row));
  });
  return rows;
}

Status ReadView::scan_heap(
    uint32_t table_id,
    const std::function<void(storage::SlotId, std::string_view)>& fn) const {
  SKY_ASSIGN_OR_RETURN(const Table* table, table_at(table_id));
  if (snap_ == nullptr) {
    // Heap-only read: the scan synchronizes on each extent latch inside the
    // heap and sees published rows exactly (pending rows are hidden).
    const std::shared_lock<std::shared_mutex> engine_lock(engine_->engine_mu_);
    table->heap().scan(fn);
    return ok_status();
  }
  // Gather the pinned refs, then visit in physical heap order so the result
  // matches a live scan on a quiesced heap. No latch is taken, so a scan's
  // lock_wait_ns stays 0 by construction. A chunk holds one transaction's
  // appends to one extent, so it is normally in heap order already: sort
  // only a chunk that is not, then merge the chunks pairwise — O(n log
  // chunks) rather than a full sort. Slots are unique, so the order is the
  // same as a full sort's.
  using RowRef = SnapshotChunk::RowRef;
  const auto heap_order = [](const RowRef& a, const RowRef& b) {
    return std::tie(a.slot.extent, a.slot.page, a.slot.slot) <
           std::tie(b.slot.extent, b.slot.page, b.slot.slot);
  };
  std::vector<RowRef> refs;
  refs.reserve(static_cast<size_t>(snap_->row_count(table_id)));
  // Run i is [runs[i], runs[i + 1]) of refs.
  std::vector<std::ptrdiff_t> runs = {0};
  snap_->visit_chunks(table_id, [&](const SnapshotChunk& chunk) {
    if (chunk.rows.empty()) return;
    const auto first = refs.insert(refs.end(), chunk.rows.begin(),
                                   chunk.rows.end());
    if (!std::is_sorted(first, refs.end(), heap_order)) {
      std::sort(first, refs.end(), heap_order);
    }
    runs.push_back(static_cast<std::ptrdiff_t>(refs.size()));
  });
  if (!std::is_sorted(refs.begin(), refs.end(), heap_order)) {
    std::vector<RowRef> merged(refs.size());
    while (runs.size() > 2) {
      std::vector<std::ptrdiff_t> next = {0};
      size_t r = 0;
      for (; r + 2 < runs.size(); r += 2) {
        std::merge(refs.begin() + runs[r], refs.begin() + runs[r + 1],
                   refs.begin() + runs[r + 1], refs.begin() + runs[r + 2],
                   merged.begin() + runs[r], heap_order);
        next.push_back(runs[r + 2]);
      }
      if (r + 1 < runs.size()) {  // odd run out: carried over as is
        std::copy(refs.begin() + runs[r], refs.begin() + runs[r + 1],
                  merged.begin() + runs[r]);
        next.push_back(runs[r + 1]);
      }
      refs.swap(merged);
      runs = std::move(next);
    }
  }
  for (const RowRef& ref : refs) fn(ref.slot, ref.bytes);
  return ok_status();
}

}  // namespace sky::db
