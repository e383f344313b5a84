// A client::Session decorator that times every database call and counts
// batches, commits and failed calls.
//
// The benchmark's SessionFactory wraps each loader's DirectSession in one
// of these. Every virtual method is forwarded explicitly, including
// execute_column_batch: the base class's default would otherwise bridge
// columnar batches onto the row path and quietly change what is measured.
// The benchmark checks that per-table row counts are identical with and
// without the decorator.
#pragma once

#include <memory>

#include "client/session.h"

namespace perfbench {

// Per-session call tallies (one slot per loader thread; read after join).
struct CallTally {
  int64_t batch_calls = 0;   // execute_batch + execute_column_batch
  int64_t commit_calls = 0;
  int64_t failed_calls = 0;  // calls that reported an error
  int64_t batch_ns = 0;
  int64_t single_ns = 0;
  int64_t commit_ns = 0;
  int64_t prepare_ns = 0;
  // Time inside any forwarded database call.
  int64_t call_ns() const {
    return batch_ns + single_ns + commit_ns + prepare_ns;
  }
};

class TimingSession final : public sky::client::Session {
 public:
  TimingSession(std::unique_ptr<sky::client::Session> inner, CallTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  sky::Result<uint32_t> prepare_insert(std::string_view table_name) override;
  sky::client::BatchOutcome execute_batch(
      uint32_t table, std::span<const sky::db::Row> rows) override;
  sky::client::BatchOutcome execute_column_batch(
      uint32_t table, const sky::db::ColumnBatch& batch, size_t first,
      size_t count) override;
  sky::Status execute_single(uint32_t table,
                             const sky::db::Row& row) override;
  sky::Status commit() override;
  void client_compute(sky::Nanos duration) override {
    inner_->client_compute(duration);
  }
  void note_buffered_rows(int64_t rows, int64_t footprint_bytes,
                          bool columnar) override {
    inner_->note_buffered_rows(rows, footprint_bytes, columnar);
  }
  sky::Nanos now() const override { return inner_->now(); }
  const sky::client::SessionStats& stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<sky::client::Session> inner_;
  CallTally& tally_;
};

}  // namespace perfbench
