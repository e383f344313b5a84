#include "timing_session.h"

#include "trace.h"

namespace perfbench {

sky::Result<uint32_t> TimingSession::prepare_insert(
    std::string_view table_name) {
  const Tracer::Scope span("client.prepare_insert");
  const int64_t start = now_ns();
  auto result = inner_->prepare_insert(table_name);
  tally_.prepare_ns += now_ns() - start;
  if (!result.is_ok()) ++tally_.failed_calls;
  return result;
}

sky::client::BatchOutcome TimingSession::execute_batch(
    uint32_t table, std::span<const sky::db::Row> rows) {
  const Tracer::Scope span("client.execute_batch");
  const int64_t start = now_ns();
  auto outcome = inner_->execute_batch(table, rows);
  tally_.batch_ns += now_ns() - start;
  ++tally_.batch_calls;
  if (outcome.error.has_value()) ++tally_.failed_calls;
  return outcome;
}

sky::client::BatchOutcome TimingSession::execute_column_batch(
    uint32_t table, const sky::db::ColumnBatch& batch, size_t first,
    size_t count) {
  const Tracer::Scope span("client.execute_column_batch");
  const int64_t start = now_ns();
  auto outcome = inner_->execute_column_batch(table, batch, first, count);
  tally_.batch_ns += now_ns() - start;
  ++tally_.batch_calls;
  if (outcome.error.has_value()) ++tally_.failed_calls;
  return outcome;
}

sky::Status TimingSession::execute_single(uint32_t table,
                                          const sky::db::Row& row) {
  const Tracer::Scope span("client.execute_single");
  const int64_t start = now_ns();
  auto status = inner_->execute_single(table, row);
  tally_.single_ns += now_ns() - start;
  if (!status.is_ok()) ++tally_.failed_calls;
  return status;
}

sky::Status TimingSession::commit() {
  const Tracer::Scope span("client.commit");
  const int64_t start = now_ns();
  auto status = inner_->commit();
  tally_.commit_ns += now_ns() - start;
  ++tally_.commit_calls;
  if (!status.is_ok()) ++tally_.failed_calls;
  return status;
}

}  // namespace perfbench
