// Rows and the row codec.
//
// A Row is a positional tuple matching a table's column list. The codec
// serializes rows for heap storage and WAL records — real bytes, so page
// occupancy and redo volume come from actual data sizes.
//
// Encoded layout: a u32 big-endian cell count, then per cell a kind byte
// and a fixed or length-prefixed payload (CellKind below). walk_row is the
// one reader of that layout: decode_row, the projection decode_doubles and
// ColumnBatch::push_encoded_row are all built on it, so they accept and
// reject exactly the same bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/value.h"

namespace sky::db {

using Row = std::vector<Value>;

// Serialize: per value, a kind byte then a fixed or length-prefixed payload.
std::string encode_row(const Row& row);

Result<Row> decode_row(std::string_view bytes);

// The double cells at `columns` of an encoded row, written to out[i] for
// columns[i], with no Value created. Every cell is still walked, so the
// bytes accepted and rejected (kParseError) are exactly decode_row's. A
// well-formed row whose requested cell is missing or not a double (NULL
// included) is kInvalidArgument.
Status decode_doubles(std::string_view bytes, std::span<const int> columns,
                      double* out);

// Rough in-memory footprint of a buffered row (array-set accounting).
size_t row_memory_bytes(const Row& row);

std::string row_to_display(const Row& row);

// ------------------------------------------------------- the cell walker

enum class CellKind : uint8_t {
  kNull = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

// One cell of an encoded row, viewed in place: `payload` is the cell's
// 4 (kInt32) or 8 (kInt64, kDouble) big-endian value bytes, the string
// bytes (kString), or empty (kNull). Values decode on demand, so a walk
// that skips a cell never reads its payload.
namespace row_codec {

Status malformed(const char* what);

// Big-endian unsigned integer of N bytes at p.
template <size_t N>
uint64_t load_be(const char* p) {
  uint64_t v = 0;
  for (size_t i = 0; i < N; ++i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

}  // namespace row_codec

struct CellView {
  CellKind kind = CellKind::kNull;
  std::string_view payload;

  // The value bytes of a fixed-width cell (kInt32, kInt64, kDouble).
  uint64_t bits() const {
    return payload.size() == 8 ? row_codec::load_be<8>(payload.data())
                               : row_codec::load_be<4>(payload.data());
  }
  int32_t i32() const {
    return static_cast<int32_t>(static_cast<uint32_t>(bits()));
  }
  int64_t i64() const { return static_cast<int64_t>(bits()); }
  double f64() const {
    const uint64_t b = bits();
    double d;
    static_assert(sizeof(d) == sizeof(b));
    std::memcpy(&d, &b, sizeof(d));
    return d;
  }
};

// Walk an encoded row: on_count(n) once after the header, then
// on_cell(column, cell) for each of the n cells in column order. Every
// cell is bounds-checked and the row must end right after the last one;
// malformed bytes stop the walk with kParseError (the callbacks may have
// seen a prefix of the cells by then).
template <typename OnCount, typename OnCell>
Status walk_row(std::string_view bytes, OnCount&& on_count,
                OnCell&& on_cell) {
  if (bytes.size() < 4) return row_codec::malformed("row decode: truncated");
  const auto count =
      static_cast<uint32_t>(row_codec::load_be<4>(bytes.data()));
  on_count(count);
  size_t pos = 4;
  CellView cell;
  for (uint32_t column = 0; column < count; ++column) {
    if (pos >= bytes.size()) {
      return row_codec::malformed("row decode: truncated kind");
    }
    cell.kind = static_cast<CellKind>(bytes[pos++]);
    size_t width = 0;
    switch (cell.kind) {
      case CellKind::kNull: break;
      case CellKind::kInt32: width = 4; break;
      case CellKind::kInt64:
      case CellKind::kDouble: width = 8; break;
      case CellKind::kString:
        if (bytes.size() - pos < 4) {
          return row_codec::malformed("row decode: truncated");
        }
        width = row_codec::load_be<4>(bytes.data() + pos);
        pos += 4;
        if (bytes.size() - pos < width) {
          return row_codec::malformed("row decode: truncated string");
        }
        break;
      default:
        return row_codec::malformed("row decode: bad kind byte");
    }
    if (bytes.size() - pos < width) {
      return row_codec::malformed("row decode: truncated");
    }
    cell.payload = bytes.substr(pos, width);
    pos += width;
    on_cell(column, cell);
  }
  if (pos != bytes.size()) {
    return row_codec::malformed("row decode: trailing bytes");
  }
  return Status::ok();
}

}  // namespace sky::db
