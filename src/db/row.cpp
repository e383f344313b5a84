#include "db/row.h"

#include <algorithm>
#include <cstring>

namespace sky::db {

namespace {

void put_u32(std::string& out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

}  // namespace

Status row_codec::malformed(const char* what) {
  return Status(ErrorCode::kParseError, what);
}

std::string encode_row(const Row& row) {
  std::string out;
  out.reserve(row.size() * 9 + 4);
  put_u32(out, static_cast<uint32_t>(row.size()));
  for (const Value& value : row) {
    if (value.is_null()) {
      out.push_back(static_cast<char>(CellKind::kNull));
    } else if (value.is_i32()) {
      out.push_back(static_cast<char>(CellKind::kInt32));
      put_u32(out, static_cast<uint32_t>(value.as_i32()));
    } else if (value.is_i64()) {
      out.push_back(static_cast<char>(CellKind::kInt64));
      put_u64(out, static_cast<uint64_t>(value.as_i64()));
    } else if (value.is_f64()) {
      out.push_back(static_cast<char>(CellKind::kDouble));
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      const double d = value.as_f64();
      std::memcpy(&bits, &d, sizeof(bits));
      put_u64(out, bits);
    } else {
      const std::string& s = value.as_str();
      out.push_back(static_cast<char>(CellKind::kString));
      put_u32(out, static_cast<uint32_t>(s.size()));
      out.append(s);
    }
  }
  return out;
}

Result<Row> decode_row(std::string_view bytes) {
  Row row;
  SKY_RETURN_IF_ERROR(walk_row(
      bytes,
      [&](uint32_t count) {
        // Every cell takes at least its kind byte, so a corrupt count
        // cannot make this reserve more than the input could hold.
        row.reserve(std::min<size_t>(count, bytes.size()));
      },
      [&](uint32_t, const CellView& cell) {
        switch (cell.kind) {
          case CellKind::kNull: row.push_back(Value::null()); break;
          case CellKind::kInt32: row.push_back(Value::i32(cell.i32())); break;
          case CellKind::kInt64: row.push_back(Value::i64(cell.i64())); break;
          case CellKind::kDouble: row.push_back(Value::f64(cell.f64())); break;
          case CellKind::kString:
            row.push_back(Value::str(std::string(cell.payload)));
            break;
        }
      }));
  return row;
}

Status decode_doubles(std::string_view bytes, std::span<const int> columns,
                      double* out) {
  size_t found = 0;
  bool all_doubles = true;
  SKY_RETURN_IF_ERROR(walk_row(
      bytes, [](uint32_t) {},
      [&](uint32_t column, const CellView& cell) {
        for (size_t i = 0; i < columns.size(); ++i) {
          if (columns[i] != static_cast<int>(column)) continue;
          ++found;
          if (cell.kind == CellKind::kDouble) {
            out[i] = cell.f64();
          } else {
            all_doubles = false;
          }
        }
      }));
  if (found != columns.size() || !all_doubles) {
    return Status(ErrorCode::kInvalidArgument,
                  "row decode: projected column is missing or not a double");
  }
  return Status::ok();
}

size_t row_memory_bytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& value : row) {
    if (value.is_str()) bytes += value.as_str().capacity();
  }
  return bytes;
}

std::string row_to_display(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].to_display();
  }
  out += ")";
  return out;
}

}  // namespace sky::db
