// Tests for typed values, the row codec (decode_row, the decode_doubles
// projection, ColumnBatch::push_encoded_row), and schema validation.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "common/rng.h"
#include "db/column_batch.h"
#include "db/row.h"
#include "db/schema.h"
#include "db/value.h"

namespace sky::db {
namespace {

// ----------------------------------------------------------------- Value ---

TEST(ValueTest, NullBasics) {
  const Value v = Value::null();
  EXPECT_TRUE(v.is_null());
  EXPECT_TRUE(v.matches(ColumnType::kInt64));
  EXPECT_TRUE(v.matches(ColumnType::kString));
  EXPECT_EQ(v.to_display(), "NULL");
  EXPECT_FALSE(v.numeric().is_ok());
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::i32(-5).as_i32(), -5);
  EXPECT_EQ(Value::i64(1LL << 40).as_i64(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::f64(2.5).as_f64(), 2.5);
  EXPECT_EQ(Value::str("abc").as_str(), "abc");
  EXPECT_EQ(Value::timestamp(123456).as_i64(), 123456);
}

TEST(ValueTest, TypeMatching) {
  EXPECT_TRUE(Value::i32(1).matches(ColumnType::kInt32));
  EXPECT_FALSE(Value::i32(1).matches(ColumnType::kInt64));
  EXPECT_TRUE(Value::i64(1).matches(ColumnType::kInt64));
  EXPECT_TRUE(Value::i64(1).matches(ColumnType::kTimestamp));
  EXPECT_FALSE(Value::f64(1).matches(ColumnType::kInt64));
  EXPECT_TRUE(Value::str("x").matches(ColumnType::kString));
  EXPECT_FALSE(Value::str("x").matches(ColumnType::kDouble));
}

TEST(ValueTest, NumericView) {
  EXPECT_DOUBLE_EQ(Value::i32(-4).numeric().value(), -4.0);
  EXPECT_DOUBLE_EQ(Value::i64(10).numeric().value(), 10.0);
  EXPECT_DOUBLE_EQ(Value::f64(0.5).numeric().value(), 0.5);
  EXPECT_FALSE(Value::str("no").numeric().is_ok());
}

TEST(ValueTest, CompareOrdering) {
  EXPECT_LT(Value::null().compare(Value::i64(0)), 0);
  EXPECT_EQ(Value::null().compare(Value::null()), 0);
  EXPECT_LT(Value::i64(1).compare(Value::i64(2)), 0);
  EXPECT_GT(Value::i64(2).compare(Value::i64(1)), 0);
  EXPECT_EQ(Value::f64(1.5).compare(Value::f64(1.5)), 0);
  EXPECT_LT(Value::str("a").compare(Value::str("b")), 0);
  // Cross numeric kinds compare by value.
  EXPECT_EQ(Value::i32(3).compare(Value::f64(3.0)), 0);
  EXPECT_LT(Value::i64(2).compare(Value::f64(2.5)), 0);
}

TEST(ValueTest, ParseAs) {
  EXPECT_EQ(Value::parse_as(ColumnType::kInt32, "42")->as_i32(), 42);
  EXPECT_EQ(Value::parse_as(ColumnType::kInt64, "-9")->as_i64(), -9);
  EXPECT_DOUBLE_EQ(Value::parse_as(ColumnType::kDouble, "1.25")->as_f64(),
                   1.25);
  EXPECT_EQ(Value::parse_as(ColumnType::kString, " padded ")->as_str(),
            "padded");
  EXPECT_EQ(Value::parse_as(ColumnType::kTimestamp, "1000")->as_i64(), 1000);
}

TEST(ValueTest, ParseNullMarkers) {
  EXPECT_TRUE(Value::parse_as(ColumnType::kInt64, "")->is_null());
  EXPECT_TRUE(Value::parse_as(ColumnType::kDouble, "NULL")->is_null());
  EXPECT_TRUE(Value::parse_as(ColumnType::kString, "\\N")->is_null());
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::parse_as(ColumnType::kInt32, "abc").is_ok());
  EXPECT_FALSE(Value::parse_as(ColumnType::kInt32, "99999999999").is_ok());
  EXPECT_FALSE(Value::parse_as(ColumnType::kDouble, "1.2.3").is_ok());
  EXPECT_FALSE(Value::parse_as(ColumnType::kDouble, "nan").is_ok());
}

// ------------------------------------------------------------- row codec ---

TEST(RowCodecTest, RoundTripAllKinds) {
  const Row row = {Value::null(), Value::i32(-7), Value::i64(1LL << 50),
                   Value::f64(-0.125), Value::str("palomar"),
                   Value::str(std::string("\0\x01", 2))};
  const auto decoded = decode_row(encode_row(row));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*decoded)[i].compare(row[i]), 0) << i;
  }
}

TEST(RowCodecTest, EmptyRow) {
  const auto decoded = decode_row(encode_row({}));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(RowCodecTest, RejectsCorruption) {
  const Row row = {Value::i64(5), Value::str("x")};
  std::string bytes = encode_row(row);
  EXPECT_FALSE(decode_row(bytes.substr(0, bytes.size() - 1)).is_ok());
  EXPECT_FALSE(decode_row(bytes + "junk").is_ok());
  std::string bad_kind = bytes;
  bad_kind[4] = '\x7F';
  EXPECT_FALSE(decode_row(bad_kind).is_ok());
  EXPECT_FALSE(decode_row("").is_ok());
}

TEST(RowCodecTest, PreservesDoubleBits) {
  const Row row = {Value::f64(std::numeric_limits<double>::denorm_min()),
                   Value::f64(-0.0),
                   Value::f64(std::numeric_limits<double>::infinity())};
  const auto decoded = decode_row(encode_row(row));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(std::signbit((*decoded)[1].as_f64()), true);
  EXPECT_TRUE(std::isinf((*decoded)[2].as_f64()));
}

class RowCodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowCodecFuzz, RandomRowsRoundTrip) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    Row row;
    const int64_t columns = rng.uniform_int(0, 12);
    for (int64_t c = 0; c < columns; ++c) {
      switch (rng.uniform_int(0, 4)) {
        case 0: row.push_back(Value::null()); break;
        case 1:
          row.push_back(Value::i32(static_cast<int32_t>(
              rng.uniform_int(INT32_MIN, INT32_MAX))));
          break;
        case 2:
          row.push_back(Value::i64(static_cast<int64_t>(rng.next_u64())));
          break;
        case 3: row.push_back(Value::f64(rng.normal(0, 1e9))); break;
        default:
          row.push_back(Value::str(rng.ident(
              static_cast<size_t>(rng.uniform_int(0, 30)))));
      }
    }
    const auto decoded = decode_row(encode_row(row));
    ASSERT_TRUE(decoded.is_ok());
    ASSERT_EQ(decoded->size(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ((*decoded)[i].compare(row[i]), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowCodecFuzz, ::testing::Values(7, 8, 9));

// ------------------------------------------- projection and replay push ---

// A random value of the given column type, NULL one time in four when the
// column allows it.
Value random_cell(Rng& rng, ColumnType type) {
  if (rng.uniform_int(0, 3) == 0) return Value::null();
  switch (type) {
    case ColumnType::kInt32:
      return Value::i32(
          static_cast<int32_t>(rng.uniform_int(INT32_MIN, INT32_MAX)));
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      return Value::i64(static_cast<int64_t>(rng.next_u64()));
    case ColumnType::kDouble:
      return Value::f64(rng.normal(0, 1e6));
    case ColumnType::kString:
      return Value::str(
          rng.ident(static_cast<size_t>(rng.uniform_int(0, 40))));
  }
  return Value::null();
}

std::vector<ColumnType> random_types(Rng& rng, int64_t columns) {
  constexpr ColumnType kTypes[] = {ColumnType::kInt32, ColumnType::kInt64,
                                   ColumnType::kTimestamp,
                                   ColumnType::kDouble, ColumnType::kString};
  std::vector<ColumnType> types;
  for (int64_t c = 0; c < columns; ++c) {
    types.push_back(kTypes[rng.uniform_int(0, 4)]);
  }
  return types;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// decode_doubles returns exactly decode_row's doubles, from rows whose
// projected columns sit anywhere among NULLs, int32s, int64s, doubles and
// strings; a projected cell that is NULL or not a double is refused.
TEST_P(RowCodecFuzz, ProjectionReturnsDecodeRowDoubles) {
  Rng rng(GetParam() * 31 + 1);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const std::vector<ColumnType> types =
        random_types(rng, rng.uniform_int(2, 14));
    Row row;
    for (const ColumnType type : types) row.push_back(random_cell(rng, type));
    // Two projected doubles at random positions (strings land before,
    // between and after them as the types fall).
    std::vector<int> columns = {
        static_cast<int>(rng.uniform_int(0, static_cast<int64_t>(row.size()) - 1)),
        static_cast<int>(rng.uniform_int(0, static_cast<int64_t>(row.size()) - 1))};
    const bool force_doubles = rng.uniform_int(0, 3) != 0;
    if (force_doubles) {
      for (const int c : columns) {
        row[static_cast<size_t>(c)] = Value::f64(rng.normal(0, 1e3));
      }
    }
    const std::string bytes = encode_row(row);
    const auto decoded = decode_row(bytes);
    ASSERT_TRUE(decoded.is_ok());
    double out[2] = {0, 0};
    const Status projected = decode_doubles(bytes, columns, out);
    const bool all_doubles = (*decoded)[static_cast<size_t>(columns[0])].is_f64() &&
                             (*decoded)[static_cast<size_t>(columns[1])].is_f64();
    if (force_doubles) {
      EXPECT_TRUE(all_doubles);
    }
    if (all_doubles) {
      ASSERT_TRUE(projected.is_ok()) << projected.to_string();
      for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(same_bits(
            out[i], (*decoded)[static_cast<size_t>(columns[i])].as_f64()));
      }
    } else {
      EXPECT_EQ(projected.code(), ErrorCode::kInvalidArgument);
    }
  }
  // A column past the end of the row is missing, not out of bounds.
  const std::string bytes = encode_row({Value::f64(1.0)});
  const int past_end[] = {0, 1};
  double out[2];
  EXPECT_EQ(decode_doubles(bytes, past_end, out).code(),
            ErrorCode::kInvalidArgument);
}

// The projection and decode_row accept and reject the same bytes: every
// truncation, a bad kind byte at every cell, trailing bytes, and random
// byte corruptions.
TEST_P(RowCodecFuzz, ProjectionRejectsExactlyWhatDecodeRowRejects) {
  Rng rng(GetParam() * 17 + 5);
  const auto agree = [](const std::string& bytes, const int* columns) {
    const auto decoded = decode_row(bytes);
    double out[2];
    const Status projected =
        decode_doubles(bytes, std::span<const int>(columns, 2), out);
    const bool projection_parsed = projected.code() != ErrorCode::kParseError;
    EXPECT_EQ(decoded.is_ok(), projection_parsed);
    if (!decoded.is_ok()) {
      EXPECT_EQ(decoded.status(), projected);  // same code, same text
    }
  };
  for (int iteration = 0; iteration < 40; ++iteration) {
    Row row = {Value::str(rng.ident(5)), Value::f64(1.5), Value::null(),
               Value::i32(-3), Value::f64(-2.5),
               Value::str(rng.ident(static_cast<size_t>(rng.uniform_int(0, 9)))),
               Value::i64(7)};
    const int columns[2] = {1, 4};
    const std::string bytes = encode_row(row);
    agree(bytes, columns);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      agree(bytes.substr(0, cut), columns);
      EXPECT_FALSE(decode_row(bytes.substr(0, cut)).is_ok()) << cut;
    }
    agree(bytes + "x", columns);
    EXPECT_FALSE(decode_row(bytes + "x").is_ok());
    // Kind bytes sit at 4, then after each cell's payload.
    size_t pos = 4;
    for (const Value& value : row) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(5 + rng.uniform_int(0, 200));
      agree(bad, columns);
      EXPECT_FALSE(decode_row(bad).is_ok());
      pos += 1 + (value.is_null()  ? 0
                  : value.is_i32() ? 4
                  : value.is_str() ? 4 + value.as_str().size()
                                   : 8);
    }
    for (int flip = 0; flip < 20; ++flip) {
      std::string mutated = bytes;
      mutated[static_cast<size_t>(rng.uniform_int(
          0, static_cast<int64_t>(mutated.size()) - 1))] =
          static_cast<char>(rng.uniform_int(0, 255));
      agree(mutated, columns);
    }
  }
  // A header claiming billions of cells is rejected, not reserved.
  agree(std::string("\xFF\xFF\xFF\xFF\x03", 5), std::array<int, 2>{0, 1}.data());
}

// push_encoded_row appends the cells decode_row + push_row would, and
// refuses (appending nothing) exactly the rows push_row refuses.
TEST_P(RowCodecFuzz, PushEncodedRowMatchesDecodeAndPushRow) {
  Rng rng(GetParam() * 7 + 3);
  for (int iteration = 0; iteration < 40; ++iteration) {
    const std::vector<ColumnType> types =
        random_types(rng, rng.uniform_int(1, 10));
    ColumnBatch by_row(types);
    ColumnBatch by_bytes(types);
    for (int r = 0; r < 30; ++r) {
      Row row;
      for (const ColumnType type : types) {
        row.push_back(random_cell(rng, type));
      }
      // One row in three is a misfit: wrong arity or a wrong-kind cell.
      switch (rng.uniform_int(0, 5)) {
        case 0: row.push_back(Value::i64(1)); break;
        case 1: row.pop_back(); break;
        case 2: {
          const size_t c = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int64_t>(row.size()) - 1));
          row[c] = types[c] == ColumnType::kString ? Value::f64(1.0)
                   : types[c] == ColumnType::kInt32 ? Value::i64(1)
                                                    : Value::i32(1);
          break;
        }
        default: break;
      }
      const std::string bytes = encode_row(row);
      const auto decoded = decode_row(bytes);
      ASSERT_TRUE(decoded.is_ok());
      const bool pushed = by_row.push_row(*decoded);
      const auto pushed_bytes = by_bytes.push_encoded_row(bytes);
      ASSERT_TRUE(pushed_bytes.is_ok());
      EXPECT_EQ(*pushed_bytes, pushed);
      ASSERT_EQ(by_bytes.size(), by_row.size());
      ASSERT_TRUE(by_bytes.aligned());
    }
    for (size_t r = 0; r < by_row.size(); ++r) {
      std::string want;
      std::string got;
      by_row.encode_row_to(r, want);
      by_bytes.encode_row_to(r, got);
      EXPECT_EQ(got, want) << r;
    }
    // Malformed bytes are decode_row's error, and append nothing.
    const size_t before = by_bytes.size();
    const std::string bytes = encode_row(by_row.empty() ? Row{} : by_row.row(0));
    for (const std::string& bad : {bytes.substr(0, bytes.size() - 1),
                                   bytes + "z", std::string("\0\0", 2)}) {
      const auto result = by_bytes.push_encoded_row(bad);
      ASSERT_FALSE(result.is_ok());
      EXPECT_EQ(result.status(), decode_row(bad).status());
    }
    EXPECT_EQ(by_bytes.size(), before);
  }
}

TEST(RowMemoryTest, GrowsWithStringContent) {
  const Row small = {Value::i64(1)};
  const Row big = {Value::i64(1), Value::str(std::string(1000, 'x'))};
  EXPECT_GT(row_memory_bytes(big), row_memory_bytes(small) + 900);
}

// ---------------------------------------------------------------- Schema ---

TableDef simple_table(std::string name) {
  TableDef def;
  def.name = std::move(name);
  def.col("id", ColumnType::kInt64, false);
  def.col("payload", ColumnType::kString);
  def.primary_key = {"id"};
  return def;
}

TEST(SchemaTest, AddAndLookup) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("alpha")).is_ok());
  ASSERT_TRUE(schema.add_table(simple_table("beta")).is_ok());
  EXPECT_EQ(schema.table_count(), 2);
  EXPECT_TRUE(schema.has_table("alpha"));
  EXPECT_FALSE(schema.has_table("gamma"));
  EXPECT_EQ(schema.table_id("beta").value(), 1u);
  EXPECT_EQ(schema.table(0).name, "alpha");
  EXPECT_FALSE(schema.table_id("gamma").is_ok());
}

TEST(SchemaTest, RejectsDuplicatesAndEmpties) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("t")).is_ok());
  EXPECT_EQ(schema.add_table(simple_table("t")).code(),
            ErrorCode::kAlreadyExists);
  TableDef empty;
  empty.name = "empty";
  EXPECT_FALSE(schema.add_table(empty).is_ok());
  TableDef unnamed = simple_table("");
  EXPECT_FALSE(schema.add_table(unnamed).is_ok());
}

TEST(SchemaTest, RejectsMissingOrDuplicateColumns) {
  Schema schema;
  TableDef def = simple_table("t");
  def.col("payload", ColumnType::kInt32);  // duplicate name
  EXPECT_FALSE(schema.add_table(def).is_ok());

  TableDef no_pk_col = simple_table("u");
  no_pk_col.primary_key = {"ghost"};
  EXPECT_FALSE(schema.add_table(no_pk_col).is_ok());

  TableDef no_pk = simple_table("v");
  no_pk.primary_key.clear();
  EXPECT_FALSE(schema.add_table(no_pk).is_ok());
}

TEST(SchemaTest, PkColumnsBecomeNotNull) {
  Schema schema;
  TableDef def = simple_table("t");  // declares id nullable=false already
  def.columns[0].nullable = true;    // sneaky: PK column marked nullable
  ASSERT_TRUE(schema.add_table(def).is_ok());
  EXPECT_FALSE(schema.table(0).columns[0].nullable);
}

TEST(SchemaTest, FkValidation) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("parent")).is_ok());

  TableDef child = simple_table("child");
  child.col("parent_id", ColumnType::kInt64);
  child.foreign_keys.push_back(ForeignKey{{"parent_id"}, "parent"});
  ASSERT_TRUE(schema.add_table(child).is_ok());

  // FK to an undeclared table fails (declaration order is the topo order).
  TableDef orphan = simple_table("orphan");
  orphan.col("missing_id", ColumnType::kInt64);
  orphan.foreign_keys.push_back(ForeignKey{{"missing_id"}, "nonexistent"});
  EXPECT_FALSE(schema.add_table(orphan).is_ok());

  // FK type mismatch fails.
  TableDef mismatched = simple_table("mismatched");
  mismatched.col("parent_id", ColumnType::kInt32);
  mismatched.foreign_keys.push_back(ForeignKey{{"parent_id"}, "parent"});
  EXPECT_FALSE(schema.add_table(mismatched).is_ok());

  // FK arity mismatch fails.
  TableDef wide = simple_table("wide");
  wide.col("a", ColumnType::kInt64);
  wide.col("b", ColumnType::kInt64);
  wide.foreign_keys.push_back(ForeignKey{{"a", "b"}, "parent"});
  EXPECT_FALSE(schema.add_table(wide).is_ok());

  // FK to the table being declared fails: it is not declared yet. The
  // engine relies on this (no table is its own FK parent).
  TableDef nodes = simple_table("nodes");
  nodes.col("parent_id", ColumnType::kInt64);
  nodes.foreign_keys.push_back(ForeignKey{{"parent_id"}, "nodes"});
  EXPECT_FALSE(schema.add_table(nodes).is_ok());
}

TEST(SchemaTest, IndexAndCheckValidation) {
  Schema schema;
  TableDef def = simple_table("t");
  def.col("mag", ColumnType::kDouble);
  def.indexes.push_back(IndexDef{"idx_mag", {"mag"}, false, std::nullopt});
  def.checks.push_back(CheckConstraint{"mag", -5.0, 40.0});
  ASSERT_TRUE(schema.add_table(def).is_ok());

  TableDef bad_index = simple_table("u");
  bad_index.indexes.push_back(IndexDef{"idx", {"ghost"}, false, std::nullopt});
  EXPECT_FALSE(schema.add_table(bad_index).is_ok());

  TableDef dup_index = simple_table("v");
  dup_index.col("m", ColumnType::kDouble);
  dup_index.indexes.push_back(IndexDef{"i", {"m"}, false, std::nullopt});
  dup_index.indexes.push_back(IndexDef{"i", {"m"}, false, std::nullopt});
  EXPECT_FALSE(schema.add_table(dup_index).is_ok());

  TableDef string_check = simple_table("w");
  string_check.checks.push_back(CheckConstraint{"payload", 0.0, 1.0});
  EXPECT_FALSE(schema.add_table(string_check).is_ok());

  TableDef ghost_check = simple_table("x");
  ghost_check.checks.push_back(CheckConstraint{"ghost", 0.0, 1.0});
  EXPECT_FALSE(schema.add_table(ghost_check).is_ok());
}

TEST(SchemaTest, TopologicalOrderAndEdges) {
  Schema schema;
  ASSERT_TRUE(schema.add_table(simple_table("a")).is_ok());
  TableDef b = simple_table("b");
  b.col("a_id", ColumnType::kInt64);
  b.foreign_keys.push_back(ForeignKey{{"a_id"}, "a"});
  ASSERT_TRUE(schema.add_table(b).is_ok());
  TableDef c = simple_table("c");
  c.col("b_id", ColumnType::kInt64);
  c.col("a_id", ColumnType::kInt64);
  c.foreign_keys.push_back(ForeignKey{{"b_id"}, "b"});
  c.foreign_keys.push_back(ForeignKey{{"a_id"}, "a"});
  ASSERT_TRUE(schema.add_table(c).is_ok());

  const auto order = schema.topological_order();
  ASSERT_EQ(order.size(), 3u);
  // Parents appear before children.
  EXPECT_LT(order[0], order[1]);
  EXPECT_LT(order[1], order[2]);

  const auto edges = schema.fk_edges();
  EXPECT_EQ(edges.size(), 3u);
  for (const auto& [child, parent] : edges) EXPECT_GT(child, parent);
}

}  // namespace
}  // namespace sky::db
