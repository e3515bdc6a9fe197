// Unit tests for src/tuple: Value semantics, Schema resolution, Tuple and
// GroupKey hashing/equality.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"
#include "tuple/value.h"

namespace streamop {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), FieldType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), FieldType::kBool);
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::UInt(7).uint_value(), 7u);
  EXPECT_EQ(Value::Int(-7).int_value(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_DOUBLE_EQ(Value::UInt(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Int(-3).AsDouble(), -3.0);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Value::Null().AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Value::String("9").AsDouble(), 0.0);
}

TEST(ValueTest, AsUIntClampsNegatives) {
  EXPECT_EQ(Value::Int(-5).AsUInt(), 0u);
  EXPECT_EQ(Value::Double(-0.5).AsUInt(), 0u);
  EXPECT_EQ(Value::Double(7.9).AsUInt(), 7u);
  EXPECT_EQ(Value::UInt(5).AsUInt(), 5u);
}

TEST(ValueTest, AsBoolTruthiness) {
  EXPECT_FALSE(Value::Null().AsBool());
  EXPECT_FALSE(Value::UInt(0).AsBool());
  EXPECT_TRUE(Value::UInt(1).AsBool());
  EXPECT_FALSE(Value::Double(0.0).AsBool());
  EXPECT_TRUE(Value::Double(0.1).AsBool());
  EXPECT_FALSE(Value::String("").AsBool());
  EXPECT_TRUE(Value::String("x").AsBool());
}

TEST(ValueTest, DoubleToIntegerClampsInsteadOfUB) {
  // Regression: UMAX(x, 1e154) once wrapped to 0 via an out-of-range cast.
  EXPECT_EQ(Value::Double(1e154).AsUInt(), UINT64_MAX);
  EXPECT_EQ(Value::Double(-1e154).AsUInt(), 0u);
  EXPECT_EQ(Value::Double(1e300).AsInt(), INT64_MAX);
  EXPECT_EQ(Value::Double(-1e300).AsInt(), INT64_MIN);
  double nan = std::nan("");
  EXPECT_EQ(Value::Double(nan).AsUInt(), 0u);
  EXPECT_EQ(Value::Double(nan).AsInt(), 0);
}

TEST(ValueTest, EqualityIsTypeStrict) {
  EXPECT_EQ(Value::UInt(1), Value::UInt(1));
  EXPECT_NE(Value::UInt(1), Value::Int(1));  // different types
  EXPECT_NE(Value::UInt(1), Value::UInt(2));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::String("a"), Value::String("a"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::UInt(42).Hash(), Value::UInt(42).Hash());
  EXPECT_NE(Value::UInt(42).Hash(), Value::Int(42).Hash());
  EXPECT_NE(Value::UInt(42).Hash(), Value::UInt(43).Hash());
  EXPECT_EQ(Value::String("k").Hash(), Value::String("k").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToString(), "FALSE");
  EXPECT_EQ(Value::UInt(12).ToString(), "12");
  EXPECT_EQ(Value::Int(-12).ToString(), "-12");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(ValueTest, FieldTypeNames) {
  EXPECT_STREQ(FieldTypeToString(FieldType::kUInt), "UINT");
  EXPECT_STREQ(FieldTypeToString(FieldType::kString), "STRING");
  EXPECT_TRUE(IsNumeric(FieldType::kDouble));
  EXPECT_FALSE(IsNumeric(FieldType::kString));
  EXPECT_FALSE(IsNumeric(FieldType::kBool));
}

// ---------- Value: out-of-line strings ----------
//
// A string Value owns a heap payload through its one 64-bit word, so every
// copy, move and assignment path below must hand that ownership over
// exactly once (the ASan and UBSan jobs run these).

TEST(ValueStringTest, EmptyStringIsStillAString) {
  EXPECT_EQ(Value::String("").type(), FieldType::kString);
  EXPECT_EQ(Value::String("").string_value(), "");
  EXPECT_EQ(Value::String("").ToString(), "");
}

TEST(ValueStringTest, CopyIsDeep) {
  const std::string long_text(100, 'x');
  Value a = Value::String(long_text);
  Value b(a);
  EXPECT_EQ(b.type(), FieldType::kString);
  EXPECT_EQ(b.string_value(), long_text);
  EXPECT_NE(&a.string_value(), &b.string_value());
  a = Value::UInt(1);  // the copy survives its source changing
  EXPECT_EQ(b.string_value(), long_text);
}

TEST(ValueStringTest, MovedFromStringStaysStringAndReadsEmpty) {
  Value a = Value::String("payload");
  Value b(std::move(a));
  EXPECT_EQ(b.string_value(), "payload");
  EXPECT_EQ(a.type(), FieldType::kString);
  EXPECT_EQ(a.string_value(), "");
  EXPECT_FALSE(a.AsBool());
  EXPECT_EQ(a, Value::String(""));
  EXPECT_EQ(a.Hash(), Value::String("").Hash());

  Value c;
  c = std::move(b);
  EXPECT_EQ(c.string_value(), "payload");
  EXPECT_EQ(b.type(), FieldType::kString);
  EXPECT_EQ(b.string_value(), "");

  Value copy_of_moved(a);  // copying a moved-from string is fine too
  EXPECT_EQ(copy_of_moved.type(), FieldType::kString);
  EXPECT_EQ(copy_of_moved.string_value(), "");
}

TEST(ValueStringTest, CopyAssignAcrossTypes) {
  Value s = Value::String("abc");
  Value n = Value::UInt(7);
  Value t = s;  // string <- string (copy construct)
  t = n;        // string -> numeric
  EXPECT_EQ(t, Value::UInt(7));
  t = s;  // numeric -> string
  EXPECT_EQ(t.string_value(), "abc");
  Value u = Value::String("a much longer string than abc, past SSO");
  u = s;  // string -> string reuses the destination's payload
  EXPECT_EQ(u.string_value(), "abc");
  Value moved_from = Value::String("gone");
  Value sink(std::move(moved_from));
  u = moved_from;  // a moved-from (empty) string source
  EXPECT_EQ(u.type(), FieldType::kString);
  EXPECT_EQ(u.string_value(), "");
  moved_from = s;  // and a moved-from destination
  EXPECT_EQ(moved_from.string_value(), "abc");
  EXPECT_EQ(s.string_value(), "abc");
}

TEST(ValueStringTest, MoveAssignAcrossTypes) {
  Value t = Value::String("first");
  t = Value::Double(1.5);  // string -> numeric frees the payload
  EXPECT_EQ(t, Value::Double(1.5));
  t = Value::String("second");  // numeric -> string
  EXPECT_EQ(t.string_value(), "second");
  t = Value::String("third");  // string -> string
  EXPECT_EQ(t.string_value(), "third");
  t = Value::Null();
  EXPECT_TRUE(t.is_null());
}

TEST(ValueStringTest, SelfAssignment) {
  Value s = Value::String("self");
  Value& alias = s;
  s = alias;
  EXPECT_EQ(s.string_value(), "self");
  s = std::move(alias);
  EXPECT_EQ(s.type(), FieldType::kString);
  EXPECT_EQ(s.string_value(), "self");
  Value n = Value::Int(-3);
  Value& nalias = n;
  n = nalias;
  n = std::move(nalias);
  EXPECT_EQ(n, Value::Int(-3));
}

TEST(ValueStringTest, HashAndEqualityFollowThePayload) {
  Value a = Value::String("10.0.0.1");
  Value b = Value::String(std::string("10.0.0.") + "1");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, Value::String("10.0.0.2"));
  EXPECT_NE(a.Hash(), Value::String("10.0.0.2").Hash());
  EXPECT_NE(Value::String(""), Value::Null());
  EXPECT_NE(Value::String("").Hash(), Value::Null().Hash());
}

TEST(ValueStringTest, SerializeRoundTripIncludingMovedFrom) {
  Value moved_from = Value::String("taken");
  Value taker(std::move(moved_from));
  const std::vector<Value> in = {
      Value::String("10.1.2.3"), Value::UInt(5),  Value::String(""),
      moved_from,                Value::Null(),   taker,
      Value::Double(-0.25),      Value::Bool(true)};
  ByteWriter w;
  for (const Value& v : in) v.SerializeTo(w);

  // The checkpoint encoding: tag byte 5, a u64 little-endian length, the
  // bytes. A moved-from string encodes exactly like "".
  ByteWriter ab_w;
  Value::String("ab").SerializeTo(ab_w);
  EXPECT_EQ(ab_w.data(), std::string("\x05\x02\0\0\0\0\0\0\0ab", 11));
  ByteWriter moved_w;
  moved_from.SerializeTo(moved_w);
  EXPECT_EQ(moved_w.data(), std::string("\x05\0\0\0\0\0\0\0\0", 9));

  ByteReader r(w.data());
  std::vector<Value> out;
  for (size_t i = 0; i < in.size(); ++i) out.push_back(Value::Deserialize(r));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, in);
  EXPECT_EQ(out[3].type(), FieldType::kString);
  EXPECT_EQ(out[3].string_value(), "");
  EXPECT_EQ(out[5].string_value(), "taken");
}

// ---------- Schema ----------

TEST(SchemaTest, FieldLookupCaseInsensitive) {
  SchemaPtr s = MakePacketSchema();
  EXPECT_EQ(s->FieldIndex("srcip"), 2);
  EXPECT_EQ(s->FieldIndex("SRCIP"), 2);
  EXPECT_EQ(s->FieldIndex("len"), 7);
  EXPECT_EQ(s->FieldIndex("nope"), -1);
}

TEST(SchemaTest, ResolveFieldErrors) {
  SchemaPtr s = MakePacketSchema();
  EXPECT_TRUE(s->ResolveField("destIP").ok());
  Result<int> r = s->ResolveField("bogus");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAnalysisError);
}

TEST(SchemaTest, PacketSchemaOrdering) {
  SchemaPtr s = MakePacketSchema();
  EXPECT_TRUE(s->HasOrderedField());
  auto ordered = s->OrderedFieldIndexes();
  // Only `time` is ordered; ts_ns has its timestamp-ness cast away (§6.1).
  ASSERT_EQ(ordered.size(), 1u);
  EXPECT_EQ(ordered[0], 0);
  EXPECT_EQ(s->field(1).ordering, Ordering::kNone);
}

TEST(SchemaTest, ToStringMentionsOrdering) {
  SchemaPtr s = MakePacketSchema();
  std::string str = s->ToString();
  EXPECT_NE(str.find("PKT("), std::string::npos);
  EXPECT_NE(str.find("time:UINT increasing"), std::string::npos);
}

TEST(SchemaTest, EmptySchema) {
  Schema s;
  EXPECT_EQ(s.num_fields(), 0u);
  EXPECT_FALSE(s.HasOrderedField());
  EXPECT_EQ(s.FieldIndex("x"), -1);
}

// ---------- Tuple / GroupKey ----------

TEST(TupleTest, BasicAccess) {
  Tuple t({Value::UInt(1), Value::String("a")});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].uint_value(), 1u);
  t.Append(Value::Double(3.5));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.ToString(), "(1, a, 3.5)");
}

TEST(TupleTest, Equality) {
  Tuple a({Value::UInt(1)});
  Tuple b({Value::UInt(1)});
  Tuple c({Value::UInt(2)});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(GroupKeyTest, HashAndEquality) {
  GroupKey a({Value::UInt(1), Value::UInt(2)});
  GroupKey b({Value::UInt(1), Value::UInt(2)});
  GroupKey c({Value::UInt(2), Value::UInt(1)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.Hash(), c.Hash());  // order matters
}

TEST(GroupKeyTest, EmptyKeyIsValid) {
  GroupKey empty1, empty2;
  EXPECT_EQ(empty1, empty2);
  EXPECT_EQ(empty1.Hash(), empty2.Hash());
}

TEST(GroupKeyTest, UsableInUnorderedMap) {
  std::unordered_map<GroupKey, int, GroupKeyHash> m;
  m[GroupKey({Value::UInt(1)})] = 10;
  m[GroupKey({Value::UInt(2)})] = 20;
  m[GroupKey({Value::UInt(1)})] = 11;  // overwrite
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m[GroupKey({Value::UInt(1)})], 11);
}

// AppendPackets(p, n) is n AppendPacket calls: the same lanes in every
// column, type column and selection slot, after rows already in the batch.
TEST(TupleBatchTest, AppendPacketsEqualsOneAppendPacketPerRecord) {
  std::vector<PacketRecord> packets(37);
  for (size_t i = 0; i < packets.size(); ++i) {
    PacketRecord& p = packets[i];
    p.ts_ns = 1'000'000'000ULL * (i + 3) + i;
    p.src_ip = 0x0a000000u + static_cast<uint32_t>(i);
    p.dst_ip = 0xc0a80000u + static_cast<uint32_t>(i * 7);
    p.src_port = static_cast<uint16_t>(1000 + i);
    p.dst_port = 80;
    p.proto = static_cast<uint8_t>(i % 2 == 0 ? 6 : 17);
    p.len = static_cast<uint16_t>(40 + i * 31);
  }
  TupleBatch one(8, 16);
  TupleBatch bulk(8, 16);
  one.AppendPacket(packets[0]);
  bulk.AppendPacket(packets[0]);
  one.set_selected(0, false);
  bulk.set_selected(0, false);
  for (size_t i = 1; i < packets.size(); ++i) one.AppendPacket(packets[i]);
  bulk.AppendPackets(packets.data() + 1, packets.size() - 1);

  ASSERT_EQ(bulk.num_rows(), one.num_rows());
  ASSERT_EQ(bulk.num_rows(), packets.size());
  for (size_t row = 0; row < one.num_rows(); ++row) {
    EXPECT_EQ(bulk.selected(row), one.selected(row)) << "row " << row;
    for (size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(bulk.raw_at(c, row), one.raw_at(c, row)) << row << "," << c;
      EXPECT_EQ(bulk.type_at(c, row), one.type_at(c, row)) << row << "," << c;
    }
  }
  EXPECT_EQ(bulk.num_selected(), packets.size() - 1);
  // And both are the row form of PacketToTuple.
  Tuple row;
  bulk.MaterializeRow(5, &row);
  EXPECT_EQ(row, PacketToTuple(packets[5]));
}

}  // namespace
}  // namespace streamop
