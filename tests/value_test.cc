#include "stream/value.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "stream/serialize.h"

namespace esp::stream {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), DataType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(42).int64_value(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).double_value(), 3.5);
  EXPECT_EQ(Value::String("tag_7").string_value(), "tag_7");
  EXPECT_EQ(Value::Time(Timestamp::Seconds(2)).time_value(),
            Timestamp::Seconds(2));
}

TEST(ValueTest, AsDouble) {
  EXPECT_DOUBLE_EQ(Value::Int64(4).AsDouble().value(), 4.0);
  EXPECT_DOUBLE_EQ(Value::Double(4.5).AsDouble().value(), 4.5);
  EXPECT_FALSE(Value::String("x").AsDouble().ok());
  EXPECT_FALSE(Value::Null().AsDouble().ok());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(Value::Int64(1).Equals(Value::Double(1.0)));
  EXPECT_TRUE(Value::Double(2.0).Equals(Value::Int64(2)));
  EXPECT_FALSE(Value::Int64(1).Equals(Value::Double(1.5)));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int64(0)));
  EXPECT_FALSE(Value::Bool(false).Equals(Value::Int64(0)));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
}

TEST(ValueTest, Compare) {
  EXPECT_EQ(Value::Int64(1).Compare(Value::Int64(2)).value(), -1);
  EXPECT_EQ(Value::Int64(2).Compare(Value::Int64(2)).value(), 0);
  EXPECT_EQ(Value::Double(2.5).Compare(Value::Int64(2)).value(), 1);
  EXPECT_EQ(Value::String("a").Compare(Value::String("b")).value(), -1);
  EXPECT_EQ(Value::Bool(false).Compare(Value::Bool(true)).value(), -1);
  EXPECT_EQ(Value::Time(Timestamp::Seconds(1))
                .Compare(Value::Time(Timestamp::Seconds(2)))
                .value(),
            -1);
  EXPECT_FALSE(Value::Null().Compare(Value::Int64(1)).ok());
  EXPECT_FALSE(Value::String("a").Compare(Value::Int64(1)).ok());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int64(7).ToString(), "7");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Double(2.25).ToString(), "2.25");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(ValueArithmeticTest, AddSubtractMultiply) {
  EXPECT_EQ(Add(Value::Int64(2), Value::Int64(3))->int64_value(), 5);
  EXPECT_DOUBLE_EQ(Add(Value::Int64(2), Value::Double(0.5))->double_value(),
                   2.5);
  EXPECT_EQ(Subtract(Value::Int64(5), Value::Int64(3))->int64_value(), 2);
  EXPECT_EQ(Multiply(Value::Int64(4), Value::Int64(3))->int64_value(), 12);
}

TEST(ValueArithmeticTest, NullPropagates) {
  EXPECT_TRUE(Add(Value::Null(), Value::Int64(1))->is_null());
  EXPECT_TRUE(Multiply(Value::Int64(1), Value::Null())->is_null());
  EXPECT_TRUE(Negate(Value::Null())->is_null());
}

TEST(ValueArithmeticTest, TypeErrors) {
  EXPECT_FALSE(Add(Value::String("a"), Value::Int64(1)).ok());
  EXPECT_FALSE(Negate(Value::String("a")).ok());
  EXPECT_FALSE(Modulo(Value::Double(1.5), Value::Int64(2)).ok());
}

TEST(ValueArithmeticTest, Division) {
  EXPECT_EQ(Divide(Value::Int64(7), Value::Int64(2))->int64_value(), 3);
  EXPECT_DOUBLE_EQ(Divide(Value::Double(7), Value::Int64(2))->double_value(),
                   3.5);
  EXPECT_FALSE(Divide(Value::Int64(1), Value::Int64(0)).ok());
  EXPECT_FALSE(Divide(Value::Double(1), Value::Double(0)).ok());
  EXPECT_EQ(Modulo(Value::Int64(7), Value::Int64(3))->int64_value(), 1);
  EXPECT_FALSE(Modulo(Value::Int64(7), Value::Int64(0)).ok());
}

TEST(ValueArithmeticTest, Negate) {
  EXPECT_EQ(Negate(Value::Int64(5))->int64_value(), -5);
  EXPECT_DOUBLE_EQ(Negate(Value::Double(2.5))->double_value(), -2.5);
}

TEST(ValueArithmeticTest, Int64OverflowIsAnError) {
  const Value max = Value::Int64(std::numeric_limits<int64_t>::max());
  const Value min = Value::Int64(std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Add(max, Value::Int64(1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(Subtract(min, Value::Int64(1)).ok());
  EXPECT_FALSE(Multiply(max, Value::Int64(2)).ok());
  EXPECT_FALSE(Divide(min, Value::Int64(-1)).ok());
  EXPECT_FALSE(Negate(min).ok());
  EXPECT_EQ(Modulo(min, Value::Int64(-1))->int64_value(), 0);
  EXPECT_EQ(Add(max, Value::Int64(-1))->int64_value(), max.int64_value() - 1);
}

TEST(ValueInternedTest, BehavesLikePlainString) {
  const Value interned = Value::Interned("shelf_3");
  const Value plain = Value::String("shelf_3");
  ASSERT_TRUE(interned.is_interned());
  EXPECT_FALSE(plain.is_interned());
  // Type, content, equality, hash, and ordering are representation-blind.
  EXPECT_EQ(interned.type(), DataType::kString);
  EXPECT_EQ(interned.string_value(), "shelf_3");
  EXPECT_TRUE(interned.Equals(plain));
  EXPECT_TRUE(plain.Equals(interned));
  EXPECT_EQ(interned.Hash(), plain.Hash());
  EXPECT_EQ(interned.Compare(plain).value(), 0);
  EXPECT_EQ(interned.Compare(Value::String("shelf_4")).value(), -1);
  EXPECT_EQ(Value::String("shelf_2").Compare(interned).value(), -1);
  EXPECT_FALSE(interned.Equals(Value::String("shelf_4")));
}

TEST(ValueInternedTest, InternedPairsCompareById) {
  const Value a = Value::Interned("reader_0");
  const Value b = Value::Interned("reader_0");
  const Value c = Value::Interned("reader_1");
  ASSERT_TRUE(a.is_interned());
  EXPECT_EQ(a.symbol().id, b.symbol().id);
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.Compare(c).value(), -1);
}

TEST(ValueInternedTest, SerializesAsPlainString) {
  // Checkpoint/journal byte formats must not depend on the in-memory
  // representation: an interned value round-trips as a plain string.
  ByteWriter interned_bytes;
  WriteValue(interned_bytes, Value::Interned("tag_9"));
  ByteWriter plain_bytes;
  WriteValue(plain_bytes, Value::String("tag_9"));
  EXPECT_EQ(interned_bytes.data(), plain_bytes.data());

  ByteReader r(interned_bytes.data());
  StatusOr<Value> back = ReadValue(r);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->is_interned());
  EXPECT_EQ(back->string_value(), "tag_9");
  EXPECT_TRUE(back->Equals(Value::Interned("tag_9")));
}

}  // namespace
}  // namespace esp::stream
