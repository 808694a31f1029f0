// Property test: the compiled expression path (CompileExpr + EvalBound) and
// the interpretive walk (EvalExpr), which stays as the per-expression
// fallback, agree on random expression trees over random rows with NULLs,
// zero divisors and int64/double edge values: the same type and value
// (NaN matching NaN, doubles otherwise bit for bit) or the same error code.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cql/expr_eval.h"
#include "expr_generator.h"

namespace esp::cql {
namespace {

using stream::DataType;
using stream::Value;

constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A random cell from `pool`; the pools favour NULL, zero and edge values.
template <size_t N>
Value Pick(Rng& rng, const Value (&pool)[N]) {
  return pool[rng.UniformInt(0, static_cast<int64_t>(N) - 1)];
}

/// An evaluation outcome as text that two agreeing paths render alike: the
/// error code, or the type and value (doubles by bit pattern, every NaN
/// alike).
std::string Outcome(const StatusOr<Value>& result) {
  if (!result.ok()) {
    return std::string("error ") + StatusCodeToString(result.status().code());
  }
  const std::string type = stream::DataTypeToString(result->type());
  if (result->type() != DataType::kDouble) {
    return type + " " + result->ToString();
  }
  const double d = result->double_value();
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(d));
  return type + " " + (std::isnan(d) ? "NaN" : std::to_string(bits));
}

class CompiledExprPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledExprPropertyTest, CompiledMatchesInterpretive) {
  ExprGenerator generator(GetParam());
  Rng rng(GetParam() * 131 + 5);

  internal::FromContext from;
  from.frames.push_back({"t",
                         stream::MakeSchema({{"a", DataType::kInt64},
                                             {"b", DataType::kDouble},
                                             {"temp", DataType::kDouble},
                                             {"tag_id", DataType::kString}}),
                         0});
  from.total_columns = 4;
  const Catalog catalog;
  const Value ints[] = {Value::Null(),    Value::Int64(0), Value::Int64(0),
                        Value::Int64(-3), Value::Int64(-1), Value::Int64(1),
                        Value::Int64(3),  Value::Int64(kMaxInt),
                        Value::Int64(-kMaxInt - 1)};
  const Value doubles[] = {Value::Null(),       Value::Double(0.0),
                           Value::Double(-0.0), Value::Double(kNaN),
                           Value::Double(kInf), Value::Double(-2.5),
                           Value::Double(0.25), Value::Double(3.0)};
  const Value strings[] = {Value::Null(), Value::String("plain"),
                           Value::String("it's"), Value::String("")};

  for (int i = 0; i < 200; ++i) {
    const ExprPtr expr = generator.Generate(1 + i % 4);
    const internal::BoundExpr bound = internal::CompileExpr(*expr, from);
    for (int r = 0; r < 8; ++r) {
      const internal::Row row = {Pick(rng, ints), Pick(rng, doubles),
                                 Pick(rng, doubles), Pick(rng, strings)};
      internal::EvalContext ec;
      ec.catalog = &catalog;
      ec.from = &from;
      ec.row = &row;
      EXPECT_EQ(Outcome(internal::EvalBound(bound, ec)),
                Outcome(internal::EvalExpr(*expr, ec)))
          << expr->ToString() << " over (" << row[0].ToString() << ", "
          << row[1].ToString() << ", " << row[2].ToString() << ", "
          << row[3].ToString() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledExprPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace esp::cql
