// Property test: randomly generated expression trees and queries render to
// CQL text (Expr::ToString) that re-parses to an identical rendering — the
// grammar and printer agree on precedence, quoting, and keyword placement
// across a much larger space than the hand-written parser tests.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "cql/parser.h"
#include "expr_generator.h"

namespace esp::cql {
namespace {

class ParserPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserPropertyTest, RandomExpressionsRoundTrip) {
  ExprGenerator generator(GetParam());
  for (int i = 0; i < 50; ++i) {
    ExprPtr expr = generator.Generate(4);
    const std::string rendered = expr->ToString();
    auto reparsed = ParseExpression(rendered);
    ASSERT_TRUE(reparsed.ok())
        << "failed to reparse: " << rendered << "\n"
        << reparsed.status();
    EXPECT_EQ((*reparsed)->ToString(), rendered)
        << "round-trip changed rendering";
  }
}

TEST_P(ParserPropertyTest, RandomQueriesRoundTrip) {
  ExprGenerator generator(GetParam() * 31 + 7);
  Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    auto query = std::make_unique<SelectQuery>();
    query->distinct = rng.Bernoulli(0.3);
    const int items = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int k = 0; k < items; ++k) {
      SelectItem item;
      item.expr = generator.Generate(3);
      if (rng.Bernoulli(0.5)) item.alias = "col" + std::to_string(k);
      query->items.push_back(std::move(item));
    }
    TableRef ref;
    ref.kind = TableRef::Kind::kStream;
    ref.stream_name = "t";
    ref.alias = "t";
    if (rng.Bernoulli(0.5)) {
      ref.window = stream::WindowSpec::Range(
          Duration::Seconds(static_cast<double>(rng.UniformInt(1, 30))));
    }
    query->from.push_back(std::move(ref));
    if (rng.Bernoulli(0.6)) query->where = generator.Generate(3);
    if (rng.Bernoulli(0.3)) {
      query->group_by.push_back(
          std::make_unique<ColumnRefExpr>("", "tag_id"));
      if (rng.Bernoulli(0.5)) query->having = generator.Generate(2);
    }
    if (rng.Bernoulli(0.3)) query->limit = rng.UniformInt(0, 100);

    const std::string rendered = query->ToString();
    auto reparsed = ParseQuery(rendered);
    ASSERT_TRUE(reparsed.ok())
        << "failed to reparse: " << rendered << "\n" << reparsed.status();
    EXPECT_EQ((*reparsed)->ToString(), rendered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace esp::cql
