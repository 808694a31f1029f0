#ifndef ESP_TESTS_EXPR_GENERATOR_H_
#define ESP_TESTS_EXPR_GENERATOR_H_

// Random CQL expression trees over the columns a, b, temp and tag_id
// (unqualified or qualified by "t"), shared by the parser round-trip and
// the compiled-versus-interpretive evaluator property tests.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cql/ast.h"

namespace esp::cql {

/// Random expression-tree generator with bounded depth.
class ExprGenerator {
 public:
  explicit ExprGenerator(uint64_t seed) : rng_(seed) {}

  ExprPtr Generate(int depth) {
    if (depth <= 0) return Leaf();
    switch (rng_.UniformInt(0, 9)) {
      case 0:
      case 1:
        return Leaf();
      case 2: {  // Arithmetic.
        const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSubtract,
                                BinaryOp::kMultiply, BinaryOp::kDivide,
                                BinaryOp::kModulo};
        return std::make_unique<BinaryExpr>(
            ops[rng_.UniformInt(0, 4)], Generate(depth - 1),
            Generate(depth - 1));
      }
      case 3: {  // Comparison.
        const BinaryOp ops[] = {BinaryOp::kEquals,      BinaryOp::kNotEquals,
                                BinaryOp::kLess,        BinaryOp::kLessEquals,
                                BinaryOp::kGreater,
                                BinaryOp::kGreaterEquals};
        return std::make_unique<BinaryExpr>(
            ops[rng_.UniformInt(0, 5)], Generate(depth - 1),
            Generate(depth - 1));
      }
      case 4: {  // Logical.
        return std::make_unique<BinaryExpr>(
            rng_.Bernoulli(0.5) ? BinaryOp::kAnd : BinaryOp::kOr,
            Generate(depth - 1), Generate(depth - 1));
      }
      case 5:
        return std::make_unique<UnaryExpr>(
            rng_.Bernoulli(0.5) ? UnaryOp::kNot : UnaryOp::kNegate,
            Generate(depth - 1));
      case 6: {  // Function call.
        std::vector<ExprPtr> args;
        args.push_back(Generate(depth - 1));
        if (rng_.Bernoulli(0.5)) args.push_back(Generate(depth - 1));
        return std::make_unique<FunctionCallExpr>(
            rng_.Bernoulli(0.5) ? "least" : "greatest", false,
            std::move(args));
      }
      case 7:
        return std::make_unique<IsNullExpr>(rng_.Bernoulli(0.5),
                                            Generate(depth - 1));
      case 8:
        return std::make_unique<BetweenExpr>(
            rng_.Bernoulli(0.5), Generate(depth - 1), Generate(depth - 1),
            Generate(depth - 1));
      default: {  // CASE.
        std::vector<CaseExpr::WhenClause> whens;
        CaseExpr::WhenClause when;
        when.condition = Generate(depth - 1);
        when.result = Generate(depth - 1);
        whens.push_back(std::move(when));
        ExprPtr else_result =
            rng_.Bernoulli(0.5) ? Generate(depth - 1) : nullptr;
        return std::make_unique<CaseExpr>(std::move(whens),
                                          std::move(else_result));
      }
    }
  }

 private:
  ExprPtr Leaf() {
    switch (rng_.UniformInt(0, 4)) {
      case 0:
        return std::make_unique<LiteralExpr>(
            stream::Value::Int64(rng_.UniformInt(0, 99)));
      case 1:
        return std::make_unique<LiteralExpr>(
            stream::Value::Double(rng_.UniformInt(0, 99) / 4.0));
      case 2: {
        // Include awkward characters the quoter must escape.
        const char* strings[] = {"plain", "it's", "a,b", "", "x '' y"};
        return std::make_unique<LiteralExpr>(
            stream::Value::String(strings[rng_.UniformInt(0, 4)]));
      }
      case 3:
        return std::make_unique<ColumnRefExpr>("", ColumnName());
      default:
        return std::make_unique<ColumnRefExpr>("t", ColumnName());
    }
  }

  std::string ColumnName() {
    const char* names[] = {"a", "b", "temp", "tag_id"};
    return names[rng_.UniformInt(0, 3)];
  }

  Rng rng_;
};

}  // namespace esp::cql

#endif  // ESP_TESTS_EXPR_GENERATOR_H_
