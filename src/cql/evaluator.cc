#include "cql/evaluator.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "cql/columnar_exec.h"
#include "cql/expr_eval.h"
#include "cql/scalar_function.h"
#include "stream/aggregate.h"
#include "stream/arena.h"
#include "stream/ops.h"

namespace esp::cql {

using stream::DataType;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;
using stream::WindowKind;
using stream::WindowSpec;

using internal::BoundExpr;
using internal::EvalContext;
using internal::FromContext;
using internal::Row;

void Catalog::AddStream(const std::string& name, Relation history) {
  for (Entry& entry : streams_) {
    if (esp::StrEqualsIgnoreCase(entry.name, name)) {
      entry.owned = std::move(history);
      entry.view = nullptr;
      return;
    }
  }
  Entry entry;
  entry.name = name;
  entry.owned = std::move(history);
  streams_.push_back(std::move(entry));
}

void Catalog::AddStreamView(const std::string& name,
                            const Relation* history) {
  AddStreamView(name, history, nullptr);
}

void Catalog::AddStreamView(const std::string& name, const Relation* history,
                            const stream::ColumnarWindow* columns) {
  for (Entry& entry : streams_) {
    if (esp::StrEqualsIgnoreCase(entry.name, name)) {
      entry.owned = Relation();
      entry.view = history;
      entry.columns = columns;
      return;
    }
  }
  Entry entry;
  entry.name = name;
  entry.view = history;
  entry.columns = columns;
  streams_.push_back(std::move(entry));
}

const stream::ColumnarWindow* Catalog::FindColumns(
    const std::string& name) const {
  for (const Entry& entry : streams_) {
    if (esp::StrEqualsIgnoreCase(entry.name, name)) return entry.columns;
  }
  return nullptr;
}

StatusOr<const Relation*> Catalog::Find(const std::string& name) const {
  for (const Entry& entry : streams_) {
    if (esp::StrEqualsIgnoreCase(entry.name, name)) return entry.get();
  }
  return Status::NotFound("unknown stream '" + name + "'");
}

SchemaCatalog Catalog::ToSchemaCatalog() const {
  SchemaCatalog catalog;
  for (const Entry& entry : streams_) {
    catalog.AddStream(entry.name, entry.get()->schema());
  }
  return catalog;
}

Relation ApplyWindow(const Relation& history, const WindowSpec& spec,
                     Timestamp now) {
  Relation result(history.schema());
  switch (spec.kind) {
    case WindowKind::kRange: {
      const Timestamp effective = spec.EffectiveTime(now);
      const Timestamp low = effective - spec.range;  // Exclusive.
      for (const Tuple& tuple : history.tuples()) {
        if (tuple.timestamp() > low && tuple.timestamp() <= effective) {
          result.Add(tuple);
        }
      }
      break;
    }
    case WindowKind::kNow:
      for (const Tuple& tuple : history.tuples()) {
        if (tuple.timestamp() == now) result.Add(tuple);
      }
      break;
    case WindowKind::kRows: {
      std::vector<const Tuple*> eligible;
      for (const Tuple& tuple : history.tuples()) {
        if (tuple.timestamp() <= now) eligible.push_back(&tuple);
      }
      const size_t n = static_cast<size_t>(spec.rows);
      const size_t start = eligible.size() > n ? eligible.size() - n : 0;
      for (size_t i = start; i < eligible.size(); ++i) {
        result.Add(*eligible[i]);
      }
      break;
    }
    case WindowKind::kUnbounded:
      for (const Tuple& tuple : history.tuples()) {
        if (tuple.timestamp() <= now) result.Add(tuple);
      }
      break;
  }
  return result;
}

namespace {

StatusOr<Relation> ExecuteInternal(const SelectQuery& query,
                                   const Catalog& catalog, Timestamp now,
                                   const EvalContext* outer,
                                   QueryExecCache* cache);

/// Cap on the persistent group-by index kept in a plan's scratch.
constexpr size_t kMaxPersistentGroups = 4096;

/// Resolves a column against the context chain, returning its value in the
/// current row. Mirrors analyzer resolution exactly.
StatusOr<Value> ResolveColumn(const ColumnRefExpr& ref, const EvalContext& ec) {
  for (const EvalContext* scope = &ec; scope != nullptr;
       scope = scope->outer) {
    if (scope->from == nullptr || scope->row == nullptr) continue;
    if (!ref.qualifier.empty()) {
      for (const FromContext::Frame& frame : scope->from->frames) {
        if (esp::StrEqualsIgnoreCase(frame.alias, ref.qualifier)) {
          auto index = frame.schema->IndexOf(ref.name);
          if (!index.has_value()) {
            return Status::NotFound("no column '" + ref.name + "' in '" +
                                    ref.qualifier + "'");
          }
          return (*scope->row)[frame.offset + *index];
        }
      }
      continue;  // Qualifier may name an outer frame.
    }
    const FromContext::Frame* found_frame = nullptr;
    size_t found_index = 0;
    for (const FromContext::Frame& frame : scope->from->frames) {
      auto index = frame.schema->IndexOf(ref.name);
      if (index.has_value()) {
        if (found_frame != nullptr) {
          return Status::InvalidArgument("ambiguous column '" + ref.name +
                                         "'");
        }
        found_frame = &frame;
        found_index = *index;
      }
    }
    if (found_frame != nullptr) {
      return (*scope->row)[found_frame->offset + found_index];
    }
  }
  return Status::NotFound("unknown column '" + ref.ToString() + "'");
}

/// Three-valued comparison: NULL operand -> NULL result.
StatusOr<Value> EvalComparison(BinaryOp op, const Value& lhs,
                               const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == BinaryOp::kEquals) return Value::Bool(lhs.Equals(rhs));
  if (op == BinaryOp::kNotEquals) return Value::Bool(!lhs.Equals(rhs));
  ESP_ASSIGN_OR_RETURN(const int cmp, lhs.Compare(rhs));
  switch (op) {
    case BinaryOp::kLess:
      return Value::Bool(cmp < 0);
    case BinaryOp::kLessEquals:
      return Value::Bool(cmp <= 0);
    case BinaryOp::kGreater:
      return Value::Bool(cmp > 0);
    case BinaryOp::kGreaterEquals:
      return Value::Bool(cmp >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

/// Three-valued AND/OR.
StatusOr<Value> EvalLogical(BinaryOp op, const Expr& lhs_expr,
                            const Expr& rhs_expr, const EvalContext& ec) {
  ESP_ASSIGN_OR_RETURN(const Value lhs, internal::EvalExpr(lhs_expr, ec));
  // Short-circuit where the result is already decided.
  if (!lhs.is_null() && lhs.type() == DataType::kBool) {
    if (op == BinaryOp::kAnd && !lhs.bool_value()) return Value::Bool(false);
    if (op == BinaryOp::kOr && lhs.bool_value()) return Value::Bool(true);
  } else if (!lhs.is_null()) {
    return Status::TypeError("AND/OR operand must be boolean");
  }
  ESP_ASSIGN_OR_RETURN(const Value rhs, internal::EvalExpr(rhs_expr, ec));
  if (!rhs.is_null() && rhs.type() != DataType::kBool) {
    return Status::TypeError("AND/OR operand must be boolean");
  }
  if (op == BinaryOp::kAnd) {
    if (!rhs.is_null() && !rhs.bool_value()) return Value::Bool(false);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Bool(true);
  }
  // OR.
  if (!rhs.is_null() && rhs.bool_value()) return Value::Bool(true);
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  return Value::Bool(false);
}

/// Hands out an aggregator for `call`: from the execution's reuse pool when
/// one is available (resettable aggregators are recycled across groups), a
/// fresh single-use instance otherwise. The pooled pointer stays valid for
/// the current group only.
StatusOr<stream::Aggregator*> AcquireAggregator(const FunctionCallExpr& call,
                                                const EvalContext& ec) {
  if (ec.agg_scratch == nullptr) {
    // No pool (should not happen in grouped evaluation, but stay safe):
    // fall back to a leak-free one-shot below via the pool-less branch.
    return Status::Internal("aggregator pool missing");
  }
  std::unique_ptr<stream::Aggregator>& slot = (*ec.agg_scratch)[&call];
  if (slot == nullptr || !slot->Reset()) {
    ESP_ASSIGN_OR_RETURN(
        slot, stream::AggregateRegistry::Global().Create(call.name,
                                                         call.distinct));
  }
  return slot.get();
}

/// Runs an aggregate call over the current group.
StatusOr<Value> EvalAggregate(const FunctionCallExpr& call,
                              const EvalContext& ec) {
  if (ec.group_rows == nullptr) {
    return Status::InvalidArgument("aggregate " + call.name +
                                   "() used outside grouped evaluation");
  }
  ESP_ASSIGN_OR_RETURN(stream::Aggregator* const aggregator,
                       AcquireAggregator(call, ec));
  const bool star = call.IsStarArg();
  if (!star && call.args.size() != 1) {
    return Status::InvalidArgument("aggregate " + call.name +
                                   "() takes exactly one argument");
  }
  for (const Row* row : *ec.group_rows) {
    Value input = Value::Int64(1);  // count(*) marker.
    if (!star) {
      EvalContext row_ec = ec;
      row_ec.row = row;
      row_ec.group_rows = nullptr;  // Argument is a per-row expression.
      ESP_ASSIGN_OR_RETURN(input, internal::EvalExpr(*call.args[0], row_ec));
    }
    ESP_RETURN_IF_ERROR(aggregator->Update(input));
  }
  return aggregator->Final();
}

/// Evaluates a subquery and returns the values of its single output column.
/// The returned vector's backing store comes from the thread's arena;
/// callers Release() it when done.
StatusOr<std::vector<Value>> EvalSubqueryColumn(const SelectQuery& subquery,
                                                const EvalContext& ec,
                                                const char* what) {
  ESP_ASSIGN_OR_RETURN(
      Relation result,
      ExecuteInternal(subquery, *ec.catalog, ec.now, &ec, ec.cache));
  if (result.schema()->num_fields() != 1) {
    return Status::InvalidArgument(std::string(what) +
                                   " subquery must produce exactly one column");
  }
  std::vector<Value> values = stream::TupleArena::Local().Acquire(result.size());
  for (Tuple& tuple : result.mutable_tuples()) {
    values.push_back(std::move(tuple.mutable_values()[0]));
  }
  // The result tuples' backing stores go back to the arena; per-tick
  // subqueries (paper Query 3's ALL) stop churning the allocator.
  stream::TupleArena::Local().Recycle(std::move(result));
  return values;
}

/// Folds an all-constant operator node into kConst by evaluating it once.
/// Evaluation failures (1/0, type errors) keep the node intact so the error
/// still surfaces — or doesn't — exactly where the interpretive path would
/// raise it (e.g. behind a short-circuiting AND or an untaken CASE arm).
BoundExpr FoldIfConst(BoundExpr node) {
  switch (node.kind) {
    case BoundExpr::Kind::kConst:
    case BoundExpr::Kind::kSlot:
    case BoundExpr::Kind::kFallback:
    case BoundExpr::Kind::kScalarFn:
    case BoundExpr::Kind::kAggregate:
    case BoundExpr::Kind::kAggSlot:
      return node;
    default:
      break;
  }
  for (const BoundExpr& child : node.children) {
    if (child.kind != BoundExpr::Kind::kConst) return node;
  }
  const EvalContext empty;
  StatusOr<Value> value = internal::EvalBound(node, empty);
  if (!value.ok()) return node;
  BoundExpr folded;
  folded.kind = BoundExpr::Kind::kConst;
  folded.constant = std::move(*value);
  return folded;
}

/// Three-valued AND/OR over compiled operands (mirrors EvalLogical).
StatusOr<Value> EvalBoundLogical(const BoundExpr& bound,
                                 const EvalContext& ec) {
  ESP_ASSIGN_OR_RETURN(const Value lhs,
                       internal::EvalBound(bound.children[0], ec));
  if (!lhs.is_null() && lhs.type() == DataType::kBool) {
    if (bound.bin_op == BinaryOp::kAnd && !lhs.bool_value()) {
      return Value::Bool(false);
    }
    if (bound.bin_op == BinaryOp::kOr && lhs.bool_value()) {
      return Value::Bool(true);
    }
  } else if (!lhs.is_null()) {
    return Status::TypeError("AND/OR operand must be boolean");
  }
  ESP_ASSIGN_OR_RETURN(const Value rhs,
                       internal::EvalBound(bound.children[1], ec));
  if (!rhs.is_null() && rhs.type() != DataType::kBool) {
    return Status::TypeError("AND/OR operand must be boolean");
  }
  if (bound.bin_op == BinaryOp::kAnd) {
    if (!rhs.is_null() && !rhs.bool_value()) return Value::Bool(false);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Bool(true);
  }
  if (!rhs.is_null() && rhs.bool_value()) return Value::Bool(true);
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  return Value::Bool(false);
}

/// Aggregate over the current group with a compiled argument (mirrors
/// EvalAggregate, including its error order).
StatusOr<Value> EvalBoundAggregate(const BoundExpr& bound,
                                   const EvalContext& ec) {
  const FunctionCallExpr& call = *bound.agg_call;
  if (ec.group_rows == nullptr) {
    return Status::InvalidArgument("aggregate " + call.name +
                                   "() used outside grouped evaluation");
  }
  ESP_ASSIGN_OR_RETURN(stream::Aggregator* const aggregator,
                       AcquireAggregator(call, ec));
  const bool star = call.IsStarArg();
  if (!star && call.args.size() != 1) {
    return Status::InvalidArgument("aggregate " + call.name +
                                   "() takes exactly one argument");
  }
  for (const Row* row : *ec.group_rows) {
    Value input = Value::Int64(1);  // count(*) marker.
    if (!star) {
      EvalContext row_ec = ec;
      row_ec.row = row;
      row_ec.group_rows = nullptr;  // Argument is a per-row expression.
      ESP_ASSIGN_OR_RETURN(input,
                           internal::EvalBound(bound.children[0], row_ec));
    }
    ESP_RETURN_IF_ERROR(aggregator->Update(input));
  }
  return aggregator->Final();
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared evaluation machinery (declared in expr_eval.h; also used by the
// incremental grouped-aggregate engine).
// ---------------------------------------------------------------------------

namespace internal {

StatusOr<bool> ToDecision(const Value& value, const char* where) {
  if (value.is_null()) return false;
  if (value.type() != DataType::kBool) {
    return Status::TypeError(std::string(where) +
                             " must be boolean, got " +
                             stream::DataTypeToString(value.type()));
  }
  return value.bool_value();
}

StatusOr<Value> EvalExpr(const Expr& expr, const EvalContext& ec) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value;
    case ExprKind::kColumnRef:
      return ResolveColumn(static_cast<const ColumnRefExpr&>(expr), ec);
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not a scalar expression");
    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      ESP_ASSIGN_OR_RETURN(const Value operand, EvalExpr(*unary.operand, ec));
      if (unary.op == UnaryOp::kNegate) return stream::Negate(operand);
      // NOT with three-valued logic.
      if (operand.is_null()) return Value::Null();
      if (operand.type() != DataType::kBool) {
        return Status::TypeError("NOT requires a boolean");
      }
      return Value::Bool(!operand.bool_value());
    }
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      switch (binary.op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return EvalLogical(binary.op, *binary.lhs, *binary.rhs, ec);
        case BinaryOp::kAdd:
        case BinaryOp::kSubtract:
        case BinaryOp::kMultiply:
        case BinaryOp::kDivide:
        case BinaryOp::kModulo: {
          ESP_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*binary.lhs, ec));
          ESP_ASSIGN_OR_RETURN(const Value rhs, EvalExpr(*binary.rhs, ec));
          switch (binary.op) {
            case BinaryOp::kAdd:
              return stream::Add(lhs, rhs);
            case BinaryOp::kSubtract:
              return stream::Subtract(lhs, rhs);
            case BinaryOp::kMultiply:
              return stream::Multiply(lhs, rhs);
            case BinaryOp::kDivide:
              return stream::Divide(lhs, rhs);
            default:
              return stream::Modulo(lhs, rhs);
          }
        }
        default: {
          ESP_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*binary.lhs, ec));
          ESP_ASSIGN_OR_RETURN(const Value rhs, EvalExpr(*binary.rhs, ec));
          return EvalComparison(binary.op, lhs, rhs);
        }
      }
    }
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      if (stream::AggregateRegistry::Global().Contains(call.name)) {
        return EvalAggregate(call, ec);
      }
      ESP_ASSIGN_OR_RETURN(const ScalarFunction* function,
                           ScalarFunctionRegistry::Global().Find(call.name));
      if (call.args.size() < function->min_args ||
          call.args.size() > function->max_args) {
        return Status::InvalidArgument("wrong argument count for " +
                                       call.name + "()");
      }
      std::vector<Value> args;
      args.reserve(call.args.size());
      for (const ExprPtr& arg : call.args) {
        ESP_ASSIGN_OR_RETURN(Value value, EvalExpr(*arg, ec));
        args.push_back(std::move(value));
      }
      return function->fn(args);
    }
    case ExprKind::kScalarSubquery: {
      const auto& subquery = static_cast<const ScalarSubqueryExpr&>(expr);
      ESP_ASSIGN_OR_RETURN(std::vector<Value> values,
                           EvalSubqueryColumn(*subquery.query, ec, "scalar"));
      if (values.empty()) return Value::Null();
      if (values.size() > 1) {
        return Status::InvalidArgument(
            "scalar subquery produced more than one row");
      }
      Value result = std::move(values[0]);
      stream::TupleArena::Local().Release(std::move(values));
      return result;
    }
    case ExprKind::kQuantifiedComparison: {
      const auto& quantified =
          static_cast<const QuantifiedComparisonExpr&>(expr);
      ESP_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*quantified.lhs, ec));
      ESP_ASSIGN_OR_RETURN(
          std::vector<Value> values,
          EvalSubqueryColumn(*quantified.subquery, ec, "ALL/ANY"));
      // ALL over empty set is true; ANY over empty set is false.
      bool saw_null = false;
      std::optional<bool> verdict;
      for (const Value& rhs : values) {
        ESP_ASSIGN_OR_RETURN(const Value cmp,
                             EvalComparison(quantified.op, lhs, rhs));
        if (cmp.is_null()) {
          saw_null = true;
          continue;
        }
        if (quantified.quantifier == Quantifier::kAll && !cmp.bool_value()) {
          verdict = false;
          break;
        }
        if (quantified.quantifier == Quantifier::kAny && cmp.bool_value()) {
          verdict = true;
          break;
        }
      }
      stream::TupleArena::Local().Release(std::move(values));
      if (verdict.has_value()) return Value::Bool(*verdict);
      if (saw_null) return Value::Null();
      return Value::Bool(quantified.quantifier == Quantifier::kAll);
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(expr);
      ESP_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*in.lhs, ec));
      if (lhs.is_null()) return Value::Null();
      std::vector<Value> values;
      if (in.subquery != nullptr) {
        ESP_ASSIGN_OR_RETURN(values, EvalSubqueryColumn(*in.subquery, ec, "IN"));
      } else {
        for (const ExprPtr& item : in.list) {
          ESP_ASSIGN_OR_RETURN(Value value, EvalExpr(*item, ec));
          values.push_back(std::move(value));
        }
      }
      bool saw_null = false;
      bool found = false;
      for (const Value& candidate : values) {
        if (candidate.is_null()) {
          saw_null = true;
          continue;
        }
        if (lhs.Equals(candidate)) {
          found = true;
          break;
        }
      }
      stream::TupleArena::Local().Release(std::move(values));
      if (found) return Value::Bool(!in.negated);
      if (saw_null) return Value::Null();
      return Value::Bool(in.negated);
    }
    case ExprKind::kExists: {
      const auto& exists = static_cast<const ExistsExpr&>(expr);
      ESP_ASSIGN_OR_RETURN(
          Relation result,
          ExecuteInternal(*exists.subquery, *ec.catalog, ec.now, &ec,
                          ec.cache));
      const bool has_rows = !result.empty();
      stream::TupleArena::Local().Recycle(std::move(result));
      return Value::Bool(exists.negated ? !has_rows : has_rows);
    }
    case ExprKind::kIsNull: {
      const auto& is_null = static_cast<const IsNullExpr&>(expr);
      ESP_ASSIGN_OR_RETURN(const Value operand, EvalExpr(*is_null.operand, ec));
      return Value::Bool(is_null.negated ? !operand.is_null()
                                         : operand.is_null());
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      ESP_ASSIGN_OR_RETURN(const Value value, EvalExpr(*between.value, ec));
      ESP_ASSIGN_OR_RETURN(const Value low, EvalExpr(*between.low, ec));
      ESP_ASSIGN_OR_RETURN(const Value high, EvalExpr(*between.high, ec));
      ESP_ASSIGN_OR_RETURN(const Value ge_low,
                           EvalComparison(BinaryOp::kGreaterEquals, value, low));
      ESP_ASSIGN_OR_RETURN(const Value le_high,
                           EvalComparison(BinaryOp::kLessEquals, value, high));
      if (ge_low.is_null() || le_high.is_null()) return Value::Null();
      const bool inside = ge_low.bool_value() && le_high.bool_value();
      return Value::Bool(between.negated ? !inside : inside);
    }
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::WhenClause& when : case_expr.whens) {
        ESP_ASSIGN_OR_RETURN(const Value condition,
                             EvalExpr(*when.condition, ec));
        ESP_ASSIGN_OR_RETURN(const bool matched,
                             ToDecision(condition, "CASE WHEN condition"));
        if (matched) return EvalExpr(*when.result, ec);
      }
      if (case_expr.else_result != nullptr) {
        return EvalExpr(*case_expr.else_result, ec);
      }
      return Value::Null();
    }
  }
  return Status::Internal("unhandled expression kind");
}

BoundExpr MakeFallback(const Expr& expr) {
  BoundExpr bound;
  bound.kind = BoundExpr::Kind::kFallback;
  bound.fallback = &expr;
  return bound;
}

BoundExpr CompileExpr(const Expr& expr, const FromContext& from) {
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      BoundExpr bound;
      bound.kind = BoundExpr::Kind::kConst;
      bound.constant = static_cast<const LiteralExpr&>(expr).value;
      return bound;
    }
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (!ref.qualifier.empty()) {
        for (const FromContext::Frame& frame : from.frames) {
          if (esp::StrEqualsIgnoreCase(frame.alias, ref.qualifier)) {
            auto index = frame.schema->IndexOf(ref.name);
            // Missing column in a matched frame is an error ResolveColumn
            // raises per tuple; the fallback reproduces it.
            if (!index.has_value()) return MakeFallback(expr);
            BoundExpr bound;
            bound.kind = BoundExpr::Kind::kSlot;
            bound.slot = frame.offset + *index;
            return bound;
          }
        }
        return MakeFallback(expr);  // Qualifier may name an outer frame.
      }
      const FromContext::Frame* found_frame = nullptr;
      size_t found_index = 0;
      for (const FromContext::Frame& frame : from.frames) {
        auto index = frame.schema->IndexOf(ref.name);
        if (index.has_value()) {
          if (found_frame != nullptr) return MakeFallback(expr);  // Ambiguous.
          found_frame = &frame;
          found_index = *index;
        }
      }
      if (found_frame == nullptr) return MakeFallback(expr);  // Outer/unknown.
      BoundExpr bound;
      bound.kind = BoundExpr::Kind::kSlot;
      bound.slot = found_frame->offset + found_index;
      return bound;
    }
    case ExprKind::kStar:
      return MakeFallback(expr);  // Not a scalar; EvalExpr raises the error.
    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      BoundExpr bound;
      bound.kind = unary.op == UnaryOp::kNegate ? BoundExpr::Kind::kNegate
                                                : BoundExpr::Kind::kNot;
      bound.children.push_back(CompileExpr(*unary.operand, from));
      return FoldIfConst(std::move(bound));
    }
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      BoundExpr bound;
      switch (binary.op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          bound.kind = BoundExpr::Kind::kLogical;
          break;
        case BinaryOp::kAdd:
        case BinaryOp::kSubtract:
        case BinaryOp::kMultiply:
        case BinaryOp::kDivide:
        case BinaryOp::kModulo:
          bound.kind = BoundExpr::Kind::kArith;
          break;
        default:
          bound.kind = BoundExpr::Kind::kCompare;
          break;
      }
      bound.bin_op = binary.op;
      bound.children.push_back(CompileExpr(*binary.lhs, from));
      bound.children.push_back(CompileExpr(*binary.rhs, from));
      return FoldIfConst(std::move(bound));
    }
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      if (stream::AggregateRegistry::Global().Contains(call.name)) {
        BoundExpr bound;
        bound.kind = BoundExpr::Kind::kAggregate;
        bound.agg_call = &call;
        if (!call.IsStarArg() && call.args.size() == 1) {
          bound.children.push_back(CompileExpr(*call.args[0], from));
        }
        return bound;
      }
      StatusOr<const ScalarFunction*> function =
          ScalarFunctionRegistry::Global().Find(call.name);
      // Unknown names and arity mismatches stay interpretive so the error
      // is raised only if (and when) the call is actually evaluated.
      if (!function.ok()) return MakeFallback(expr);
      if (call.args.size() < (*function)->min_args ||
          call.args.size() > (*function)->max_args) {
        return MakeFallback(expr);
      }
      BoundExpr bound;
      bound.kind = BoundExpr::Kind::kScalarFn;
      bound.fn = *function;
      bound.children.reserve(call.args.size());
      for (const ExprPtr& arg : call.args) {
        bound.children.push_back(CompileExpr(*arg, from));
      }
      return bound;
    }
    case ExprKind::kScalarSubquery:
    case ExprKind::kQuantifiedComparison:
    case ExprKind::kExists:
      return MakeFallback(expr);  // Subqueries re-enter ExecuteInternal.
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(expr);
      if (in.subquery != nullptr) return MakeFallback(expr);
      BoundExpr bound;
      bound.kind = BoundExpr::Kind::kInList;
      bound.negated = in.negated;
      bound.children.reserve(in.list.size() + 1);
      bound.children.push_back(CompileExpr(*in.lhs, from));
      for (const ExprPtr& item : in.list) {
        bound.children.push_back(CompileExpr(*item, from));
      }
      return FoldIfConst(std::move(bound));
    }
    case ExprKind::kIsNull: {
      const auto& is_null = static_cast<const IsNullExpr&>(expr);
      BoundExpr bound;
      bound.kind = BoundExpr::Kind::kIsNull;
      bound.negated = is_null.negated;
      bound.children.push_back(CompileExpr(*is_null.operand, from));
      return FoldIfConst(std::move(bound));
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      BoundExpr bound;
      bound.kind = BoundExpr::Kind::kBetween;
      bound.negated = between.negated;
      bound.children.push_back(CompileExpr(*between.value, from));
      bound.children.push_back(CompileExpr(*between.low, from));
      bound.children.push_back(CompileExpr(*between.high, from));
      return FoldIfConst(std::move(bound));
    }
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      BoundExpr bound;
      bound.kind = BoundExpr::Kind::kCase;
      bound.children.reserve(case_expr.whens.size() * 2 + 1);
      for (const CaseExpr::WhenClause& when : case_expr.whens) {
        bound.children.push_back(CompileExpr(*when.condition, from));
        bound.children.push_back(CompileExpr(*when.result, from));
      }
      if (case_expr.else_result != nullptr) {
        bound.has_else = true;
        bound.children.push_back(CompileExpr(*case_expr.else_result, from));
      }
      return FoldIfConst(std::move(bound));
    }
  }
  return MakeFallback(expr);
}

StatusOr<Value> EvalBound(const BoundExpr& bound, const EvalContext& ec) {
  switch (bound.kind) {
    case BoundExpr::Kind::kConst:
      return bound.constant;
    case BoundExpr::Kind::kSlot:
      return (*ec.row)[bound.slot];
    case BoundExpr::Kind::kAggSlot:
      return (*ec.agg_values)[bound.slot];
    case BoundExpr::Kind::kFallback:
      return EvalExpr(*bound.fallback, ec);
    case BoundExpr::Kind::kNegate: {
      ESP_ASSIGN_OR_RETURN(const Value operand,
                           EvalBound(bound.children[0], ec));
      return stream::Negate(operand);
    }
    case BoundExpr::Kind::kNot: {
      ESP_ASSIGN_OR_RETURN(const Value operand,
                           EvalBound(bound.children[0], ec));
      if (operand.is_null()) return Value::Null();
      if (operand.type() != DataType::kBool) {
        return Status::TypeError("NOT requires a boolean");
      }
      return Value::Bool(!operand.bool_value());
    }
    case BoundExpr::Kind::kArith: {
      ESP_ASSIGN_OR_RETURN(const Value lhs, EvalBound(bound.children[0], ec));
      ESP_ASSIGN_OR_RETURN(const Value rhs, EvalBound(bound.children[1], ec));
      switch (bound.bin_op) {
        case BinaryOp::kAdd:
          return stream::Add(lhs, rhs);
        case BinaryOp::kSubtract:
          return stream::Subtract(lhs, rhs);
        case BinaryOp::kMultiply:
          return stream::Multiply(lhs, rhs);
        case BinaryOp::kDivide:
          return stream::Divide(lhs, rhs);
        default:
          return stream::Modulo(lhs, rhs);
      }
    }
    case BoundExpr::Kind::kCompare: {
      ESP_ASSIGN_OR_RETURN(const Value lhs, EvalBound(bound.children[0], ec));
      ESP_ASSIGN_OR_RETURN(const Value rhs, EvalBound(bound.children[1], ec));
      return EvalComparison(bound.bin_op, lhs, rhs);
    }
    case BoundExpr::Kind::kLogical:
      return EvalBoundLogical(bound, ec);
    case BoundExpr::Kind::kScalarFn: {
      std::vector<Value> args;
      args.reserve(bound.children.size());
      for (const BoundExpr& child : bound.children) {
        ESP_ASSIGN_OR_RETURN(Value value, EvalBound(child, ec));
        args.push_back(std::move(value));
      }
      return bound.fn->fn(args);
    }
    case BoundExpr::Kind::kAggregate:
      return EvalBoundAggregate(bound, ec);
    case BoundExpr::Kind::kIsNull: {
      ESP_ASSIGN_OR_RETURN(const Value operand,
                           EvalBound(bound.children[0], ec));
      return Value::Bool(bound.negated ? !operand.is_null()
                                       : operand.is_null());
    }
    case BoundExpr::Kind::kBetween: {
      ESP_ASSIGN_OR_RETURN(const Value value, EvalBound(bound.children[0], ec));
      ESP_ASSIGN_OR_RETURN(const Value low, EvalBound(bound.children[1], ec));
      ESP_ASSIGN_OR_RETURN(const Value high, EvalBound(bound.children[2], ec));
      ESP_ASSIGN_OR_RETURN(
          const Value ge_low,
          EvalComparison(BinaryOp::kGreaterEquals, value, low));
      ESP_ASSIGN_OR_RETURN(const Value le_high,
                           EvalComparison(BinaryOp::kLessEquals, value, high));
      if (ge_low.is_null() || le_high.is_null()) return Value::Null();
      const bool inside = ge_low.bool_value() && le_high.bool_value();
      return Value::Bool(bound.negated ? !inside : inside);
    }
    case BoundExpr::Kind::kCase: {
      const size_t when_pairs =
          (bound.children.size() - (bound.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < when_pairs; ++i) {
        ESP_ASSIGN_OR_RETURN(const Value condition,
                             EvalBound(bound.children[2 * i], ec));
        ESP_ASSIGN_OR_RETURN(const bool matched,
                             ToDecision(condition, "CASE WHEN condition"));
        if (matched) return EvalBound(bound.children[2 * i + 1], ec);
      }
      if (bound.has_else) return EvalBound(bound.children.back(), ec);
      return Value::Null();
    }
    case BoundExpr::Kind::kInList: {
      ESP_ASSIGN_OR_RETURN(const Value lhs, EvalBound(bound.children[0], ec));
      if (lhs.is_null()) return Value::Null();
      std::vector<Value> values;
      values.reserve(bound.children.size() - 1);
      for (size_t i = 1; i < bound.children.size(); ++i) {
        ESP_ASSIGN_OR_RETURN(Value value, EvalBound(bound.children[i], ec));
        values.push_back(std::move(value));
      }
      bool saw_null = false;
      for (const Value& candidate : values) {
        if (candidate.is_null()) {
          saw_null = true;
          continue;
        }
        if (lhs.Equals(candidate)) return Value::Bool(!bound.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(bound.negated);
    }
  }
  return Status::Internal("unhandled bound expression kind");
}

void CollectSlotReads(const BoundExpr& bound, std::vector<size_t>& slots,
                      bool& opaque) {
  if (bound.kind == BoundExpr::Kind::kSlot) slots.push_back(bound.slot);
  if (bound.kind == BoundExpr::Kind::kFallback) opaque = true;
  for (const BoundExpr& child : bound.children) {
    CollectSlotReads(child, slots, opaque);
  }
}

bool QueryUsesAggregation(const SelectQuery& query) {
  if (!query.group_by.empty()) return true;
  if (query.having != nullptr) return true;  // HAVING implies one group.
  for (const SelectItem& item : query.items) {
    if (item.expr->kind() != ExprKind::kStar && ContainsAggregate(*item.expr)) {
      return true;
    }
  }
  return false;
}

StatusOr<Relation> FinalizeOutput(const SelectQuery& query, Relation output) {
  if (query.distinct) {
    ESP_ASSIGN_OR_RETURN(output, stream::Distinct(output));
  }
  if (!query.order_by.empty()) {
    // ORDER BY keys must name output columns (by name or 1-based position).
    std::vector<std::pair<size_t, bool>> keys;  // (column index, descending)
    for (const OrderByItem& item : query.order_by) {
      size_t index = 0;
      if (item.expr->kind() == ExprKind::kColumnRef) {
        const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
        ESP_ASSIGN_OR_RETURN(index, output.schema()->ResolveIndex(ref.name));
      } else if (item.expr->kind() == ExprKind::kLiteral &&
                 static_cast<const LiteralExpr&>(*item.expr).value.type() ==
                     DataType::kInt64) {
        const int64_t position =
            static_cast<const LiteralExpr&>(*item.expr).value.int64_value();
        if (position < 1 ||
            position > static_cast<int64_t>(output.schema()->num_fields())) {
          return Status::OutOfRange("ORDER BY position out of range");
        }
        index = static_cast<size_t>(position - 1);
      } else {
        return Status::Unimplemented(
            "ORDER BY supports output column names and positions only");
      }
      keys.emplace_back(index, item.descending);
    }
    Status failure;
    std::stable_sort(
        output.mutable_tuples().begin(), output.mutable_tuples().end(),
        [&](const Tuple& a, const Tuple& b) {
          for (const auto& [index, descending] : keys) {
            const Value& lhs = a.value(index);
            const Value& rhs = b.value(index);
            if (lhs.is_null() && rhs.is_null()) continue;
            if (lhs.is_null()) return !descending;  // Nulls first (ASC).
            if (rhs.is_null()) return descending;
            auto cmp = lhs.Compare(rhs);
            if (!cmp.ok()) {
              if (failure.ok()) failure = cmp.status();
              return false;
            }
            if (*cmp != 0) return descending ? *cmp > 0 : *cmp < 0;
          }
          return false;
        });
    if (!failure.ok()) return failure;
  }
  if (query.limit.has_value() &&
      output.size() > static_cast<size_t>(*query.limit)) {
    output.mutable_tuples().resize(static_cast<size_t>(*query.limit));
  }
  return output;
}

bool LayoutMatches(const PreparedQuery& prep, const FromContext& from) {
  if (prep.from.total_columns != from.total_columns) return false;
  if (prep.from.frames.size() != from.frames.size()) return false;
  for (size_t i = 0; i < from.frames.size(); ++i) {
    const FromContext::Frame& a = prep.from.frames[i];
    const FromContext::Frame& b = from.frames[i];
    if (a.offset != b.offset || a.schema.get() != b.schema.get() ||
        a.alias != b.alias) {
      return false;
    }
  }
  return true;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

namespace {

/// Half-open index range [lo, hi) of `history`'s tuples inside the window at
/// `now`. Requires non-decreasing timestamp order.
std::pair<size_t, size_t> WindowBounds(const Relation& history,
                                       const WindowSpec& spec, Timestamp now) {
  const std::vector<Tuple>& tuples = history.tuples();
  const auto first_after = [&](Timestamp t) -> size_t {
    return static_cast<size_t>(
        std::upper_bound(tuples.begin(), tuples.end(), t,
                         [](Timestamp lhs, const Tuple& rhs) {
                           return lhs < rhs.timestamp();
                         }) -
        tuples.begin());
  };
  switch (spec.kind) {
    case WindowKind::kRange: {
      const Timestamp effective = spec.EffectiveTime(now);
      const Timestamp low = effective - spec.range;  // Exclusive.
      return {first_after(low), first_after(effective)};
    }
    case WindowKind::kNow: {
      const size_t lo = static_cast<size_t>(
          std::lower_bound(tuples.begin(), tuples.end(), now,
                           [](const Tuple& lhs, Timestamp rhs) {
                             return lhs.timestamp() < rhs;
                           }) -
          tuples.begin());
      return {lo, first_after(now)};
    }
    case WindowKind::kRows: {
      const size_t hi = first_after(now);
      const size_t n = static_cast<size_t>(spec.rows);
      return {hi > n ? hi - n : 0, hi};
    }
    case WindowKind::kUnbounded:
      return {0, first_after(now)};
  }
  return {0, 0};
}

bool TimeOrdered(const Relation& history) {
  const std::vector<Tuple>& tuples = history.tuples();
  for (size_t i = 1; i < tuples.size(); ++i) {
    if (tuples[i].timestamp() < tuples[i - 1].timestamp()) return false;
  }
  return true;
}

StatusOr<Relation> ExecuteInternal(const SelectQuery& query,
                                   const Catalog& catalog, Timestamp now,
                                   const EvalContext* outer,
                                   QueryExecCache* cache) {
  stream::TupleArena& arena = stream::TupleArena::Local();
  internal::PreparedQuery* prep =
      cache != nullptr ? cache->Find(&query) : nullptr;

  // Execution-time containers live in the plan's scratch so their buffers
  // (row vectors, group slots, aggregator instances) persist across ticks.
  // `found` remembers the cache hit: if the layout changed and the plan is
  // recompiled below, the warmed scratch migrates into the new cache entry.
  internal::PreparedQuery local;
  internal::PreparedQuery* const found = prep;
  internal::PreparedQuery::ExecScratch& scratch =
      (prep != nullptr ? *prep : local).EnsureScratch();

  // The schema catalog is needed only on the uncached path and for
  // schema-less histories, so derive it lazily.
  std::optional<SchemaCatalog> schema_catalog;
  const auto schemas = [&]() -> const SchemaCatalog& {
    if (!schema_catalog.has_value()) {
      schema_catalog = catalog.ToSchemaCatalog();
    }
    return *schema_catalog;
  };

  // Infer the output schema up front (also validates the query shape) —
  // unless a prepared plan already carries the result of this analysis.
  // The analysis scope chain mirrors the outer EvalContext chain.
  SchemaRef output_schema;
  std::vector<AnalysisScope> outer_scopes;
  const auto infer_schema = [&]() -> Status {
    outer_scopes.clear();
    for (const EvalContext* scope = outer; scope != nullptr;
         scope = scope->outer) {
      if (scope->from == nullptr) continue;
      AnalysisScope analysis_scope;
      for (const FromContext::Frame& frame : scope->from->frames) {
        analysis_scope.frames.push_back({frame.alias, frame.schema});
      }
      outer_scopes.push_back(std::move(analysis_scope));
    }
    for (size_t i = 0; i + 1 < outer_scopes.size(); ++i) {
      outer_scopes[i].outer = &outer_scopes[i + 1];
    }
    ESP_ASSIGN_OR_RETURN(
        output_schema,
        InferOutputSchema(query, schemas(),
                          outer_scopes.empty() ? nullptr : &outer_scopes[0]));
    return Status::OK();
  };
  if (prep == nullptr) ESP_RETURN_IF_ERROR(infer_schema());

  // Materialize FROM inputs. Stream references over time-ordered histories
  // become binary-searched index ranges directly over the catalog's relation
  // — no per-tick window copy. Derived tables (and disordered ad-hoc
  // histories) still materialize and own their rows.
  FromContext& from = scratch.from;
  from.frames.clear();
  from.total_columns = 0;
  std::vector<internal::FromInput>& inputs = scratch.inputs;
  for (internal::FromInput& input : inputs) {
    arena.Recycle(std::move(input.owned));
  }
  inputs.clear();
  inputs.reserve(query.from.size());
  bool cacheable_from = true;
  for (const TableRef& ref : query.from) {
    inputs.emplace_back();
    internal::FromInput& input = inputs.back();
    FromContext::Frame frame;
    if (ref.kind == TableRef::Kind::kStream) {
      ESP_ASSIGN_OR_RETURN(const Relation* history,
                           catalog.Find(ref.stream_name));
      if (TimeOrdered(*history)) {
        input.rel = history;
        std::tie(input.lo, input.hi) = WindowBounds(*history, ref.window, now);
        input.columns = catalog.FindColumns(ref.stream_name);
      } else {
        input.owned = ApplyWindow(*history, ref.window, now);
        input.rel = &input.owned;
        input.hi = input.owned.size();
        input.movable = true;
      }
      frame.alias = ref.alias.empty() ? ref.stream_name : ref.alias;
      frame.schema = input.rel->schema();
      if (frame.schema == nullptr) {
        ESP_ASSIGN_OR_RETURN(frame.schema, schemas().Find(ref.stream_name));
      }
    } else {
      // Derived tables see the enclosing query's outer scope, not their
      // siblings (no LATERAL).
      ESP_ASSIGN_OR_RETURN(
          input.owned,
          ExecuteInternal(*ref.subquery, catalog, now, outer, cache));
      input.rel = &input.owned;
      input.hi = input.owned.size();
      input.movable = true;
      cacheable_from = false;  // Fresh schema per execution; never cache-hits.
      frame.alias = ref.alias;
      frame.schema = input.owned.schema();
    }
    frame.offset = from.total_columns;
    from.total_columns += frame.schema->num_fields();
    from.frames.push_back(std::move(frame));
  }

  // A hit is only usable if the catalog still presents the layout the plan
  // was compiled against (stable for standing queries).
  if (prep != nullptr && !internal::LayoutMatches(*prep, from)) {
    prep = nullptr;
  }
  if (prep == nullptr) {
    if (output_schema == nullptr) ESP_RETURN_IF_ERROR(infer_schema());
    local.output_schema = output_schema;
    if (query.where != nullptr) {
      local.where = internal::CompileExpr(*query.where, from);
    }
    local.items.reserve(query.items.size());
    for (const SelectItem& item : query.items) {
      local.items.push_back(internal::CompileExpr(*item.expr, from));
    }
    if (internal::QueryUsesAggregation(query)) {
      local.group_keys.reserve(query.group_by.size());
      for (const ExprPtr& expr : query.group_by) {
        local.group_keys.push_back(internal::CompileExpr(*expr, from));
      }
      if (query.having != nullptr) {
        local.having = internal::CompileExpr(*query.having, from);
      }
    } else {
      // Plan which items may move their value straight out of the row: a
      // top-level slot read whose slot no other part of the projection (no
      // fallback anywhere, no star, no second read) can observe.
      local.move_item.assign(query.items.size(), 0);
      const bool any_star = std::any_of(
          query.items.begin(), query.items.end(), [](const SelectItem& item) {
            return item.expr->kind() == ExprKind::kStar;
          });
      if (!any_star) {
        bool opaque = false;
        std::vector<size_t> slot_reads;
        for (const BoundExpr& bound : local.items) {
          internal::CollectSlotReads(bound, slot_reads, opaque);
        }
        if (!opaque) {
          std::unordered_map<size_t, size_t> reads_per_slot;
          for (size_t slot : slot_reads) ++reads_per_slot[slot];
          for (size_t i = 0; i < local.items.size(); ++i) {
            if (local.items[i].kind == BoundExpr::Kind::kSlot &&
                reads_per_slot[local.items[i].slot] == 1) {
              local.move_item[i] = 1;
            }
          }
        }
      }
    }
    if (cache != nullptr && cacheable_from) {
      local.from = from;
      // Keep the warmed scratch: `scratch` references the ExecScratch object
      // behind the unique_ptr, which survives both moves below, so every
      // reference taken above (from, inputs, ...) stays valid.
      if (found != nullptr) local.scratch = std::move(found->scratch);
      prep = cache->Insert(&query, std::move(local));
    }
  }
  const internal::PreparedQuery& plan = prep != nullptr ? *prep : local;
  output_schema = plan.output_schema;

  EvalContext base;
  base.catalog = &catalog;
  base.now = now;
  base.from = &from;
  base.cache = cache;
  base.outer = outer;

  // Columnar fast path: a single stream input sliced in place, with a
  // row-synced columnar mirror and a cached plan. Aggregation shapes the
  // admission rules accept run entirely over the columns (no row
  // materialization); plain projections get a batch-evaluated WHERE premask
  // so rejected rows are never materialized. Any runtime ineligibility
  // (demoted columns, evaluation errors) falls through to the row path,
  // which reproduces genuine errors identically.
  const std::vector<stream::simd::Trit>* premask = nullptr;
  if (prep != nullptr && inputs.size() == 1 && !inputs[0].movable &&
      inputs[0].columns != nullptr && stream::ColumnarEnabled()) {
    const internal::FromInput& input = inputs[0];
    const stream::ColumnarWindow& cols = *input.columns;
    if (cols.size() == input.rel->size() &&
        cols.schema() == input.rel->schema()) {
      internal::EnsureColumnarPlan(*prep, query);
      internal::ColumnarPlan* cplan = prep->columnar.get();
      if (cplan != nullptr) {
        if (cplan->aggregated) {
          std::optional<Relation> columnar_result =
              internal::ExecuteColumnarAggregate(*prep, cols, input.lo,
                                                 input.hi, base);
          if (columnar_result.has_value()) {
            return internal::FinalizeOutput(query,
                                            std::move(*columnar_result));
          }
        } else if (cplan->where_mode ==
                   internal::ColumnarPlan::WhereMode::kBatch) {
          premask = internal::TryBatchWhere(*cplan, cols, input.lo, input.hi);
        }
      }
    }
  }

  // Enumerate joined rows (cartesian product; FROM-less yields one empty
  // row). Row backing stores come from the thread's arena.
  std::vector<Row>& rows = scratch.rows;
  rows.clear();
  if (inputs.size() == 1) {
    internal::FromInput& input = inputs[0];
    rows.reserve(input.hi - input.lo);
    for (size_t r = input.lo; r < input.hi; ++r) {
      // Premasked rows failed WHERE (NULL decides as false) — never
      // materialized.
      if (premask != nullptr &&
          (*premask)[r - input.lo] != stream::simd::kTrue) {
        continue;
      }
      if (input.movable) {
        // The windowed relation is owned by this evaluation, so move each
        // tuple's values into its row instead of copying field by field.
        Tuple& tuple = input.owned.mutable_tuples()[r];
        if (tuple.num_fields() == from.total_columns) {
          rows.push_back(std::move(tuple.mutable_values()));
          continue;
        }
      }
      const Tuple& tuple = input.rel->tuple(r);
      Row row = arena.Acquire(from.total_columns);
      if (tuple.num_fields() == from.total_columns) {
        row.assign(tuple.values().begin(), tuple.values().end());
      } else {
        row.assign(from.total_columns, Value::Null());
        const size_t n = std::min(tuple.num_fields(), from.total_columns);
        for (size_t c = 0; c < n; ++c) row[c] = tuple.value(c);
      }
      rows.push_back(std::move(row));
    }
  } else {
    Row current(from.total_columns, Value::Null());
    // Iterative odometer over input ranges.
    std::vector<size_t> cursor(inputs.size(), 0);
    bool exhausted = false;
    for (const internal::FromInput& input : inputs) {
      if (input.hi == input.lo) exhausted = true;
    }
    if (inputs.empty()) {
      rows.push_back(current);  // FROM-less: a single all-null (empty) row.
    } else if (!exhausted) {
      size_t product = 1;
      for (const internal::FromInput& input : inputs) product *= input.hi - input.lo;
      rows.reserve(product);
      while (true) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          const Tuple& tuple = inputs[i].rel->tuple(inputs[i].lo + cursor[i]);
          const size_t offset = from.frames[i].offset;
          for (size_t c = 0; c < tuple.num_fields(); ++c) {
            current[offset + c] = tuple.value(c);
          }
        }
        Row copy = arena.Acquire(from.total_columns);
        copy.assign(current.begin(), current.end());
        rows.push_back(std::move(copy));
        // Advance odometer.
        size_t position = inputs.size();
        while (position > 0) {
          --position;
          if (++cursor[position] <
              inputs[position].hi - inputs[position].lo) {
            break;
          }
          cursor[position] = 0;
          if (position == 0) {
            position = SIZE_MAX;
            break;
          }
        }
        if (position == SIZE_MAX) break;
      }
    }
  }

  // WHERE. Without one — or with a batch premask already applied during row
  // enumeration — the filtered set IS the row set (aliased, so both scratch
  // buffers keep their capacity for the next execution).
  const bool row_where = plan.where.has_value() && premask == nullptr;
  std::vector<Row>& filtered = row_where ? scratch.filtered : rows;
  if (row_where) {
    filtered.clear();
    filtered.reserve(rows.size());
    for (Row& row : rows) {
      EvalContext ec = base;
      ec.row = &row;
      ESP_ASSIGN_OR_RETURN(const Value verdict,
                           internal::EvalBound(*plan.where, ec));
      ESP_ASSIGN_OR_RETURN(const bool keep,
                           internal::ToDecision(verdict, "WHERE"));
      if (keep) {
        filtered.push_back(std::move(row));
      } else {
        arena.Release(std::move(row));
      }
    }
  }

  Relation output(output_schema);
  output.mutable_tuples() = arena.AcquireTuples();

  if (!internal::QueryUsesAggregation(query)) {
    const bool has_star = std::any_of(
        query.items.begin(), query.items.end(), [](const SelectItem& item) {
          return item.expr->kind() == ExprKind::kStar;
        });
    // `SELECT *` alone: the row IS the output tuple's value vector.
    if (has_star && query.items.size() == 1) {
      output.mutable_tuples().reserve(filtered.size());
      for (Row& row : filtered) {
        output.Add(Tuple(output_schema, std::move(row), now));
      }
      return internal::FinalizeOutput(query, std::move(output));
    }
    // Plain projection.
    output.mutable_tuples().reserve(filtered.size());
    for (Row& row : filtered) {
      EvalContext ec = base;
      ec.row = &row;
      std::vector<Value> values = arena.Acquire(output_schema->num_fields());
      for (size_t i = 0; i < query.items.size(); ++i) {
        const SelectItem& item = query.items[i];
        if (item.expr->kind() == ExprKind::kStar) {
          for (const Value& value : row) values.push_back(value);
          continue;
        }
        if (!plan.move_item.empty() && plan.move_item[i]) {
          values.push_back(std::move(row[plan.items[i].slot]));
          continue;
        }
        ESP_ASSIGN_OR_RETURN(Value value,
                             internal::EvalBound(plan.items[i], ec));
        values.push_back(std::move(value));
      }
      output.Add(Tuple(output_schema, std::move(values), now));
      arena.Release(std::move(row));
    }
    return internal::FinalizeOutput(query, std::move(output));
  }

  // Grouped evaluation. Group slots and the key->slot index persist in the
  // plan's scratch across executions: recurring keys (the small sensor
  // vocabularies that dominate standing queries) keep their slot, so the
  // steady state allocates nothing. Slots are generation-stamped; `touched`
  // lists this execution's slots in first-seen order — the emit order, which
  // matches the fresh-map behaviour exactly.
  std::vector<internal::PreparedQuery::GroupSlot>& groups = scratch.groups;
  auto& index = scratch.group_index;
  std::vector<size_t>& touched = scratch.touched;
  touched.clear();
  if (index.size() > kMaxPersistentGroups) {
    // Unbounded key domains (e.g. grouping on a measurement) must not grow
    // the index forever; dropping it only costs re-insertion.
    index.clear();
    groups.clear();
  }
  const uint64_t gen = ++scratch.gen;
  if (query.group_by.empty()) {
    // A single group over all rows — exists even when empty (SQL scalar
    // aggregate semantics: `SELECT count(*) FROM empty` returns one row).
    if (groups.empty()) groups.emplace_back();
    groups[0].rows.clear();
    groups[0].gen = gen;
    for (const Row& row : filtered) groups[0].rows.push_back(&row);
    touched.push_back(0);
  } else {
    Row& key = scratch.key_scratch;
    for (const Row& row : filtered) {
      EvalContext ec = base;
      ec.row = &row;
      key.clear();
      for (const BoundExpr& bound : plan.group_keys) {
        ESP_ASSIGN_OR_RETURN(Value value, internal::EvalBound(bound, ec));
        key.push_back(std::move(value));
      }
      size_t slot = 0;
      const auto it = index.find(key);
      if (it == index.end()) {
        slot = groups.size();
        groups.emplace_back();
        index.emplace(key, slot);
      } else {
        slot = it->second;
      }
      internal::PreparedQuery::GroupSlot& group = groups[slot];
      if (group.gen != gen) {
        group.gen = gen;
        group.rows.clear();
        touched.push_back(slot);
      }
      group.rows.push_back(&row);
    }
  }

  const Row empty_row(from.total_columns, Value::Null());
  for (const size_t slot : touched) {
    const internal::PreparedQuery::GroupSlot& group = groups[slot];
    EvalContext ec = base;
    ec.group_rows = &group.rows;
    ec.agg_scratch = &scratch.agg_scratch;
    // The representative row backs non-aggregated column references (which,
    // per SQL, should be functionally dependent on the group key).
    ec.row = group.rows.empty() ? &empty_row : group.rows.front();

    if (plan.having.has_value()) {
      ESP_ASSIGN_OR_RETURN(const Value verdict,
                           internal::EvalBound(*plan.having, ec));
      ESP_ASSIGN_OR_RETURN(const bool keep,
                           internal::ToDecision(verdict, "HAVING"));
      if (!keep) continue;
    }
    std::vector<Value> values = arena.Acquire(output_schema->num_fields());
    for (const BoundExpr& bound : plan.items) {
      ESP_ASSIGN_OR_RETURN(Value value, internal::EvalBound(bound, ec));
      values.push_back(std::move(value));
    }
    output.Add(Tuple(output_schema, std::move(values), now));
  }
  for (Row& row : filtered) arena.Release(std::move(row));
  return internal::FinalizeOutput(query, std::move(output));
}

}  // namespace

StatusOr<Relation> ExecuteQuery(const SelectQuery& query,
                                const Catalog& catalog, Timestamp now) {
  return ExecuteInternal(query, catalog, now, nullptr, nullptr);
}

StatusOr<Relation> ExecuteQuery(const SelectQuery& query,
                                const Catalog& catalog, Timestamp now,
                                QueryExecCache* cache) {
  return ExecuteInternal(query, catalog, now, nullptr, cache);
}

}  // namespace esp::cql
