#include "cql/incremental_exec.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/string_util.h"
#include "cql/columnar_exec.h"
#include "stream/arena.h"

namespace esp::cql {

using internal::BoundExpr;
using internal::EvalContext;
using internal::FromContext;
using internal::Row;
using stream::DataType;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;
using stream::WindowKind;

namespace {

/// Largest magnitude for which every partial double sum in the legacy
/// order-dependent fold is exactly representable: if the running sum of
/// |input| stays <= 2^52, every legacy prefix sum has magnitude <= 2^52 and
/// the double accumulation is exact, hence order-independent and equal to
/// the engine's integer total.
constexpr int64_t kMaxExactAbs = int64_t{1} << 52;

/// Expression kinds whose evaluation is a pure function of the row: safe to
/// evaluate once at insert instead of on every tick the row stays live.
/// Scalar functions are excluded (the registry makes no purity promise), as
/// are fallbacks (subqueries, outer references) and aggregates.
bool IsPureRowExpr(const BoundExpr& bound) {
  switch (bound.kind) {
    case BoundExpr::Kind::kConst:
    case BoundExpr::Kind::kSlot:
    case BoundExpr::Kind::kNot:
    case BoundExpr::Kind::kNegate:
    case BoundExpr::Kind::kArith:
    case BoundExpr::Kind::kCompare:
    case BoundExpr::Kind::kLogical:
    case BoundExpr::Kind::kIsNull:
    case BoundExpr::Kind::kBetween:
    case BoundExpr::Kind::kCase:
    case BoundExpr::Kind::kInList:
      break;
    default:
      return false;
  }
  for (const BoundExpr& child : bound.children) {
    if (!IsPureRowExpr(child)) return false;
  }
  return true;
}

/// No fallback (subquery / outer reference / unresolved name) and no nested
/// aggregate survives in an emit-time tree; scalar functions are fine there
/// (both paths evaluate them once per group per tick).
bool IsEmitSafe(const BoundExpr& bound) {
  if (bound.kind == BoundExpr::Kind::kFallback ||
      bound.kind == BoundExpr::Kind::kAggregate) {
    return false;
  }
  for (const BoundExpr& child : bound.children) {
    if (!IsEmitSafe(child)) return false;
  }
  return true;
}

/// Emitted group keys must be bit-identical to what the legacy path reads
/// from the group's first live row. SQL equality is looser than that (1 ==
/// 1.0, 0.0 == -0.0), so a group whose members' keys are equal-but-distinct
/// would change its legacy representative as members evict.
bool IdenticalForEmit(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.Equals(b);
}

}  // namespace

std::unique_ptr<IncrementalGroupedQuery> IncrementalGroupedQuery::TryPlan(
    const SelectQuery& query, const std::string& stream_name,
    SchemaRef input_schema, SchemaRef output_schema) {
  if (input_schema == nullptr || output_schema == nullptr) return nullptr;

  // Shape: one stream input, RANGE/UNBOUNDED window, non-empty GROUP BY.
  if (query.from.size() != 1) return nullptr;
  const TableRef& ref = query.from[0];
  if (ref.kind != TableRef::Kind::kStream) return nullptr;
  if (!esp::StrEqualsIgnoreCase(ref.stream_name, stream_name)) return nullptr;
  if (ref.window.kind != WindowKind::kRange &&
      ref.window.kind != WindowKind::kUnbounded) {
    return nullptr;
  }
  if (query.group_by.empty()) return nullptr;

  auto engine = std::unique_ptr<IncrementalGroupedQuery>(
      new IncrementalGroupedQuery());
  engine->query_ = &query;
  engine->output_schema_ = std::move(output_schema);
  engine->window_ = ref.window;
  FromContext::Frame frame;
  frame.alias = ref.alias.empty() ? ref.stream_name : ref.alias;
  frame.schema = input_schema;
  frame.offset = 0;
  engine->from_.total_columns = input_schema->num_fields();
  engine->from_.frames.push_back(std::move(frame));

  // WHERE runs once per row at insert time, so it must be pure. When the
  // predicate also compiles to a batch program, the columnar consume path
  // evaluates it a window-delta at a time over the typed columns.
  if (query.where != nullptr) {
    BoundExpr bound = internal::CompileExpr(*query.where, engine->from_);
    if (!IsPureRowExpr(bound)) return nullptr;
    engine->where_ = std::move(bound);
    engine->where_batch_ok_ =
        internal::CompileBatchWhere(*engine->where_, engine->where_batch_);
  }

  // Keys must be plain columns (the emit path synthesizes the group's
  // representative row from the stored key values).
  engine->key_slots_.reserve(query.group_by.size());
  for (const ExprPtr& expr : query.group_by) {
    BoundExpr bound = internal::CompileExpr(*expr, engine->from_);
    if (bound.kind != BoundExpr::Kind::kSlot) return nullptr;
    engine->key_slots_.push_back(bound.slot);
  }

  // Lower every aggregate call in the projection / HAVING to a kAggSlot read
  // of the per-group finalized value, collecting one AggSpec per call.
  const auto lower = [&engine](BoundExpr& node, const auto& self) -> bool {
    if (node.kind == BoundExpr::Kind::kAggregate) {
      const FunctionCallExpr& call = *node.agg_call;
      if (call.distinct) return false;
      AggSpec spec;
      if (esp::StrEqualsIgnoreCase(call.name, "count")) {
        spec.kind = AggSpec::Kind::kCount;
      } else if (esp::StrEqualsIgnoreCase(call.name, "sum")) {
        spec.kind = AggSpec::Kind::kSum;
      } else if (esp::StrEqualsIgnoreCase(call.name, "avg")) {
        spec.kind = AggSpec::Kind::kAvg;
      } else if (esp::StrEqualsIgnoreCase(call.name, "min")) {
        spec.kind = AggSpec::Kind::kMin;
      } else if (esp::StrEqualsIgnoreCase(call.name, "max")) {
        spec.kind = AggSpec::Kind::kMax;
      } else {
        return false;  // Holistic (median/percentile/stdev): rescan only.
      }
      if (call.IsStarArg()) {
        spec.has_arg = false;  // Constant Int64(1) per row.
      } else {
        // CompileExpr attaches the single argument as children[0]; a
        // different arity is an error the legacy path reports.
        if (call.args.size() != 1 || node.children.size() != 1) return false;
        if (!IsPureRowExpr(node.children[0])) return false;
        spec.has_arg = true;
        spec.arg = std::move(node.children[0]);
      }
      BoundExpr slot;
      slot.kind = BoundExpr::Kind::kAggSlot;
      slot.slot = engine->specs_.size();
      engine->specs_.push_back(std::move(spec));
      node = std::move(slot);
      return true;
    }
    for (BoundExpr& child : node.children) {
      if (!self(child, self)) return false;
    }
    return node.kind != BoundExpr::Kind::kFallback;
  };

  engine->items_.reserve(query.items.size());
  for (const SelectItem& item : query.items) {
    if (item.expr->kind() == ExprKind::kStar) return nullptr;
    BoundExpr bound = internal::CompileExpr(*item.expr, engine->from_);
    if (!lower(bound, lower)) return nullptr;
    if (!IsEmitSafe(bound)) return nullptr;
    engine->items_.push_back(std::move(bound));
  }
  if (query.having != nullptr) {
    BoundExpr bound = internal::CompileExpr(*query.having, engine->from_);
    if (!lower(bound, lower)) return nullptr;
    if (!IsEmitSafe(bound)) return nullptr;
    engine->having_ = std::move(bound);
  }
  if (engine->specs_.empty()) return nullptr;  // Plain GROUP BY: rescan.

  // Non-aggregated column reads at emit time are served by the synthesized
  // representative row, which only carries the key slots.
  bool opaque = false;
  std::vector<size_t> slot_reads;
  for (const BoundExpr& bound : engine->items_) {
    internal::CollectSlotReads(bound, slot_reads, opaque);
  }
  if (engine->having_.has_value()) {
    internal::CollectSlotReads(*engine->having_, slot_reads, opaque);
  }
  if (opaque) return nullptr;
  for (size_t slot : slot_reads) {
    if (std::find(engine->key_slots_.begin(), engine->key_slots_.end(),
                  slot) == engine->key_slots_.end()) {
      return nullptr;
    }
  }
  return engine;
}

void IncrementalGroupedQuery::Reset() {
  groups_.clear();
  arrival_.clear();
  next_seq_ = 0;
  broken_ = false;
}

std::optional<Relation> IncrementalGroupedQuery::Evaluate(
    const Relation& history, uint64_t base_seq, Timestamp now) {
  return Evaluate(history, nullptr, base_seq, now);
}

std::optional<Relation> IncrementalGroupedQuery::Evaluate(
    const Relation& history, const stream::ColumnarWindow* columns,
    uint64_t base_seq, Timestamp now) {
  if (broken_) return std::nullopt;
  if (!Advance(history, columns, base_seq, now)) {
    broken_ = true;
    return std::nullopt;
  }
  Relation out;
  if (!Emit(now, &out)) {
    broken_ = true;
    return std::nullopt;
  }
  return out;
}

bool IncrementalGroupedQuery::Advance(const Relation& history,
                                      const stream::ColumnarWindow* columns,
                                      uint64_t base_seq, Timestamp now) {
  const Timestamp effective = window_.kind == WindowKind::kRange
                                  ? window_.EffectiveTime(now)
                                  : now;
  if (base_seq > next_seq_) return false;  // Rows vanished unconsumed.
  const std::vector<Tuple>& tuples = history.tuples();
  const size_t start = static_cast<size_t>(next_seq_ - base_seq);
  if (columns != nullptr && columns->size() == tuples.size() &&
      WantsColumns()) {
    // Columnar consume: bound the delta by binary search, batch-evaluate
    // WHERE over the typed columns when the program admits it, and
    // materialize only the rows that survive. Batch leaves are total
    // functions, so a mask can never hide an error the row path would have
    // raised; runtime ineligibility (demoted columns) falls back to the
    // per-row WHERE below with identical semantics.
    const size_t hi = std::max(start, columns->UpperBound(effective));
    bool have_mask = false;
    if (where_.has_value() && where_batch_ok_ && hi > start) {
      have_mask = internal::EvalBatchProgram(where_batch_, *columns, start,
                                             hi, batch_stack_, batch_mask_);
    }
    for (size_t i = start; i < hi; ++i) {
      if (have_mask && batch_mask_[i - start] != stream::simd::kTrue) {
        ++next_seq_;  // Filtered out; consumed with no member.
        continue;
      }
      columns->MaterializeRow(i, column_row_);
      if (!InsertRow(column_row_, columns->timestamp(i), have_mask)) {
        return false;
      }
      ++next_seq_;
    }
  } else {
    for (size_t i = start;
         i < tuples.size() && tuples[i].timestamp() <= effective; ++i) {
      if (!Insert(tuples[i])) return false;
      ++next_seq_;
    }
  }
  if (window_.kind == WindowKind::kRange) {
    return EvictMembers(effective - window_.range);
  }
  return true;
}

bool IncrementalGroupedQuery::Insert(const Tuple& tuple) {
  return InsertRow(tuple.values(), tuple.timestamp(), /*skip_where=*/false);
}

bool IncrementalGroupedQuery::InsertRow(const Row& row, Timestamp ts,
                                        bool skip_where) {
  if (row.size() != from_.total_columns) return false;

  EvalContext ec;
  ec.now = ts;
  ec.from = &from_;
  ec.row = &row;

  if (!skip_where && where_.has_value()) {
    StatusOr<Value> verdict = internal::EvalBound(*where_, ec);
    if (!verdict.ok()) return false;
    StatusOr<bool> keep = internal::ToDecision(*verdict, "WHERE");
    if (!keep.ok()) return false;
    if (!*keep) return true;  // Filtered out; consumed with no member.
  }

  stream::TupleArena& arena = stream::TupleArena::Local();
  std::vector<Value> key = arena.Acquire(key_slots_.size());
  for (size_t slot : key_slots_) key.push_back(row[slot]);

  auto [it, inserted] = groups_.try_emplace(key);
  Group& group = it->second;
  if (inserted) {
    group.key = std::move(key);
    group.aggs.resize(specs_.size());
  } else {
    // SQL-equal but non-identical keys (1 vs 1.0) would change the legacy
    // representative as members evict; refuse to guess.
    for (size_t k = 0; k < key.size(); ++k) {
      if (!IdenticalForEmit(group.key[k], key[k])) return false;
    }
    arena.Release(std::move(key));
  }

  Member member;
  member.seq = next_seq_;
  member.ts = ts;
  member.inputs = arena.Acquire(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    AggState& state = group.aggs[s];
    Value input = Value::Int64(1);  // '*' marker.
    if (spec.has_arg) {
      StatusOr<Value> evaluated = internal::EvalBound(spec.arg, ec);
      if (!evaluated.ok()) return false;
      input = std::move(*evaluated);
    }
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        if (!input.is_null()) ++state.nonnull;
        break;
      case AggSpec::Kind::kSum:
      case AggSpec::Kind::kAvg: {
        if (input.is_null()) break;
        // Only integer inputs under the exactness bound reproduce the legacy
        // double fold bit-for-bit; anything else goes back to rescans.
        if (input.type() != DataType::kInt64) return false;
        const int64_t v = input.int64_value();
        if (v == INT64_MIN) return false;
        const int64_t magnitude = v < 0 ? -v : v;
        if (magnitude > kMaxExactAbs - state.iabs) return false;
        state.isum += v;
        state.iabs += magnitude;
        ++state.nonnull;
        break;
      }
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax: {
        if (input.is_null()) break;
        ++state.nonnull;
        const bool is_min = spec.kind == AggSpec::Kind::kMin;
        while (!state.mono.empty()) {
          StatusOr<int> cmp = state.mono.back().second.Compare(input);
          if (!cmp.ok()) return false;
          // Pop strictly-worse tail entries; equals stay, keeping the
          // earliest occurrence at the front (the legacy winner).
          if ((is_min && *cmp > 0) || (!is_min && *cmp < 0)) {
            state.mono.pop_back();
          } else {
            break;
          }
        }
        state.mono.emplace_back(next_seq_, input);
        break;
      }
    }
    member.inputs.push_back(std::move(input));
  }

  group.members.push_back(std::move(member));
  arrival_.push_back(&group);
  return true;
}

bool IncrementalGroupedQuery::EvictMembers(Timestamp horizon) {
  while (!arrival_.empty()) {
    Group* group = arrival_.front();
    // Per-group member order matches global arrival order (FIFO windows), so
    // the front group's front member is the globally oldest.
    Member& member = group->members.front();
    if (member.ts > horizon) break;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const AggSpec& spec = specs_[s];
      AggState& state = group->aggs[s];
      const Value& input = member.inputs[s];
      switch (spec.kind) {
        case AggSpec::Kind::kCount:
          if (!input.is_null()) --state.nonnull;
          break;
        case AggSpec::Kind::kSum:
        case AggSpec::Kind::kAvg: {
          if (input.is_null()) break;
          const int64_t v = input.int64_value();
          state.isum -= v;
          state.iabs -= v < 0 ? -v : v;
          --state.nonnull;
          break;
        }
        case AggSpec::Kind::kMin:
        case AggSpec::Kind::kMax:
          if (input.is_null()) break;
          --state.nonnull;
          if (!state.mono.empty() && state.mono.front().first == member.seq) {
            state.mono.pop_front();
          }
          break;
      }
    }
    stream::TupleArena::Local().Release(std::move(member.inputs));
    group->members.pop_front();
    arrival_.pop_front();
    if (group->members.empty()) {
      groups_.erase(group->key);  // No arrival entries can still point here.
    }
  }
  return true;
}

bool IncrementalGroupedQuery::Emit(Timestamp now, Relation* out) {
  stream::TupleArena& arena = stream::TupleArena::Local();

  // Legacy group order is first appearance in the window scan, i.e. oldest
  // live member first.
  std::vector<const Group*>& order = emit_order_;
  order.clear();
  order.reserve(groups_.size());
  for (const auto& [key, group] : groups_) order.push_back(&group);
  std::sort(order.begin(), order.end(), [](const Group* a, const Group* b) {
    return a->members.front().seq < b->members.front().seq;
  });

  Relation output(output_schema_);
  output.mutable_tuples() = arena.AcquireTuples();
  Row& repr = emit_repr_;
  repr.assign(from_.total_columns, Value::Null());
  std::vector<Value>& agg_values = emit_aggs_;
  agg_values.assign(specs_.size(), Value::Null());
  for (const Group* group : order) {
    for (size_t s = 0; s < specs_.size(); ++s) {
      const AggSpec& spec = specs_[s];
      const AggState& state = group->aggs[s];
      switch (spec.kind) {
        case AggSpec::Kind::kCount:
          agg_values[s] = Value::Int64(state.nonnull);
          break;
        case AggSpec::Kind::kSum:
          agg_values[s] = state.nonnull == 0 ? Value::Null()
                                             : Value::Int64(state.isum);
          break;
        case AggSpec::Kind::kAvg:
          agg_values[s] =
              state.nonnull == 0
                  ? Value::Null()
                  : Value::Double(static_cast<double>(state.isum) /
                                  static_cast<double>(state.nonnull));
          break;
        case AggSpec::Kind::kMin:
        case AggSpec::Kind::kMax:
          agg_values[s] = state.mono.empty() ? Value::Null()
                                             : state.mono.front().second;
          break;
      }
    }
    for (size_t k = 0; k < key_slots_.size(); ++k) {
      repr[key_slots_[k]] = group->key[k];
    }

    EvalContext ec;
    ec.now = now;
    ec.from = &from_;
    ec.row = &repr;
    ec.agg_values = &agg_values;

    if (having_.has_value()) {
      StatusOr<Value> verdict = internal::EvalBound(*having_, ec);
      if (!verdict.ok()) return false;
      StatusOr<bool> keep = internal::ToDecision(*verdict, "HAVING");
      if (!keep.ok()) return false;
      if (!*keep) continue;
    }
    std::vector<Value> values = arena.Acquire(output_schema_->num_fields());
    for (const BoundExpr& item : items_) {
      StatusOr<Value> value = internal::EvalBound(item, ec);
      if (!value.ok()) return false;
      values.push_back(std::move(*value));
    }
    output.Add(Tuple(output_schema_, std::move(values), now));
  }

  StatusOr<Relation> finalized =
      internal::FinalizeOutput(*query_, std::move(output));
  if (!finalized.ok()) return false;
  *out = std::move(*finalized);
  return true;
}

}  // namespace esp::cql
