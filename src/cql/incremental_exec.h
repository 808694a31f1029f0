#ifndef ESP_CQL_INCREMENTAL_EXEC_H_
#define ESP_CQL_INCREMENTAL_EXEC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "cql/ast.h"
#include "cql/expr_eval.h"
#include "stream/ops.h"
#include "stream/tuple.h"

namespace esp::cql {

/// \brief Incremental evaluator for sliding-window grouped aggregates — the
/// hot continuous-query shape (the paper's per-key presence counts).
///
/// Instead of rescanning every window row each tick, the engine maintains
/// per-group partial aggregates updated by window insert/evict deltas:
/// count/sum/avg as running (integer-exact) totals, min/max as monotone
/// deques. A query is admitted only when the plan can PROVE the incremental
/// result is bitwise identical to the legacy rescan:
///
///   - single ordered stream, RANGE (optionally sliding) or UNBOUNDED window;
///   - non-empty GROUP BY over plain columns;
///   - aggregates in {count, sum, avg, min, max}, non-DISTINCT, with pure
///     compiled arguments (no scalar functions or subqueries);
///   - sum/avg inputs must stay int64 with |running sum of magnitudes| <=
///     2^52, which makes the legacy double fold exact and order-independent;
///   - non-aggregated column reads limited to the group key, and every
///     member's key must be *identical* (not merely SQL-equal: 1 vs 1.0 or
///     two bit-patterns of a double would change the legacy representative).
///
/// Anything else — at plan time or at runtime (type drift, overflow,
/// evaluation errors) — permanently disables the engine; the caller falls
/// back to the legacy rescan, which reproduces genuine errors identically.
/// Engine state is a pure function of the live window rows, so it can be
/// rebuilt from a restored history after checkpoint recovery (checkpoint
/// formats are unchanged).
class IncrementalGroupedQuery {
 public:
  /// Attempts to plan `query` for incremental evaluation against its single
  /// input stream. Returns nullptr when any admission rule fails.
  static std::unique_ptr<IncrementalGroupedQuery> TryPlan(
      const SelectQuery& query, const std::string& stream_name,
      stream::SchemaRef input_schema, stream::SchemaRef output_schema);

  /// Advances the window to `now` over `history` (the stream's retained,
  /// time-ordered buffer; `base_seq` is the all-time index of history[0])
  /// and returns the query result at `now`. Returns nullopt once the engine
  /// cannot guarantee equivalence — the caller must discard the engine and
  /// evaluate the legacy path from then on.
  std::optional<stream::Relation> Evaluate(const stream::Relation& history,
                                           uint64_t base_seq, Timestamp now);

  /// As above, additionally consuming new rows from `columns` (a row-synced
  /// columnar mirror of `history`, see stream/column.h) when non-null: the
  /// WHERE clause is batch-evaluated over the typed columns where possible,
  /// and rows it rejects are skipped without ever being materialized.
  std::optional<stream::Relation> Evaluate(
      const stream::Relation& history, const stream::ColumnarWindow* columns,
      uint64_t base_seq, Timestamp now);

  /// Drops all window state (after checkpoint restore). The next Evaluate
  /// call rebuilds it by consuming the restored history from base_seq 0.
  void Reset();

  bool broken() const { return broken_; }

  /// True when passing a columnar mirror to Evaluate can actually pay for
  /// itself: the WHERE clause batch-compiled, so rejected rows are skipped
  /// without materialization. Callers use this to skip mirror maintenance
  /// entirely for queries the engine consumes row-at-a-time anyway.
  bool WantsColumns() const { return where_.has_value() && where_batch_ok_; }

 private:
  struct AggSpec {
    enum class Kind { kCount, kSum, kAvg, kMin, kMax };
    Kind kind = Kind::kCount;
    bool has_arg = false;  // false: '*' argument — a constant Int64(1).
    internal::BoundExpr arg;
  };

  /// Per-group running state for one aggregate.
  struct AggState {
    int64_t nonnull = 0;  // Rows contributing a non-null input.
    int64_t isum = 0;     // Exact integer sum (kSum/kAvg).
    int64_t iabs = 0;     // Running sum of |input| — exactness guard.
    /// Monotone deque of (seq, value): front is the current min/max,
    /// earliest-of-equals first (matching the legacy first-of-equals scan).
    std::deque<std::pair<uint64_t, stream::Value>> mono;
  };

  struct Member {
    uint64_t seq = 0;
    Timestamp ts;
    std::vector<stream::Value> inputs;  // One evaluated input per AggSpec.
  };

  struct Group {
    std::vector<stream::Value> key;
    std::deque<Member> members;
    std::vector<AggState> aggs;
  };

  IncrementalGroupedQuery() = default;

  bool Advance(const stream::Relation& history,
               const stream::ColumnarWindow* columns, uint64_t base_seq,
               Timestamp now);
  bool Insert(const stream::Tuple& tuple);
  /// The row-shaped core of Insert. `skip_where` marks rows a batch WHERE
  /// pass already admitted.
  bool InsertRow(const internal::Row& row, Timestamp ts, bool skip_where);
  bool EvictMembers(Timestamp horizon);  // Members with ts <= horizon die.
  bool Emit(Timestamp now, stream::Relation* out);

  // --- Immutable plan.
  const SelectQuery* query_ = nullptr;
  stream::SchemaRef output_schema_;
  internal::FromContext from_;
  stream::WindowSpec window_;
  std::optional<internal::BoundExpr> where_;
  std::vector<size_t> key_slots_;
  std::vector<internal::BoundExpr> items_;  // Aggregates lowered to kAggSlot.
  std::optional<internal::BoundExpr> having_;
  std::vector<AggSpec> specs_;
  /// Batch-compiled WHERE (columnar_exec.h), when the predicate admits it.
  std::vector<internal::ColumnarPlan::BatchOp> where_batch_;
  bool where_batch_ok_ = false;

  // --- Window state (a pure function of the live rows).
  std::unordered_map<std::vector<stream::Value>, Group,
                     stream::ValueVectorHash, stream::ValueVectorEq>
      groups_;
  /// One entry per live member in arrival (seq) order; the front group's
  /// front member is the globally oldest (windows are FIFO).
  std::deque<Group*> arrival_;
  uint64_t next_seq_ = 0;
  bool broken_ = false;

  // --- Emit-time scratch, reused across ticks (buffers only; cleared or
  // overwritten before every use).
  std::vector<const Group*> emit_order_;
  internal::Row emit_repr_;
  std::vector<stream::Value> emit_aggs_;
  std::vector<std::vector<stream::simd::Trit>> batch_stack_;
  std::vector<stream::simd::Trit> batch_mask_;
  internal::Row column_row_;  // Reused per-row materialization buffer.
};

}  // namespace esp::cql

#endif  // ESP_CQL_INCREMENTAL_EXEC_H_
