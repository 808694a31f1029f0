#ifndef ESP_CQL_EVALUATOR_H_
#define ESP_CQL_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "cql/analyzer.h"
#include "cql/ast.h"
#include "stream/tuple.h"
#include "stream/window.h"

namespace esp::cql {

class QueryExecCache;  // expr_eval.h; opaque to API consumers.

/// \brief Maps stream names to their retained, time-ordered histories.
///
/// The evaluator applies each reference's window clause to the history at
/// evaluation time, which gives CQL's snapshot semantics: a query's result
/// at time t is an ordinary relational evaluation over the windows' contents
/// at t. The caller (ContinuousQuery / EspProcessor) is responsible for
/// keeping enough history to cover the largest window and evicting the rest.
///
/// A stream may be registered by value (the catalog owns a copy) or as a
/// borrowed view of a history the caller keeps alive for the duration of the
/// evaluation — the zero-copy path standing queries use every tick.
class Catalog {
 public:
  /// Registers or replaces a stream's history. Tuples must be time-ordered.
  void AddStream(const std::string& name, stream::Relation history);

  /// Registers or replaces a stream as a borrowed view. `history` must
  /// outlive every evaluation against this catalog and be time-ordered.
  void AddStreamView(const std::string& name, const stream::Relation* history);

  /// As above, additionally attaching a columnar mirror of the same history
  /// (stream/column.h). `columns` must stay row-for-row in sync with
  /// `history` and outlive every evaluation; the evaluator uses it for the
  /// columnar fast path and falls back to rows whenever it is absent.
  void AddStreamView(const std::string& name, const stream::Relation* history,
                     const stream::ColumnarWindow* columns);

  StatusOr<const stream::Relation*> Find(const std::string& name) const;

  /// The columnar mirror registered for `name`, or nullptr.
  const stream::ColumnarWindow* FindColumns(const std::string& name) const;

  /// Derives the analysis-time view (names -> schemas).
  SchemaCatalog ToSchemaCatalog() const;

 private:
  struct Entry {
    std::string name;
    stream::Relation owned;
    const stream::Relation* view = nullptr;  // Set for AddStreamView entries.
    const stream::ColumnarWindow* columns = nullptr;  // Optional mirror.

    const stream::Relation* get() const {
      return view != nullptr ? view : &owned;
    }
  };
  std::vector<Entry> streams_;
};

/// \brief Materializes the window contents of `history` at time `now`.
/// History must be in non-decreasing timestamp order (required for kRows).
stream::Relation ApplyWindow(const stream::Relation& history,
                             const stream::WindowSpec& spec, Timestamp now);

/// \brief Evaluates `query` against `catalog` at time `now` and returns the
/// result relation. Every output tuple is stamped with `now`.
///
/// Supports the full dialect of parser.h including grouped aggregation,
/// HAVING with correlated ALL/ANY subqueries (paper Query 3), derived
/// tables, cross joins, scalar subqueries, CASE, and DISTINCT / ORDER BY /
/// LIMIT. Three-valued logic: comparisons against NULL yield NULL, and a
/// NULL predicate is treated as false where a decision is forced.
StatusOr<stream::Relation> ExecuteQuery(const SelectQuery& query,
                                        const Catalog& catalog, Timestamp now);

/// \brief As above, with a per-standing-query prepared-plan cache. The cache
/// (see expr_eval.h) memoizes schema inference and expression compilation
/// across ticks, keyed by AST node; it must not outlive the query's AST and
/// must always be used with catalogs presenting the same stream layouts.
/// Pass nullptr for one-shot behavior.
StatusOr<stream::Relation> ExecuteQuery(const SelectQuery& query,
                                        const Catalog& catalog, Timestamp now,
                                        QueryExecCache* cache);

}  // namespace esp::cql

#endif  // ESP_CQL_EVALUATOR_H_
