// Semantic analysis: resolves names, classifies function calls (scalar /
// aggregate / superaggregate / stateful), extracts aggregate and
// superaggregate specs, infers window-defining (ordered) group-by
// variables, and validates clause placement — producing an executable
// SamplingQueryPlan or SelectionPlan.

#ifndef STREAMOP_QUERY_ANALYZER_H_
#define STREAMOP_QUERY_ANALYZER_H_

#include <memory>

#include "common/status.h"
#include "core/sampling_operator.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "query/selection_operator.h"

namespace streamop {

struct AnalyzerOptions {
  uint64_t seed = 1;  // seeds per-supergroup SFUN RNG streams
};

enum class CompiledQueryKind {
  kSampling,   // grouped query -> SamplingOperator
  kSelection,  // ungrouped query -> SelectionOperator
};

struct CompiledQuery {
  CompiledQueryKind kind = CompiledQueryKind::kSelection;
  std::shared_ptr<SamplingQueryPlan> sampling;
  std::shared_ptr<SelectionPlan> selection;

  SchemaPtr input_schema() const {
    return kind == CompiledQueryKind::kSampling ? sampling->input_schema
                                                : selection->input_schema;
  }
  SchemaPtr output_schema() const {
    return kind == CompiledQueryKind::kSampling ? sampling->output_schema
                                                : selection->output_schema;
  }
};

/// Analyzes a parsed query against the catalog.
Result<CompiledQuery> AnalyzeQuery(const ParsedQuery& query,
                                   const Catalog& catalog,
                                   const AnalyzerOptions& options = {});

}  // namespace streamop

#endif  // STREAMOP_QUERY_ANALYZER_H_
