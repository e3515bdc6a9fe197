// Public entry point: compile query text into an executable operator.
//
//   Catalog catalog = Catalog::Default();
//   STREAMOP_ASSIGN_OR_RETURN(CompiledQuery q,
//                             CompileQuery(sql, catalog, {.seed = 7}));
//   SamplingOperator op(q.sampling);
//   ... op.Process(tuple) ... op.FinishStream() ... op.DrainOutput();

#ifndef STREAMOP_QUERY_QUERY_H_
#define STREAMOP_QUERY_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "query/analyzer.h"

namespace streamop {

/// Parses and analyzes `text` against `catalog`.
Result<CompiledQuery> CompileQuery(const std::string& text,
                                   const Catalog& catalog,
                                   const AnalyzerOptions& options = {});

/// The stream name of stage `i`'s output in a chain: "S<i>". CompileChain
/// registers stage i's output under it, and a TwoLevelRuntime high node
/// whose input stream carries it reads high node i's output.
std::string StageStreamName(size_t i);

/// The stage whose output `stream` names (StageStreamName's inverse), or
/// nullopt for any other stream.
std::optional<size_t> StageOfStream(const std::string& stream);

/// Compiles a chain of queries — "cascading one type of stream sampling
/// inside a different type of stream sampling", the ongoing work §8
/// announces. `sqls[0]` reads a stream of `catalog`; `sqls[i]` may also
/// read the output of any earlier stage j, registered as
/// StageStreamName(j) with its window-defining ordering. Stage i compiles
/// with seed options.seed + i * 0x9e37, so the stages draw distinct random
/// streams. Fails on an empty chain and on a stream that neither `catalog`
/// nor an earlier stage provides. Run the stages as the high nodes of one
/// TwoLevelRuntime (engine/runtime.h).
Result<std::vector<CompiledQuery>> CompileChain(
    const std::vector<std::string>& sqls, const Catalog& catalog,
    const AnalyzerOptions& options = {});

}  // namespace streamop

#endif  // STREAMOP_QUERY_QUERY_H_
