#include "query/query.h"

#include <charconv>
#include <memory>

#include "query/parser.h"

namespace streamop {

Result<CompiledQuery> CompileQuery(const std::string& text,
                                   const Catalog& catalog,
                                   const AnalyzerOptions& options) {
  STREAMOP_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
  return AnalyzeQuery(parsed, catalog, options);
}

std::string StageStreamName(size_t i) {
  std::string name = "S";
  name += std::to_string(i);
  return name;
}

std::optional<size_t> StageOfStream(const std::string& stream) {
  if (stream.size() < 2 || stream[0] != 'S') return std::nullopt;
  const char* end = stream.data() + stream.size();
  size_t i = 0;
  const auto [last, ec] = std::from_chars(stream.data() + 1, end, i);
  // The round trip rejects the spellings StageStreamName never produces.
  if (ec != std::errc() || last != end || StageStreamName(i) != stream) {
    return std::nullopt;
  }
  return i;
}

Result<std::vector<CompiledQuery>> CompileChain(
    const std::vector<std::string>& sqls, const Catalog& catalog,
    const AnalyzerOptions& options) {
  if (sqls.empty()) {
    return Status::InvalidArgument("a chain needs at least one stage");
  }
  Catalog chain_catalog = catalog;
  std::vector<CompiledQuery> stages;
  for (size_t i = 0; i < sqls.size(); ++i) {
    AnalyzerOptions stage_options = options;
    stage_options.seed = options.seed + i * 0x9e37;  // distinct RNG streams
    STREAMOP_ASSIGN_OR_RETURN(
        CompiledQuery cq, CompileQuery(sqls[i], chain_catalog, stage_options));
    // The output schema carries the window-defining ordering, so a later
    // stage windows on it.
    STREAMOP_RETURN_NOT_OK(chain_catalog.RegisterStream(
        std::make_shared<Schema>(StageStreamName(i),
                                 cq.output_schema()->fields())));
    stages.push_back(std::move(cq));
  }
  return stages;
}

}  // namespace streamop
