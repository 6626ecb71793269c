#include "api/zstream.h"

#include <sstream>

#include "obs/trace.h"
#include "opt/cost_model.h"
#include "query/error_codes.h"
#include "query/parser.h"
#include "verify/plan_verifier.h"
#include "verify/typecheck.h"

namespace zstream {

Result<PhysicalPlan> BuildPlan(const PatternPtr& pattern,
                               const CompileOptions& options) {
  // Every compiled query flows through here, so this is where static
  // verification gates the pipeline: expressions first (ZS-T), then the
  // produced plan (ZS-V) — whichever strategy built it.
  ZS_RETURN_IF_ERROR(verify::TypecheckPattern(*pattern));
  const StatsCatalog defaults(pattern->num_classes(),
                              static_cast<double>(pattern->window));
  const StatsCatalog& stats =
      options.stats.has_value() ? *options.stats : defaults;
  PhysicalPlan plan;
  switch (options.strategy) {
    case PlanStrategy::kLeftDeep:
      plan = LeftDeepPlan(*pattern);
      break;
    case PlanStrategy::kRightDeep:
      plan = RightDeepPlan(*pattern);
      break;
    case PlanStrategy::kShape: {
      ZS_ASSIGN_OR_RETURN(plan, PlanFromShape(*pattern, options.shape));
      break;
    }
    case PlanStrategy::kNegationTop:
      plan = NegationTopPlan(*pattern);
      break;
    case PlanStrategy::kOptimal: {
      Planner planner(pattern, &stats, options.planner);
      // The planner verifies its own output; no second pass here.
      return planner.OptimalPlan();
    }
  }
  if (plan.root == nullptr) {
    return Status::Internal("unknown plan strategy");
  }
  ZS_RETURN_IF_ERROR(verify::VerifyPlan(*pattern, plan));
  // Fixed shapes: cost them under the same statistics the optimizer
  // would use, so Explain() always reports a comparable number.
  const CostModel model(pattern.get(), &stats,
                        options.planner.cost_params);
  plan.estimated_cost = model.PlanCost(plan);
  return plan;
}

Result<std::shared_ptr<const CompiledQuery>> Prepare(
    const std::string& stream, SchemaPtr schema, const ParsedQuery& parsed,
    const CompileOptions& options) {
  auto compiled = std::shared_ptr<CompiledQuery>(new CompiledQuery());
  ZS_ASSIGN_OR_RETURN(compiled->pattern,
                      Analyze(parsed, schema, options.analyzer));
  ZS_ASSIGN_OR_RETURN(compiled->plan, BuildPlan(compiled->pattern, options));
  ZS_RETURN_IF_ERROR(
      ProbeEngine(compiled->pattern, compiled->plan, options.engine));
  compiled->stream = stream;
  compiled->schema = std::move(schema);
  compiled->stats_provided = options.stats.has_value();
  compiled->engine = options.engine;
  return std::shared_ptr<const CompiledQuery>(std::move(compiled));
}

// ---------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------

EngineCore& Query::core() const {
  if (engine_ == nullptr) {
    engine_ = MakeEngine(compiled_->pattern, compiled_->plan,
                         compiled_->engine);
  }
  return *engine_;
}

void Query::Push(const EventPtr& event) { core().Push(event); }

void Query::Finish() { core().Finish(); }

void Query::SetMatchCallback(MatchCallback cb) {
  core().SetMatchCallback(std::move(cb));
}

uint64_t Query::num_matches() const { return core().num_matches(); }

std::string Query::Explain() const {
  std::ostringstream os;
  os << "stream=" << stream() << " plan=" << plan().Explain(pattern())
     << " cost=";
  os.precision(6);
  os << plan().estimated_cost << " stats="
     << (compiled_->stats_provided ? "provided" : "uniform-defaults");
  if (partitioned()) {
    os << " [hash-partitioned on " << pattern().partition->field_name
       << "]";
  }
  return os.str();
}

std::string Query::CurrentPlan() const {
  const PlanProfiles live = core().Profile();
  return live.empty() ? plan().Explain(pattern()) : live.front().plan;
}

std::string Query::ExplainAnalyze() const { return core().ExplainAnalyze(); }

uint64_t Query::plan_switches() const { return core().plan_switches(); }

MemoryTracker& Query::memory() { return core().memory(); }

// ---------------------------------------------------------------------
// ZStream
// ---------------------------------------------------------------------

ZStream::ZStream(SchemaPtr input_schema) {
  // A constructor-supplied schema is trusted the way the old
  // single-schema facade trusted it; Catalog rejects only null/empty.
  const Status st = catalog_.CreateStream("default", std::move(input_schema));
  (void)st;
}

Result<PatternPtr> ZStream::Analyze(const std::string& text,
                                    const AnalyzerOptions& options) const {
  return Analyze("default", text, options);
}

Result<PatternPtr> ZStream::Analyze(const std::string& stream_name,
                                    const std::string& text,
                                    const AnalyzerOptions& options) const {
  ZS_ASSIGN_OR_RETURN(SchemaPtr schema, catalog_.stream(stream_name));
  return AnalyzeQuery(text, schema, options);
}

Result<std::unique_ptr<Query>> ZStream::CompileParsed(
    const std::string& name, const std::string& stream_name,
    const ParsedQuery& parsed, const CompileOptions& options) const {
  ZS_ASSIGN_OR_RETURN(SchemaPtr schema, catalog_.stream(stream_name));
  ZS_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledQuery> compiled,
      Prepare(stream_name, std::move(schema), parsed, options));
  return std::unique_ptr<Query>(new Query(name, std::move(compiled)));
}

Result<std::unique_ptr<Query>> ZStream::Compile(
    const std::string& stream_name, const std::string& text,
    const CompileOptions& options) const {
  ZS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
  return CompileParsed("", stream_name, parsed, options);
}

Result<std::unique_ptr<Query>> ZStream::Compile(
    const std::string& text, const CompileOptions& options) const {
  return Compile("default", text, options);
}

Result<std::unique_ptr<Query>> ZStream::Compile(
    const PatternBuilder& builder, const CompileOptions& options) const {
  ZS_ASSIGN_OR_RETURN(ParsedQuery parsed, builder.Build());
  return CompileParsed("", builder.stream(), parsed, options);
}

Result<Query*> ZStream::query(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("no query named '" + name + "'")
        .WithErrorCode(errc::kCatalogUnknownQuery);
  }
  return it->second.get();
}

Result<DdlResult> ZStream::Execute(const std::string& statement,
                                   const CompileOptions& options) {
  ZS_ASSIGN_OR_RETURN(DdlStatement stmt, ParseDdl(statement));
  return Execute(stmt, options);
}

Result<DdlResult> ZStream::Execute(const DdlStatement& stmt,
                                   const CompileOptions& options) {
  DdlResult result;
  result.kind = stmt.kind;
  switch (stmt.kind) {
    case DdlKind::kCreateStream: {
      ZS_RETURN_IF_ERROR(
          catalog_.CreateStream(stmt.name, Schema::Make(stmt.fields)));
      result.name = stmt.name;
      result.message = "stream '" + stmt.name + "' created";
      return result;
    }
    case DdlKind::kCreateQuery:
    case DdlKind::kSelect: {
      std::string name = stmt.name;
      std::string stream = stmt.stream;
      if (stmt.kind == DdlKind::kSelect) {
        stream = "default";
        do {
          name = "q" + std::to_string(next_anon_query_++);
        } while (catalog_.HasQuery(name));
      } else if (catalog_.HasQuery(name)) {
        return Status::InvalidArgument("query '" + name +
                                       "' already exists")
            .WithErrorCode(errc::kCatalogDuplicateQuery);
      }
      // Metric labels, slow-event logs and provenance identify the query
      // by its catalog name (unless the caller already chose a label),
      // wherever its engines run.
      CompileOptions labeled = options;
      if (labeled.engine.label.empty()) labeled.engine.label = name;
      ZS_ASSIGN_OR_RETURN(std::unique_ptr<Query> compiled,
                          CompileParsed(name, stream, *stmt.query, labeled));
      ZS_RETURN_IF_ERROR(catalog_.AddQuery(QueryInfo{
          name, stream, stmt.query_text, compiled->compiled_}));
      result.name = name;
      result.query = compiled.get();
      queries_[name] = std::move(compiled);
      result.message = "query '" + name + "' registered on stream '" +
                       stream + "'";
      return result;
    }
    case DdlKind::kDropQuery: {
      ZS_RETURN_IF_ERROR(catalog_.DropQuery(stmt.name));
      queries_.erase(stmt.name);
      result.name = stmt.name;
      result.message = "query '" + stmt.name + "' dropped";
      return result;
    }
    case DdlKind::kDropStream: {
      ZS_RETURN_IF_ERROR(catalog_.DropStream(stmt.name));
      result.name = stmt.name;
      result.message = "stream '" + stmt.name + "' dropped";
      return result;
    }
    case DdlKind::kExplainTrace:
    case DdlKind::kShowPlan:
    case DdlKind::kExplainAnalyze: {
      Result<Query*> found = query(stmt.name);
      if (!found.ok()) {
        return found.status().WithLocation(stmt.name_line, stmt.name_column);
      }
      result.name = stmt.name;
      result.query = *found;
      if (stmt.kind == DdlKind::kShowPlan) {
        result.message = (*found)->Explain();
      } else if (stmt.kind == DdlKind::kExplainAnalyze) {
        result.message = (*found)->ExplainAnalyze();
      } else {
        // Provenance is keyed by the engine label, which defaults to the
        // catalog name (kCreateQuery above); the tracer is
        // process-global, so this sees served-runtime matches too.
        result.message = obs::Tracer::Global().RenderProvenance(stmt.name);
      }
      return result;
    }
    case DdlKind::kShowStreams: {
      result.stream_names = catalog_.StreamNames();
      result.message = catalog_.DescribeStreams();
      return result;
    }
    case DdlKind::kShowQueries: {
      result.rows = catalog_.queries();
      result.message = catalog_.DescribeQueries();
      return result;
    }
  }
  return Status::Internal("unknown DDL statement kind");
}

}  // namespace zstream
