#include "testing/differential.h"

#include <algorithm>
#include <sstream>

#include "api/zstream.h"
#include "net/client.h"
#include "net/server.h"
#include "nfa/nfa_engine.h"
#include "query/analyzer.h"
#include "runtime/stream_runtime.h"

namespace zstream::testing {

namespace {

std::vector<bool> NegatedMask(const Pattern& pattern) {
  std::vector<bool> mask(static_cast<size_t>(pattern.num_classes()), false);
  for (int nc : pattern.NegatedClasses()) mask[static_cast<size_t>(nc)] = true;
  return mask;
}

/// First keys present in one sorted multiset but not the other.
std::string FirstDiff(const std::vector<std::string>& expected,
                      const std::vector<std::string>& got) {
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), got.begin(),
                      got.end(), std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  std::ostringstream os;
  if (!missing.empty()) os << "missing[" << missing[0] << "]";
  if (!extra.empty()) {
    if (!missing.empty()) os << " ";
    os << "extra[" << extra[0] << "]";
  }
  return os.str();
}

std::vector<EventPtr> TimestampSorted(const std::vector<EventPtr>& events) {
  std::vector<EventPtr> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const EventPtr& a, const EventPtr& b) {
                     return a->timestamp() < b->timestamp();
                   });
  return sorted;
}

/// The most eager adaptation: statistics checked after every 4-event
/// round, and any drift or improvement re-plans and switches, so the
/// Section 5.3 switch path runs as often as the trace allows.
EngineOptions EagerAdaptiveOptions() {
  EngineOptions options;
  options.batch_size = 4;
  options.adaptive = true;
  options.adaptive_options.drift_threshold = 0;
  options.adaptive_options.improvement_threshold = 0;
  options.adaptive_options.check_every_rounds = 1;
  return options;
}

}  // namespace

std::string EngineMatchKey(const Pattern& pattern, const Match& match) {
  const std::vector<bool> mask = NegatedMask(pattern);
  const std::vector<EventPtr> slots(match.slots.begin(), match.slots.end());
  return MatchSignature(slots, mask, match.group);
}

std::string CreateStreamDdl(const std::string& name, const Schema& schema) {
  std::ostringstream os;
  os << "CREATE STREAM " << name << " (";
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) os << ", ";
    const Field& f = schema.field(i);
    os << f.name << " ";
    switch (f.type) {
      case ValueType::kInt64:
        os << "INT";
        break;
      case ValueType::kDouble:
        os << "DOUBLE";
        break;
      case ValueType::kString:
        os << "STRING";
        break;
      case ValueType::kBool:
        os << "BOOL";
        break;
      case ValueType::kNull:
        os << "STRING";
        break;
    }
  }
  os << ")";
  return os.str();
}

DifferentialDriver::DifferentialDriver(DifferentialOptions options)
    : options_(std::move(options)) {}

CaseReport DifferentialDriver::RunCase(const GeneratedPattern& gp,
                                       const GeneratedTrace& trace) const {
  CaseReport report;

  auto analyzed = AnalyzeQuery(gp.text, gp.schema);
  if (!analyzed.ok()) {
    report.ok = false;
    report.error = "analyze: " + analyzed.status().ToString();
    return report;
  }
  const PatternPtr pattern = *analyzed;
  const std::vector<bool> mask = NegatedMask(*pattern);

  auto oracle = Oracle::Create(pattern);
  if (!oracle.ok()) {
    report.ok = false;
    report.error = "oracle: " + oracle.status().ToString();
    return report;
  }
  const std::vector<std::string> expected = (*oracle)->Run(trace.events);
  report.oracle_matches = expected.size();

  const auto want = [&](const std::string& path) {
    return options_.only_path.empty() || options_.only_path == path;
  };
  const auto compare = [&](const std::string& path,
                           std::vector<std::string> keys) {
    ++report.paths_run;
    std::sort(keys.begin(), keys.end());
    if (keys != expected) {
      report.ok = false;
      report.divergences.push_back(Divergence{
          path, expected.size(), keys.size(), FirstDiff(expected, keys)});
    }
  };
  const auto fail = [&](const std::string& path, const Status& status) {
    report.ok = false;
    report.divergences.push_back(
        Divergence{path, expected.size(), 0, status.ToString()});
  };

  // -- tree engine under every applicable strategy --------------------
  struct TreeVariant {
    std::string name;
    CompileOptions options;
  };
  std::vector<TreeVariant> variants;
  {
    const CompileOptions base;
    TreeVariant opt{"tree:optimal", base};
    variants.push_back(opt);
    TreeVariant b1{"tree:optimal/batch1", base};
    b1.options.engine.batch_size = 1;
    variants.push_back(b1);
    TreeVariant nohash{"tree:optimal/nohash", base};
    nohash.options.engine.use_hash_indexes = false;
    variants.push_back(nohash);
    TreeVariant adaptive{"tree:optimal/adaptive", base};
    adaptive.options.engine = EagerAdaptiveOptions();
    variants.push_back(adaptive);
    TreeVariant nopart{"tree:optimal/nopartition", base};
    nopart.options.analyzer.detect_partition = false;
    variants.push_back(nopart);
    TreeVariant ld{"tree:left-deep", base};
    ld.options.strategy = PlanStrategy::kLeftDeep;
    variants.push_back(ld);
    TreeVariant rd{"tree:right-deep", base};
    rd.options.strategy = PlanStrategy::kRightDeep;
    variants.push_back(rd);
    if (!pattern->NegatedClasses().empty()) {
      TreeVariant nt{"tree:negation-top", base};
      nt.options.strategy = PlanStrategy::kNegationTop;
      variants.push_back(nt);
    }
  }
  // Engines take timestamp-ordered input; reordering lives only in the
  // runtime shards (the runtime and net paths below get the raw trace).
  const std::vector<EventPtr> sorted = TimestampSorted(trace.events);
  if (options_.tree) {
    for (const TreeVariant& v : variants) {
      if (!want(v.name)) continue;
      ZStream zs(gp.schema);
      auto query = zs.Compile("default", gp.text, v.options);
      if (!query.ok()) {
        // Inapplicable shapes (e.g. non-local negation predicates under
        // a fixed NSEQ shape) are skipped, not failures.
        if (query.status().code() == StatusCode::kNotSupported) continue;
        fail(v.name, query.status());
        continue;
      }
      std::vector<std::string> keys;
      (*query)->SetMatchCallback([&](Match&& m) {
        keys.push_back(EngineMatchKey(*pattern, m));
      });
      for (const EventPtr& e : sorted) (*query)->Push(e);
      (*query)->Finish();
      compare(v.name, std::move(keys));
    }
  }

  // -- NFA baseline (counts only) -------------------------------------
  if (options_.nfa && want("nfa")) {
    auto nfa = NfaEngine::Create(pattern);
    if (nfa.ok()) {
      for (const EventPtr& e : sorted) (*nfa)->Push(e);
      (*nfa)->Finish();
      ++report.paths_run;
      if ((*nfa)->num_matches() != expected.size()) {
        report.ok = false;
        report.divergences.push_back(
            Divergence{"nfa", expected.size(),
                       static_cast<size_t>((*nfa)->num_matches()),
                       "match count differs (NFA reports counts only)"});
      }
    } else if (nfa.status().code() != StatusCode::kNotSupported) {
      fail("nfa", nfa.status());
    }
  }

  // -- sharded runtime -------------------------------------------------
  if (options_.runtime) {
    struct RuntimeVariant {
      std::string name;
      int shards;
      bool batched;  // IngestBatch in ragged chunks instead of Ingest
      bool adaptive;  // EagerAdaptiveOptions on every shard engine
      size_t queue_capacity;  // events per shard queue
    };
    const size_t default_capacity = runtime::RuntimeOptions{}.queue_capacity;
    for (const RuntimeVariant& v :
         {RuntimeVariant{"runtime:1", 1, false, false, default_capacity},
          RuntimeVariant{"runtime:4", 4, false, false, default_capacity},
          RuntimeVariant{"runtime:4/adaptive", 4, false, true,
                         default_capacity},
          RuntimeVariant{"runtime:2/batches", 2, true, false,
                         default_capacity},
          // Every chunk longer than 3 events for a shard is split
          // across queue slots.
          RuntimeVariant{"runtime:2/tinyqueue", 2, true, false, 3}}) {
      const std::string& path = v.name;
      if (!want(path)) continue;
      runtime::RuntimeOptions ro;
      ro.num_shards = v.shards;
      ro.queue_capacity = v.queue_capacity;
      ro.reorder_slack = trace.max_disorder;
      auto rt = runtime::StreamRuntime::Create(ro);
      if (!rt.ok()) {
        fail(path, rt.status());
        continue;
      }
      auto sid = (*rt)->AddStream("s", gp.schema);
      if (!sid.ok()) {
        fail(path, sid.status());
        continue;
      }
      runtime::CollectingMatchSink sink;
      runtime::QueryOptions qo;
      qo.sink = &sink;
      CompileOptions compile;
      if (v.adaptive) compile.engine = EagerAdaptiveOptions();
      auto qid = (*rt)->RegisterQuery(*sid, gp.text, compile, qo);
      if (!qid.ok()) {
        // Engine-unsupported shapes are inapplicable, not divergences.
        if (qid.status().code() != StatusCode::kNotSupported) {
          fail(path, qid.status());
        }
        (*rt)->Stop();
        continue;
      }
      if (v.batched) {
        // Ragged chunks of 1..19 events (1, 4, 7, ... mod 19): shard
        // runs of many lengths, cut at arbitrary points of the disorder.
        const auto first = trace.events.begin();
        size_t i = 0;
        for (size_t k = 0; i < trace.events.size(); ++k) {
          const size_t n =
              std::min<size_t>(1 + (k * 3) % 19, trace.events.size() - i);
          (*rt)->IngestBatch(
              *sid, std::vector<EventPtr>(
                        first + static_cast<std::ptrdiff_t>(i),
                        first + static_cast<std::ptrdiff_t>(i + n)));
          i += n;
        }
      } else {
        for (const EventPtr& e : trace.events) (*rt)->Ingest(*sid, e);
      }
      Status flushed = (*rt)->Flush();
      if (!flushed.ok()) {
        fail(path, flushed);
        continue;
      }
      std::vector<std::string> keys;
      for (const runtime::OwnedRuntimeMatch& m : sink.Take()) {
        keys.push_back(EngineMatchKey(*pattern, m.match));
      }
      (*rt)->Stop();
      compare(path, std::move(keys));
    }
  }

  // -- loopback net server ---------------------------------------------
  if (options_.net && want("net")) {
    const std::string path = "net";
    ZStream zs;
    auto ddl = zs.Execute(CreateStreamDdl("s", *gp.schema));
    if (!ddl.ok()) {
      fail(path, ddl.status());
      return report;
    }
    auto create_query = zs.Execute("CREATE QUERY q ON s AS " + gp.text);
    if (!create_query.ok()) {
      if (create_query.status().code() != StatusCode::kNotSupported) {
        fail(path, create_query.status());
      }
      return report;
    }
    runtime::RuntimeOptions ro;
    ro.num_shards = 2;
    ro.reorder_slack = trace.max_disorder;
    auto server = net::Server::Create(&zs, ro);
    if (!server.ok()) {
      fail(path, server.status());
      return report;
    }
    Status started = (*server)->Start();
    if (!started.ok()) {
      fail(path, started);
      return report;
    }
    auto client = net::Client::Connect("127.0.0.1", (*server)->port());
    if (!client.ok()) {
      fail(path, client.status());
      (*server)->Stop();
      return report;
    }
    auto subscribed = (*client)->Subscribe("q");
    Status step = subscribed.ok() ? Status::OK() : subscribed.status();
    if (step.ok()) {
      auto ack = (*client)->Ingest("s", trace.events);
      if (!ack.ok()) step = ack.status();
    }
    if (step.ok()) {
      auto flush = (*client)->Flush();
      if (!flush.ok()) step = flush.status();
    }
    if (!step.ok()) {
      fail(path, step);
      (*client)->Close();
      (*server)->Stop();
      return report;
    }
    std::vector<std::string> keys;
    for (const net::NetMatch& m : (*client)->TakeMatches()) {
      keys.push_back(EngineMatchKey(*pattern, m.match));
    }
    (*client)->Close();
    (*server)->Stop();
    compare(path, std::move(keys));
  }

  return report;
}

std::vector<EventPtr> DifferentialDriver::MinimizeTrace(
    const GeneratedPattern& pattern, std::vector<EventPtr> events) const {
  const auto still_fails = [&](const std::vector<EventPtr>& candidate) {
    GeneratedTrace t;
    t.events = candidate;
    Timestamp max_seen = kMinTimestamp;
    for (const EventPtr& e : candidate) {
      if (max_seen != kMinTimestamp && e->timestamp() < max_seen) {
        t.max_disorder =
            std::max(t.max_disorder, max_seen - e->timestamp());
      }
      max_seen = std::max(max_seen, e->timestamp());
    }
    return !RunCase(pattern, t).ok;
  };
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t i = 0; i < events.size(); ++i) {
      std::vector<EventPtr> candidate = events;
      candidate.erase(candidate.begin() + static_cast<long>(i));
      if (still_fails(candidate)) {
        events = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return events;
}

}  // namespace zstream::testing
