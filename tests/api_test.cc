// End-to-end API tests: compile the paper's queries, run streams,
// inspect plans.
#include <gtest/gtest.h>

#include "api/internal.h"
#include "exec/partitioned_engine.h"
#include "test_util.h"

namespace zstream {
namespace {

using testing::PlanVerifications;
using testing::Stock;

TEST(Api, CompileAndRunQuery1Style) {
  // Query 1: a stock rises x% above the following Google tick, then
  // falls y% below it, within the window.
  ZStream zs(StockSchema());
  auto query = zs.Compile(
      "PATTERN T1;T2;T3 "
      "WHERE T1.name = T3.name AND T2.name = 'Google' "
      "AND T1.price > (1 + 20%) * T2.price "
      "AND T3.price < (1 - 20%) * T2.price "
      "WITHIN 10 RETURN T1, T2, T3");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  std::vector<OwnedMatch> matches;
  (*query)->SetMatchCallback([&](Match&& m) { matches.emplace_back(m); });
  (*query)->Push(Stock("IBM", 130, 1));
  (*query)->Push(Stock("Google", 100, 2));
  (*query)->Push(Stock("IBM", 70, 3));
  (*query)->Push(Stock("Oracle", 75, 4));  // name mismatch with IBM
  (*query)->Finish();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].slots[0]->value(1), Value("IBM"));
  EXPECT_EQ(matches[0].slots[2]->timestamp(), 3);
}

TEST(Api, Query2StylePartitionsOnName) {
  ZStream zs(StockSchema());
  auto query = zs.Compile(
      "PATTERN T1;!T2;T3 "
      "WHERE T1.name = T2.name = T3.name "
      "AND T1.price > 50 AND T2.price < 50 "
      "AND T3.price > 50 * (1 + 20%) "
      "WITHIN 10 RETURN T1, T3");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE((*query)->partitioned());

  (*query)->Push(Stock("IBM", 60, 1));
  (*query)->Push(Stock("Sun", 40, 2));   // different partition
  (*query)->Push(Stock("IBM", 70, 3));   // match: 60 -> 70, no dip
  (*query)->Push(Stock("IBM", 40, 4));   // dip
  (*query)->Push(Stock("IBM", 80, 5));   // every pair ending here dips
  (*query)->Finish();
  // Only (60@1, 70@3) survives: the dip at t=4 negates both
  // (60@1, 80@5) and (70@3, 80@5).
  EXPECT_EQ((*query)->num_matches(), 1u);
}

TEST(Api, Query3StyleKleeneAggregate) {
  ZStream zs(StockSchema());
  auto query = zs.Compile(
      "PATTERN T1;T2^2;T3 "
      "WHERE T1.name = T3.name AND T2.name = 'Google' "
      "AND sum(T2.volume) > 150 "
      "AND T3.price > (1 + 20%) * T1.price "
      "WITHIN 10 RETURN T1, sum(T2.volume), T3");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::vector<std::vector<Value>> rows;
  (*query)->SetMatchCallback([&](Match&& m) {
    rows.push_back(ProjectMatch((*query)->pattern(), m));
  });
  (*query)->Push(Stock("IBM", 100, 1));
  (*query)->Push(Stock("Google", 1, 2, /*volume=*/100));
  (*query)->Push(Stock("Google", 1, 3, /*volume=*/80));
  (*query)->Push(Stock("IBM", 130, 4));
  (*query)->Finish();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 180.0);
}

TEST(Api, ExplainShowsStreamPlanCostAndStatsSource) {
  ZStream zs(StockSchema());
  CompileOptions left;
  left.strategy = PlanStrategy::kLeftDeep;
  auto query = zs.Compile("PATTERN A;B;C WITHIN 10", left);
  ASSERT_TRUE(query.ok());
  const std::string explain = (*query)->Explain();
  EXPECT_NE(explain.find("stream=default"), std::string::npos) << explain;
  EXPECT_NE(explain.find("plan=[[A ; B] ; C]"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("cost="), std::string::npos) << explain;
  EXPECT_NE(explain.find("stats=uniform-defaults"), std::string::npos)
      << explain;
  // Fixed shapes are costed too, with the same defaulted stats.
  EXPECT_GT((*query)->plan().estimated_cost, 0.0);
}

TEST(Api, ShapeStrategy) {
  ZStream zs(StockSchema());
  CompileOptions bushy;
  bushy.strategy = PlanStrategy::kShape;
  bushy.shape = "((0 1) (2 3))";
  auto query = zs.Compile("PATTERN A;B;C;D WITHIN 10", bushy);
  ASSERT_TRUE(query.ok());
  EXPECT_NE((*query)->Explain().find("plan=[[A ; B] ; [C ; D]]"),
            std::string::npos)
      << (*query)->Explain();
}

TEST(Api, OptimalStrategyUsesStats) {
  ZStream zs(StockSchema());
  CompileOptions options;
  StatsCatalog stats(3, 10.0);
  stats.set_rate(2, 0.001);
  options.stats = stats;
  auto query = zs.Compile("PATTERN A;B;C WITHIN 10", options);
  ASSERT_TRUE(query.ok());
  const std::string explain = (*query)->Explain();
  EXPECT_NE(explain.find("plan=[A ; [B ; C]]"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("stats=provided"), std::string::npos) << explain;
}

TEST(Api, CompileErrorsSurface) {
  ZStream zs(StockSchema());
  EXPECT_FALSE(zs.Compile("PATTERN WITHIN 10").ok());
  EXPECT_FALSE(zs.Compile("PATTERN A;!B WITHIN 10").ok());
  EXPECT_FALSE(zs.Compile("PATTERN A;B WHERE A.zz > 1 WITHIN 10").ok());
}

TEST(Api, AnalyzeOnly) {
  ZStream zs(StockSchema());
  auto p = zs.Analyze("PATTERN A;B WITHIN 10");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->num_classes(), 2);
}

// ---------------------------------------------------------------------
// Catalog + DDL session model
// ---------------------------------------------------------------------

TEST(Api, DdlCreateStreamAndQueryEndToEnd) {
  ZStream zs;  // empty catalog
  auto created = zs.Execute(
      "CREATE STREAM stock "
      "(id INT, name STRING, price DOUBLE, volume INT, ts INT)");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_TRUE(zs.catalog().HasStream("stock"));

  auto ddl = zs.Execute(
      "CREATE QUERY rally ON stock AS "
      "PATTERN A;B WHERE A.price > B.price WITHIN 10");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  Query* q = ddl->query;
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->name(), "rally");
  EXPECT_EQ(q->stream(), "stock");

  q->Push(Stock("IBM", 100, 1));
  q->Push(Stock("Sun", 50, 2));
  q->Finish();
  EXPECT_EQ(q->num_matches(), 1u);

  // The handle is also reachable by name.
  auto by_name = zs.query("rally");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(*by_name, q);
}

TEST(Api, DdlShowAndDrop) {
  ZStream zs(StockSchema());
  ASSERT_TRUE(zs.Execute("CREATE QUERY q1 ON default AS "
                         "PATTERN A;B WITHIN 10")
                  .ok());
  auto shown = zs.Execute("SHOW QUERIES");
  ASSERT_TRUE(shown.ok());
  ASSERT_EQ(shown->rows.size(), 1u);
  EXPECT_EQ(shown->rows[0].name, "q1");
  EXPECT_EQ(shown->rows[0].stream, "default");
  EXPECT_NE(shown->message.find("PATTERN"), std::string::npos);

  auto streams = zs.Execute("SHOW STREAMS");
  ASSERT_TRUE(streams.ok());
  EXPECT_EQ(streams->stream_names,
            std::vector<std::string>{"default"});

  ASSERT_TRUE(zs.Execute("DROP QUERY q1").ok());
  EXPECT_FALSE(zs.query("q1").ok());
  EXPECT_TRUE(zs.Execute("SHOW QUERIES")->rows.empty());

  // Dropping a stream with no queries works; unknown drops error.
  ASSERT_TRUE(zs.Execute("DROP STREAM default").ok());
  EXPECT_FALSE(zs.Execute("DROP STREAM default").ok());
}

TEST(Api, TwoNamedStreamsWithDistinctSchemas) {
  ZStream zs;
  ASSERT_TRUE(zs.catalog().CreateStream("stock", StockSchema()).ok());
  ASSERT_TRUE(zs.catalog().CreateStream("weblog", WebLogSchema()).ok());

  auto stock_q = zs.Compile("stock",
                            "PATTERN A;B WHERE A.price > B.price WITHIN 10");
  ASSERT_TRUE(stock_q.ok()) << stock_q.status().ToString();
  auto web_q = zs.Compile(
      "weblog",
      "PATTERN Pub;Course WHERE Pub.category='publication' "
      "AND Course.category='course' AND Pub.ip = Course.ip WITHIN 100");
  ASSERT_TRUE(web_q.ok()) << web_q.status().ToString();
  EXPECT_NE((*stock_q)->Explain().find("stream=stock"), std::string::npos);
  EXPECT_NE((*web_q)->Explain().find("stream=weblog"), std::string::npos);

  (*stock_q)->Push(Stock("IBM", 100, 1));
  (*stock_q)->Push(Stock("Sun", 50, 2));
  (*stock_q)->Finish();
  EXPECT_EQ((*stock_q)->num_matches(), 1u);

  const auto web_event = [&](const char* ip, const char* cat,
                             Timestamp ts) {
    return EventBuilder(WebLogSchema())
        .Set("ip", ip)
        .Set("url", "/x")
        .Set("category", cat)
        .At(ts)
        .Build();
  };
  (*web_q)->Push(web_event("1.2.3.4", "publication", 1));
  (*web_q)->Push(web_event("1.2.3.4", "course", 2));
  (*web_q)->Push(web_event("9.9.9.9", "course", 3));  // different IP
  (*web_q)->Finish();
  EXPECT_EQ((*web_q)->num_matches(), 1u);

  // The weblog schema has no 'price': compiling a stock query against
  // it fails in analysis, proving per-stream schemas are honored.
  EXPECT_FALSE(
      zs.Compile("weblog", "PATTERN A;B WHERE A.price > 1 WITHIN 10").ok());
}

TEST(Api, CompileAgainstUnknownStreamFails) {
  ZStream zs(StockSchema());
  auto bad = zs.Compile("nope", "PATTERN A;B WITHIN 10");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
  EXPECT_EQ(bad.status().error_code(), "ZS-S0002");
}

TEST(Api, InternalQueryAccessReachesEngines) {
  // api/internal.h is the one sanctioned route to the raw engine; keep
  // it compiling and honest about which kind backs the query. The
  // engine is built on first use.
  ZStream zs(StockSchema());
  auto plain = zs.Compile("PATTERN A;B WITHIN 10");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(internal::QueryAccess::HasEngine(**plain));
  EXPECT_NE(dynamic_cast<Engine*>(internal::QueryAccess::Core(**plain)),
            nullptr);
  EXPECT_TRUE(internal::QueryAccess::HasEngine(**plain));

  auto keyed = zs.Compile(
      "PATTERN A;B WHERE A.name = B.name AND A.price < B.price WITHIN 10");
  ASSERT_TRUE(keyed.ok());
  ASSERT_TRUE((*keyed)->partitioned());
  EXPECT_NE(
      dynamic_cast<PartitionedEngine*>(internal::QueryAccess::Core(**keyed)),
      nullptr);
}

TEST(Api, CompileVerifiesThePlanOnce) {
  // Prepare verifies the plan once; the engine built from it (on first
  // use) trusts that verification, keyed or keyless.
  ZStream zs(StockSchema());
  for (const char* text :
       {"PATTERN A;B WHERE A.price < B.price WITHIN 10",
        "PATTERN A;B WHERE A.name = B.name AND A.price < B.price "
        "WITHIN 10"}) {
    const uint64_t before = PlanVerifications();
    auto query = zs.Compile(text);
    ASSERT_TRUE(query.ok()) << query.status();
    (*query)->Push(Stock("IBM", 10, 1));
    (*query)->Push(Stock("IBM", 12, 2));
    (*query)->Finish();
    EXPECT_EQ((*query)->num_matches(), 1u) << text;
    EXPECT_EQ(PlanVerifications() - before, 1u) << text;
  }
}

TEST(Api, CompileFromPatternBuilder) {
  ZStream zs(StockSchema());
  auto query = zs.Compile(PatternBuilder(Seq("A", "B"))
                              .Where(Attr("A", "price") > Attr("B", "price"))
                              .Within(10));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  (*query)->Push(Stock("IBM", 100, 1));
  (*query)->Push(Stock("Sun", 50, 2));
  (*query)->Finish();
  EXPECT_EQ((*query)->num_matches(), 1u);
}

}  // namespace
}  // namespace zstream
