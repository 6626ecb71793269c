// Expression evaluation (three-valued logic, aggregates) and analysis.
#include <gtest/gtest.h>

#include "expr/analysis.h"
#include "expr/expr.h"
#include "test_util.h"

namespace zstream {
namespace {

using namespace exprs;  // NOLINT
using testing::Binding;

EventPtr Ev(const std::string& name, double price, Timestamp ts) {
  return EventBuilder(StockSchema())
      .Set("name", Value(name))
      .Set("price", price)
      .At(ts)
      .Build();
}

ExprPtr Price(int cls) { return Expr::AttrRef(cls, 2, "T", "price"); }
ExprPtr Name(int cls) { return Expr::AttrRef(cls, 1, "T", "name"); }

TEST(ExprEval, AttrAndComparison) {
  Binding rec{{Ev("IBM", 90, 1), nullptr}};
  rec.slots[1] = Ev("Sun", 50, 2);
  const EvalInput in = rec.ToEvalInput();
  EXPECT_TRUE(Gt(Price(0), Price(1))->EvalPredicate(in));
  EXPECT_FALSE(Lt(Price(0), Price(1))->EvalPredicate(in));
  EXPECT_TRUE(Eq(Name(0), Lit("IBM"))->EvalPredicate(in));
}

TEST(ExprEval, ArithmeticWithPercents) {
  // T1.price > (1 + 20%) * T2.price, the Query 1 shape.
  Binding rec{{Ev("X", 130, 1), nullptr}};
  rec.slots[1] = Ev("G", 100, 2);
  const ExprPtr pred =
      Gt(Price(0), Mul(Add(Lit(1.0), Lit(0.2)), Price(1)));
  EXPECT_TRUE(pred->EvalPredicate(rec.ToEvalInput()));
  rec.slots[0] = Ev("X", 110, 1);
  EXPECT_FALSE(pred->EvalPredicate(rec.ToEvalInput()));
}

TEST(ExprEval, UnboundSlotYieldsNullAndFails) {
  Binding rec{{Ev("IBM", 90, 1), nullptr}};
  const EvalInput in = rec.ToEvalInput();
  EXPECT_TRUE(Price(1)->Eval(in).is_null());
  EXPECT_FALSE(Gt(Price(0), Price(1))->EvalPredicate(in));
}

TEST(ExprEval, ThreeValuedLogic) {
  Binding rec{{Ev("IBM", 90, 1), nullptr}};
  const EvalInput in = rec.ToEvalInput();
  const ExprPtr null_cmp = Gt(Price(1), Lit(0.0));     // null
  const ExprPtr true_cmp = Gt(Price(0), Lit(0.0));     // true
  const ExprPtr false_cmp = Lt(Price(0), Lit(0.0));    // false
  // null AND false = false; null AND true = null; null OR true = true.
  EXPECT_FALSE(And(null_cmp, false_cmp)->Eval(in).is_null());
  EXPECT_FALSE(And(null_cmp, false_cmp)->Eval(in).IsTruthy());
  EXPECT_TRUE(And(null_cmp, true_cmp)->Eval(in).is_null());
  EXPECT_TRUE(Or(null_cmp, true_cmp)->Eval(in).IsTruthy());
  EXPECT_TRUE(Or(null_cmp, false_cmp)->Eval(in).is_null());
  EXPECT_TRUE(Not(null_cmp)->Eval(in).is_null());
}

TEST(ExprEval, TimeRef) {
  Binding rec{{Ev("IBM", 90, 77), nullptr}};
  const ExprPtr ts = Expr::TimeRef(0, "T");
  EXPECT_EQ(ts->Eval(rec.ToEvalInput()), Value(int64_t{77}));
}

TEST(ExprEval, IsNull) {
  Binding rec{{Ev("IBM", 90, 1), nullptr}};
  const EvalInput in = rec.ToEvalInput();
  EXPECT_FALSE(Expr::IsNull(0, "T")->Eval(in).bool_value());
  EXPECT_TRUE(Expr::IsNull(1, "T")->Eval(in).bool_value());
}

TEST(ExprEval, Aggregates) {
  Binding rec{{Ev("A", 1, 1), nullptr}};
  auto group = std::make_shared<EventGroup>();
  for (double v : {10.0, 20.0, 30.0}) group->push_back(Ev("B", v, 2));
  rec.group = group;
  const EvalInput in = rec.ToEvalInput(/*group_class=*/1);
  EXPECT_DOUBLE_EQ(
      Expr::Aggregate(AggFn::kSum, 1, 2, "B", "price")->Eval(in).AsDouble(),
      60.0);
  EXPECT_DOUBLE_EQ(
      Expr::Aggregate(AggFn::kAvg, 1, 2, "B", "price")->Eval(in).AsDouble(),
      20.0);
  EXPECT_EQ(
      Expr::Aggregate(AggFn::kCount, 1, -1, "B", "")->Eval(in),
      Value(int64_t{3}));
  EXPECT_DOUBLE_EQ(
      Expr::Aggregate(AggFn::kMin, 1, 2, "B", "price")->Eval(in).AsDouble(),
      10.0);
  EXPECT_DOUBLE_EQ(
      Expr::Aggregate(AggFn::kMax, 1, 2, "B", "price")->Eval(in).AsDouble(),
      30.0);
}

TEST(ExprAnalysis, ReferencedClasses) {
  const ExprPtr e = And(Gt(Price(0), Price(2)), Eq(Name(1), Lit("x")));
  EXPECT_EQ(ReferencedClasses(e), (std::set<int>{0, 1, 2}));
}

TEST(ExprAnalysis, SplitAndCombineConjuncts) {
  const ExprPtr a = Gt(Price(0), Lit(1.0));
  const ExprPtr b = Lt(Price(1), Lit(2.0));
  const ExprPtr c = Eq(Name(0), Lit("x"));
  const ExprPtr all = And(And(a, b), c);
  const auto parts = SplitConjuncts(all);
  ASSERT_EQ(parts.size(), 3u);
  const ExprPtr back = CombineConjuncts(parts);
  EXPECT_EQ(SplitConjuncts(back).size(), 3u);
}

TEST(ExprAnalysis, EqualityJoinDetection) {
  EXPECT_TRUE(AsEqualityJoin(Eq(Name(0), Name(1))).has_value());
  EXPECT_FALSE(AsEqualityJoin(Eq(Name(0), Name(0))).has_value());
  EXPECT_FALSE(AsEqualityJoin(Eq(Name(0), Lit("x"))).has_value());
  EXPECT_FALSE(AsEqualityJoin(Gt(Name(0), Name(1))).has_value());
  const auto eq = AsEqualityJoin(Eq(Name(1), Name(0)));
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->left_class, 1);
  EXPECT_EQ(eq->right_class, 0);
}

TEST(ExprAnalysis, RemapClasses) {
  const ExprPtr e = Gt(Price(0), Price(1));
  const ExprPtr remapped = RemapClasses(e, {3, 5});
  EXPECT_EQ(ReferencedClasses(remapped), (std::set<int>{3, 5}));
}

TEST(ExprAnalysis, ContainsAggregate) {
  EXPECT_TRUE(ContainsAggregate(
      Gt(Expr::Aggregate(AggFn::kSum, 1, 2, "B", "price"), Lit(1.0))));
  EXPECT_FALSE(ContainsAggregate(Gt(Price(0), Lit(1.0))));
}

TEST(ExprPrint, ToStringRoundtrips) {
  const ExprPtr e = And(Gt(Price(0), Lit(5.0)), Eq(Name(1), Lit("IBM")));
  EXPECT_EQ(e->ToString(), "((T.price > 5) AND (T.name = 'IBM'))");
}

}  // namespace
}  // namespace zstream
