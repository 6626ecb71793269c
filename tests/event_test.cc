// Event model and streams.
#include <gtest/gtest.h>

#include "event/event.h"
#include "event/row_codec.h"
#include "event/stream.h"

namespace zstream {
namespace {

TEST(Event, BuilderAndAccessors) {
  const EventPtr e = EventBuilder(StockSchema())
                         .Set("id", int64_t{7})
                         .Set("name", "IBM")
                         .Set("price", 95.5)
                         .Set("volume", int64_t{10})
                         .Set("ts", int64_t{42})
                         .At(42)
                         .Build();
  EXPECT_EQ(e->timestamp(), 42);
  EXPECT_EQ(e->value(1), Value("IBM"));
  EXPECT_EQ((*e->ValueOf("price")).AsDouble(), 95.5);
  EXPECT_FALSE(e->ValueOf("nope").ok());
  EXPECT_GT(e->ByteSize(), sizeof(Event));
}

TEST(Event, ToStringMentionsFields) {
  const EventPtr e =
      EventBuilder(StockSchema()).Set("name", "Sun").At(3).Build();
  const std::string s = e->ToString();
  EXPECT_NE(s.find("name='Sun'"), std::string::npos);
  EXPECT_NE(s.find("ts=3"), std::string::npos);
}

/// The hash the router reads from an encoded one-field row holding `v`
/// (codec::ScanRow + FieldView::Hash), for a field declared `type`.
size_t HashFromBytes(const Value& v, ValueType type) {
  const SchemaPtr schema = Schema::Make({Field{"f", type}});
  std::string row;
  codec::AppendEvent(&row, Event(schema, {v}, 1));
  codec::PayloadReader reader(row);
  size_t hash = 0;
  const Result<Timestamp> ts = codec::ScanRow(
      &reader, *schema,
      [&hash](int, const codec::FieldView& field) { hash = field.Hash(); });
  EXPECT_TRUE(ts.ok()) << ts.status();
  EXPECT_TRUE(reader.AtEnd());
  return hash;
}

TEST(RowCodec, KeyHashFromBytesEqualsValueHash) {
  EXPECT_EQ(HashFromBytes(Value::Null(), ValueType::kString),
            Value::Null().Hash());
  EXPECT_EQ(HashFromBytes(Value(true), ValueType::kBool), Value(true).Hash());
  EXPECT_EQ(HashFromBytes(Value(false), ValueType::kBool),
            Value(false).Hash());
  EXPECT_NE(Value(true).Hash(), Value(false).Hash());
  // 3 and 3.0 compare equal, so they hash (and route) alike, from bytes
  // and from values.
  const size_t three = HashFromBytes(Value(int64_t{3}), ValueType::kInt64);
  EXPECT_EQ(three, Value(int64_t{3}).Hash());
  EXPECT_EQ(three, Value(3.0).Hash());
  EXPECT_EQ(HashFromBytes(Value(3.0), ValueType::kDouble), three);
  // -0.0 == 0.0.
  const size_t zero = HashFromBytes(Value(-0.0), ValueType::kDouble);
  EXPECT_EQ(zero, Value(0.0).Hash());
  EXPECT_EQ(zero, Value(-0.0).Hash());
  EXPECT_EQ(zero, HashFromBytes(Value(0.0), ValueType::kDouble));
  EXPECT_EQ(HashFromBytes(Value(""), ValueType::kString), Value("").Hash());
  const std::string longer = "a string well past sixteen chars";
  EXPECT_EQ(HashFromBytes(Value(longer), ValueType::kString),
            Value(longer).Hash());
}

TEST(Stream, VectorStreamYieldsInOrder) {
  std::vector<EventPtr> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(EventBuilder(StockSchema()).At(i).Build());
  }
  VectorStream vs(events);
  EXPECT_EQ(vs.SizeHint(), 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(vs.Next()->timestamp(), i);
  }
  EXPECT_EQ(vs.Next(), nullptr);
}

TEST(Stream, ConcatStreamSpansSegments) {
  auto seg = [](Timestamp base) {
    std::vector<EventPtr> events;
    for (int i = 0; i < 3; ++i) {
      events.push_back(EventBuilder(StockSchema()).At(base + i).Build());
    }
    return std::make_unique<VectorStream>(std::move(events));
  };
  std::vector<std::unique_ptr<EventStream>> segs;
  segs.push_back(seg(0));
  segs.push_back(seg(10));
  ConcatStream cs(std::move(segs));
  EXPECT_EQ(cs.SizeHint(), 6);
  std::vector<Timestamp> got;
  while (EventPtr e = cs.Next()) got.push_back(e->timestamp());
  EXPECT_EQ(got, (std::vector<Timestamp>{0, 1, 2, 10, 11, 12}));
}

TEST(Stream, DrainStream) {
  std::vector<EventPtr> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(EventBuilder(StockSchema()).At(i).Build());
  }
  VectorStream vs(events);
  EXPECT_EQ(DrainStream(&vs).size(), 4u);
}

}  // namespace
}  // namespace zstream
