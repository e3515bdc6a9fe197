// Unit tests for src/stream: the SPSC ring buffer (single- and
// multi-threaded), the packet-to-tuple mapping and the trace source.

#include <gtest/gtest.h>

#include <thread>

#include "net/trace_generator.h"
#include "stream/ring_buffer.h"
#include "stream/trace_source.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

TEST(RingBufferTest, CapacityRoundsToPowerOfTwo) {
  RingBuffer<int> rb(5);
  EXPECT_GE(rb.capacity(), 5u);
  RingBuffer<int> rb2(1);
  EXPECT_GE(rb2.capacity(), 1u);
}

TEST(RingBufferTest, HoldsExactlyTheRequestedCapacity) {
  // The runtime's default ring_capacity: all 2^16 slots hold an item.
  RingBuffer<int> rb(65536);
  EXPECT_EQ(rb.capacity(), 65536u);
  size_t pushed = 0;
  while (rb.TryPush(1)) ++pushed;
  EXPECT_EQ(pushed, 65536u);
  EXPECT_EQ(rb.size(), 65536u);
  // A request that is not a power of two is held exactly, too.
  RingBuffer<int> odd(5);
  EXPECT_EQ(odd.capacity(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(odd.TryPush(i));
  EXPECT_FALSE(odd.TryPush(5));
}

TEST(RingBufferTest, PushPopFifoOrder) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(rb.TryPush(i));
  EXPECT_EQ(rb.size(), 5u);
  int v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rb.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.TryPop(&v));
}

TEST(RingBufferTest, FullBufferRejectsPush) {
  RingBuffer<int> rb(2);  // usable capacity >= 2
  size_t pushed = 0;
  while (rb.TryPush(1)) ++pushed;
  EXPECT_EQ(pushed, rb.capacity());
  int v;
  ASSERT_TRUE(rb.TryPop(&v));
  EXPECT_TRUE(rb.TryPush(2));  // space reclaimed
}

TEST(RingBufferTest, WrapAroundManyTimes) {
  RingBuffer<uint64_t> rb(4);
  uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (rb.TryPush(next_in)) ++next_in;
    uint64_t v;
    while (rb.TryPop(&v)) {
      EXPECT_EQ(v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(RingBufferTest, SpscTwoThreads) {
  RingBuffer<uint64_t> rb(1024);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (rb.TryPush(i)) ++i;
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t v;
    if (rb.TryPop(&v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(rb.empty());
}

TEST(StreamSourceTest, PacketToTupleFieldMapping) {
  PacketRecord p{};
  p.ts_ns = 2'500'000'000ULL;
  p.src_ip = 10;
  p.dst_ip = 20;
  p.src_port = 30;
  p.dst_port = 40;
  p.proto = 6;
  p.len = 99;
  Tuple t = PacketToTuple(p);
  SchemaPtr schema = MakePacketSchema();
  ASSERT_EQ(t.size(), schema->num_fields());
  EXPECT_EQ(t[schema->FieldIndex("time")].uint_value(), 2u);
  EXPECT_EQ(t[schema->FieldIndex("ts_ns")].uint_value(), 2'500'000'000ULL);
  EXPECT_EQ(t[schema->FieldIndex("srcIP")].uint_value(), 10u);
  EXPECT_EQ(t[schema->FieldIndex("destIP")].uint_value(), 20u);
  EXPECT_EQ(t[schema->FieldIndex("srcPort")].uint_value(), 30u);
  EXPECT_EQ(t[schema->FieldIndex("destPort")].uint_value(), 40u);
  EXPECT_EQ(t[schema->FieldIndex("proto")].uint_value(), 6u);
  EXPECT_EQ(t[schema->FieldIndex("len")].uint_value(), 99u);
}

bool SameRecord(const PacketRecord& a, const PacketRecord& b) {
  return a.ts_ns == b.ts_ns && a.src_ip == b.src_ip && a.dst_ip == b.dst_ip &&
         a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.len == b.len && a.proto == b.proto;
}

// Reads `src` to its end in batches of `batch`, appending to `out`.
void ReadToEnd(TraceSource& src, size_t batch, std::vector<PacketRecord>* out) {
  std::vector<PacketRecord> buf(batch);
  size_t n = 0;
  while (src.Read(buf.data(), batch, &n) ==
         ResumableSource::ReadResult::kRecords) {
    ASSERT_GT(n, 0u);
    ASSERT_LE(n, batch);
    out->insert(out->end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(n, 0u);
}

TEST(TraceSourceTest, BatchesDeliverEveryRecordInOrder) {
  Trace trace = TraceGenerator::MakeResearchFeed(1.0, 3);
  TraceSource src(&trace);
  ASSERT_TRUE(src.Open().ok());
  std::vector<PacketRecord> got;
  ReadToEnd(src, 100, &got);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.at(i))) << "record " << i;
  }
  EXPECT_EQ(src.durable_offset(), trace.size());
  EXPECT_EQ(src.offset_lag(), 0u);
  EXPECT_EQ(src.stats().records, trace.size());
  // Stays at its end.
  size_t n = 1;
  PacketRecord p;
  EXPECT_EQ(src.Read(&p, 1, &n), ResumableSource::ReadResult::kEnd);
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(src.last_status().ok());
}

TEST(TraceSourceTest, SeekToResumesAtRecord) {
  Trace trace = TraceGenerator::MakeResearchFeed(5.0, 3);
  ASSERT_GT(trace.size(), 1000u);
  const size_t k = 777;
  TraceSource src(&trace);
  ASSERT_TRUE(src.SeekTo(k).ok());
  ASSERT_TRUE(src.Open().ok());
  EXPECT_EQ(src.stats().resume_offset, k);
  EXPECT_EQ(src.durable_offset(), k);
  std::vector<PacketRecord> got;
  ReadToEnd(src, 64, &got);
  ASSERT_EQ(got.size(), trace.size() - k);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.at(k + i))) << "record " << k + i;
  }
  // Seeking back to 0 rereads the whole trace; the end itself is a valid
  // resume point with nothing left to read.
  ASSERT_TRUE(src.SeekTo(0).ok());
  got.clear();
  ReadToEnd(src, 64, &got);
  EXPECT_EQ(got.size(), trace.size());
  ASSERT_TRUE(src.SeekTo(trace.size()).ok());
  got.clear();
  ReadToEnd(src, 64, &got);
  EXPECT_TRUE(got.empty());
}

TEST(TraceSourceTest, SeekPastTheEndFails) {
  Trace trace = TraceGenerator::MakeResearchFeed(0.5, 3);
  TraceSource src(&trace);
  ASSERT_TRUE(src.SeekTo(5).ok());
  const Status st = src.SeekTo(trace.size() + 1);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(src.durable_offset(), 5u);  // a failed seek moves nothing
}

TEST(TraceSourceTest, StreamIdIdentifiesTheTrace) {
  Trace trace = TraceGenerator::MakeResearchFeed(0.5, 3);
  Trace same = TraceGenerator::MakeResearchFeed(0.5, 3);
  Trace other = TraceGenerator::MakeResearchFeed(0.5, 4);
  TraceSource a(&trace);
  TraceSource b(&trace);
  TraceSource c(&same);
  TraceSource d(&other);
  EXPECT_STREQ(a.kind(), "trace");
  EXPECT_EQ(a.describe().rfind("trace:", 0), 0u);
  EXPECT_EQ(a.stream_id(), b.stream_id());
  EXPECT_EQ(a.stream_id(), c.stream_id());  // identical records
  EXPECT_NE(a.stream_id(), d.stream_id());
  // A trace cut short is a different stream too.
  std::vector<PacketRecord> prefix(trace.packets().begin(),
                                   trace.packets().end() - 1);
  Trace shorter(std::move(prefix));
  EXPECT_NE(a.stream_id(), TraceSource(&shorter).stream_id());
}

}  // namespace
}  // namespace streamop
