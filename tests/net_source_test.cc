// Network/pcap ingestion tests (DESIGN.md §11): the wire protocol, the
// pcap reader, the socket sources' reconnect/backoff and sequence
// accounting against an adversarial TraceSender, and — the central claims —
// crash recovery over resumable offsets: SIGKILL a consumer mid-stream and
// prove the restarted run seeks (pcap) or re-HELLOs (TCP) to the
// checkpointed offset and emits output byte-identical to the reference
// suffix, with any loss booked as gaps, never silent.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/runtime.h"
#include "net/pcap_format.h"
#include "net/trace_generator.h"
#include "net/trace_sender.h"
#include "net/wire.h"
#include "query/query.h"
#include "stream/fault_injection.h"
#include "stream/pcap_reader.h"
#include "stream/socket_source.h"
#include "stream/trace_source.h"

namespace streamop {
namespace {

namespace fs = std::filesystem;

constexpr char kPassThroughLow[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";

constexpr char kAggQuery[] =
    "SELECT tb, srcIP, count(*), sum(len) FROM PKT GROUP BY time/5 as tb, "
    "srcIP";

bool SameRecord(const PacketRecord& a, const PacketRecord& b) {
  return a.ts_ns == b.ts_ns && a.src_ip == b.src_ip && a.dst_ip == b.dst_ip &&
         a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.len == b.len && a.proto == b.proto;
}

// True when `sub` appears in `full` in order (at-most-once, order
// preserved: what a lossy-but-honest UDP ingest must deliver).
bool IsSubsequence(const std::vector<PacketRecord>& sub,
                   const std::vector<PacketRecord>& full) {
  size_t j = 0;
  for (const PacketRecord& p : full) {
    if (j < sub.size() && SameRecord(sub[j], p)) ++j;
  }
  return j == sub.size();
}

// Reads until kEnd (or a deadline, so a wedged source fails the assertion
// instead of hanging the test binary).
std::vector<PacketRecord> DrainAll(ResumableSource& src,
                                   int deadline_sec = 30) {
  std::vector<PacketRecord> buf(256);
  std::vector<PacketRecord> all;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadline_sec);
  for (;;) {
    size_t n = 0;
    const auto r = src.Read(buf.data(), buf.size(), &n);
    all.insert(all.end(), buf.begin(), buf.begin() + n);
    if (r == ResumableSource::ReadResult::kEnd) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "source did not end within " << deadline_sec << "s";
      break;
    }
  }
  return all;
}

// `n` distinct records (record i has ts_ns == i), cheaper than a generated
// feed at the sizes the bounded-staging tests need.
std::vector<PacketRecord> CountingRecords(size_t n) {
  std::vector<PacketRecord> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].ts_ns = i;
    out[i].src_ip = static_cast<uint32_t>(0x0a000000u + i % 4096);
    out[i].len = static_cast<uint16_t>(40 + i % 1460);
    out[i].proto = kProtoTcp;
  }
  return out;
}

std::vector<std::string> RowsAsStrings(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::string s;
    for (size_t i = 0; i < t.size(); ++i) {
      s += t[i].ToString();
      s += '\t';
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(WireTest, RecordRoundTrip) {
  PacketRecord p{};
  p.ts_ns = 0x0123456789abcdefULL;
  p.src_ip = 0xc0a80001;
  p.dst_ip = 0x08080808;
  p.src_port = 443;
  p.dst_port = 51515;
  p.len = 1337;
  p.proto = kProtoTcp;
  uint8_t wire[kWireRecordSize];
  EncodeWireRecord(p, wire);
  PacketRecord q{};
  DecodeWireRecord(wire, &q);
  EXPECT_TRUE(SameRecord(p, q));
}

TEST(WireTest, FrameHeaderRejectsGarbage) {
  PacketRecord rec{};
  rec.len = 100;
  std::vector<uint8_t> frame(kFrameHeaderSize + kWireRecordSize);
  BuildFrame(FrameType::kData, 7, &rec, 1, frame.data());

  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), frame.size(), &h));
  EXPECT_EQ(h.type, FrameType::kData);
  EXPECT_EQ(h.seq, 7u);
  EXPECT_EQ(h.count, 1u);

  // Bad magic.
  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xff;
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size(), &h));
  // Unknown type.
  bad = frame;
  bad[4] = 99;
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size(), &h));
  // DATA count inconsistent with payload_len.
  bad = frame;
  bad[6] = 2;  // count = 2 but payload_len still covers one record
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size(), &h));
  // Control frames must be empty.
  uint8_t ctrl[kFrameHeaderSize];
  BuildFrame(FrameType::kHello, 3, nullptr, 0, ctrl);
  ASSERT_TRUE(DecodeFrameHeader(ctrl, sizeof(ctrl), &h));
  EXPECT_EQ(h.type, FrameType::kHello);
  ctrl[16] = 24;  // claim a payload on a control frame
  EXPECT_FALSE(DecodeFrameHeader(ctrl, sizeof(ctrl), &h));
  // Short buffer.
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), kFrameHeaderSize - 1, &h));
}

TEST(WireTest, PayloadCrcDetectsCorruption) {
  std::vector<PacketRecord> recs(3);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].ts_ns = i;
    recs[i].len = static_cast<uint16_t>(100 + i);
  }
  std::vector<uint8_t> frame(kFrameHeaderSize +
                             recs.size() * kWireRecordSize);
  BuildFrame(FrameType::kData, 0, recs.data(), recs.size(), frame.data());
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), frame.size(), &h));
  EXPECT_TRUE(VerifyFramePayload(h, frame.data() + kFrameHeaderSize));
  frame[kFrameHeaderSize + 5] ^= 0x01;
  EXPECT_FALSE(VerifyFramePayload(h, frame.data() + kFrameHeaderSize));
}

// ---------------------------------------------------------------------------
// Pcap reader

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::path(::testing::TempDir()) /
             ("pcap_" + std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()) +
              ".pcap"))
                .string();
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }

  std::string path_;
};

TEST_F(PcapTest, NanosecondRawIpRoundTripsExactly) {
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 11);
  ASSERT_TRUE(WritePcap(trace, path_).ok());

  PcapReader reader(PcapReaderConfig{path_});
  ASSERT_TRUE(reader.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(reader);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.packets()[i])) << "record " << i;
  }
  EXPECT_TRUE(reader.last_status().ok());
  EXPECT_EQ(reader.stats().malformed_frames, 0u);
  EXPECT_EQ(reader.offset_lag(), 0u);
}

TEST_F(PcapTest, MicrosecondEthernetSwappedIsTolerated) {
  // A foreign-endian, microsecond, Ethernet-framed capture: everything a
  // real capture tool might hand us. Timestamps lose sub-microsecond
  // precision; every other field must survive exactly.
  Trace trace = TraceGenerator::MakeResearchFeed(1.0, 12);
  WritePcapOptions opt;
  opt.nanosecond = false;
  opt.ethernet = true;
  opt.swap_byte_order = true;
  ASSERT_TRUE(WritePcap(trace, path_, opt).ok());

  PcapReader reader(PcapReaderConfig{path_});
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_TRUE(reader.header().swapped);
  EXPECT_FALSE(reader.header().nanosecond);
  EXPECT_EQ(reader.header().linktype, kLinkTypeEthernet);
  const std::vector<PacketRecord> got = DrainAll(reader);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const PacketRecord& a = got[i];
    const PacketRecord& b = trace.packets()[i];
    EXPECT_EQ(a.ts_ns / 1000, b.ts_ns / 1000) << "record " << i;
    EXPECT_EQ(a.src_ip, b.src_ip);
    EXPECT_EQ(a.dst_ip, b.dst_ip);
    EXPECT_EQ(a.src_port, b.src_port);
    EXPECT_EQ(a.dst_port, b.dst_port);
    EXPECT_EQ(a.len, b.len);
    EXPECT_EQ(a.proto, b.proto);
  }
}

TEST_F(PcapTest, TruncatedMidRecordIsACleanEnd) {
  Trace trace = TraceGenerator::MakeResearchFeed(1.0, 13);
  ASSERT_GT(trace.size(), 50u);
  WritePcapOptions opt;
  opt.truncate_after_records = 50;
  opt.truncate_mid_record = 9;  // half a record header
  ASSERT_TRUE(WritePcap(trace, path_, opt).ok());

  PcapReader reader(PcapReaderConfig{path_});
  ASSERT_TRUE(reader.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(reader);
  EXPECT_EQ(got.size(), 50u);
  EXPECT_TRUE(reader.last_status().ok()) << "a torn tail is not an error";
}

TEST_F(PcapTest, SeekResumeReadsTheIdenticalTail) {
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 14);
  ASSERT_TRUE(WritePcap(trace, path_).ok());

  // First pass: consume a prefix and note the durable offset.
  PcapReader first(PcapReaderConfig{path_});
  ASSERT_TRUE(first.Open().ok());
  std::vector<PacketRecord> buf(100);
  size_t n = 0;
  ASSERT_EQ(first.Read(buf.data(), buf.size(), &n),
            ResumableSource::ReadResult::kRecords);
  ASSERT_EQ(n, 100u);
  const uint64_t offset = first.durable_offset();
  ASSERT_GT(offset, 0u);

  // Second pass: a fresh reader seeks to the offset (the restore path) and
  // must read byte-identical records from there on.
  PcapReader resumed(PcapReaderConfig{path_});
  ASSERT_TRUE(resumed.SeekTo(offset).ok());
  ASSERT_TRUE(resumed.Open().ok());
  EXPECT_EQ(resumed.stats().resume_offset, offset);
  const std::vector<PacketRecord> tail = DrainAll(resumed);
  ASSERT_EQ(tail.size(), trace.size() - 100);
  for (size_t i = 0; i < tail.size(); ++i) {
    ASSERT_TRUE(SameRecord(tail[i], trace.packets()[100 + i]))
        << "record " << i;
  }
}

TEST_F(PcapTest, SeekBeyondTheFileFailsOpen) {
  Trace trace = TraceGenerator::MakeResearchFeed(0.5, 15);
  ASSERT_TRUE(WritePcap(trace, path_).ok());
  PcapReader reader(PcapReaderConfig{path_});
  ASSERT_TRUE(reader.SeekTo(1ull << 40).ok());  // recorded, applied at Open
  EXPECT_FALSE(reader.Open().ok());
}

// ---------------------------------------------------------------------------
// Socket sources against a (possibly adversarial) TraceSender

struct SenderRun {
  TraceSender sender;
  std::thread thread;
  Status status = Status::OK();

  explicit SenderRun(TraceSenderConfig cfg) : sender(std::move(cfg)) {}
  ~SenderRun() {
    sender.RequestStop();
    if (thread.joinable()) thread.join();
  }
  void StartUdp(uint16_t port) {
    thread = std::thread(
        [this, port] { status = sender.RunUdp("127.0.0.1", port); });
  }
  void StartTcpBound() {
    thread = std::thread([this] { status = sender.ServeTcp(); });
  }
};

TraceSenderConfig SenderConfigFor(const Trace& trace) {
  TraceSenderConfig cfg;
  cfg.records = trace.packets();
  cfg.handshake_timeout_ms = 20000;
  return cfg;
}

SocketSourceConfig FastBackoff(SocketSourceConfig cfg) {
  cfg.read_timeout_ms = 50;
  cfg.backoff_initial_ms = 5;
  cfg.backoff_max_ms = 50;
  return cfg;
}

TEST(UdpSourceTest, DeliversEverythingInOrder) {
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 21);
  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kUdp;
  cfg.port = 0;  // ephemeral; read back after Open
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  SenderRun run(SenderConfigFor(trace));
  run.StartUdp(src.bound_port());

  const std::vector<PacketRecord> got = DrainAll(src);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.packets()[i])) << "record " << i;
  }
  EXPECT_TRUE(src.last_status().ok());
  EXPECT_EQ(src.stats().gaps, 0u);
  EXPECT_EQ(src.stats().duplicate_records, 0u);
  EXPECT_EQ(src.durable_offset(), trace.size());
}

TEST(UdpSourceTest, DroppedFramesAreBookedAsGapsNeverSilent) {
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 22);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.drop_every_nth_frame = 3;

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kUdp;
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  SenderRun run(scfg);
  run.StartUdp(src.bound_port());

  const std::vector<PacketRecord> got = DrainAll(src);
  const SourceIngestStats& st = src.stats();
  EXPECT_GT(st.gaps, 0u);
  EXPECT_LT(got.size(), trace.size());
  // The accounting invariant: every record is either delivered or booked
  // in a gap — delivery is at-most-once with loss always counted.
  EXPECT_EQ(st.records + st.gap_records, trace.size());
  EXPECT_TRUE(IsSubsequence(got, trace.packets()));
  EXPECT_EQ(src.durable_offset(), trace.size());
}

TEST(UdpSourceTest, CorruptFramesAreQuarantined) {
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 23);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.corrupt_every_nth_frame = 4;

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kUdp;
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  SenderRun run(scfg);
  run.StartUdp(src.bound_port());

  const std::vector<PacketRecord> got = DrainAll(src);
  const SourceIngestStats& st = src.stats();
  EXPECT_GT(st.malformed_frames, 0u);
  EXPECT_EQ(st.records + st.gap_records, trace.size());
  EXPECT_TRUE(IsSubsequence(got, trace.packets()));
}

TEST(UdpSourceTest, SlowReaderBooksOverflowAsGaps) {
  // The reader stalls right after the handshake while an unthrottled
  // producer sends everything, then keeps reading slowly. The kernel drops
  // what overflows the socket, and every lost record must surface as a
  // booked gap, never as silent loss.
  const std::vector<PacketRecord> records = CountingRecords(100000);
  TraceSenderConfig scfg;
  scfg.records = records;
  scfg.handshake_timeout_ms = 20000;
  scfg.linger_ms = 20000;  // answer re-HELLOs when the FIN itself is lost

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kUdp;
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  SenderRun run(scfg);
  run.StartUdp(src.bound_port());

  std::vector<PacketRecord> buf(256);
  std::vector<PacketRecord> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool stalled = false;
  for (;;) {
    size_t n = 0;
    const auto r = src.Read(buf.data(), buf.size(), &n);
    got.insert(got.end(), buf.begin(), buf.begin() + n);
    if (r == ResumableSource::ReadResult::kEnd) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "source did not end";
    if (n > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stalled ? 1 : 300));
      stalled = true;
    }
  }
  const SourceIngestStats& st = src.stats();
  EXPECT_TRUE(src.last_status().ok()) << src.last_status().ToString();
  EXPECT_GT(st.gap_records, 0u) << "the stall must overflow the socket";
  EXPECT_EQ(st.records + st.gap_records, records.size());
  EXPECT_EQ(got.size(), st.records);
  EXPECT_TRUE(IsSubsequence(got, records));
  EXPECT_EQ(src.durable_offset(), records.size());
}

TEST(TcpSourceTest, DeliversEverythingInOrder) {
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 31);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.records_per_frame = 512;
  SenderRun run(scfg);
  ASSERT_TRUE(run.sender.BindTcp(0).ok());
  run.StartTcpBound();

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = run.sender.tcp_port();
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(src);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.packets()[i])) << "record " << i;
  }
  EXPECT_TRUE(src.last_status().ok());
  EXPECT_EQ(src.stats().gaps, 0u);
}

TEST(TcpSourceTest, SlowReaderStagingStaysWithinTheReceiveBuffer) {
  // An unthrottled producer against a reader that sleeps between reads.
  // The source reads only into its fixed receive buffer, so TCP flow
  // control holds the producer back: what waits in user space never
  // exceeds the buffer's record capacity, and delivery stays lossless.
  const std::vector<PacketRecord> records = CountingRecords(200000);
  TraceSenderConfig scfg;
  scfg.records = records;
  scfg.records_per_frame = 512;
  scfg.handshake_timeout_ms = 20000;
  SenderRun run(scfg);
  ASSERT_TRUE(run.sender.BindTcp(0).ok());
  run.StartTcpBound();

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = run.sender.tcp_port();
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());

  constexpr uint64_t kCapacity =
      SocketSource::kReceiveBufferBytes / kWireRecordSize;
  std::vector<PacketRecord> buf(256);
  size_t delivered = 0;
  uint64_t max_lag = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    size_t n = 0;
    const auto r = src.Read(buf.data(), buf.size(), &n);
    ASSERT_LE(delivered + n, records.size());
    for (size_t i = 0; i < n; ++i, ++delivered) {
      ASSERT_TRUE(SameRecord(buf[i], records[delivered]))
          << "record " << delivered;
    }
    max_lag = std::max(max_lag, src.offset_lag());
    if (r == ResumableSource::ReadResult::kEnd) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "source did not end";
    if (n > 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(src.last_status().ok()) << src.last_status().ToString();
  EXPECT_EQ(delivered, records.size());
  EXPECT_EQ(src.stats().gaps, 0u);
  EXPECT_GT(max_lag, 0u);
  EXPECT_LE(max_lag, kCapacity);
}

TEST(TcpSourceTest, ReconnectAfterKillsResumesLossless) {
  // The producer slams the connection shut every 4 frames; HELLO carries
  // the durable offset, the replay buffer is unlimited, so reconnect +
  // resume must deliver the complete stream with zero loss.
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 32);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.records_per_frame = 64;
  scfg.kill_connection_after_frames = 4;
  SenderRun run(scfg);
  ASSERT_TRUE(run.sender.BindTcp(0).ok());
  run.StartTcpBound();

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = run.sender.tcp_port();
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(src);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.packets()[i])) << "record " << i;
  }
  EXPECT_GT(src.stats().reconnects, 0u);
  EXPECT_EQ(src.stats().gaps, 0u);
  EXPECT_TRUE(src.last_status().ok());
}

TEST(TcpSourceTest, TornFinalFrameIsDiscardedNotParsed) {
  // The connection dies halfway through a frame: the consumer must drop
  // the partial bytes, reconnect, and re-fetch — full delivery, no
  // half-parsed garbage records.
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 33);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.records_per_frame = 64;
  scfg.kill_connection_after_frames = 5;
  scfg.kill_mid_frame = true;
  SenderRun run(scfg);
  ASSERT_TRUE(run.sender.BindTcp(0).ok());
  run.StartTcpBound();

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = run.sender.tcp_port();
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(src);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.packets()[i])) << "record " << i;
  }
  EXPECT_GT(src.stats().reconnects, 0u);
  EXPECT_TRUE(src.last_status().ok());
}

TEST(TcpSourceTest, ConnectRefusedExhaustsBoundedBackoff) {
  // Find a port with nothing listening by binding and immediately closing.
  TraceSenderConfig probe_cfg;
  uint16_t dead_port = 0;
  {
    TraceSender probe(probe_cfg);
    ASSERT_TRUE(probe.BindTcp(0).ok());
    dead_port = probe.tcp_port();
  }
  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = dead_port;
  cfg.max_reconnect_attempts = 3;
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(src, 10);
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(src.last_status().ok());
  EXPECT_GE(src.stats().reconnects, 3u);
}

TEST(TcpSourceTest, ProducerCrashWithoutFinEndsWithError) {
  // A producer that vanishes after the last record (no FIN) looks exactly
  // like a crash: the consumer must deliver everything it received, then
  // exhaust its reconnect budget and surface an error — not hang, not
  // pretend the stream ended cleanly.
  Trace trace = TraceGenerator::MakeResearchFeed(1.0, 34);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.records_per_frame = 128;
  scfg.send_fin = false;
  SenderRun run(scfg);
  ASSERT_TRUE(run.sender.BindTcp(0).ok());
  run.StartTcpBound();

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = run.sender.tcp_port();
  cfg.max_reconnect_attempts = 2;
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(src, 20);
  EXPECT_EQ(got.size(), trace.size());
  EXPECT_FALSE(src.last_status().ok());
}

TEST(TcpSourceTest, ReplayWindowLimitForcesABookedGap) {
  // Consumer A drains part of the stream and disappears; consumer B
  // resumes from offset 0 but the producer's replay window has moved on.
  // The ACK lands beyond the HELLO and B must book the difference as a
  // gap — at-most-once, with the loss on the record, never replayed
  // silently out of thin air.
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 35);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.records_per_frame = 64;
  scfg.replay_window = 128;
  scfg.linger_ms = 20000;
  SenderRun run(scfg);
  ASSERT_TRUE(run.sender.BindTcp(0).ok());
  run.StartTcpBound();

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = run.sender.tcp_port();
  {
    SocketSource first(cfg);
    ASSERT_TRUE(first.Open().ok());
    std::vector<PacketRecord> buf(256);
    // Take more than a replay window, so the producer has necessarily sent
    // past it and its resume floor is above 0.
    size_t taken = 0;
    for (int i = 0; i < 1000 && taken <= scfg.replay_window; ++i) {
      size_t n = 0;
      const auto r = first.Read(buf.data(), buf.size(), &n);
      taken += n;
      if (r == ResumableSource::ReadResult::kEnd) break;
    }
    ASSERT_GT(taken, scfg.replay_window)
        << "first consumer never received a replay window";
  }  // first consumer vanishes mid-stream

  SocketSource second(cfg);
  ASSERT_TRUE(second.SeekTo(0).ok());
  ASSERT_TRUE(second.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(second);
  const SourceIngestStats& st = second.stats();
  EXPECT_GE(st.gaps, 1u) << "the clamped resume must be booked as a gap";
  EXPECT_EQ(st.records + st.gap_records, trace.size());
  ASSERT_FALSE(got.empty());
  // Whatever was delivered is the exact tail of the trace.
  const size_t start = trace.size() - got.size();
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.packets()[start + i]))
        << "record " << i;
  }
}

TEST(FaultWrapperTest, InjectedDisconnectsStillDeliverEverything) {
  // FaultyResumableSource yanks the connection every 400 delivered
  // records; TCP resume is lossless, so adversity must not change what the
  // engine sees.
  Trace trace = TraceGenerator::MakeResearchFeed(2.0, 36);
  TraceSenderConfig scfg = SenderConfigFor(trace);
  scfg.records_per_frame = 64;
  // Keep serving resumes after FIN, as a real producer does: a disconnect
  // injected before the consumer has read the FIN must find it still there.
  scfg.linger_ms = 20000;
  SenderRun run(scfg);
  ASSERT_TRUE(run.sender.BindTcp(0).ok());
  run.StartTcpBound();

  SocketSourceConfig cfg = FastBackoff({});
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = run.sender.tcp_port();
  SocketSource inner(cfg);
  ResumableFaultConfig fc;
  fc.disconnect_every_records = 400;
  FaultyResumableSource src(&inner, fc);
  ASSERT_TRUE(src.Open().ok());
  const std::vector<PacketRecord> got = DrainAll(src);
  ASSERT_EQ(got.size(), trace.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameRecord(got[i], trace.packets()[i])) << "record " << i;
  }
  EXPECT_GT(inner.stats().reconnects, 0u);
}

// ---------------------------------------------------------------------------
// Runtime integration: RunSource vs in-process Run

TEST(RunSourceTest, PcapIngestMatchesInProcessRunByteForByte) {
  Trace trace = TraceGenerator::MakeResearchFeed(6.0, 42);
  const std::string path =
      (fs::path(::testing::TempDir()) / "run_source_eq.pcap").string();
  ASSERT_TRUE(WritePcap(trace, path).ok());

  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());

  std::vector<std::string> reference;
  {
    TwoLevelRuntime ref(*low, {*high});
    ASSERT_TRUE(ref.Run(trace).ok());
    reference = RowsAsStrings(ref.high_node(0).DrainOutput());
  }
  TwoLevelRuntime rt(*low, {*high});
  PcapReader reader(PcapReaderConfig{path});
  auto report = rt.RunSource(reader);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(RowsAsStrings(rt.high_node(0).DrainOutput()), reference);
  ASSERT_EQ(report->sources.size(), 1u);
  EXPECT_TRUE(report->sources[0].clean_end);
  EXPECT_FALSE(report->sources[0].resumed_from_offset);
  EXPECT_EQ(report->sources[0].stats.records, trace.size());
  EXPECT_EQ(report->packets, trace.size());
  fs::remove(path);
}

TEST(RunSourceTest, MaxRecordsBoundsALiveRun) {
  Trace trace = TraceGenerator::MakeResearchFeed(6.0, 43);
  ASSERT_GT(trace.size(), 2000u);
  const std::string path =
      (fs::path(::testing::TempDir()) / "run_source_cap.pcap").string();
  ASSERT_TRUE(WritePcap(trace, path).ok());

  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  RuntimeOptions opt;
  opt.source_max_records = 1000;
  TwoLevelRuntime rt(*low, {*high}, opt);
  PcapReader reader(PcapReaderConfig{path});
  auto report = rt.RunSource(reader);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The cap is checked at batch boundaries, so the run stops within one
  // batch of the limit.
  EXPECT_GE(report->packets, 1000u);
  EXPECT_LT(report->packets, 1000u + opt.batch_size);
  fs::remove(path);
}

// A source wrapper that checks the read contract wrappers such as the
// end-to-end benchmark's emit probe rely on: RunSource calls Read() on the
// calling thread only, and only once every record delivered so far has
// gone through the nodes.
class ReadContractProbe : public ResumableSource {
 public:
  ReadContractProbe(ResumableSource* inner, TwoLevelRuntime* rt)
      : inner_(inner), rt_(rt), caller_(std::this_thread::get_id()) {}

  const char* kind() const override { return inner_->kind(); }
  uint64_t stream_id() const override { return inner_->stream_id(); }
  std::string describe() const override { return inner_->describe(); }
  Status Open() override { return inner_->Open(); }
  uint64_t durable_offset() const override { return inner_->durable_offset(); }
  Status SeekTo(uint64_t offset) override { return inner_->SeekTo(offset); }
  uint64_t offset_lag() const override { return inner_->offset_lag(); }
  const SourceIngestStats& stats() const override { return inner_->stats(); }
  Status last_status() const override { return inner_->last_status(); }

  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override {
    ++reads_;
    if (std::this_thread::get_id() != caller_) ++off_thread_reads_;
    if (rt_->low_node().tuples_in() != delivered_ ||
        rt_->high_node(0).tuples_in() != delivered_) {
      ++early_reads_;
    }
    const ReadResult rr = inner_->Read(buf, max, n_out);
    delivered_ += *n_out;
    return rr;
  }

  uint64_t reads() const { return reads_; }
  uint64_t off_thread_reads() const { return off_thread_reads_; }
  uint64_t early_reads() const { return early_reads_; }

 private:
  ResumableSource* inner_;
  TwoLevelRuntime* rt_;
  std::thread::id caller_;
  uint64_t delivered_ = 0;
  uint64_t reads_ = 0;
  uint64_t off_thread_reads_ = 0;
  uint64_t early_reads_ = 0;
};

TEST(RunSourceTest, ReadsOnTheCallingThreadAfterEachBatchIsProcessed) {
  Trace trace = TraceGenerator::MakeResearchFeed(6.0, 44);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  RuntimeOptions opt;
  opt.batch_size = 100;
  TwoLevelRuntime rt(*low, {*high}, opt);
  TraceSource inner(&trace);
  ReadContractProbe probe(&inner, &rt);
  auto report = rt.RunSource(probe);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(probe.reads(), trace.size() / opt.batch_size);
  EXPECT_EQ(probe.off_thread_reads(), 0u);
  EXPECT_EQ(probe.early_reads(), 0u);
  EXPECT_EQ(rt.low_node().tuples_in(), trace.size());
}

// ---------------------------------------------------------------------------
// Crash recovery over resumable offsets (fork + SIGKILL, no cleanup)

class NetSourceCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("netcrash_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

size_t CountSnapshots(const fs::path& dir) {
  if (!fs::exists(dir)) return 0;
  size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.find(".ckpt.") != std::string::npos &&
        name.rfind(".tmp") == std::string::npos) {
      ++n;
    }
  }
  return n;
}

RuntimeOptions CheckpointedSourceOptions(const std::string& dir) {
  RuntimeOptions opt;
  opt.checkpoint.dir = dir;
  opt.checkpoint.every_n_windows = 1;
  opt.batch_size = 128;  // small ingest batches = frequent snapshot points
  return opt;
}

// Waits until `min_snapshots` checkpoint files exist, then SIGKILLs the
// child. False when the child finished first (callers skip — the machine
// outran the throttle).
bool WaitForSnapshotsThenKill(pid_t pid, const fs::path& ckpt_dir,
                              size_t min_snapshots) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool killed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (CountSnapshots(ckpt_dir) >= min_snapshots) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!killed) ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return killed && WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
}

std::vector<std::string> ReferenceRows(const Trace& trace) {
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  EXPECT_TRUE(low.ok() && high.ok());
  TwoLevelRuntime ref(*low, {*high});
  EXPECT_TRUE(ref.Run(trace).ok());
  return RowsAsStrings(ref.high_node(0).DrainOutput());
}

TEST_F(NetSourceCrashTest, SigkillPcapIngestResumesByteIdentically) {
  Trace trace = TraceGenerator::MakeResearchFeed(30.0, 42);
  const std::string pcap_path = (dir_ / "stream.pcap").string();
  ASSERT_TRUE(WritePcap(trace, pcap_path).ok());
  const fs::path ckpt = dir_ / "ckpt";
  fs::create_directories(ckpt);

  const pid_t pid = fork();
  if (pid == 0) {
    auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
    auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
    if (!low.ok() || !high.ok()) _exit(3);
    TwoLevelRuntime rt(*low, {*high},
                       CheckpointedSourceOptions(ckpt.string()));
    PcapReader inner(PcapReaderConfig{pcap_path});
    ResumableFaultConfig fc;  // throttle so the parent can kill mid-file
    fc.stall_every_reads = 1;
    fc.stall_ms = 4;
    FaultyResumableSource src(&inner, fc);
    auto report = rt.RunSource(src);
    _exit(report.ok() ? 0 : 4);
  }
  if (!WaitForSnapshotsThenKill(pid, ckpt, 2)) {
    GTEST_SKIP() << "child completed before SIGKILL";
  }
  ASSERT_GE(CountSnapshots(ckpt), 1u);

  const std::vector<std::string> reference = ReferenceRows(trace);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  TwoLevelRuntime rt(*low, {*high},
                     CheckpointedSourceOptions(ckpt.string()));
  ASSERT_TRUE(rt.recovered()) << "no valid snapshot was restored";
  PcapReader reader(PcapReaderConfig{pcap_path});
  auto report = rt.RunSource(reader);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->sources.size(), 1u);
  EXPECT_TRUE(report->sources[0].resumed_from_offset)
      << "recovery should seek the pcap, not replay from byte 0";
  EXPECT_GT(report->sources[0].stats.resume_offset, 0u);
  // The re-seeked run read strictly fewer records than the whole capture.
  EXPECT_LT(report->packets, trace.size());

  const std::vector<std::string> recovered =
      RowsAsStrings(rt.high_node(0).DrainOutput());
  ASSERT_LE(recovered.size(), reference.size());
  const std::vector<std::string> tail(reference.end() - recovered.size(),
                                      reference.end());
  EXPECT_EQ(recovered, tail);
}

TEST_F(NetSourceCrashTest, SigkillTcpIngestResumesViaHelloByteIdentically) {
  Trace trace = TraceGenerator::MakeResearchFeed(30.0, 42);
  const fs::path ckpt = dir_ / "ckpt";
  fs::create_directories(ckpt);

  // The producer is a separate *process* (forked before anything else is
  // multithreaded): it survives the consumer's SIGKILL, lingers, and serves
  // the restarted consumer's resume handshake.
  TraceSenderConfig scfg;
  scfg.records = trace.packets();
  scfg.records_per_frame = 61;
  scfg.records_per_sec = static_cast<double>(trace.size()) / 6.0;
  scfg.handshake_timeout_ms = 60000;
  scfg.linger_ms = 120000;
  TraceSender sender(std::move(scfg));
  ASSERT_TRUE(sender.BindTcp(0).ok());
  const uint16_t port = sender.tcp_port();
  const pid_t producer = fork();
  if (producer == 0) {
    sender.ServeTcp();
    _exit(0);
  }

  SocketSourceConfig cfg;
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = port;
  cfg.read_timeout_ms = 50;

  const pid_t consumer = fork();
  if (consumer == 0) {
    auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
    auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
    if (!low.ok() || !high.ok()) _exit(3);
    TwoLevelRuntime rt(*low, {*high},
                       CheckpointedSourceOptions(ckpt.string()));
    SocketSource src(cfg);
    auto report = rt.RunSource(src);
    _exit(report.ok() ? 0 : 4);
  }
  const bool killed = WaitForSnapshotsThenKill(consumer, ckpt, 2);
  if (!killed) {
    ::kill(producer, SIGKILL);
    ::waitpid(producer, nullptr, 0);
    GTEST_SKIP() << "consumer completed before SIGKILL";
  }

  // Restarted consumer: restores operator state + offset, re-HELLOs at the
  // offset; the producer's unlimited replay makes the resume lossless, so
  // the recovered output must be a byte-identical reference suffix.
  const std::vector<std::string> reference = ReferenceRows(trace);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  TwoLevelRuntime rt(*low, {*high},
                     CheckpointedSourceOptions(ckpt.string()));
  ASSERT_TRUE(rt.recovered()) << "no valid snapshot was restored";
  SocketSource src(cfg);
  auto report = rt.RunSource(src);
  ::kill(producer, SIGKILL);
  ::waitpid(producer, nullptr, 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->sources.size(), 1u);
  EXPECT_TRUE(report->sources[0].resumed_from_offset);
  EXPECT_GT(report->sources[0].stats.resume_offset, 0u);
  EXPECT_EQ(report->sources[0].stats.gaps, 0u)
      << "an unlimited replay window must make the resume lossless";

  const std::vector<std::string> recovered =
      RowsAsStrings(rt.high_node(0).DrainOutput());
  ASSERT_LE(recovered.size(), reference.size());
  const std::vector<std::string> tail(reference.end() - recovered.size(),
                                      reference.end());
  EXPECT_EQ(recovered, tail);
}

}  // namespace
}  // namespace streamop
