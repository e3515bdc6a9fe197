// TraceGenerator: builds in-memory packet traces from a rate model, a Zipf
// address popularity model, and an empirical packet-length mixture.

#ifndef STREAMOP_NET_TRACE_GENERATOR_H_
#define STREAMOP_NET_TRACE_GENERATOR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/packet.h"
#include "net/rate_model.h"

namespace streamop {

/// A generated (or loaded) trace: a flat arena of PacketRecords sorted by
/// timestamp, plus summary statistics used as ground truth in tests.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<PacketRecord> packets)
      : packets_(std::move(packets)) {}

  const std::vector<PacketRecord>& packets() const { return packets_; }
  std::vector<PacketRecord>& mutable_packets() { return packets_; }
  size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }
  const PacketRecord& at(size_t i) const { return packets_[i]; }

  uint64_t TotalBytes() const;
  double DurationSec() const;

  /// Ground-truth sum of `len` per fixed window (window w covers
  /// [w*window_sec, (w+1)*window_sec)). Used by accuracy experiments.
  std::vector<uint64_t> BytesPerWindow(uint64_t window_sec) const;

  /// Ground-truth packet count per fixed window.
  std::vector<uint64_t> PacketsPerWindow(uint64_t window_sec) const;

  /// Binary save/load (little-endian PacketRecord array with a small
  /// header); lets benchmarks reuse one generated trace across runs.
  Status SaveTo(const std::string& path) const;
  static Result<Trace> LoadFrom(const std::string& path);

 private:
  std::vector<PacketRecord> packets_;
};

/// Configuration for synthetic trace generation.
struct TraceGenConfig {
  double duration_sec = 60.0;
  uint64_t seed = 42;

  // Address model: ranks drawn from Zipf(s) over the address pools.
  uint64_t num_src_addrs = 2000;
  uint64_t num_dst_addrs = 4000;
  double zipf_s = 1.1;
  uint32_t src_base = 0x0a000000;  // 10.0.0.0
  uint32_t dst_base = 0xc0a80000;  // 192.168.0.0

  // Length model: classic trimodal internet mix (small ACKs, mid-size,
  // MTU-size) with uniform smear inside each mode.
  double p_small = 0.50;   // ~40-52 B
  double p_medium = 0.25;  // ~400-700 B
  // remainder: ~1400-1500 B

  // Port model.
  uint16_t num_server_ports = 16;

  // Rate model tick: how often the instantaneous rate is re-sampled.
  double rate_tick_sec = 1.0;
};

/// Generates traces; the rate model is supplied by the caller so the same
/// address/length configuration can be paired with any load shape.
class TraceGenerator {
 public:
  explicit TraceGenerator(TraceGenConfig config);

  /// Generates a full trace using the supplied rate model.
  Trace Generate(RateModel& rate_model);

  /// Convenience: the "research center" feed of the paper — 5k-15k pkt/s,
  /// highly variable (Markov-modulated bursts).
  static Trace MakeResearchFeed(double duration_sec, uint64_t seed);

  /// Convenience: the "data center tap" — steady ~100k pkt/s.
  static Trace MakeDataCenterFeed(double duration_sec, uint64_t seed);

  /// The named feeds of the command-line tools: "research"
  /// (MakeResearchFeed), "datacenter" (MakeDataCenterFeed) or "ddos" (a
  /// flow trace whose middle third is a DDoS flood, GenerateFlowTrace).
  /// Any other name is InvalidArgument.
  static Result<Trace> MakeFeed(std::string_view name, double duration_sec,
                                uint64_t seed);

 private:
  uint16_t SampleLength(Pcg64& rng) const;

  TraceGenConfig cfg_;
  ZipfDistribution src_zipf_;
  ZipfDistribution dst_zipf_;
};

}  // namespace streamop

#endif  // STREAMOP_NET_TRACE_GENERATOR_H_
