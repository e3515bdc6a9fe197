#include "net/trace_generator.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "net/flow_generator.h"

namespace streamop {

namespace {

// Magic + version header for the binary trace format.
constexpr char kTraceMagic[8] = {'S', 'O', 'P', 'T', 'R', 'C', '0', '1'};

}  // namespace

uint64_t Trace::TotalBytes() const {
  uint64_t total = 0;
  for (const PacketRecord& p : packets_) total += p.len;
  return total;
}

double Trace::DurationSec() const {
  if (packets_.empty()) return 0.0;
  return static_cast<double>(packets_.back().ts_ns) * 1e-9;
}

std::vector<uint64_t> Trace::BytesPerWindow(uint64_t window_sec) const {
  std::vector<uint64_t> out;
  for (const PacketRecord& p : packets_) {
    uint64_t w = p.ts_sec() / window_sec;
    if (w >= out.size()) out.resize(w + 1, 0);
    out[w] += p.len;
  }
  return out;
}

std::vector<uint64_t> Trace::PacketsPerWindow(uint64_t window_sec) const {
  std::vector<uint64_t> out;
  for (const PacketRecord& p : packets_) {
    uint64_t w = p.ts_sec() / window_sec;
    if (w >= out.size()) out.resize(w + 1, 0);
    out[w] += 1;
  }
  return out;
}

Status Trace::SaveTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  uint64_t n = packets_.size();
  bool ok = std::fwrite(kTraceMagic, sizeof(kTraceMagic), 1, f) == 1 &&
            std::fwrite(&n, sizeof(n), 1, f) == 1 &&
            (n == 0 || std::fwrite(packets_.data(), sizeof(PacketRecord), n,
                                   f) == n);
  std::fclose(f);
  if (!ok) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<Trace> Trace::LoadFrom(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  char magic[8];
  uint64_t n = 0;
  if (std::fread(magic, sizeof(magic), 1, f) != 1 ||
      std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0 ||
      std::fread(&n, sizeof(n), 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("bad trace header: " + path);
  }
  std::vector<PacketRecord> packets(n);
  if (n > 0 && std::fread(packets.data(), sizeof(PacketRecord), n, f) != n) {
    std::fclose(f);
    return Status::IOError("truncated trace body: " + path);
  }
  std::fclose(f);
  return Trace(std::move(packets));
}

TraceGenerator::TraceGenerator(TraceGenConfig config)
    : cfg_(config),
      src_zipf_(config.num_src_addrs, config.zipf_s),
      dst_zipf_(config.num_dst_addrs, config.zipf_s) {}

uint16_t TraceGenerator::SampleLength(Pcg64& rng) const {
  double u = rng.NextDouble();
  if (u < cfg_.p_small) {
    return static_cast<uint16_t>(40 + rng.NextBounded(13));  // 40..52
  }
  if (u < cfg_.p_small + cfg_.p_medium) {
    return static_cast<uint16_t>(400 + rng.NextBounded(301));  // 400..700
  }
  return static_cast<uint16_t>(1400 + rng.NextBounded(101));  // 1400..1500
}

Trace TraceGenerator::Generate(RateModel& rate_model) {
  Pcg64 rng(cfg_.seed);
  std::vector<PacketRecord> packets;

  const uint64_t duration_ns =
      static_cast<uint64_t>(cfg_.duration_sec * 1e9);
  const uint64_t tick_ns = static_cast<uint64_t>(cfg_.rate_tick_sec * 1e9);

  uint64_t now_ns = 0;
  uint64_t tick_end_ns = 0;
  double rate = 1.0;

  // Rough reservation: average of first rate draw times duration.
  packets.reserve(static_cast<size_t>(
      rate_model.RateAt(0.0, rng) * cfg_.duration_sec * 1.1) + 16);

  while (now_ns < duration_ns) {
    if (now_ns >= tick_end_ns) {
      rate = rate_model.RateAt(static_cast<double>(now_ns) * 1e-9, rng);
      if (rate < 1.0) rate = 1.0;
      tick_end_ns += tick_ns;
      continue;
    }
    // Poisson arrivals at the current rate.
    double gap_sec = rng.NextExponential(rate);
    uint64_t gap_ns = static_cast<uint64_t>(gap_sec * 1e9) + 1;
    now_ns += gap_ns;
    if (now_ns >= duration_ns) break;
    if (now_ns >= tick_end_ns) continue;  // re-draw the rate first

    PacketRecord p;
    p.ts_ns = now_ns;
    p.src_ip = cfg_.src_base + static_cast<uint32_t>(src_zipf_.Sample(rng));
    p.dst_ip = cfg_.dst_base + static_cast<uint32_t>(dst_zipf_.Sample(rng));
    bool to_server = rng.NextBernoulli(0.5);
    uint16_t server_port = static_cast<uint16_t>(
        80 + rng.NextBounded(cfg_.num_server_ports));
    uint16_t client_port =
        static_cast<uint16_t>(1024 + rng.NextBounded(64000));
    p.src_port = to_server ? client_port : server_port;
    p.dst_port = to_server ? server_port : client_port;
    p.proto = rng.NextBernoulli(0.85) ? kProtoTcp : kProtoUdp;
    p.len = SampleLength(rng);
    packets.push_back(p);
  }
  return Trace(std::move(packets));
}

Trace TraceGenerator::MakeResearchFeed(double duration_sec, uint64_t seed) {
  TraceGenConfig cfg;
  cfg.duration_sec = duration_sec;
  cfg.seed = seed;
  TraceGenerator gen(cfg);
  // "5,000 to 15,000 packets per second, with a rate that is highly
  // variable": the high state covers the paper's band; the low state drops
  // well below it so that consecutive 20 s windows can differ by an order
  // of magnitude — the condition that exposes the non-relaxed threshold
  // carry-over failure of Fig. 2.
  MarkovBurstRateModel::Params p;
  p.high_rate_pps = 15000.0;
  p.low_rate_pps = 700.0;
  p.mean_high_holding_sec = 25.0;
  p.mean_low_holding_sec = 20.0;
  p.within_state_spread = 0.35;
  MarkovBurstRateModel rate(p);
  return gen.Generate(rate);
}

Trace TraceGenerator::MakeDataCenterFeed(double duration_sec, uint64_t seed) {
  TraceGenConfig cfg;
  cfg.duration_sec = duration_sec;
  cfg.seed = seed;
  cfg.num_src_addrs = 20000;
  cfg.num_dst_addrs = 20000;
  TraceGenerator gen(cfg);
  ConstantRateModel rate(100000.0, 0.02);
  return gen.Generate(rate);
}

Result<Trace> TraceGenerator::MakeFeed(std::string_view name,
                                       double duration_sec, uint64_t seed) {
  if (name == "research") return MakeResearchFeed(duration_sec, seed);
  if (name == "datacenter") return MakeDataCenterFeed(duration_sec, seed);
  if (name == "ddos") {
    FlowTraceConfig cfg;
    cfg.duration_sec = duration_sec;
    cfg.seed = seed;
    cfg.attack_enabled = true;
    cfg.attack_start_sec = duration_sec / 3;
    cfg.attack_duration_sec = duration_sec / 3;
    return GenerateFlowTrace(cfg);
  }
  return Status::InvalidArgument("unknown feed '" + std::string(name) +
                                 "' (expected research, datacenter or ddos)");
}

}  // namespace streamop
