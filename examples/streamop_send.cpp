// streamop_send — replay a trace (saved or generated) to a streamop_cli
// consumer over the SOP1 wire protocol, as a real packet feed would arrive.
//
//   # terminal 1: consumer binds UDP and runs the query over live ingest
//   streamop_cli --udp-port 9400 --source-max-idle-ms 2000 --query "..."
//   # terminal 2: producer streams a saved capture at 50k records/s
//   streamop_send --udp 127.0.0.1:9400 --trace capture.bin --rate 50000
//
//   # TCP: the producer listens, the consumer dials out
//   streamop_send --tcp-listen 9401 --feed datacenter --duration 5
//   streamop_cli --tcp-connect 127.0.0.1:9401 --query "..."
//
// The fault flags (--drop-every, --corrupt-every, --kill-after, --no-fin)
// turn the sender into an adversarial producer for resilience drills.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "net/trace_generator.h"
#include "net/trace_sender.h"

using namespace streamop;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--udp <host:port> | --tcp-listen <port>) [options]\n"
      "  --trace <path>        replay a saved trace (default: generate)\n"
      "  --feed <name>         research | datacenter | ddos (default "
      "research)\n"
      "  --duration <sec>      generated feed duration (default 5)\n"
      "  --seed <n>            generator seed (default 42)\n"
      "  --rate <n>            records per second, 0 = unthrottled "
      "(default 0)\n"
      "  --records-per-frame <n>  batch size per DATA frame\n"
      "  --linger-ms <n>       keep serving resume handshakes after FIN\n"
      "  --replay-window <n>   limit how far back a resume may reach\n"
      "  --handshake-timeout-ms <n>  give up if no consumer appears "
      "(default 10000)\n"
      "  --drop-every <n>      drop every nth DATA frame (seq gap)\n"
      "  --corrupt-every <n>   corrupt every nth DATA frame (CRC reject)\n"
      "  --kill-after <n>      TCP: close the connection every n frames\n"
      "  --kill-mid-frame      with --kill-after: tear the final frame\n"
      "  --no-fin              end without FIN, like a crashing producer\n"
      "  (all options also accept --flag=value)\n",
      argv0);
}

struct Args {
  std::string udp;        // host:port
  int tcp_listen = -1;    // port, -1 = off
  std::string trace_path;
  std::string feed = "research";
  double duration = 5.0;
  uint64_t seed = 42;
  double rate = 0.0;
  size_t records_per_frame = 0;  // 0 = protocol default
  int linger_ms = 0;
  uint64_t replay_window = 0;
  int handshake_timeout_ms = 10000;
  uint64_t drop_every = 0;
  uint64_t corrupt_every = 0;
  uint64_t kill_after = 0;
  bool kill_mid_frame = false;
  bool send_fin = true;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (size_t eq = a.find('=');
        eq != std::string::npos && a.rfind("--", 0) == 0) {
      inline_value = a.substr(eq + 1);
      a = a.substr(0, eq);
      has_inline = true;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--udp") {
      if ((v = next()) == nullptr) return false;
      out->udp = v;
    } else if (a == "--tcp-listen") {
      if ((v = next()) == nullptr) return false;
      out->tcp_listen = std::atoi(v);
    } else if (a == "--trace") {
      if ((v = next()) == nullptr) return false;
      out->trace_path = v;
    } else if (a == "--feed") {
      if ((v = next()) == nullptr) return false;
      out->feed = v;
    } else if (a == "--duration") {
      if ((v = next()) == nullptr) return false;
      out->duration = std::atof(v);
    } else if (a == "--seed") {
      if ((v = next()) == nullptr) return false;
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--rate") {
      if ((v = next()) == nullptr) return false;
      out->rate = std::atof(v);
    } else if (a == "--records-per-frame") {
      if ((v = next()) == nullptr) return false;
      out->records_per_frame = static_cast<size_t>(std::atoll(v));
    } else if (a == "--linger-ms") {
      if ((v = next()) == nullptr) return false;
      out->linger_ms = std::atoi(v);
    } else if (a == "--replay-window") {
      if ((v = next()) == nullptr) return false;
      out->replay_window = std::strtoull(v, nullptr, 10);
    } else if (a == "--handshake-timeout-ms") {
      if ((v = next()) == nullptr) return false;
      out->handshake_timeout_ms = std::atoi(v);
    } else if (a == "--drop-every") {
      if ((v = next()) == nullptr) return false;
      out->drop_every = std::strtoull(v, nullptr, 10);
    } else if (a == "--corrupt-every") {
      if ((v = next()) == nullptr) return false;
      out->corrupt_every = std::strtoull(v, nullptr, 10);
    } else if (a == "--kill-after") {
      if ((v = next()) == nullptr) return false;
      out->kill_after = std::strtoull(v, nullptr, 10);
    } else if (a == "--kill-mid-frame") {
      out->kill_mid_frame = true;
    } else if (a == "--no-fin") {
      out->send_fin = false;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  const bool udp = !args.udp.empty();
  const bool tcp = args.tcp_listen >= 0;
  if (udp == tcp) {  // exactly one transport must be selected
    Usage(argv[0]);
    return 2;
  }

  Trace trace;
  if (!args.trace_path.empty()) {
    Result<Trace> loaded = Trace::LoadFrom(args.trace_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(*loaded);
  } else {
    Result<Trace> feed =
        TraceGenerator::MakeFeed(args.feed, args.duration, args.seed);
    if (!feed.ok()) {
      std::fprintf(stderr, "%s\n", feed.status().ToString().c_str());
      return 2;
    }
    trace = std::move(*feed);
  }
  std::fprintf(stderr, "sending %s records\n",
               FormatWithCommas(trace.size()).c_str());

  // The sender streams straight from `trace`, which outlives it: the
  // trace is held once, not copied into the sender.
  TraceSenderConfig cfg;
  cfg.records = trace.packets();
  if (args.records_per_frame > 0) {
    cfg.records_per_frame = args.records_per_frame;
  } else if (tcp) {
    cfg.records_per_frame = 512;  // TCP is framed, not MTU-bound
  }
  cfg.records_per_sec = args.rate;
  cfg.handshake_timeout_ms = args.handshake_timeout_ms;
  cfg.linger_ms = args.linger_ms;
  cfg.replay_window = args.replay_window;
  cfg.drop_every_nth_frame = args.drop_every;
  cfg.corrupt_every_nth_frame = args.corrupt_every;
  cfg.kill_connection_after_frames = args.kill_after;
  cfg.kill_mid_frame = args.kill_mid_frame;
  cfg.send_fin = args.send_fin;

  TraceSender sender(std::move(cfg));
  Status s;
  if (udp) {
    const size_t colon = args.udp.rfind(':');
    if (colon == std::string::npos || colon + 1 >= args.udp.size()) {
      std::fprintf(stderr, "--udp expects host:port, got '%s'\n",
                   args.udp.c_str());
      return 2;
    }
    const std::string host = args.udp.substr(0, colon);
    const uint16_t port =
        static_cast<uint16_t>(std::atoi(args.udp.c_str() + colon + 1));
    s = sender.RunUdp(host, port);
  } else {
    Status bound = sender.BindTcp(static_cast<uint16_t>(args.tcp_listen));
    if (!bound.ok()) {
      std::fprintf(stderr, "%s\n", bound.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "listening on port %u\n",
                 static_cast<unsigned>(sender.tcp_port()));
    s = sender.ServeTcp();
  }

  const TraceSenderStats& st = sender.stats();
  std::fprintf(
      stderr,
      "sender summary: frames=%llu records=%llu handshakes=%llu "
      "connections=%llu kills=%llu\n",
      static_cast<unsigned long long>(st.frames_sent.load()),
      static_cast<unsigned long long>(st.records_sent.load()),
      static_cast<unsigned long long>(st.handshakes.load()),
      static_cast<unsigned long long>(st.connections.load()),
      static_cast<unsigned long long>(st.kills.load()));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
