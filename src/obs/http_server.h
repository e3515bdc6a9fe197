// Embedded introspection server: a dependency-free POSIX-socket HTTP/1.1
// endpoint that exposes the process's observability state while the
// pipeline runs.
//
//   GET /metrics             Prometheus text exposition (MetricRegistry)
//   GET /metrics.json        the same registry as JSON
//   GET /spans               window-lifecycle spans from the SpanRing
//                            (?format=chrome for chrome://tracing JSON)
//   GET /spans/window/{seq}  spans of one window lifecycle
//   GET /profile             folded-stack flamegraph text from the sampling
//                            profiler (?seconds=N limits the lookback;
//                            ?format=phases for phase totals in ns)
//   GET /exemplars           reservoir-sampled telemetry exemplars
//   GET /windows             recent WindowQualityReports (QualityRing)
//   GET /timeseries          series list; ?metric=&range= for point data
//                            from the metrics time-series ring
//   GET /alerts              alert board: rules, states, transition log
//   GET /forensics           flight-recorder status + the pre-crash report
//                            loaded on recovery (if any)
//   GET /dashboard           self-refreshing HTML: sparklines + alert board
//   GET /healthz             liveness + degradation (200 ok / 503 unhealthy,
//                            with Retry-After while critical alerts fire)
//
// Every error (400/404/405 and the connection-limit 503) carries a JSON
// body {"error": {"code", "message", ...}}; the connection-limit 503 adds
// Retry-After so well-behaved scrapers back off instead of hammering.
//
// Design constraints, in the spirit of DESIGN.md §7:
//  - Zero dependencies: raw sockets + poll(); no third-party HTTP stack.
//  - One dedicated thread; the pipeline threads never block on it. All
//    exported state is read through the same thread-safe snapshot paths
//    the file exporters use (registry mutex, ring snapshots).
//  - Bounded: at most `max_connections` concurrent sockets (extras get an
//    immediate 503), bounded request size (oversize -> 400), idle sockets
//    reaped after `idle_timeout_ms`.
//  - Clean shutdown: Stop() flips a flag the poll loop observes within
//    ~100ms, then joins; open connections are closed, the listen socket
//    released.
//
// The server itself stays available under STREAMOP_NO_STATS (the
// endpoints then serve empty registries/rings) — only the hot-path
// instrumentation compiles away.

#ifndef STREAMOP_OBS_HTTP_SERVER_H_
#define STREAMOP_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/alerts.h"
#include "obs/exemplar.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace streamop {
namespace obs {

struct HttpServerOptions {
  // 0 picks an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  // Loopback by default: this is an introspection socket, not an ingress.
  std::string bind_address = "127.0.0.1";
  int max_connections = 32;
  size_t max_request_bytes = 8192;
  int idle_timeout_ms = 10000;

  // Data sources; null falls back to the process-wide defaults.
  MetricRegistry* registry = nullptr;
  QualityRing* quality_ring = nullptr;
  SpanRing* span_ring = nullptr;
  Profiler* profiler = nullptr;
  ExemplarStore* exemplars = nullptr;

  // Time-series / alerting / forensics sources (obs/timeseries.h et al.).
  // These have no process-wide defaults: when null the corresponding
  // endpoints answer {"enabled": false} instead of 404, so dashboards can
  // probe capability without special-casing status codes.
  TimeSeries* timeseries = nullptr;
  AlertEngine* alerts = nullptr;
  FlightRecorder* flight_recorder = nullptr;
  // Pre-rendered forensic report of the previous (crashed) process, JSON;
  // served verbatim by /forensics when non-empty.
  std::function<std::string()> forensics_json;

  // /healthz body and status. Defaults: {"status": "ok"} and healthy.
  std::function<std::string()> health_json;
  std::function<bool()> healthy;
};

class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens and launches the serving thread. Fails (kInternal) if
  // the port is taken or sockets are unavailable.
  Status Start();

  // Stops the serving thread and closes every socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound port (resolves ephemeral port 0); valid after Start().
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }

  // Pure request-line -> full HTTP response routing, exposed so tests can
  // exercise every route without sockets. `head` is everything up to and
  // including the blank line.
  std::string HandleRequest(std::string_view head);

 private:
  struct Conn {
    int fd = -1;
    std::string in;        // bytes received so far (bounded)
    std::string out;       // response being written
    size_t out_off = 0;
    bool writing = false;
    int64_t last_activity_ms = 0;
  };

  void ServeLoop();
  void AcceptNew(int64_t now_ms);
  // Returns false when the connection should be closed.
  bool OnReadable(Conn& c, int64_t now_ms);
  bool OnWritable(Conn& c);
  void CloseAll();

  HttpServerOptions options_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::vector<Conn> conns_;
};

// Blocking loopback GET used by tests, the CI smoke step and the
// introspection benchmark: connects to 127.0.0.1:port, sends the request,
// returns the full raw response (status line + headers + body).
Result<std::string> HttpGet(uint16_t port, const std::string& path,
                            int timeout_ms = 2000);

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_HTTP_SERVER_H_
