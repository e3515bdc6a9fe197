// Tests for the embedded introspection server (src/obs/http_server.h):
// request routing, every endpoint over a real loopback socket, malformed
// requests, the connection limit, shutdown while clients are connected, and
// the runtime integration (TwoLevelRuntime with http_port set).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "obs/alerts.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/timeseries.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "query/query.h"

namespace streamop {
namespace {

using obs::HttpGet;
using obs::HttpServer;
using obs::HttpServerOptions;

// Starts a server on an ephemeral loopback port backed by private
// registry/rings so tests never race the process-wide defaults.
struct ServerFixture {
  obs::MetricRegistry registry;
  obs::QualityRing quality_ring{64};
  obs::SpanRing span_ring{64};
  obs::Profiler profiler;
  obs::ExemplarStore exemplars;
  std::unique_ptr<HttpServer> server;

  explicit ServerFixture(HttpServerOptions opts = HttpServerOptions()) {
    opts.port = 0;
    opts.registry = &registry;
    opts.quality_ring = &quality_ring;
    opts.span_ring = &span_ring;
    opts.profiler = &profiler;
    opts.exemplars = &exemplars;
    server = std::make_unique<HttpServer>(opts);
    Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

std::string StatusLine(const std::string& response) {
  size_t eol = response.find("\r\n");
  return eol == std::string::npos ? response : response.substr(0, eol);
}

std::string Body(const std::string& response) {
  size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

std::string Headers(const std::string& response) {
  size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? response : response.substr(0, sep + 2);
}

TEST(HttpServerTest, StartsOnEphemeralPortAndStops) {
  ServerFixture f;
  EXPECT_TRUE(f.server->running());
  EXPECT_GT(f.server->port(), 0);
  f.server->Stop();
  EXPECT_FALSE(f.server->running());
  // Stop is idempotent.
  f.server->Stop();
}

TEST(HttpServerTest, ServesEveryEndpointOverLoopback) {
  ServerFixture f;
  f.registry.GetCounter("streamop_test_total")->Add(5);
  obs::WindowQualityReport rep;
  rep.node = "t";
  f.quality_ring.Push(std::move(rep));

  struct Case {
    const char* path;
    const char* expect;  // substring of the body
  };
  f.span_ring.set_enabled(true);
  obs::SpanRecord span;
  span.name = "window";
  span.window_seq = 7;
  span.ts_ns = 100;
  span.dur_ns = 50;
  f.span_ring.Emit(span);
  const std::vector<Case> cases = {
      {"/healthz", "ok"},
      {"/metrics", "streamop_test_total 5"},
      {"/metrics.json", "\"streamop_test_total\": 5"},
      {"/windows", "\"node\": \"t\""},
      {"/spans", "\"window_seq\": 7"},
      {"/spans?format=chrome", "traceEvents"},
      {"/spans/window/7", "\"name\": \"window\""},
      {"/profile?format=phases", "phase_ns"},
      {"/exemplars", "latency_bands"},
  };
  for (const Case& c : cases) {
    Result<std::string> resp = HttpGet(f.server->port(), c.path);
    ASSERT_TRUE(resp.ok()) << c.path << ": " << resp.status().ToString();
    EXPECT_NE(StatusLine(*resp).find("200"), std::string::npos)
        << c.path << "\n" << *resp;
    if (!obs::kStatsEnabled) continue;  // stats compiled out: empty bodies
    EXPECT_NE(Body(*resp).find(c.expect), std::string::npos)
        << c.path << "\n" << *resp;
  }
  EXPECT_GE(f.server->requests_served(), cases.size());
}

TEST(HttpServerTest, UnknownPathIs404AndQueryStringsAreStripped) {
  ServerFixture f;
  Result<std::string> resp = HttpGet(f.server->port(), "/nope");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_NE(StatusLine(*resp).find("404"), std::string::npos) << *resp;
  // The 404 body is machine-parseable JSON listing the valid endpoints.
  EXPECT_NE(Headers(*resp).find("Content-Type: application/json"),
            std::string::npos)
      << *resp;
  EXPECT_NE(Body(*resp).find("\"code\": 404"), std::string::npos) << *resp;
  EXPECT_NE(Body(*resp).find("\"endpoints\""), std::string::npos) << *resp;
  EXPECT_NE(Body(*resp).find("/spans"), std::string::npos) << *resp;

  resp = HttpGet(f.server->port(), "/healthz?verbose=1");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_NE(StatusLine(*resp).find("200"), std::string::npos) << *resp;
}

TEST(HttpServerTest, ErrorResponsesCarryJsonBodies) {
  ServerFixture f;
  // 405 and 400 via the pure router.
  std::string r405 = f.server->HandleRequest("POST /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(r405.find("\"code\": 405"), std::string::npos) << r405;
  EXPECT_NE(r405.find("application/json"), std::string::npos) << r405;
  std::string r400 = f.server->HandleRequest("garbage");
  EXPECT_NE(r400.find("\"code\": 400"), std::string::npos) << r400;
  EXPECT_NE(r400.find("application/json"), std::string::npos) << r400;
}

TEST(HttpServerTest, EveryEndpointDeclaresItsContentType) {
  ServerFixture f;
  struct Case {
    const char* path;
    const char* content_type;
  };
  const std::vector<Case> cases = {
      {"/metrics", "Content-Type: text/plain; version=0.0.4"},
      {"/metrics.json", "Content-Type: application/json"},
      {"/spans", "Content-Type: application/json"},
      {"/spans/window/1", "Content-Type: application/json"},
      {"/profile", "Content-Type: text/plain; charset=utf-8"},
      {"/profile?format=phases", "Content-Type: application/json"},
      {"/exemplars", "Content-Type: application/json"},
      {"/windows", "Content-Type: application/json"},
      {"/healthz", "Content-Type: application/json"},
      {"/timeseries", "Content-Type: application/json"},
      {"/alerts", "Content-Type: application/json"},
      {"/forensics", "Content-Type: application/json"},
      {"/dashboard", "Content-Type: text/html; charset=utf-8"},
  };
  for (const Case& c : cases) {
    std::string req = std::string("GET ") + c.path + " HTTP/1.1\r\n\r\n";
    std::string resp = f.server->HandleRequest(req);
    EXPECT_NE(resp.find("200"), std::string::npos) << c.path << "\n" << resp;
    EXPECT_NE(resp.find(c.content_type), std::string::npos)
        << c.path << "\n" << resp;
  }
}

TEST(HttpServerTest, SpanAndProfileParametersAreValidated) {
  ServerFixture f;
  // Non-numeric path parameter / query parameter -> 400 with a JSON body.
  std::string bad_seq =
      f.server->HandleRequest("GET /spans/window/abc HTTP/1.1\r\n\r\n");
  EXPECT_NE(bad_seq.find("400"), std::string::npos) << bad_seq;
  EXPECT_NE(bad_seq.find("\"code\": 400"), std::string::npos) << bad_seq;
  std::string bad_seconds =
      f.server->HandleRequest("GET /profile?seconds=abc HTTP/1.1\r\n\r\n");
  EXPECT_NE(bad_seconds.find("400"), std::string::npos) << bad_seconds;
  // Valid parameters parse: an unknown window serves an empty span list.
  std::string empty =
      f.server->HandleRequest("GET /spans/window/999 HTTP/1.1\r\n\r\n");
  EXPECT_NE(empty.find("200"), std::string::npos) << empty;
  EXPECT_NE(empty.find("\"spans\": []"), std::string::npos) << empty;
  std::string ok_seconds =
      f.server->HandleRequest("GET /profile?seconds=5 HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok_seconds.find("200"), std::string::npos) << ok_seconds;
}

TEST(HttpServerTest, RequestRouting) {
  // HandleRequest is the pure request-line parser; exercise it without
  // sockets.
  ServerFixture f;
  EXPECT_NE(f.server->HandleRequest("GET /healthz HTTP/1.1\r\n\r\n")
                .find("200"),
            std::string::npos);
  EXPECT_NE(f.server->HandleRequest("HEAD /healthz HTTP/1.1\r\n\r\n")
                .find("200"),
            std::string::npos);
  EXPECT_NE(f.server->HandleRequest("POST /healthz HTTP/1.1\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(f.server->HandleRequest("garbage").find("400"),
            std::string::npos);
  EXPECT_NE(f.server->HandleRequest("GET /healthz SPDY/9\r\n\r\n")
                .find("400"),
            std::string::npos);
}

TEST(HttpServerTest, HealthEndpointReflectsHealthyCallback) {
  HttpServerOptions opts;
  std::atomic<bool> healthy{true};
  opts.healthy = [&healthy] { return healthy.load(); };
  opts.health_json = [] { return std::string("{\"status\": \"custom\"}\n"); };
  ServerFixture f(opts);

  Result<std::string> resp = HttpGet(f.server->port(), "/healthz");
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(StatusLine(*resp).find("200"), std::string::npos);
  EXPECT_NE(Body(*resp).find("custom"), std::string::npos);

  healthy.store(false);
  resp = HttpGet(f.server->port(), "/healthz");
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(StatusLine(*resp).find("503"), std::string::npos) << *resp;
}

TEST(HttpServerTest, OversizeRequestRejectedWith400) {
  HttpServerOptions opts;
  opts.max_request_bytes = 64;
  ServerFixture f(opts);
  std::string long_path(256, 'a');
  Result<std::string> resp =
      HttpGet(f.server->port(), "/" + long_path);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_NE(StatusLine(*resp).find("400"), std::string::npos) << *resp;
}

// Opens a loopback TCP connection and holds it without sending anything —
// occupies one of the server's connection slots.
int ConnectAndHold(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(HttpServerTest, ConnectionLimitRejectsExcessClients) {
  HttpServerOptions opts;
  opts.max_connections = 2;
  ServerFixture f(opts);
  // Hold every slot open with idle connections, then a further client must
  // be turned away with a best-effort 503.
  int held0 = ConnectAndHold(f.server->port());
  int held1 = ConnectAndHold(f.server->port());
  ASSERT_GE(held0, 0);
  ASSERT_GE(held1, 0);
  // Poll until a rejection is observed: the held sockets are only counted
  // against the cap once the serving thread accepts them.
  bool saw_503 = false;
  std::string rejection;
  for (int attempt = 0; attempt < 50 && !saw_503; ++attempt) {
    Result<std::string> resp = HttpGet(f.server->port(), "/healthz", 1000);
    if (resp.ok() && StatusLine(*resp).find("503") != std::string::npos) {
      saw_503 = true;
      rejection = *resp;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_503);
  // The rejection is machine-parseable and tells the scraper when to come
  // back: JSON error body plus a Retry-After header.
  EXPECT_NE(Headers(rejection).find("Retry-After: 1"), std::string::npos)
      << rejection;
  EXPECT_NE(Body(rejection).find("\"code\": 503"), std::string::npos)
      << rejection;
  EXPECT_GE(f.server->connections_rejected(), 1u);
  // Releasing the slots restores service.
  ::close(held0);
  ::close(held1);
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    Result<std::string> resp = HttpGet(f.server->port(), "/healthz", 1000);
    if (resp.ok() && StatusLine(*resp).find("200") != std::string::npos) {
      recovered = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
}

TEST(HttpServerTest, StopWhileClientsAreConnected) {
  ServerFixture f;
  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      while (go.load()) {
        (void)HttpGet(f.server->port(), "/metrics", 500);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  f.server->Stop();  // must return promptly despite in-flight clients
  EXPECT_FALSE(f.server->running());
  go.store(false);
  for (std::thread& t : threads) t.join();
}

TEST(HttpServerTest, PortAlreadyInUseFailsCleanly) {
  ServerFixture f;
  HttpServerOptions opts;
  opts.port = f.server->port();
  HttpServer second(opts);
  Status s = second.Start();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(second.running());
}

// ---------- flight-recorder stack routes ----------

TEST(HttpServerTest, FlightRoutesServeDisabledStubsWithoutSources) {
  // A server with no timeseries/alerts/flight wired must keep the routes
  // present (scrapers should not 404) but say they are off.
  ServerFixture f;
  for (const char* path : {"/timeseries", "/alerts"}) {
    Result<std::string> resp = HttpGet(f.server->port(), path);
    ASSERT_TRUE(resp.ok()) << path;
    EXPECT_NE(StatusLine(*resp).find("200"), std::string::npos) << *resp;
    EXPECT_NE(Body(*resp).find("\"enabled\": false"), std::string::npos)
        << path << "\n" << *resp;
  }
  Result<std::string> forensics = HttpGet(f.server->port(), "/forensics");
  ASSERT_TRUE(forensics.ok());
  EXPECT_NE(Body(*forensics).find("\"enabled\": false"), std::string::npos)
      << *forensics;
  EXPECT_NE(Body(*forensics).find("\"report\": null"), std::string::npos)
      << *forensics;
  // The dashboard is static HTML and always serves; it degrades
  // client-side when the JSON endpoints report disabled.
  Result<std::string> dash = HttpGet(f.server->port(), "/dashboard");
  ASSERT_TRUE(dash.ok());
  EXPECT_NE(StatusLine(*dash).find("200"), std::string::npos) << *dash;
  EXPECT_NE(Headers(*dash).find("Content-Type: text/html"),
            std::string::npos)
      << *dash;
  EXPECT_NE(Body(*dash).find("streamop dashboard"), std::string::npos);
}

TEST(HttpServerTest, TimeseriesAndAlertRoutesServeLiveData) {
  obs::TimeSeries ts({.capacity = 16, .max_series = 32, .max_points = 32,
                      .max_bucket_deltas = 64, .interval_ms = 100});
  obs::AlertEngine alerts;
  obs::AlertRule rule;
  rule.name = "test_gauge_high";
  rule.metric = "streamop_test_gauge";
  rule.threshold = 10.0;
  rule.severity = obs::AlertSeverity::kCritical;
  alerts.AddRule(rule);

  HttpServerOptions opts;
  opts.timeseries = &ts;
  opts.alerts = &alerts;
  ServerFixture f(opts);

  f.registry.GetCounter("streamop_test_total")->Add(7);
  f.registry.GetGauge("streamop_test_gauge")->Set(3.0);
  uint64_t t_ns = 1000000000ull;
  for (int i = 0; i < 3; ++i) {
    f.registry.GetCounter("streamop_test_total")->Add(5);
    ts.Scrape(f.registry, t_ns += 100000000ull);
    alerts.Evaluate(ts, t_ns);
  }

  Result<std::string> list = HttpGet(f.server->port(), "/timeseries");
  ASSERT_TRUE(list.ok());
  if (obs::kStatsEnabled) {  // stats compiled out: scrapes record nothing
    EXPECT_NE(Body(*list).find("\"streamop_test_total\""), std::string::npos)
        << *list;
  }
  EXPECT_NE(Body(*list).find("\"interval_ms\": 100"), std::string::npos)
      << *list;

  Result<std::string> range = HttpGet(
      f.server->port(), "/timeseries?metric=streamop_test_total&range=60");
  ASSERT_TRUE(range.ok());
  EXPECT_NE(StatusLine(*range).find("200"), std::string::npos) << *range;
  if (obs::kStatsEnabled) {  // stats compiled out: scrapes record nothing
    EXPECT_NE(Body(*range).find("\"points\""), std::string::npos) << *range;
  }

  Result<std::string> bad = HttpGet(
      f.server->port(), "/timeseries?metric=streamop_test_total&range=abc");
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(StatusLine(*bad).find("400"), std::string::npos) << *bad;

  Result<std::string> al = HttpGet(f.server->port(), "/alerts");
  ASSERT_TRUE(al.ok());
  EXPECT_NE(Body(*al).find("\"test_gauge_high\""), std::string::npos) << *al;
  EXPECT_NE(Body(*al).find("\"inactive\""), std::string::npos) << *al;
}

TEST(HttpServerTest, CriticalAlertFlips503WithRetryAfter) {
  obs::TimeSeries ts({.capacity = 16, .max_series = 32, .max_points = 32,
                      .max_bucket_deltas = 64, .interval_ms = 100});
  obs::AlertEngine alerts;
  obs::AlertRule rule;
  rule.name = "test_gauge_high";
  rule.metric = "streamop_test_gauge";
  rule.threshold = 10.0;
  rule.severity = obs::AlertSeverity::kCritical;
  alerts.AddRule(rule);

  HttpServerOptions opts;
  opts.timeseries = &ts;
  opts.alerts = &alerts;
  // The runtime's healthy() consults critical_firing(); mirror that here.
  opts.healthy = [&alerts] { return !alerts.critical_firing(); };
  ServerFixture f(opts);

  Result<std::string> ok = HttpGet(f.server->port(), "/healthz");
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(StatusLine(*ok).find("200"), std::string::npos) << *ok;

  if (!obs::kStatsEnabled) return;  // stats compiled out: no alert fires
  f.registry.GetGauge("streamop_test_gauge")->Set(42.0);
  ts.Scrape(f.registry, 1000000000ull);
  alerts.Evaluate(ts, 1000000000ull);
  ASSERT_TRUE(alerts.critical_firing());

  Result<std::string> sick = HttpGet(f.server->port(), "/healthz");
  ASSERT_TRUE(sick.ok());
  EXPECT_NE(StatusLine(*sick).find("503"), std::string::npos) << *sick;
  EXPECT_NE(Headers(*sick).find("Retry-After: 2"), std::string::npos)
      << *sick;
}

TEST(HttpServerTest, ForensicsRouteCarriesSegmentStatusAndLoadedReport) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "http_forensics_route";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::TimeSeries ts({.capacity = 16, .max_series = 32, .max_points = 32,
                      .max_bucket_deltas = 64, .interval_ms = 100});
  obs::AlertEngine alerts;
  obs::FlightRecorder flight({.dir = dir.string()});

  HttpServerOptions opts;
  opts.timeseries = &ts;
  opts.alerts = &alerts;
  opts.flight_recorder = &flight;
  ServerFixture f(opts);

  f.registry.GetCounter("streamop_test_total")->Add(9);
  ts.Scrape(f.registry, 1000000000ull);
  alerts.Evaluate(ts, 1000000000ull);
  ASSERT_TRUE(flight.Spill(ts, &alerts).ok());

  Result<std::string> resp = HttpGet(f.server->port(), "/forensics");
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(Body(*resp).find("\"enabled\": true"), std::string::npos)
      << *resp;
  if (!obs::kStatsEnabled) return;  // stats compiled out: nothing spilled
  EXPECT_NE(Body(*resp).find("\"spills\": 1"), std::string::npos) << *resp;
  EXPECT_NE(Body(*resp).find("flight.seg"), std::string::npos) << *resp;

  // A loaded pre-crash report is surfaced through the forensics_json hook
  // exactly as TwoLevelRuntime wires it.
  Result<obs::ForensicReport> loaded =
      obs::FlightRecorder::Load(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  HttpServerOptions opts2;
  opts2.flight_recorder = &flight;
  obs::ForensicReport report = *loaded;
  opts2.forensics_json = [&report] { return report.ToJson(); };
  ServerFixture f2(opts2);
  Result<std::string> resp2 = HttpGet(f2.server->port(), "/forensics");
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(Body(*resp2).find("\"report\": null"), std::string::npos)
      << *resp2;
  EXPECT_NE(Body(*resp2).find("\"scrapes\": 1"), std::string::npos) << *resp2;
  fs::remove_all(dir);
}

// ---------- runtime integration ----------

TEST(HttpServerRuntimeTest, TwoLevelRuntimeServesHealthAndMetrics) {
  obs::MetricRegistry reg;
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 3);
  auto low = CompileQuery(
      "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
      "FROM PKT",
      Catalog::Default());
  auto high = CompileQuery(
      "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb",
      Catalog::Default());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  RuntimeOptions options;
  options.registry = &reg;
  options.http_port = 0;  // ephemeral
  TwoLevelRuntime rt(*low, {*high}, options);
  ASSERT_NE(rt.http_server(), nullptr) << rt.http_status().ToString();

  auto report = rt.RunThreaded(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  Result<std::string> health = HttpGet(rt.http_server()->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_NE(StatusLine(*health).find("200"), std::string::npos) << *health;
  EXPECT_NE(Body(*health).find("\"watchdog_fired\": false"),
            std::string::npos)
      << *health;

  Result<std::string> metrics = HttpGet(rt.http_server()->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(Body(*metrics).find("streamop_runtime_shed_fraction"),
            std::string::npos)
      << *metrics;
}

TEST(HttpServerRuntimeTest, DisabledByDefault) {
  auto low = CompileQuery(
      "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
      "FROM PKT",
      Catalog::Default());
  ASSERT_TRUE(low.ok());
  TwoLevelRuntime rt(*low, {});
  EXPECT_EQ(rt.http_server(), nullptr);
  EXPECT_TRUE(rt.http_status().ok());
}

}  // namespace
}  // namespace streamop
