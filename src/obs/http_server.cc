#include "obs/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace streamop {
namespace obs {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// `extra_headers`, when non-empty, is appended verbatim before the blank
// line; each header must carry its own trailing CRLF.
std::string MakeResponse(int status, const char* reason,
                         const char* content_type, std::string body,
                         const char* extra_headers = "") {
  char head[384];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "%s"
                "\r\n",
                status, reason, content_type, body.size(), extra_headers);
  std::string out(head);
  out += body;
  return out;
}

// Machine-parseable error body: {"error": {"code": N, "message": "..."}}.
// `detail_json`, when non-empty, is spliced in as extra key/value pairs.
std::string JsonError(int status, const char* reason, const char* message,
                      const std::string& detail_json = "",
                      const char* extra_headers = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"error\": {\"code\": %d, \"message\": \"%s\"",
                status, message);
  std::string body(buf);
  if (!detail_json.empty()) {
    body += ", ";
    body += detail_json;
  }
  body += "}}\n";
  return MakeResponse(status, reason, "application/json", std::move(body),
                      extra_headers);
}

std::string NotFound() {
  return JsonError(404, "Not Found", "not found",
                   "\"endpoints\": [\"/metrics\", \"/metrics.json\", "
                   "\"/spans\", \"/spans/window/{seq}\", "
                   "\"/profile\", \"/exemplars\", \"/windows\", "
                   "\"/timeseries\", \"/alerts\", \"/forensics\", "
                   "\"/dashboard\", \"/healthz\"]");
}

std::string BadRequest(const char* message = "bad request") {
  return JsonError(400, "Bad Request", message);
}

// Value of `key` in a query string ("" when absent or valueless). No
// %-decoding: the introspection endpoints take only integers and keywords.
std::string_view QueryParam(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    std::string_view pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return {};
}

// Strict non-empty decimal uint64 parse (no sign, no trailing junk).
bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// %-decoding for /timeseries?metric=: series keys carry '{', '}', '"' and
// '=' which well-behaved clients percent-encode. '+' means space.
std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
      } else {
        out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

// The live dashboard: one dependency-free self-refreshing page. Sparklines
// are inline SVG built from /timeseries; the alert board polls /alerts.
constexpr const char kDashboardHtml[] = R"HTML(<!doctype html>
<html><head><meta charset="utf-8"><title>streamop dashboard</title>
<style>
body{font-family:monospace;background:#111;color:#ddd;margin:16px}
h1{font-size:16px} h2{font-size:13px;color:#9ad;margin:12px 0 4px}
table{border-collapse:collapse;font-size:12px}
td,th{padding:2px 8px;border-bottom:1px solid #333;text-align:left}
.firing{color:#f55;font-weight:bold}.pending{color:#fa0}.inactive{color:#5a5}
.critical{background:#400}.warning{background:#430}.info{background:#224}
svg{vertical-align:middle}
.spark{stroke:#6cf;stroke-width:1;fill:none}
.muted{color:#777}
</style></head><body>
<h1>streamop flight deck <span id=ts class=muted></span></h1>
<h2>alerts</h2><table id=alerts></table>
<h2>headline series (rate/s for counters)</h2><table id=series></table>
<script>
const HEADLINE=[/^streamop_operator_tuples_total/,/^streamop_runtime_shed_fraction/,
 /^streamop_ring_push_failures_total/,/^streamop_ingest_gap_records_total/,
 /^streamop_operator_late_tuples_total/,/^streamop_checkpoint_age_windows/,
 /^streamop_quality_sum_ci95/,/^streamop_operator_rows_out_total/];
function spark(pts){
 if(!pts.length)return'';
 const w=180,h=24,vs=pts.map(p=>p[2]!==null&&p.length>2?p[2]:p[1]);
 const mx=Math.max(...vs),mn=Math.min(...vs),rg=(mx-mn)||1;
 const xy=vs.map((v,i)=>`${(i*w/Math.max(1,vs.length-1)).toFixed(1)},`+
   `${(h-2-(v-mn)/rg*(h-4)).toFixed(1)}`).join(' ');
 return`<svg width=${w} height=${h}><polyline class=spark points="${xy}"/></svg>`+
   `<span class=muted> ${vs[vs.length-1].toPrecision(4)}</span>`;
}
async function tick(){
 try{
  const al=await(await fetch('/alerts')).json();
  let h='<tr><th>rule</th><th>severity</th><th>state</th><th>value</th><th>threshold</th><th>fired</th></tr>';
  (al.rules||[]).forEach(r=>{
   h+=`<tr class=${r.severity}><td>${r.name}</td><td>${r.severity}</td>`+
      `<td class=${r.state}>${r.state}</td><td>${r.value===null?'-':r.value}</td>`+
      `<td>${r.threshold}</td><td>${r.times_fired}</td></tr>`;});
  document.getElementById('alerts').innerHTML=h;
  const ls=await(await fetch('/timeseries')).json();
  const keys=(ls.series||[]).map(s=>s.key)
    .filter(k=>HEADLINE.some(re=>re.test(k))).slice(0,16);
  let sh='<tr><th>series</th><th>last 60s</th></tr>';
  for(const k of keys){
   const r=await(await fetch('/timeseries?metric='+encodeURIComponent(k)+
     '&range=60')).json();
   const s=(r.series||[])[0];
   if(!s)continue;
   const pts=s.kind==='counter'?s.points.map(p=>[p[0],p[2],p[2]]):s.points;
   sh+=`<tr><td>${k}</td><td>${spark(pts)}</td></tr>`;
  }
  document.getElementById('series').innerHTML=sh;
  document.getElementById('ts').textContent=
    '· '+new Date().toLocaleTimeString()+(ls.enabled===false?' (timeseries disabled)':'');
 }catch(e){document.getElementById('ts').textContent='· fetch error: '+e;}
}
tick();setInterval(tick,2000);
</script></body></html>
)HTML";

}  // namespace

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.registry == nullptr) options_.registry = &MetricRegistry::Default();
  if (options_.quality_ring == nullptr) {
    options_.quality_ring = &QualityRing::Default();
  }
  if (options_.span_ring == nullptr) options_.span_ring = &SpanRing::Default();
  if (options_.profiler == nullptr) options_.profiler = &Profiler::Default();
  if (options_.exemplars == nullptr) {
    options_.exemplars = &ExemplarStore::Default();
  }
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_request_bytes < 64) options_.max_request_bytes = 64;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("http server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket(): " + std::string(strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal("bind(" + options_.bind_address + ":" +
                                 std::to_string(options_.port) +
                                 "): " + strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 16) < 0) {
    Status st = Status::Internal("listen(): " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  // Resolve the ephemeral port before the thread starts so callers can
  // read port() immediately after Start() returns.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  if (!SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("fcntl(O_NONBLOCK) failed on listen socket");
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&HttpServer::ServeLoop, this);
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire) && !thread_.joinable()) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void HttpServer::CloseAll() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::AcceptNew(int64_t now_ms) {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN / EWOULDBLOCK: drained
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    if (conns_.size() >=
        static_cast<size_t>(options_.max_connections)) {
      // Over the cap: answer 503 with a best-effort single send. The
      // socket buffer always holds this short response, so no state
      // machine is needed for the reject path.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      // Retry-After: the pressure is scrape concurrency, not load — a
      // one-second backoff is always enough for a slot to free up.
      std::string resp = JsonError(503, "Service Unavailable",
                                   "connection limit reached", "",
                                   "Retry-After: 1\r\n");
      (void)::send(fd, resp.data(), resp.size(), MSG_NOSIGNAL);
      // Consume the request if it has arrived: closing with unread bytes
      // sends a RST, which can destroy the 503 before the client reads it.
      char sink[1024];
      while (::recv(fd, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
      }
      ::close(fd);
      continue;
    }
    Conn c;
    c.fd = fd;
    c.last_activity_ms = now_ms;
    conns_.push_back(std::move(c));
  }
}

std::string HttpServer::HandleRequest(std::string_view head) {
  // Request line: METHOD SP TARGET SP VERSION CRLF ...
  size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) eol = head.find('\n');
  std::string_view line =
      eol == std::string_view::npos ? head : head.substr(0, eol);
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return BadRequest();
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return BadRequest();
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") return BadRequest();
  if (method != "GET" && method != "HEAD") {
    return JsonError(405, "Method Not Allowed", "only GET is supported");
  }
  // Split off the query string; /profile and /spans take parameters.
  std::string_view query;
  size_t q = target.find('?');
  if (q != std::string_view::npos) {
    query = target.substr(q + 1);
    target = target.substr(0, q);
  }

  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (target == "/metrics") {
    return MakeResponse(200, "OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        options_.registry->ToPrometheus());
  }
  if (target == "/metrics.json") {
    return MakeResponse(200, "OK", "application/json",
                        options_.registry->ToJson());
  }
  if (target == "/spans") {
    return MakeResponse(200, "OK", "application/json",
                        QueryParam(query, "format") == "chrome"
                            ? options_.span_ring->ToChromeTraceJson()
                            : options_.span_ring->ToJson());
  }
  constexpr std::string_view kSpansWindow = "/spans/window/";
  if (target.substr(0, kSpansWindow.size()) == kSpansWindow) {
    uint64_t seq = 0;
    if (!ParseU64(target.substr(kSpansWindow.size()), &seq)) {
      return BadRequest("bad window sequence; want /spans/window/{seq}");
    }
    return MakeResponse(200, "OK", "application/json",
                        options_.span_ring->WindowJson(seq));
  }
  if (target == "/profile") {
    if (QueryParam(query, "format") == "phases") {
      return MakeResponse(200, "OK", "application/json",
                          options_.profiler->PhasesJson());
    }
    uint64_t seconds = 0;  // 0 = every retained sample
    const std::string_view s = QueryParam(query, "seconds");
    if (!s.empty() && !ParseU64(s, &seconds)) {
      return BadRequest("bad seconds; want /profile?seconds=N");
    }
    // Export only: symbolization and aggregation run on this serving
    // thread against the always-on sample ring — never blocking for N
    // seconds, never touching the pipeline.
    return MakeResponse(200, "OK", "text/plain; charset=utf-8",
                        options_.profiler->Folded(seconds));
  }
  if (target == "/exemplars") {
    return MakeResponse(200, "OK", "application/json",
                        options_.exemplars->ToJson());
  }
  if (target == "/windows") {
    return MakeResponse(200, "OK", "application/json",
                        options_.quality_ring->ToJson());
  }
  if (target == "/timeseries") {
    if (options_.timeseries == nullptr) {
      return MakeResponse(200, "OK", "application/json",
                          "{\"enabled\": false}\n");
    }
    const std::string metric = UrlDecode(QueryParam(query, "metric"));
    if (metric.empty()) {
      return MakeResponse(200, "OK", "application/json",
                          options_.timeseries->SeriesListJson());
    }
    uint64_t range_s = 60;
    const std::string_view r = QueryParam(query, "range");
    if (!r.empty() && !ParseU64(r, &range_s)) {
      return BadRequest("bad range; want /timeseries?metric=...&range=N");
    }
    return MakeResponse(
        200, "OK", "application/json",
        options_.timeseries->RangeJson(metric,
                                       static_cast<double>(range_s)));
  }
  if (target == "/alerts") {
    if (options_.alerts == nullptr) {
      return MakeResponse(200, "OK", "application/json",
                          "{\"enabled\": false}\n");
    }
    return MakeResponse(200, "OK", "application/json",
                        options_.alerts->ToJson());
  }
  if (target == "/forensics") {
    std::string body = "{\"enabled\": ";
    const FlightRecorder* fr = options_.flight_recorder;
    body += fr != nullptr && fr->enabled() ? "true" : "false";
    if (fr != nullptr && fr->enabled()) {
      body += ", \"segment\": \"" + fr->segment_path() + "\"";
      body += ", \"spills\": " + std::to_string(fr->spills());
      body += ", \"spill_failures\": " + std::to_string(fr->spill_failures());
      body += ", \"last_spill_ms\": " +
              std::to_string(fr->last_spill_ns() / 1000000);
    }
    // The pre-crash report of the previous process, when one was loaded.
    body += ", \"report\": ";
    const std::string report =
        options_.forensics_json ? options_.forensics_json() : "";
    body += report.empty() ? "null" : report;
    body += "}\n";
    return MakeResponse(200, "OK", "application/json", std::move(body));
  }
  if (target == "/dashboard") {
    return MakeResponse(200, "OK", "text/html; charset=utf-8",
                        kDashboardHtml);
  }
  if (target == "/healthz") {
    bool healthy = options_.healthy ? options_.healthy() : true;
    std::string body = options_.health_json ? options_.health_json()
                                            : "{\"status\": \"ok\"}\n";
    // A critical alert (or watchdog verdict) flips /healthz to 503;
    // Retry-After tells load balancers to probe again rather than eject
    // the instance permanently.
    return healthy
               ? MakeResponse(200, "OK", "application/json", std::move(body))
               : MakeResponse(503, "Service Unavailable", "application/json",
                              std::move(body), "Retry-After: 2\r\n");
  }
  return NotFound();
}

bool HttpServer::OnReadable(Conn& c, int64_t now_ms) {
  char buf[2048];
  for (;;) {
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.last_activity_ms = now_ms;
      c.in.append(buf, static_cast<size_t>(n));
      if (c.in.size() > options_.max_request_bytes) {
        c.out = BadRequest();
        c.writing = true;
        return true;
      }
      continue;
    }
    if (n == 0) return false;  // peer closed before a full request
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // hard error
  }
  // Serve as soon as the header block is complete; request bodies are not
  // supported (GET only).
  size_t end = c.in.find("\r\n\r\n");
  if (end == std::string::npos) end = c.in.find("\n\n");
  if (end != std::string::npos) {
    c.out = HandleRequest(std::string_view(c.in).substr(0, end));
    c.writing = true;
  }
  return true;
}

bool HttpServer::OnWritable(Conn& c) {
  while (c.out_off < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                       c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return false;  // fully written: Connection: close
}

void HttpServer::ServeLoop() {
  std::vector<pollfd> pfds;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const Conn& c : conns_) {
      pfds.push_back(
          pollfd{c.fd, static_cast<short>(c.writing ? POLLOUT : POLLIN), 0});
    }
    // 100ms cap keeps Stop() responsive without busy-waiting.
    int rc = ::poll(pfds.data(), pfds.size(), 100);
    const int64_t now_ms = NowMs();
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    // Scan the connections that were actually polled, with conns_ held
    // stable so index i stays aligned with pfds[i + 1]; dead sockets are
    // only marked here and compacted below. Accepting happens last —
    // erasing or accepting mid-scan would pair conns with the wrong (or
    // nonexistent) pollfd entries.
    const size_t npolled = conns_.size();
    for (size_t i = 0; i < npolled; ++i) {
      Conn& c = conns_[i];
      const short rev = pfds[i + 1].revents;
      bool keep = true;
      if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
        keep = false;
      } else if (c.writing && (rev & POLLOUT)) {
        keep = OnWritable(c);
      } else if (!c.writing && (rev & POLLIN)) {
        keep = OnReadable(c, now_ms);
      } else if (now_ms - c.last_activity_ms > options_.idle_timeout_ms) {
        keep = false;  // reap idle sockets so slots cannot be pinned
      }
      if (!keep) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const Conn& c) { return c.fd < 0; }),
                 conns_.end());

    if (pfds[0].revents & POLLIN) AcceptNew(now_ms);
  }
  CloseAll();
}

Result<std::string> HttpGet(uint16_t port, const std::string& path,
                            int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket(): " + std::string(strerror(errno)));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Internal("connect(127.0.0.1:" + std::to_string(port) +
                                 "): " + strerror(errno));
    ::close(fd);
    return st;
  }
  std::string req = "GET " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    ssize_t n = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("send() failed");
    }
    off += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      resp.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::IOError("recv() timed out or failed");
    }
    break;  // EOF
  }
  ::close(fd);
  if (resp.empty()) return Status::IOError("empty response");
  return resp;
}

}  // namespace obs
}  // namespace streamop
