// streamop_cli — run any query of the dialect over a synthetic feed or a
// saved trace, from the command line.
//
//   streamop_cli --query "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb"
//   streamop_cli --feed datacenter --duration 10 --query-file q.sql --limit 50
//   streamop_cli --trace capture.bin --query-file q.sql
//   streamop_cli --feed ddos --save-trace capture.bin   # just materialize
//
// Feeds: research (bursty 0.7k-15k pkt/s), datacenter (steady 100k pkt/s),
// ddos (flow-structured with a single-packet-flow flood).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "obs/alerts.h"
#include "obs/exemplar.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/span.h"
#include "query/query.h"
#include "stream/fault_injection.h"
#include "stream/pcap_reader.h"
#include "stream/socket_source.h"

using namespace streamop;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --query <sql>         query text (or use --query-file)\n"
      "  --query-file <path>   read the query from a file\n"
      "  --feed <name>         research | datacenter | ddos (default "
      "research)\n"
      "  --duration <sec>      feed duration (default 60)\n"
      "  --seed <n>            generator + sampler seed (default 42)\n"
      "  --trace <path>        replay a saved trace instead of a feed\n"
      "  --save-trace <path>   write the generated trace and exit\n"
      "  --limit <n>           max rows to print (default 20)\n"
      "  --stats               print per-window operator statistics\n"
      "  --metrics-json <path> write a JSON metrics snapshot after the run\n"
      "  --metrics-prom <path> write Prometheus text exposition after the "
      "run\n"
      "  --quality-json <path> write per-window sample-quality reports\n"
      "                        (error bounds, CIs) as JSON after the run\n"
      "  --spans-json <path>   write window-lifecycle spans (ring drain ->\n"
      "                        select -> admission -> clean -> flush trees,\n"
      "                        with the subset-sum threshold z) as JSON\n"
      "  --exemplars-json <path>  write reservoir-sampled telemetry\n"
      "                        exemplars (latency bands, shed/late/malformed)\n"
      "  --profile-folded <path>  run the SIGPROF sampler during the run and\n"
      "                        write folded stacks (pipe to flamegraph.pl)\n"
      "  --profile-hz <n>      sampler rate for --profile-folded / /profile\n"
      "                        (default 97)\n"
      "  --http-port <n>       serve /metrics, /metrics.json, /spans,\n"
      "                        /profile, /exemplars, /windows, /healthz on\n"
      "                        loopback (0 = ephemeral)\n"
      "  --serve-ms <n>        keep the HTTP server up for n ms after the\n"
      "                        run finishes (for scraping; default 0)\n"
      "  --shed                run threaded with adaptive load shedding and\n"
      "                        print a degradation summary\n"
      "  --shed-high-watermark <f>  occupancy above which p decreases "
      "(default 0.75)\n"
      "  --shed-low-watermark <f>   occupancy below which p recovers "
      "(default 0.40)\n"
      "  --shed-min-p <f>      admission probability floor (default 0.1)\n"
      "  --stall-timeout-ms <n>  watchdog timeout for hung pipelines "
      "(default 10000; 0 = off)\n"
      "  --checkpoint-dir <path>  durable snapshots: write a versioned,\n"
      "                        CRC-guarded checkpoint of all sampler state\n"
      "                        at window flushes and restore the newest\n"
      "                        valid one at startup (runs threaded)\n"
      "  --checkpoint-every-n-windows <n>  snapshot cadence (default 1)\n"
      "  --checkpoint-retain <n>  keep the newest n snapshots (default 3)\n"
      "  --fault-seed <n>      inject seeded faults into the trace "
      "(duplicates,\n"
      "                        reordering, truncation, timestamp "
      "regressions)\n"
      "  --udp-port <n>        ingest live records from a UDP producer\n"
      "                        (streamop_send) bound on this port\n"
      "  --tcp-connect <h:p>   ingest from a TCP producer at host:port,\n"
      "                        reconnecting with bounded backoff\n"
      "  --pcap <path>         ingest from a classic pcap capture file\n"
      "  --source-timeout-ms <n>  socket read timeout before a heartbeat-\n"
      "                        empty batch (default 100)\n"
      "  --source-max-idle-ms <n>  end the run after this much continuous\n"
      "                        idle time on the source (0 = run forever)\n"
      "  --source-max-records <n>  end the run after ingesting n records\n"
      "                        (0 = until the source ends)\n"
      "  --timeseries-interval-ms <n>  scrape the metric registry every n ms\n"
      "                        into the in-memory time-series ring and run\n"
      "                        the SLO alert engine over it (serves\n"
      "                        /timeseries, /alerts, /dashboard; runs\n"
      "                        threaded)\n"
      "  --alert-rules <path>  install extra alert rules from a file (one\n"
      "                        rule per line; see docs/OBSERVABILITY.md)\n"
      "  --quality-ci-target <f>  fire the built-in accuracy-SLO rule when\n"
      "                        any estimator's 95%% CI half-width exceeds f\n"
      "  --flight-dir <path>   flight recorder: spill the telemetry tail to\n"
      "                        a CRC-guarded segment in this directory on\n"
      "                        cadence and at checkpoints; on startup load\n"
      "                        any pre-crash segment and print the forensic\n"
      "                        report\n"
      "  --dump-forensics      load the flight segment under --flight-dir,\n"
      "                        print the forensic report and exit\n"
      "  (all options also accept --flag=value)\n",
      argv0);
}

struct Args {
  std::string query;
  std::string query_file;
  std::string feed = "research";
  double duration = 60.0;
  uint64_t seed = 42;
  std::string trace_path;
  std::string save_trace;
  size_t limit = 20;
  bool stats = false;
  std::string metrics_json;
  std::string metrics_prom;
  std::string quality_json;
  std::string spans_json;
  std::string exemplars_json;
  std::string profile_folded;
  int profile_hz = 0;  // 0 = default rate (97 Hz)
  int http_port = -1;  // -1 = off, 0 = ephemeral
  uint64_t serve_ms = 0;
  bool shed = false;
  double shed_high_watermark = 0.75;
  double shed_low_watermark = 0.40;
  double shed_min_p = 0.1;
  uint64_t stall_timeout_ms = 10000;
  uint64_t fault_seed = 0;  // 0 = no fault injection
  std::string checkpoint_dir;
  uint64_t checkpoint_every = 1;
  uint64_t checkpoint_retain = 3;
  int udp_port = -1;  // -1 = off, 0 = ephemeral
  std::string tcp_connect;
  std::string pcap_path;
  uint64_t source_timeout_ms = 100;
  uint64_t source_max_idle_ms = 0;
  uint64_t source_max_records = 0;
  uint64_t timeseries_interval_ms = 0;  // 0 = time-series stack off
  std::string alert_rules_file;
  double quality_ci_target = 0.0;
  std::string flight_dir;
  bool dump_forensics = false;

  bool use_timeseries() const {
    return timeseries_interval_ms > 0 || !alert_rules_file.empty() ||
           !flight_dir.empty();
  }

  bool use_source() const {
    return udp_port >= 0 || !tcp_connect.empty() || !pcap_path.empty();
  }
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::string inline_value;
    bool has_inline = false;
    if (size_t eq = a.find('='); eq != std::string::npos && a.rfind("--", 0) == 0) {
      inline_value = a.substr(eq + 1);
      a = a.substr(0, eq);
      has_inline = true;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--query") {
      const char* v = next();
      if (v == nullptr) return false;
      out->query = v;
    } else if (a == "--query-file") {
      const char* v = next();
      if (v == nullptr) return false;
      out->query_file = v;
    } else if (a == "--feed") {
      const char* v = next();
      if (v == nullptr) return false;
      out->feed = v;
    } else if (a == "--duration") {
      const char* v = next();
      if (v == nullptr) return false;
      out->duration = std::atof(v);
    } else if (a == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      out->trace_path = v;
    } else if (a == "--save-trace") {
      const char* v = next();
      if (v == nullptr) return false;
      out->save_trace = v;
    } else if (a == "--limit") {
      const char* v = next();
      if (v == nullptr) return false;
      out->limit = static_cast<size_t>(std::atoll(v));
    } else if (a == "--stats") {
      out->stats = true;
    } else if (a == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return false;
      out->metrics_json = v;
    } else if (a == "--metrics-prom") {
      const char* v = next();
      if (v == nullptr) return false;
      out->metrics_prom = v;
    } else if (a == "--quality-json") {
      const char* v = next();
      if (v == nullptr) return false;
      out->quality_json = v;
    } else if (a == "--spans-json") {
      const char* v = next();
      if (v == nullptr) return false;
      out->spans_json = v;
    } else if (a == "--exemplars-json") {
      const char* v = next();
      if (v == nullptr) return false;
      out->exemplars_json = v;
    } else if (a == "--profile-folded") {
      const char* v = next();
      if (v == nullptr) return false;
      out->profile_folded = v;
    } else if (a == "--profile-hz") {
      const char* v = next();
      if (v == nullptr) return false;
      out->profile_hz = std::atoi(v);
    } else if (a == "--http-port") {
      const char* v = next();
      if (v == nullptr) return false;
      out->http_port = std::atoi(v);
    } else if (a == "--serve-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->serve_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--shed") {
      out->shed = true;
    } else if (a == "--shed-high-watermark") {
      const char* v = next();
      if (v == nullptr) return false;
      out->shed_high_watermark = std::atof(v);
    } else if (a == "--shed-low-watermark") {
      const char* v = next();
      if (v == nullptr) return false;
      out->shed_low_watermark = std::atof(v);
    } else if (a == "--shed-min-p") {
      const char* v = next();
      if (v == nullptr) return false;
      out->shed_min_p = std::atof(v);
    } else if (a == "--stall-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->stall_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--fault-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      out->fault_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--checkpoint-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      out->checkpoint_dir = v;
    } else if (a == "--checkpoint-every-n-windows") {
      const char* v = next();
      if (v == nullptr) return false;
      out->checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (a == "--checkpoint-retain") {
      const char* v = next();
      if (v == nullptr) return false;
      out->checkpoint_retain = std::strtoull(v, nullptr, 10);
    } else if (a == "--udp-port") {
      const char* v = next();
      if (v == nullptr) return false;
      out->udp_port = std::atoi(v);
    } else if (a == "--tcp-connect") {
      const char* v = next();
      if (v == nullptr) return false;
      out->tcp_connect = v;
    } else if (a == "--pcap") {
      const char* v = next();
      if (v == nullptr) return false;
      out->pcap_path = v;
    } else if (a == "--source-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->source_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--source-max-idle-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->source_max_idle_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--source-max-records") {
      const char* v = next();
      if (v == nullptr) return false;
      out->source_max_records = std::strtoull(v, nullptr, 10);
    } else if (a == "--timeseries-interval-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->timeseries_interval_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--alert-rules") {
      const char* v = next();
      if (v == nullptr) return false;
      out->alert_rules_file = v;
    } else if (a == "--quality-ci-target") {
      const char* v = next();
      if (v == nullptr) return false;
      out->quality_ci_target = std::atof(v);
    } else if (a == "--flight-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      out->flight_dir = v;
    } else if (a == "--dump-forensics") {
      out->dump_forensics = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

// Builds the live-ingest source selected by --udp-port / --tcp-connect /
// --pcap. Returns nullptr (with a message) on a malformed endpoint.
std::unique_ptr<ResumableSource> MakeSource(const Args& args) {
  if (!args.pcap_path.empty()) {
    PcapReaderConfig cfg;
    cfg.path = args.pcap_path;
    return std::make_unique<PcapReader>(cfg);
  }
  SocketSourceConfig cfg;
  cfg.read_timeout_ms = args.source_timeout_ms;
  if (args.udp_port >= 0) {
    cfg.mode = SocketSourceConfig::Mode::kUdp;
    cfg.port = static_cast<uint16_t>(args.udp_port);
    return std::make_unique<SocketSource>(cfg);
  }
  const size_t colon = args.tcp_connect.rfind(':');
  if (colon == std::string::npos || colon + 1 >= args.tcp_connect.size()) {
    std::fprintf(stderr, "--tcp-connect expects host:port, got '%s'\n",
                 args.tcp_connect.c_str());
    return nullptr;
  }
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.host = args.tcp_connect.substr(0, colon);
  cfg.port = static_cast<uint16_t>(
      std::atoi(args.tcp_connect.c_str() + colon + 1));
  return std::make_unique<SocketSource>(cfg);
}

bool WriteFile(const std::string& path, const std::string& contents,
               const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  out << contents;
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  // Offline forensics: decode the flight segment and exit — the workflow
  // an operator runs right after a crash, before restarting anything.
  if (args.dump_forensics) {
    if (args.flight_dir.empty()) {
      std::fprintf(stderr, "--dump-forensics requires --flight-dir\n");
      return 2;
    }
    auto report = obs::FlightRecorder::Load(args.flight_dir);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::fputs(report->ToText().c_str(), stdout);
    return 0;
  }

  // Acquire the input: a live source (network/pcap) or an in-process trace.
  std::unique_ptr<ResumableSource> source;
  if (args.use_source()) {
    source = MakeSource(args);
    if (source == nullptr) return 2;
  }
  Trace trace;
  if (source != nullptr) {
    // Live ingest replaces the trace entirely; nothing to materialize.
  } else if (!args.trace_path.empty()) {
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
  if (args.fault_seed != 0 && source == nullptr) {
    FaultInjectionConfig fcfg;
    fcfg.seed = args.fault_seed;
    fcfg.p_duplicate = 0.02;
    fcfg.p_reorder = 0.02;
    fcfg.p_truncate = 0.01;
    fcfg.p_ts_backwards = 0.005;
    fcfg.p_burst_start = 0.0005;
    trace = InjectFaults(trace, fcfg);
    std::fprintf(stderr, "fault injection: seed %llu\n",
                 static_cast<unsigned long long>(args.fault_seed));
  }
  if (source == nullptr) {
    std::fprintf(stderr, "trace: %s packets over %.1f s\n",
                 FormatWithCommas(trace.size()).c_str(), trace.DurationSec());
  }

  if (!args.save_trace.empty() && source == nullptr) {
    Status s = trace.SaveTo(args.save_trace);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", args.save_trace.c_str());
    if (args.query.empty() && args.query_file.empty()) return 0;
  }

  // Acquire the query text.
  std::string sql = args.query;
  if (sql.empty() && !args.query_file.empty()) {
    std::ifstream in(args.query_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", args.query_file.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    sql = ss.str();
  }
  if (sql.empty()) {
    Usage(argv[0]);
    return 2;
  }

  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = args.seed});
  if (!cq.ok()) {
    std::fprintf(stderr, "%s\n", cq.status().ToString().c_str());
    return 1;
  }

  // Metrics land in the process-wide default registry so operator-internal
  // instrumentation (e.g. subset-sum z adjustments) shows up in the same
  // snapshot. Spans and quality reporting are off unless a sink (file or
  // HTTP endpoint) was requested.
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  const bool want_http = args.http_port >= 0;
  if (!args.quality_json.empty() || want_http) {
    obs::QualityRing::Default().set_enabled(true);
  }
  if (!args.spans_json.empty() || want_http) {
    obs::SpanRing::Default().set_enabled(true);
  }
  if (!args.exemplars_json.empty() || want_http) {
    obs::ExemplarStore::Default().set_enabled(true);
  }
  // The sampling profiler: started when a folded export or explicit rate
  // was requested, and whenever the introspection server is up (so
  // /profile answers live; its phase totals tick with the metrics). SIGPROF fires on consumed CPU
  // time and touches nothing the query reads, so results stay
  // byte-identical with it running.
  obs::Profiler& profiler = obs::Profiler::Default();
  const bool want_profile =
      !args.profile_folded.empty() || args.profile_hz > 0 || want_http;
  if (want_profile) {
    profiler.set_hz(args.profile_hz);
    Status ps = profiler.Start();
    if (!ps.ok()) {
      std::fprintf(stderr, "profiler: %s\n", ps.ToString().c_str());
    }
  }

  // Prints the output schema's header and up to --limit rows.
  SchemaPtr out_schema = cq->output_schema();
  auto print_rows = [&](const std::vector<Tuple>& rows) {
    for (size_t i = 0; i < out_schema->num_fields(); ++i) {
      std::printf("%s%s", i > 0 ? "\t" : "", out_schema->field(i).name.c_str());
    }
    std::printf("\n");
    size_t shown = 0;
    for (const Tuple& t : rows) {
      if (args.limit > 0 && shown++ >= args.limit) break;
      for (size_t i = 0; i < t.size(); ++i) {
        std::printf("%s%s", i > 0 ? "\t" : "", t[i].ToString().c_str());
      }
      std::printf("\n");
    }
  };

  // File exports run before any --serve-ms hold so an operator killing the
  // process while the server is being scraped still finds them on disk.
  bool io_ok = true;
  auto write_exports = [&] {
    if (!args.metrics_json.empty()) {
      io_ok &= WriteFile(args.metrics_json, registry.ToJson(), "metrics JSON");
    }
    if (!args.metrics_prom.empty()) {
      io_ok &= WriteFile(args.metrics_prom, registry.ToPrometheus(),
                         "Prometheus metrics");
    }
    if (!args.quality_json.empty()) {
      io_ok &= WriteFile(args.quality_json,
                         obs::QualityRing::Default().ToJson(), "quality JSON");
    }
    if (!args.spans_json.empty()) {
      io_ok &= WriteFile(args.spans_json, obs::SpanRing::Default().ToJson(),
                         "spans JSON");
    }
    if (!args.exemplars_json.empty()) {
      io_ok &= WriteFile(args.exemplars_json,
                         obs::ExemplarStore::Default().ToJson(),
                         "exemplars JSON");
    }
    if (!args.profile_folded.empty()) {
      io_ok &= WriteFile(args.profile_folded, profiler.Folded(0),
                         "folded profile");
    }
  };

  // One runtime for every invocation: the query is its one high node and
  // reads the packets as they arrive, with no low node in front. What the
  // invocation asks for picks the entry point: a live source runs
  // RunSource; shedding (the AIMD gate at the ring drain, admitted tuples
  // reweighted by 1/p so sums and counts stay unbiased), durable
  // checkpoints and the time-series stack run RunThreaded; anything else
  // runs Run.
  RuntimeOptions opt;
  opt.shed.enabled = args.shed;
  opt.shed.seed = args.seed;
  opt.shed.high_watermark = args.shed_high_watermark;
  opt.shed.low_watermark = args.shed_low_watermark;
  opt.shed.min_probability = args.shed_min_p;
  opt.stall_timeout_ms = args.stall_timeout_ms;
  opt.http_port = args.http_port;
  opt.checkpoint.dir = args.checkpoint_dir;
  opt.checkpoint.every_n_windows = args.checkpoint_every;
  opt.checkpoint.retain = args.checkpoint_retain;
  opt.source_max_idle_ms = args.source_max_idle_ms;
  opt.source_max_records = args.source_max_records;
  if (args.use_timeseries()) {
    opt.timeseries.interval_ms = args.timeseries_interval_ms;
    opt.quality_ci_target = args.quality_ci_target;
    opt.flight.dir = args.flight_dir;
    if (!args.alert_rules_file.empty()) {
      std::ifstream in(args.alert_rules_file);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n",
                     args.alert_rules_file.c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      opt.alert_rules = ss.str();
    }
  }
  TwoLevelRuntime rt({*cq}, opt);
  if (rt.recovered()) {
    std::fprintf(stderr, "recovered from checkpoint at window %llu\n",
                 static_cast<unsigned long long>(rt.recovered_windows()));
  }
  if (want_http) {
    if (rt.http_server() != nullptr) {
      std::fprintf(stderr, "introspection server on 127.0.0.1:%d\n",
                   rt.http_server()->port());
    } else {
      std::fprintf(stderr, "http server failed: %s\n",
                   rt.http_status().ToString().c_str());
    }
  }
  Result<RunReport> report = Status::Internal("run not started");
  if (source != nullptr) {
    std::fprintf(stderr, "ingesting from %s\n", source->describe().c_str());
    report = rt.RunSource(*source);
  } else if (args.shed || !args.checkpoint_dir.empty() ||
             args.use_timeseries()) {
    report = rt.RunThreaded(trace);
  } else {
    report = rt.Run(trace);
  }
  const RunReport& r = report.ok() ? *report : rt.last_report();
  QueryNode& node = rt.high_node(0);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
  } else {
    const std::vector<Tuple> rows = node.DrainOutput();
    print_rows(rows);
    std::fprintf(stderr, "%zu row(s); %.2f%% CPU at stream rate\n",
                 rows.size(), r.high[0].cpu_percent);
  }
  if (r.packets_malformed > 0) {
    std::fprintf(stderr, "malformed=%llu records rejected\n",
                 static_cast<unsigned long long>(r.packets_malformed));
  }
  if (args.stats) {
    for (size_t w = 0; w < node.window_stats().size(); ++w) {
      const WindowStats& ws = node.window_stats()[w];
      std::fprintf(stderr,
                   "window %zu: in=%llu admitted=%llu late=%llu groups=%llu "
                   "peak=%llu cleanings=%llu removed=%llu out=%llu\n",
                   w, static_cast<unsigned long long>(ws.tuples_in),
                   static_cast<unsigned long long>(ws.tuples_admitted),
                   static_cast<unsigned long long>(ws.late_tuples),
                   static_cast<unsigned long long>(ws.groups_created),
                   static_cast<unsigned long long>(ws.peak_groups),
                   static_cast<unsigned long long>(ws.cleaning_phases),
                   static_cast<unsigned long long>(ws.groups_removed),
                   static_cast<unsigned long long>(ws.groups_output));
    }
  }
  std::fprintf(
      stderr,
      "degradation summary: offered=%s shed=%s (%.2f%%) p=[%.3f, %.3f] "
      "late=%llu malformed=%llu backoff_sleeps=%llu (%.3f s) "
      "watchdog=%s\n",
      FormatWithCommas(r.tuples_offered).c_str(),
      FormatWithCommas(r.tuples_shed).c_str(), 100.0 * r.shed_fraction,
      r.shed_p_min, r.shed_p_max,
      static_cast<unsigned long long>(r.late_tuples),
      static_cast<unsigned long long>(r.packets_malformed),
      static_cast<unsigned long long>(r.producer_backoff_sleeps),
      r.producer_backoff_seconds, r.watchdog_fired ? "FIRED" : "ok");
  if (args.use_timeseries() && rt.alert_engine() != nullptr) {
    // Final tick: scrape the end-of-run registry state, give every rule
    // one last evaluation and (with a flight dir) spill the final tail.
    if (rt.flight_recorder() != nullptr) {
      rt.flight_recorder()->RequestSpill();
    }
    if (rt.sampler() != nullptr) rt.sampler()->TickOnce();
    const obs::AlertSummary as = rt.alert_engine()->Summary();
    std::fprintf(
        stderr,
        "alert summary: rules=%zu firing=%zu pending=%zu worst=%s "
        "scrapes=%llu%s\n",
        rt.alert_engine()->num_rules(), as.firing, as.pending,
        as.firing > 0 ? obs::AlertSeverityName(as.worst) : "none",
        static_cast<unsigned long long>(
            rt.timeseries() != nullptr ? rt.timeseries()->scrapes() : 0),
        rt.flight_recorder() == nullptr ? ""
        : rt.flight_recorder()->spills() > 0
            ? " (flight segment spilled)"
            : " (flight spill FAILED)");
  }
  if (!args.checkpoint_dir.empty()) {
    std::fprintf(
        stderr,
        "checkpoint summary: written=%llu failures=%llu "
        "corrupt_skipped=%llu degraded=%s recovered=%s\n",
        static_cast<unsigned long long>(r.checkpoints_written),
        static_cast<unsigned long long>(r.checkpoint_failures),
        static_cast<unsigned long long>(r.checkpoint_corrupt_skipped),
        r.checkpoint_degraded ? "yes" : "no", r.recovered ? "yes" : "no");
  }
  for (const SourceReport& s : r.sources) {
    std::fprintf(
        stderr,
        "ingest summary: %s resumed=%s end=%s offset=%llu lag=%llu "
        "frames=%llu records=%llu malformed_frames=%llu reconnects=%llu "
        "gaps=%llu (%llu records) dups=%llu heartbeats=%llu%s%s\n",
        s.source.c_str(), s.resumed_from_offset ? "yes" : "no",
        s.clean_end ? "clean" : "error",
        static_cast<unsigned long long>(s.durable_offset),
        static_cast<unsigned long long>(s.offset_lag),
        static_cast<unsigned long long>(s.stats.frames),
        static_cast<unsigned long long>(s.stats.records),
        static_cast<unsigned long long>(s.stats.malformed_frames),
        static_cast<unsigned long long>(s.stats.reconnects),
        static_cast<unsigned long long>(s.stats.gaps),
        static_cast<unsigned long long>(s.stats.gap_records),
        static_cast<unsigned long long>(s.stats.duplicate_records),
        static_cast<unsigned long long>(s.stats.heartbeats),
        s.error.empty() ? "" : " error=", s.error.c_str());
  }
  if (!report.ok()) return 1;
  write_exports();
  if (args.serve_ms > 0 && rt.http_server() != nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.serve_ms));
  }

  if (want_profile) profiler.Stop();
  return io_ok ? 0 : 1;
}
