// Strict durability sweep (DESIGN.md §10): grids query × sampler ×
// overload × checkpoint-fault × kill-point and, for every cell, SIGKILLs a
// checkpointing child mid-stream, optionally corrupts the newest snapshot,
// recovers, and asserts the recovered output is a byte-identical suffix of
// an uninterrupted reference run. Any injected fault must be *detected*
// (counted as corrupt-skipped) — a silent restore of corrupted state is a
// failure even when the output happens to match.
//
// Results land in a CSV; every failing cell also gets a fail bundle
// (checkpoint dir copy, expected/actual rows, repro command with all
// seeds) under <out-dir>/fail_<cell>/, so a red cell is replayable with
//   strict_sweep --only=<cell> --out-dir=/tmp/repro
//
// Exit status: 0 when no cell fails (skips are fine — they mean the
// machine outran the kill throttle), 1 otherwise.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/runtime.h"
#include "net/pcap_format.h"
#include "net/trace_generator.h"
#include "net/trace_sender.h"
#include "query/query.h"
#include "stream/fault_injection.h"
#include "stream/pcap_reader.h"
#include "stream/socket_source.h"

namespace streamop {
namespace {

namespace fs = std::filesystem;

constexpr char kPassThroughLow[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";

// Query/sampler axis: each scenario exercises a different durable-state
// shape — per-group hash aggregates at two cardinalities, every aggregate
// kind's accumulator state (count, sum/avg, the extrema, a GK sketch), and
// the paper's dynamic subset-sum operator (threshold z, RNG stream,
// supergroup partials, cleaning phase).
struct QueryScenario {
  const char* name;
  const char* sampler;
  const char* sql;
};

constexpr QueryScenario kQueries[] = {
    {"agg-fine", "hash-agg",
     "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
     "GROUP BY time/5 as tb, srcIP"},
    {"agg-coarse", "hash-agg",
     "SELECT tb, proto, count(*), sum(len) FROM PKT "
     "GROUP BY time/5 as tb, proto"},
    {"agg-kinds", "hash-agg",
     "SELECT tb, proto, count(*), count(len), sum(len), avg(len), "
     "min(srcPort), max(len), first(destPort), last(srcIP), median(len) "
     "FROM PKT GROUP BY time/5 as tb, proto"},
    {"subsetsum", "threshold",
     R"(SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
        FROM PKTS
        WHERE ssample(len, 500, 2, 10) = TRUE
        GROUP BY time/5 as tb, srcIP, destIP, ts_ns
        HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
        CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
        CLEANING BY ssclean_with(sum(len)) = TRUE)"},
};

// Overload axis: steady arrival vs. seeded burst compression (the same
// faulty trace feeds reference and recovery runs, so byte-identity holds).
struct OverloadScenario {
  const char* name;
  double p_burst_start;
};

constexpr OverloadScenario kOverloads[] = {
    {"steady", 0.0},
    {"burst", 0.002},
};

// Checkpoint-file fault axis (stream/fault_injection.h).
struct FaultScenario {
  const char* name;
  bool inject;
  CheckpointFault kind;
};

constexpr FaultScenario kFaults[] = {
    {"none", false, CheckpointFault::kTruncate},
    {"truncate", true, CheckpointFault::kTruncate},
    {"bitflip", true, CheckpointFault::kBitFlip},
    {"stale", true, CheckpointFault::kStaleVersion},
};

// Kill-point axis: SIGKILL after N snapshots, or a clean run + restart.
struct KillScenario {
  const char* name;
  size_t kill_after_snapshots;  // 0 = clean run, no kill
};

constexpr KillScenario kKills[] = {
    {"kill1", 1},
    {"kill2", 2},
    {"clean", 0},
};

// Ingest-source axis (DESIGN.md §11): besides the in-process trace, kill
// cells also run over real resumable sources — a pcap file (recovery must
// seek to the checkpointed byte offset) and a live TCP producer (recovery
// must re-HELLO at the checkpointed record offset). Source cells run on
// the steady overload with no checkpoint-file fault: the axis under test
// is the offset resume itself.
constexpr const char* kSources[] = {"pcap", "tcp"};

// The --smoke slice: a handful of cells covering every axis value at
// least once, bounded enough for a CI gate.
constexpr const char* kSmokeCells[] = {
    "agg-fine.steady.none.kill1",    "subsetsum.steady.bitflip.kill2",
    "agg-coarse.burst.truncate.kill1", "subsetsum.burst.stale.clean",
    "agg-fine.steady.none.clean",    "src-pcap.agg-fine.kill1",
    // Every accumulator kind after a kill with a corrupted newest
    // snapshot: kill1 has no older snapshot and starts fresh, kill2
    // restores the older one.
    "agg-kinds.burst.bitflip.kill1", "agg-kinds.burst.bitflip.kill2",
};

struct SweepArgs {
  bool smoke = false;
  bool list = false;
  std::string only;
  std::string out_dir = "strict_sweep_out";
  double duration_sec = 20.0;
  uint64_t trace_seed = 42;
  uint64_t compile_seed = 3;
};

struct Cell {
  const QueryScenario* query;
  const OverloadScenario* overload_s;
  const FaultScenario* fault;
  const KillScenario* kill;
  size_t index;  // position in the full grid — seeds fault injection
  const char* source = "trace";  // trace | pcap | tcp

  std::string id() const {
    if (std::strcmp(source, "trace") != 0) {
      return std::string("src-") + source + "." + query->name + "." +
             kill->name;
    }
    return std::string(query->name) + "." + overload_s->name + "." +
           fault->name + "." + kill->name;
  }
  uint64_t fault_seed() const { return 1000 + index; }
};

struct CellResult {
  std::string status = "PASS";  // PASS | FAIL | SKIP
  std::string note;
  size_t snapshots = 0;
  uint64_t corrupt_skipped = 0;
  bool recovered = false;
  uint64_t recovered_windows = 0;
  size_t ref_rows = 0;
  size_t recovered_rows = 0;
  uint64_t elapsed_ms = 0;
};

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

RuntimeOptions CheckpointedOptions(const std::string& dir) {
  RuntimeOptions opt;
  opt.checkpoint.dir = dir;
  opt.checkpoint.every_n_windows = 1;
  return opt;
}

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

fs::path NewestSnapshot(const fs::path& dir) {
  fs::path newest;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.find(".ckpt.") == std::string::npos ||
        name.rfind(".tmp") != std::string::npos) {
      continue;
    }
    if (newest.empty() || e.path().filename() > newest.filename()) {
      newest = e.path();
    }
  }
  return newest;
}

// Waits until `min_snapshots` snapshot files exist, then SIGKILLs `pid`.
// Returns false when the child finished first (cell becomes a SKIP).
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

// Forks a child running the checkpointed two-level pipeline with a
// throttled consumer, SIGKILLs it once `kill_after` snapshots exist.
// Returns false when the child finished first (cell becomes a SKIP).
bool RunChildAndKill(const Trace& trace, const Cell& cell,
                     const SweepArgs& args, const fs::path& ckpt_dir) {
  const pid_t pid = fork();
  if (pid == 0) {
    auto low = CompileQuery(kPassThroughLow, Catalog::Default(),
                            {.seed = args.compile_seed});
    auto high = CompileQuery(cell.query->sql, Catalog::Default(),
                             {.seed = args.compile_seed});
    if (!low.ok() || !high.ok()) _exit(3);
    RuntimeOptions opt = CheckpointedOptions(ckpt_dir.string());
    ConsumerStallSpec stall;
    stall.stall_at_batch = 0;
    stall.per_batch_ms = 4;
    opt.consumer_stall_hook = MakeConsumerStallHook(stall);
    TwoLevelRuntime rt(*low, {*high}, opt);
    auto report = rt.RunThreaded(trace);
    _exit(report.ok() ? 0 : 4);
  }
  return WaitForSnapshotsThenKill(pid, ckpt_dir,
                                  cell.kill->kill_after_snapshots);
}

void WriteFailBundle(const fs::path& out_dir, const Cell& cell,
                     const SweepArgs& args, const fs::path& ckpt_dir,
                     const CellResult& result,
                     const std::vector<std::string>& expected_tail,
                     const std::vector<std::string>& recovered) {
  const fs::path bundle = out_dir / ("fail_" + cell.id());
  std::error_code ec;
  fs::remove_all(bundle, ec);
  fs::create_directories(bundle, ec);
  if (fs::exists(ckpt_dir)) {
    fs::copy(ckpt_dir, bundle / "checkpoints",
             fs::copy_options::recursive, ec);
  }
  {
    std::ofstream f(bundle / "repro.txt");
    f << "cell: " << cell.id() << "\n"
      << "note: " << result.note << "\n"
      << "trace_seed: " << args.trace_seed << "\n"
      << "compile_seed: " << args.compile_seed << "\n"
      << "fault_seed: " << cell.fault_seed() << "\n"
      << "duration_sec: " << args.duration_sec << "\n"
      << "repro: strict_sweep --only=" << cell.id()
      << " --duration=" << args.duration_sec
      << " --trace-seed=" << args.trace_seed
      << " --out-dir=/tmp/strict_sweep_repro\n";
  }
  {
    std::ofstream f(bundle / "expected_tail.txt");
    for (const auto& r : expected_tail) f << r << "\n";
  }
  {
    std::ofstream f(bundle / "recovered.txt");
    for (const auto& r : recovered) f << r << "\n";
  }
}

CellResult RunCell(const Cell& cell, const Trace& trace,
                   const std::vector<std::string>& reference,
                   const SweepArgs& args, const fs::path& out_dir) {
  CellResult result;
  const auto start = std::chrono::steady_clock::now();
  const fs::path ckpt_dir = out_dir / ("ckpt_" + cell.id());
  std::error_code ec;
  fs::remove_all(ckpt_dir, ec);
  fs::create_directories(ckpt_dir, ec);

  auto low = CompileQuery(kPassThroughLow, Catalog::Default(),
                          {.seed = args.compile_seed});
  auto high = CompileQuery(cell.query->sql, Catalog::Default(),
                           {.seed = args.compile_seed});
  if (!low.ok() || !high.ok()) {
    result.status = "FAIL";
    result.note = "query compilation failed";
    return result;
  }

  std::vector<std::string> expected_tail;
  std::vector<std::string> recovered_rows;
  const auto fail = [&](const std::string& note) {
    result.status = "FAIL";
    result.note = note;
    WriteFailBundle(out_dir, cell, args, ckpt_dir, result, expected_tail,
                    recovered_rows);
  };

  // Phase 1: produce snapshots — SIGKILL a throttled child mid-stream, or
  // run cleanly to completion for the restart cells.
  if (cell.kill->kill_after_snapshots > 0) {
    if (!RunChildAndKill(trace, cell, args, ckpt_dir)) {
      result.status = "SKIP";
      result.note = "child finished before SIGKILL";
      return result;
    }
  } else {
    TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(ckpt_dir.string()));
    auto report = rt.RunThreaded(trace);
    if (!report.ok()) {
      fail("clean checkpointed run failed: " + report.status().ToString());
      return result;
    }
  }
  result.snapshots = CountSnapshots(ckpt_dir);
  if (result.snapshots == 0) {
    fail("no snapshot was produced");
    return result;
  }

  // Phase 2: corrupt the newest snapshot (recovery must detect it and fall
  // back to the next-oldest valid one, or start fresh).
  if (cell.fault->inject) {
    const fs::path target = NewestSnapshot(ckpt_dir);
    if (target.empty() ||
        !InjectCheckpointFault(target.string(), cell.fault->kind,
                               cell.fault_seed())) {
      fail("could not inject checkpoint fault");
      return result;
    }
  }

  // Phase 3: recover and replay the same trace.
  TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(ckpt_dir.string()));
  result.recovered = rt.recovered();
  result.recovered_windows = rt.recovered_windows();
  auto report = rt.RunThreaded(trace);
  if (!report.ok()) {
    fail("recovery run failed: " + report.status().ToString());
    return result;
  }
  result.corrupt_skipped = report->checkpoint_corrupt_skipped;
  recovered_rows = RowsAsStrings(rt.high_node(0).DrainOutput());
  result.recovered_rows = recovered_rows.size();
  result.ref_rows = reference.size();
  result.elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  // Every injected fault must be detected; a pristine dir must produce no
  // false positives.
  if (cell.fault->inject && result.corrupt_skipped == 0) {
    fail("injected fault was not detected (silent restore)");
    return result;
  }
  if (!cell.fault->inject && result.corrupt_skipped != 0) {
    fail("pristine snapshot flagged as corrupt");
    return result;
  }

  // The recovered output must be a byte-identical suffix of the reference:
  // shorter when a snapshot was restored, the full reference when every
  // snapshot was rejected and the run started fresh.
  if (recovered_rows.size() > reference.size()) {
    fail("recovered run emitted more rows than the reference");
    return result;
  }
  expected_tail.assign(reference.end() - recovered_rows.size(),
                       reference.end());
  if (recovered_rows != expected_tail) {
    fail("recovered output diverges from the reference suffix");
    return result;
  }
  fs::remove_all(ckpt_dir, ec);  // passing cells leave no debris
  return result;
}

// A source cell drives the SAME trace through a real ResumableSource
// (pcap file or live TCP producer), SIGKILLs the checkpointed consumer
// mid-ingest, and recovers over a fresh source instance: the restored run
// must seek/re-HELLO to the checkpointed offset (resumed_from_offset) and
// its output must be a byte-identical suffix of the in-process reference.
CellResult RunSourceCell(const Cell& cell, const Trace& trace,
                         const std::vector<std::string>& reference,
                         const SweepArgs& args, const fs::path& out_dir) {
  CellResult result;
  const auto start = std::chrono::steady_clock::now();
  const fs::path ckpt_dir = out_dir / ("ckpt_" + cell.id());
  std::error_code ec;
  fs::remove_all(ckpt_dir, ec);
  fs::create_directories(ckpt_dir, ec);

  auto low = CompileQuery(kPassThroughLow, Catalog::Default(),
                          {.seed = args.compile_seed});
  auto high = CompileQuery(cell.query->sql, Catalog::Default(),
                           {.seed = args.compile_seed});
  if (!low.ok() || !high.ok()) {
    result.status = "FAIL";
    result.note = "query compilation failed";
    return result;
  }

  std::vector<std::string> expected_tail;
  std::vector<std::string> recovered_rows;
  const auto fail = [&](const std::string& note) {
    result.status = "FAIL";
    result.note = note;
    WriteFailBundle(out_dir, cell, args, ckpt_dir, result, expected_tail,
                    recovered_rows);
  };

  const bool is_pcap = std::strcmp(cell.source, "pcap") == 0;
  const fs::path pcap_path = out_dir / (cell.id() + ".pcap");
  std::unique_ptr<TraceSender> sender;
  pid_t producer = -1;
  SocketSourceConfig sock_cfg;
  const auto cleanup = [&] {
    if (producer > 0) {
      ::kill(producer, SIGKILL);
      ::waitpid(producer, nullptr, 0);
      producer = -1;
    }
    fs::remove(pcap_path, ec);
  };

  if (is_pcap) {
    Status wrote = WritePcap(trace, pcap_path.string());
    if (!wrote.ok()) {
      fail("pcap write failed: " + wrote.ToString());
      return result;
    }
  } else {
    // The producer is a separate process (forked while this process is
    // still single-threaded): it survives the consumer's SIGKILL, lingers,
    // and serves the restarted consumer's resume handshake. Throttled so
    // the trace is still mid-flight when the consumer dies.
    TraceSenderConfig scfg;
    scfg.records = trace.packets();
    scfg.records_per_frame = 61;
    scfg.records_per_sec = static_cast<double>(trace.size()) / 6.0;
    scfg.handshake_timeout_ms = 60000;
    scfg.linger_ms = 120000;
    sender = std::make_unique<TraceSender>(std::move(scfg));
    Status bound = sender->BindTcp(0);
    if (!bound.ok()) {
      fail("tcp bind failed: " + bound.ToString());
      return result;
    }
    producer = fork();
    if (producer == 0) {
      sender->ServeTcp();
      _exit(0);
    }
    sock_cfg.mode = SocketSourceConfig::Mode::kTcp;
    sock_cfg.port = sender->tcp_port();
    sock_cfg.read_timeout_ms = 50;
  }

  RuntimeOptions opt = CheckpointedOptions(ckpt_dir.string());
  opt.batch_size = 128;  // small ingest batches = frequent snapshot points

  // Phase 1: fork the consumer, SIGKILL it once enough snapshots exist.
  const pid_t consumer = fork();
  if (consumer == 0) {
    TwoLevelRuntime rt(*low, {*high}, opt);
    if (is_pcap) {
      PcapReader inner(PcapReaderConfig{pcap_path.string()});
      ResumableFaultConfig fc;  // throttle so the parent can kill mid-file
      fc.stall_every_reads = 1;
      fc.stall_ms = 4;
      FaultyResumableSource src(&inner, fc);
      auto report = rt.RunSource(src);
      _exit(report.ok() ? 0 : 4);
    }
    SocketSource src(sock_cfg);
    auto report = rt.RunSource(src);
    _exit(report.ok() ? 0 : 4);
  }
  if (!WaitForSnapshotsThenKill(consumer, ckpt_dir,
                                cell.kill->kill_after_snapshots)) {
    cleanup();
    result.status = "SKIP";
    result.note = "consumer finished before SIGKILL";
    return result;
  }
  result.snapshots = CountSnapshots(ckpt_dir);
  if (result.snapshots == 0) {
    cleanup();
    fail("no snapshot was produced");
    return result;
  }

  // Phase 2: recover over a fresh source instance.
  TwoLevelRuntime rt(*low, {*high}, opt);
  result.recovered = rt.recovered();
  result.recovered_windows = rt.recovered_windows();
  Result<RunReport> report = [&]() -> Result<RunReport> {
    if (is_pcap) {
      PcapReader reader(PcapReaderConfig{pcap_path.string()});
      return rt.RunSource(reader);
    }
    SocketSource src(sock_cfg);
    return rt.RunSource(src);
  }();
  cleanup();
  if (!report.ok()) {
    fail("recovery run failed: " + report.status().ToString());
    return result;
  }
  result.corrupt_skipped = report->checkpoint_corrupt_skipped;
  recovered_rows = RowsAsStrings(rt.high_node(0).DrainOutput());
  result.recovered_rows = recovered_rows.size();
  result.ref_rows = reference.size();
  result.elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  if (!result.recovered) {
    fail("no snapshot was restored");
    return result;
  }
  if (result.corrupt_skipped != 0) {
    fail("pristine snapshot flagged as corrupt");
    return result;
  }
  if (report->sources.size() != 1) {
    fail("recovery run reported no ingest source");
    return result;
  }
  if (!report->sources[0].resumed_from_offset) {
    fail("recovery replayed from the start instead of seeking the source");
    return result;
  }
  if (!report->sources[0].clean_end) {
    fail("recovered ingest ended with an error: " +
         report->sources[0].error);
    return result;
  }

  if (recovered_rows.size() > reference.size()) {
    fail("recovered run emitted more rows than the reference");
    return result;
  }
  expected_tail.assign(reference.end() - recovered_rows.size(),
                       reference.end());
  if (recovered_rows != expected_tail) {
    fail("recovered output diverges from the reference suffix");
    return result;
  }
  fs::remove_all(ckpt_dir, ec);
  return result;
}

int Run(const SweepArgs& args) {
  // Build the full grid.
  std::vector<Cell> cells;
  size_t index = 0;
  for (const auto& q : kQueries) {
    for (const auto& o : kOverloads) {
      for (const auto& f : kFaults) {
        for (const auto& k : kKills) {
          cells.push_back(Cell{&q, &o, &f, &k, index++});
        }
      }
    }
  }
  // Source cells: {agg-fine, subsetsum} × {pcap, tcp} × kill points, on
  // the steady overload with no checkpoint-file fault.
  for (const char* src : kSources) {
    for (const auto& q : kQueries) {
      if (std::strcmp(q.name, "agg-fine") != 0 &&
          std::strcmp(q.name, "subsetsum") != 0) {
        continue;
      }
      for (const auto& k : kKills) {
        if (k.kill_after_snapshots == 0) continue;
        cells.push_back(
            Cell{&q, &kOverloads[0], &kFaults[0], &k, index++, src});
      }
    }
  }
  if (args.smoke) {
    std::vector<Cell> slice;
    for (const Cell& c : cells) {
      for (const char* id : kSmokeCells) {
        if (c.id() == id) slice.push_back(c);
      }
    }
    cells = std::move(slice);
  }
  if (!args.only.empty()) {
    std::vector<Cell> slice;
    for (const Cell& c : cells) {
      if (c.id() == args.only) slice.push_back(c);
    }
    if (slice.empty()) {
      std::fprintf(stderr, "strict_sweep: unknown cell '%s'\n",
                   args.only.c_str());
      return 2;
    }
    cells = std::move(slice);
  }
  if (args.list) {
    for (const Cell& c : cells) std::printf("%s\n", c.id().c_str());
    return 0;
  }

  const fs::path out_dir(args.out_dir);
  std::error_code ec;
  fs::create_directories(out_dir, ec);

  // Per-overload traces and per-(query, overload) references are shared
  // across fault/kill cells.
  std::map<std::string, Trace> traces;
  for (const auto& o : kOverloads) {
    Trace t = TraceGenerator::MakeResearchFeed(args.duration_sec,
                                               args.trace_seed);
    if (o.p_burst_start > 0.0) {
      FaultInjectionConfig fc;
      fc.seed = args.trace_seed;
      fc.p_burst_start = o.p_burst_start;
      fc.burst_packets = 1024;
      fc.burst_compression = 50.0;
      t = InjectFaults(t, fc);
    }
    traces.emplace(o.name, std::move(t));
  }
  std::map<std::string, std::vector<std::string>> references;
  for (const auto& q : kQueries) {
    for (const auto& o : kOverloads) {
      const std::string key = std::string(q.name) + "." + o.name;
      bool needed = false;
      for (const Cell& c : cells) {
        if (c.query == &q && c.overload_s == &o) needed = true;
      }
      if (!needed) continue;
      auto low = CompileQuery(kPassThroughLow, Catalog::Default(),
                              {.seed = args.compile_seed});
      auto high = CompileQuery(q.sql, Catalog::Default(),
                               {.seed = args.compile_seed});
      if (!low.ok() || !high.ok()) {
        std::fprintf(stderr, "strict_sweep: reference compile failed (%s)\n",
                     key.c_str());
        return 2;
      }
      TwoLevelRuntime ref(*low, {*high});
      auto report = ref.Run(traces.at(o.name));
      if (!report.ok()) {
        std::fprintf(stderr, "strict_sweep: reference run failed (%s): %s\n",
                     key.c_str(), report.status().ToString().c_str());
        return 2;
      }
      references.emplace(key,
                         RowsAsStrings(ref.high_node(0).DrainOutput()));
    }
  }

  std::ofstream csv(out_dir / "results.csv");
  csv << "cell,source,query,sampler,overload,fault,kill_point,status,"
         "snapshots,corrupt_skipped,recovered,recovered_windows,ref_rows,"
         "recovered_rows,fault_seed,elapsed_ms,note\n";

  size_t passed = 0, failed = 0, skipped = 0;
  for (const Cell& cell : cells) {
    const std::string key =
        std::string(cell.query->name) + "." + cell.overload_s->name;
    const bool is_source_cell = std::strcmp(cell.source, "trace") != 0;
    const CellResult r =
        is_source_cell
            ? RunSourceCell(cell, traces.at(cell.overload_s->name),
                            references.at(key), args, out_dir)
            : RunCell(cell, traces.at(cell.overload_s->name),
                      references.at(key), args, out_dir);
    csv << cell.id() << ',' << cell.source << ',' << cell.query->name << ','
        << cell.query->sampler << ',' << cell.overload_s->name << ','
        << cell.fault->name << ',' << cell.kill->name << ',' << r.status
        << ',' << r.snapshots << ',' << r.corrupt_skipped << ','
        << (r.recovered ? 1 : 0) << ',' << r.recovered_windows << ','
        << r.ref_rows << ',' << r.recovered_rows << ','
        << cell.fault_seed() << ',' << r.elapsed_ms << ",\"" << r.note
        << "\"\n";
    csv.flush();
    std::fprintf(stderr, "[%s] %s%s%s\n", r.status.c_str(),
                 cell.id().c_str(), r.note.empty() ? "" : " — ",
                 r.note.c_str());
    if (r.status == "PASS") {
      ++passed;
    } else if (r.status == "SKIP") {
      ++skipped;
    } else {
      ++failed;
    }
  }
  std::fprintf(stderr,
               "strict_sweep: %zu passed, %zu failed, %zu skipped "
               "(results: %s)\n",
               passed, failed, skipped,
               (out_dir / "results.csv").string().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace streamop

int main(int argc, char** argv) {
  streamop::SweepArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      if (a.compare(0, n, flag) == 0 && a.size() > n && a[n] == '=') {
        return a.c_str() + n + 1;
      }
      return nullptr;
    };
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--list") {
      args.list = true;
    } else if (const char* v = value("--only")) {
      args.only = v;
    } else if (const char* v = value("--out-dir")) {
      args.out_dir = v;
    } else if (const char* v = value("--duration")) {
      args.duration_sec = std::atof(v);
    } else if (const char* v = value("--trace-seed")) {
      args.trace_seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: strict_sweep [--smoke] [--list] [--only=CELL]\n"
                   "                    [--out-dir=DIR] [--duration=SEC]\n"
                   "                    [--trace-seed=N]\n");
      return 2;
    }
  }
  return streamop::Run(args);
}
