// Determinism regression: a fixed-seed subset-sum query over a fixed trace
// must emit byte-identical output — rows AND window stats — run after run
// and build after build. This pins down the invariant that no result ever
// depends on hash-table iteration order: the flat tables' slot order shifts
// with capacity and churn, so any leak of iteration order into output would
// show up here immediately. The golden checksum below was captured from the
// seed implementation (std::unordered_map tables, per-call key hashing)
// before the flat-table swap; the current build must reproduce it exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"

namespace streamop {
namespace {

// The paper's dynamic subset-sum query (§6.1) at a small target so cleaning
// phases fire within the trace, exercising RemoveGroup / backward-shift
// deletion on the live tables.
std::string SubsetSumSql(uint64_t n, double relax) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, %llu, 2, %g) = TRUE
      GROUP BY time/2 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                static_cast<unsigned long long>(n), relax);
  return buf;
}

// Canonical serialization of a run: every output row in emission order,
// then every window's statistics. Byte-for-byte comparable across builds.
std::string Canonicalize(const std::vector<Tuple>& rows,
                         const std::vector<WindowStats>& windows) {
  std::string out;
  for (const Tuple& t : rows) {
    out += t.ToString();
    out += '\n';
  }
  for (const WindowStats& w : windows) {
    out += "window";
    for (const Value& v : w.window_id) {
      out += ' ';
      out += v.ToString();
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " in=%llu adm=%llu created=%llu removed=%llu peak=%llu "
                  "cleanings=%llu out=%llu\n",
                  static_cast<unsigned long long>(w.tuples_in),
                  static_cast<unsigned long long>(w.tuples_admitted),
                  static_cast<unsigned long long>(w.groups_created),
                  static_cast<unsigned long long>(w.groups_removed),
                  static_cast<unsigned long long>(w.peak_groups),
                  static_cast<unsigned long long>(w.cleaning_phases),
                  static_cast<unsigned long long>(w.groups_output));
    out += buf;
  }
  return out;
}

// FNV-1a 64 over the canonical serialization; stable across platforms.
uint64_t Checksum(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string RunOnce() {
  Trace trace = TraceGenerator::MakeResearchFeed(8.0, 11);
  Catalog catalog = Catalog::Default();
  auto cq = CompileQuery(SubsetSumSql(100, 10.0), catalog, {.seed = 7});
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return Canonicalize(rt.high_node(0).DrainOutput(),
                      rt.high_node(0).window_stats());
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  std::string a = RunOnce();
  std::string b = RunOnce();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, OutputMatchesSeedImplementationGolden) {
  // Captured from the pre-flat-table implementation (see header comment).
  // If this changes, either output became iteration-order-dependent (a bug)
  // or query semantics intentionally changed — in the latter case re-derive
  // the golden from the previous implementation and update both in one
  // reviewed change.
  constexpr uint64_t kGoldenChecksum = 0xc7a612b53a0002e1ULL;
  constexpr size_t kGoldenLength = 13913;
  std::string got = RunOnce();
  EXPECT_EQ(got.size(), kGoldenLength);
  EXPECT_EQ(Checksum(got), kGoldenChecksum);
}

}  // namespace
}  // namespace streamop
