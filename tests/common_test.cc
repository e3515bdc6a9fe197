// Unit tests for src/common: Status/Result, PCG random + distributions,
// hashing and string utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/string_util.h"

namespace streamop {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad z");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad z");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad z");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::AnalysisError("x").code(), StatusCode::kAnalysisError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::NotFound("missing");
  Status t = s;
  EXPECT_EQ(t, s);
  EXPECT_EQ(t.message(), "missing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  STREAMOP_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

// ---------- Pcg64 ----------

TEST(Pcg64Test, Deterministic) {
  Pcg64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(Pcg64Test, DifferentSeedsDiffer) {
  Pcg64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Pcg64Test, DoubleInUnitInterval) {
  Pcg64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg64Test, DoubleOpenNeverZero) {
  Pcg64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.NextDoubleOpen(), 0.0);
  }
}

TEST(Pcg64Test, BoundedRespectsBound) {
  Pcg64 rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Pcg64Test, BoundedIsRoughlyUniform) {
  Pcg64 rng(13);
  std::vector<uint64_t> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  // chi-square with 9 dof: 99.9th percentile ~ 27.9
  EXPECT_LT(ChiSquareUniform(counts), 27.9);
}

TEST(Pcg64Test, BernoulliMatchesProbability) {
  Pcg64 rng(17);
  int hits = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  double p = static_cast<double>(hits) / kDraws;
  EXPECT_NEAR(p, 0.3, 0.01);
}

TEST(Pcg64Test, ExponentialMean) {
  Pcg64 rng(19);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / kDraws, 0.25, 0.01);
}

TEST(Pcg64Test, ParetoMinimumRespected) {
  Pcg64 rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.NextPareto(1.5, 2.0), 2.0);
  }
}

TEST(Pcg64Test, GaussianMoments) {
  Pcg64 rng(29);
  double sum = 0.0, sq = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.03);
}

TEST(Pcg64Test, GeometricMean) {
  // Mean of failures-before-success is (1-p)/p.
  Pcg64 rng(31);
  double p = 0.2;
  double sum = 0.0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.NextGeometric(p));
  }
  EXPECT_NEAR(sum / kDraws, (1 - p) / p, 0.1);
}

TEST(Pcg64Test, GeometricDegenerateCases) {
  Pcg64 rng(37);
  EXPECT_EQ(rng.NextGeometric(1.0), 0u);
  EXPECT_EQ(rng.NextGeometric(1.5), 0u);
  EXPECT_EQ(rng.NextGeometric(0.0), UINT64_MAX);
}

// ---------- Zipf ----------

TEST(ZipfTest, RankZeroMostFrequent) {
  ZipfDistribution zipf(100, 1.2);
  Pcg64 rng(41);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution zipf(50, 0.9);
  double total = 0.0;
  for (uint64_t k = 0; k < 50; ++k) total += zipf.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(zipf.Pmf(50), 0.0);
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  ZipfDistribution zipf(20, 1.0);
  Pcg64 rng(43);
  std::vector<uint64_t> counts(20, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (uint64_t k = 0; k < 20; ++k) {
    double expected = zipf.Pmf(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, 5 * std::sqrt(expected) + 5);
  }
}

TEST(ZipfTest, SamplesInRange) {
  ZipfDistribution zipf(7, 2.0);
  Pcg64 rng(47);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 7u);
}

// ---------- Hashing ----------

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);  // bijective mix: no collisions on distinct in
}

TEST(HashTest, HashCombineOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(HashTest, HashStringBasics) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashTest, SeededHashFamiliesDiffer) {
  int same = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    if (SeededHash64(x, 1) == SeededHash64(x, 2)) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(HashTest, HashToUnitInRange) {
  for (uint64_t x = 0; x < 1000; ++x) {
    double u = HashToUnit(Mix64(x));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---------- CRC-32C ----------

// The classic one-table, byte-at-a-time CRC-32C: the reference the
// slicing-by-8 implementation must agree with bit for bit.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t n) {
  uint32_t c = ~0u;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
  }
  return ~c;
}

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 (iSCSI) appendix B.4 test vectors, plus the common check value
  // of "123456789". Wire frames and snapshot files carry these checksums.
  std::string zeros(32, '\x00');
  std::string ones(32, '\xFF');
  std::string up(32, '\0');
  std::string down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(up), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(down), 0x113FDB5Cu);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, MatchesByteAtATimeAtEveryLengthAndAlignment) {
  uint8_t buf[64 + 8];
  Pcg64 rng(7);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32c(buf + offset, len), ReferenceCrc32c(buf + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, SeedChainsAtEverySplit) {
  std::string data(61, '\0');
  Pcg64 rng(11);
  for (char& c : data) c = static_cast<char>(rng.Next64());
  const uint32_t whole = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::string_view a(data.data(), split);
    const std::string_view b(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), whole) << "split " << split;
  }
}

// ---------- String utilities ----------

TEST(StringUtilTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiToLower(""), "");
  EXPECT_EQ(AsciiToLower("a1B2"), "a1b2");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringUtilTest, SplitString) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, FormatIpv4) {
  EXPECT_EQ(FormatIpv4(0x0a000001), "10.0.0.1");
  EXPECT_EQ(FormatIpv4(0xffffffff), "255.255.255.255");
  EXPECT_EQ(FormatIpv4(0), "0.0.0.0");
}

TEST(StringUtilTest, ParseIpv4RoundTrip) {
  uint32_t addr = 0;
  ASSERT_TRUE(ParseIpv4("192.168.1.42", &addr));
  EXPECT_EQ(FormatIpv4(addr), "192.168.1.42");
}

TEST(StringUtilTest, ParseIpv4Rejections) {
  uint32_t addr = 0;
  EXPECT_FALSE(ParseIpv4("", &addr));
  EXPECT_FALSE(ParseIpv4("1.2.3", &addr));
  EXPECT_FALSE(ParseIpv4("1.2.3.4.5", &addr));
  EXPECT_FALSE(ParseIpv4("1.2.3.256", &addr));
  EXPECT_FALSE(ParseIpv4("a.b.c.d", &addr));
  EXPECT_FALSE(ParseIpv4("1..2.3", &addr));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
}

// ---------- ChiSquare helper ----------

TEST(ChiSquareTest, ZeroForPerfectUniform) {
  EXPECT_DOUBLE_EQ(ChiSquareUniform({10, 10, 10, 10}), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquareUniform({}), 0.0);
}

TEST(ChiSquareTest, PositiveForSkew) {
  EXPECT_GT(ChiSquareUniform({100, 0, 0, 0}), 0.0);
}

// ---------- WriteFileAtomic ----------

class WriteFileAtomicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("atomic_" + std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Contents(const std::string& name) const {
    std::ifstream in(dir_ / name, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  size_t NumFiles() const {
    size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator(dir_)) {
      ++n;
    }
    return n;
  }

  std::filesystem::path dir_;
};

TEST_F(WriteFileAtomicTest, ReplacesTheFileInPlace) {
  ASSERT_TRUE(WriteFileAtomic(dir_.string(), "seg", "first version").ok());
  EXPECT_EQ(Contents("seg"), "first version");
  ASSERT_TRUE(WriteFileAtomic(dir_.string(), "seg", "v2").ok());
  EXPECT_EQ(Contents("seg"), "v2");  // shorter: the old tail is gone
  ASSERT_TRUE(WriteFileAtomic(dir_.string(), "seg", "").ok());
  EXPECT_EQ(Contents("seg"), "");
}

TEST_F(WriteFileAtomicTest, LeavesNoTmpFileBehind) {
  ASSERT_TRUE(WriteFileAtomic(dir_.string(), "a", std::string(1 << 20, 'x'))
                  .ok());
  ASSERT_TRUE(WriteFileAtomic(dir_.string(), "b", "bytes").ok());
  EXPECT_EQ(NumFiles(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "a.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "b.tmp"));
  EXPECT_EQ(Contents("a").size(), 1u << 20);
}

TEST_F(WriteFileAtomicTest, CreatesAMissingDirectory) {
  const std::filesystem::path nested = dir_ / "a" / "b";
  ASSERT_TRUE(WriteFileAtomic(nested.string(), "seg", "bytes").ok());
  std::ifstream in(nested / "seg");
  std::string got;
  in >> got;
  EXPECT_EQ(got, "bytes");
}

TEST_F(WriteFileAtomicTest, FailsCleanlyOnAnUnwritablePath) {
  // A regular file where a directory must go: mkdir fails (ENOTDIR) even
  // for root, the call reports it, and nothing is created.
  { std::ofstream blocker(dir_ / "blocker"); }
  for (const char* sub : {"", "/sub"}) {
    const Status st = WriteFileAtomic((dir_ / "blocker").string() + sub,
                                      "seg", "bytes");
    EXPECT_FALSE(st.ok()) << sub;
    EXPECT_EQ(st.code(), StatusCode::kIOError) << sub;
    EXPECT_NE(st.message().find("blocker"), std::string::npos) << sub;
  }
  EXPECT_EQ(NumFiles(), 1u);  // just the blocker
}

}  // namespace
}  // namespace streamop
