// Unit tests for common/: Result/Status, CRC32C, Internet checksum, RNG,
// stats, the flat hash table. Checksum vectors come from the relevant RFCs
// and known-good implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/crc32c.h"
#include "common/flat_map.h"
#include "common/inet_csum.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "hexdump.h"

namespace papm {
namespace {

std::vector<u8> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// ---------- Status / Result ----------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.errc(), Errc::ok);
  EXPECT_TRUE(static_cast<bool>(s));
}

TEST(Status, CarriesError) {
  Status s = Errc::not_found;
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "not_found");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.errc(), Errc::ok);
}

TEST(Result, HoldsError) {
  Result<int> r = Errc::corrupted;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.errc(), Errc::corrupted);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

TEST(ErrcToString, AllValuesNamed) {
  for (int i = 0; i <= static_cast<int>(Errc::internal); i++) {
    EXPECT_NE(to_string(static_cast<Errc>(i)), "unknown");
  }
}

// ---------- CRC32C ----------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 (iSCSI) test vectors.
  std::vector<u8> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  std::vector<u8> ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  std::vector<u8> inc(32);
  std::iota(inc.begin(), inc.end(), u8{0});
  EXPECT_EQ(crc32c(inc), 0x46dd794eu);
  std::vector<u8> dec(32);
  for (int i = 0; i < 32; i++) dec[i] = static_cast<u8>(31 - i);
  EXPECT_EQ(crc32c(dec), 0x113fdb5cu);
}

TEST(Crc32c, Empty) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32c, StreamingMatchesOneShot) {
  const auto data = bytes("The quick brown fox jumps over the lazy dog");
  const u32 whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    u32 crc = crc32c_extend(0, std::span(data).first(split));
    crc = crc32c_extend(crc, std::span(data).subspan(split));
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, MaskRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 100; i++) {
    const u32 v = static_cast<u32>(rng.next());
    EXPECT_EQ(crc32c_unmask(crc32c_mask(v)), v);
    EXPECT_NE(crc32c_mask(v), v);  // mask must change the value
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto data = bytes("persistence requires integrity");
  const u32 orig = crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      data[byte] ^= static_cast<u8>(1u << bit);
      EXPECT_NE(crc32c(data), orig);
      data[byte] ^= static_cast<u8>(1u << bit);
    }
  }
}

// ---------- Internet checksum ----------

TEST(InetCsum, Rfc1071Example) {
  // RFC 1071 §3 worked example: bytes 00 01 f2 03 f4 f5 f6 f7.
  const std::vector<u8> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(inet_fold(inet_sum(data)), 0xddf2u);
  EXPECT_EQ(inet_checksum(data), static_cast<u16>(~0xddf2u & 0xffff));
}

TEST(InetCsum, ZeroBufferChecksumIsFFFF) {
  std::vector<u8> zeros(64, 0);
  EXPECT_EQ(inet_checksum(zeros), 0xffffu);
}

TEST(InetCsum, OddLengthPadsWithZero) {
  const std::vector<u8> odd = {0x12, 0x34, 0x56};
  const std::vector<u8> even = {0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(inet_checksum(odd), inet_checksum(even));
}

TEST(InetCsum, VerifyStyleSumIsZero) {
  // Appending the checksum to (even-length) data makes the folded sum
  // 0xffff (all-ones), the receiver-side validity condition.
  auto data = bytes("some tcp segment payload");
  const u16 csum = inet_checksum(data);
  data.push_back(static_cast<u8>(csum >> 8));
  data.push_back(static_cast<u8>(csum & 0xff));
  EXPECT_EQ(inet_fold(inet_sum(data)), 0xffffu);
}

TEST(InetCsum, ConcatEvenBoundary) {
  Rng rng(7);
  std::vector<u8> data(256);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  for (std::size_t split : {2u, 64u, 128u, 254u}) {
    const u16 a = inet_checksum(std::span(data).first(split));
    const u16 b = inet_checksum(std::span(data).subspan(split));
    EXPECT_EQ(inet_csum_concat(a, split, b, data.size() - split),
              inet_checksum(data))
        << "split " << split;
  }
}

TEST(InetCsum, ConcatOddBoundary) {
  Rng rng(8);
  std::vector<u8> data(255);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  for (std::size_t split : {1u, 3u, 63u, 127u, 253u}) {
    const u16 a = inet_checksum(std::span(data).first(split));
    const u16 b = inet_checksum(std::span(data).subspan(split));
    EXPECT_EQ(inet_csum_concat(a, split, b, data.size() - split),
              inet_checksum(data))
        << "split " << split;
  }
}

// A packet summed piece by piece (pseudo-header, a linear part of odd or
// even length, then 1-4 frags of mixed parity) checksums like its flat
// bytes: the software TX checksum of a scatter-gather segment.
TEST(InetCsum, SumAtMatchesFlatBytes) {
  Rng rng(10);
  const u32 pseudo = 0x1a2b3;  // an unfolded pseudo-header sum
  for (const std::size_t linear : {0u, 1u, 20u, 41u, 60u}) {
    for (int nfrags = 1; nfrags <= 4; nfrags++) {
      std::vector<std::vector<u8>> pieces;
      pieces.emplace_back(linear);
      for (int f = 0; f < nfrags; f++) {
        pieces.emplace_back(1 + rng.next_below(1500));
      }
      std::vector<u8> flat;
      u32 acc = pseudo;
      for (auto& p : pieces) {
        for (auto& b : p) b = static_cast<u8>(rng.next());
        acc = inet_sum_at(acc, flat.size(), p);
        flat.insert(flat.end(), p.begin(), p.end());
      }
      const u16 want =
          static_cast<u16>(~inet_fold(pseudo + inet_sum(flat)));
      EXPECT_EQ(static_cast<u16>(~inet_fold(acc)), want)
          << "linear " << linear << " frags " << nfrags;
      EXPECT_EQ(inet_fold(inet_sum_at(0, 0, flat)),
                inet_fold(inet_sum(flat)));
    }
  }
  // The flat reference itself: without the pseudo-header the pieces sum
  // to inet_checksum of the flat bytes.
  const std::vector<u8> a = {0x12, 0x34, 0x56};
  const std::vector<u8> b = {0x78, 0x9a};
  const u32 acc = inet_sum_at(inet_sum_at(0, 0, a), a.size(), b);
  EXPECT_EQ(static_cast<u16>(~inet_fold(acc)),
            inet_checksum(std::vector<u8>{0x12, 0x34, 0x56, 0x78, 0x9a}));
}

TEST(InetCsum, IncrementalUpdateRfc1624) {
  std::vector<u8> data(64);
  Rng rng(9);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  const u16 before = inet_checksum(data);
  // Change the 16-bit word at offset 10.
  const u16 old_word = static_cast<u16>(data[10] << 8 | data[11]);
  data[10] = 0xde;
  data[11] = 0xad;
  const u16 new_word = 0xdead;
  EXPECT_EQ(inet_csum_update(before, old_word, new_word), inet_checksum(data));
}

// ---------- RNG ----------

// The plain 16-bit big-endian word loop inet_sum must reproduce exactly:
// the unfolded 32-bit result, not just the folded checksum.
u32 inet_sum_reference(std::span<const u8> data) {
  u64 sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<u32>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<u32>(data[i]) << 8;
  while (sum >> 32) sum = (sum & 0xffffffff) + (sum >> 32);
  return static_cast<u32>(sum);
}

// Lengths 0..70 000 at every start offset mod 8, over all-0xFF (largest
// lane sums), all-zero and random bytes: every length up to 4200 (two
// full 2 KB lane blocks and every tail), every length within 24 of the
// 2^16 and 70 000 marks, and a stride across the rest.
TEST(InetCsum, LaneSumMatchesWordLoop) {
  constexpr std::size_t kMax = 70'000;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 4200; n++) lengths.push_back(n);
  for (std::size_t n = 4201; n < kMax; n += 997) lengths.push_back(n);
  for (const std::size_t mark : {std::size_t{65536}, kMax}) {
    for (std::size_t n = mark - 24; n <= std::min(mark + 24, kMax); n++) {
      lengths.push_back(n);
    }
  }
  Rng rng(77);
  std::vector<u8> random(kMax + 8);
  for (auto& b : random) b = static_cast<u8>(rng.next());
  const std::vector<std::vector<u8>> patterns = {
      std::vector<u8>(kMax + 8, 0xff), std::vector<u8>(kMax + 8, 0), random};
  for (std::size_t p = 0; p < patterns.size(); p++) {
    for (std::size_t off = 0; off < 8; off++) {
      for (const std::size_t n : lengths) {
        const std::span<const u8> d(patterns[p].data() + off, n);
        ASSERT_EQ(inet_sum(d), inet_sum_reference(d))
            << "pattern " << p << " offset " << off << " length " << n;
      }
    }
  }
}

// ---------- FlatMap ----------

// Random insert / erase / take churn over a small key space (long probe
// runs, constant backward-shift deletion) against std::unordered_map,
// for both value kinds the datapath stores: a refcount and an owning
// pointer (the TCP flow table).
TEST(FlatMap, RefcountChurnMatchesUnorderedMap) {
  FlatMap<u32> m;
  std::unordered_map<u64, u32> ref;
  Rng rng(5);
  for (int op = 0; op < 200'000; op++) {
    // Keys 0..2999 plus a few far apart (PM offsets, heap handles).
    const u64 key = rng.next_below(3000) << (rng.next_below(8) == 0 ? 32 : 0);
    switch (rng.next_below(3)) {
      case 0:  // ref
        m[key]++;
        ref[key]++;
        break;
      case 1: {  // unref
        u32* v = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << op;
        if (v == nullptr) break;
        if (*v > 1) {
          --*v;
          --it->second;
        } else {
          ASSERT_TRUE(m.erase(key));
          ref.erase(it);
        }
        break;
      }
      default: {  // lookup
        const u32* v = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << op;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second) << op;
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << op;
    if (op % 20'000 == 0) {  // full sweep: nothing lost in a shift
      for (const auto& [k, v] : ref) {
        const u32* got = m.find(k);
        ASSERT_NE(got, nullptr) << k;
        EXPECT_EQ(*got, v);
      }
      std::size_t seen = 0;
      m.for_each([&](u64 k, u32& v) {
        seen++;
        EXPECT_EQ(ref.at(k), v);
      });
      EXPECT_EQ(seen, ref.size());
    }
  }
  EXPECT_FALSE(m.erase(u64{1} << 60));
}

TEST(FlatMap, OwningChurnMatchesUnorderedMap) {
  FlatMap<std::unique_ptr<u64>> m;
  std::unordered_map<u64, u64> ref;  // key -> pointee
  Rng rng(6);
  for (int op = 0; op < 100'000; op++) {
    const u64 key = rng.next_below(2000) * 65537;  // (ip, port)-like spread
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        if (!ref.contains(key)) {
          m[key] = std::make_unique<u64>(op);
          ref[key] = static_cast<u64>(op);
        }
        break;
      case 2: {
        std::unique_ptr<u64> got = m.take(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << op;
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
          ref.erase(it);
        }
        break;
      }
      default: {
        std::unique_ptr<u64>* got = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << op;
        if (got != nullptr) {
          ASSERT_EQ(**got, it->second) << op;
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << op;
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(**m.find(k), v);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; i++) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 100000; i++) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) sum += rng.next_exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Zipf, SkewsTowardLowIndices) {
  Zipf z(1000, 0.99, 42);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; i++) counts[z.next()]++;
  // Index 0 must be by far the most popular.
  EXPECT_GT(counts[0], counts[500] * 10);
  EXPECT_GT(counts[0], 1000);
}

TEST(Zipf, CoversRange) {
  Zipf z(10, 0.5, 43);
  std::vector<bool> seen(10, false);
  for (int i = 0; i < 10000; i++) seen[z.next()] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

// ---------- Stats ----------

TEST(Stats, BasicMoments) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Stats, PercentileNearestRank) {
  Stats s;
  for (int i = 1; i <= 100; i++) s.add(i);
  // Nearest rank over {1..100}: rank = ceil(p), always an actual sample.
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.01), 100.0);  // ceil(99.01) = 100
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Stats, PercentileEdgeCases) {
  Stats one;
  one.add(42.0);
  // A single sample answers every percentile query.
  EXPECT_DOUBLE_EQ(one.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(100), 42.0);
  // Out-of-range p clamps instead of indexing past the ends.
  EXPECT_DOUBLE_EQ(one.percentile(-5), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(250), 42.0);

  Stats two;
  two.add(1.0);
  two.add(2.0);
  EXPECT_DOUBLE_EQ(two.percentile(0), 1.0);    // p=0 is the minimum
  EXPECT_DOUBLE_EQ(two.percentile(50), 1.0);   // rank ceil(0.5*2) = 1
  EXPECT_DOUBLE_EQ(two.percentile(50.1), 2.0);  // rank ceil(1.002) = 2
  EXPECT_DOUBLE_EQ(two.median(), 1.0);
}

TEST(Stats, EmptyIsZero) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_EQ(s.hist(), "(no samples)\n");
}

TEST(Stats, HistSketch) {
  Stats s;
  for (int i = 0; i < 90; i++) s.add(1.0);  // heavy low bucket
  s.add(100.0);                             // one high outlier
  const std::string h = s.hist(10, 20);
  // Ten rows, the low bucket at full width, the top bucket holding the
  // outlier, empty middle buckets barless.
  EXPECT_EQ(std::count(h.begin(), h.end(), '\n'), 10);
  EXPECT_NE(h.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(h.find(" 90\n"), std::string::npos);
  EXPECT_NE(h.find(" 1\n"), std::string::npos);

  Stats flat;  // all-equal samples: degenerate span must not divide by 0
  flat.add(5.0);
  flat.add(5.0);
  const std::string f = flat.hist(4, 8);
  EXPECT_EQ(std::count(f.begin(), f.end(), '\n'), 4);
  EXPECT_NE(f.find(" 2\n"), std::string::npos);
}

TEST(Stats, ClearResets) {
  Stats s;
  s.add(10);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(FormatUs, RendersMicroseconds) {
  EXPECT_EQ(format_us(26710.0), "26.71");
  EXPECT_EQ(format_us(1940.0), "1.94");
  EXPECT_EQ(format_us(700.0, 1), "0.7");
}

// ---------- hexdump ----------

TEST(Hexdump, RendersPrintable) {
  const auto d = bytes("GET /key HTTP/1.1");
  const std::string out = hexdump(d);
  EXPECT_NE(out.find("47 45 54"), std::string::npos);  // "GET"
  EXPECT_NE(out.find("|GET /key HTTP/1.|"), std::string::npos);  // 16-byte row
  EXPECT_NE(out.find("|1|"), std::string::npos);                 // spillover row
}

TEST(Hexdump, TruncatesLongInput) {
  std::vector<u8> big(1024, 0xab);
  const std::string out = hexdump(big, 64);
  EXPECT_NE(out.find("truncated"), std::string::npos);
}

// ---------- alignment helpers ----------

TEST(Align, UpDown) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_down(63, 64), 0u);
  EXPECT_EQ(align_down(64, 64), 64u);
  EXPECT_EQ(align_down(127, 64), 64u);
}

}  // namespace
}  // namespace papm
