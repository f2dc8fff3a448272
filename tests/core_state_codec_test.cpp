// Checkpoint container robustness: roundtrip, the byte-exact golden
// container, atomic commit, and the corruption contract — wrong magic,
// unsupported versions, truncation, bit flips, and CRC damage must all
// surface as std::runtime_error, never as a crash or a silently wrong
// read. Plus reproducible payloads: flat-container dumps carry no
// padding bytes, so equal states save to equal bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/report_render.hpp"
#include "core/state_codec.hpp"
#include "util/state_io.hpp"

namespace v6sonar::core {
namespace {

class StateCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_ckpt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }

  /// A small two-section checkpoint committed to `name`.
  std::string write_sample(const char* name) const {
    CheckpointWriter ck;
    util::StateWriter a;
    a.u32(7);
    a.u64(0xDEADBEEFCAFEULL);
    a.str("hello");
    ck.add("alpha", std::move(a));
    util::StateWriter b;
    b.i64(-42);
    b.f64(2.5);
    ck.add("beta", std::move(b));
    const std::string p = path(name);
    ck.commit(p);
    return p;
  }

  static std::vector<std::uint8_t> slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  static void spit(const std::string& p, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

/// Deterministic payload bytes for the golden container.
util::StateWriter golden_payload(std::size_t n, unsigned salt) {
  util::StateWriter w;
  for (std::size_t i = 0; i < n; ++i)
    w.u8(static_cast<std::uint8_t>(i * 131u + salt + (i >> 9)));
  return w;
}

constexpr std::size_t kGoldenBulk = 70 * 1024;

/// The golden container: sections "empty" (0 B), "seven" (7 B) and
/// "bulk.70k" (70 KiB) of golden_payload(), as committed by the
/// original copy-assembling CheckpointWriter. These are its first 93
/// bytes — container header, all three section headers with their
/// CRCs, and the 7-byte payload — and the file continues with the
/// 70 KiB payload itself, which golden_payload() regenerates.
constexpr std::uint8_t kGoldenFraming[] = {
    0x56, 0x36, 0x43, 0x4b, 0x50, 0x54, 0x30, 0x31, 0x01, 0x00, 0x00, 0x00,  // magic, format
    0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,                          // state, sections
    0x05, 0x00, 0x00, 0x00, 0x65, 0x6d, 0x70, 0x74, 0x79,                    // "empty"
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // len 0, crc 0
    0x05, 0x00, 0x00, 0x00, 0x73, 0x65, 0x76, 0x65, 0x6e,                    // "seven"
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbb, 0xab, 0x91, 0xc2,  // len 7, crc
    0x11, 0x94, 0x17, 0x9a, 0x1d, 0xa0, 0x23,                                // payload
    0x08, 0x00, 0x00, 0x00, 0x62, 0x75, 0x6c, 0x6b, 0x2e, 0x37, 0x30, 0x6b,  // "bulk.70k"
    0x00, 0x18, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe4, 0xea, 0xa5, 0x1e,  // len, crc
};

std::vector<std::uint8_t> golden_container() {
  // Sized once and filled: GCC 12's -Warray-bounds misreads the
  // reallocating vector::insert this used to be.
  const util::StateWriter bulk = golden_payload(kGoldenBulk, 101);
  std::vector<std::uint8_t> out(sizeof kGoldenFraming + bulk.size());
  std::memcpy(out.data(), kGoldenFraming, sizeof kGoldenFraming);
  std::memcpy(out.data() + sizeof kGoldenFraming, bulk.bytes().data(), bulk.size());
  return out;
}

TEST_F(StateCodecTest, WriterReproducesGoldenContainerByteForByte) {
  CheckpointWriter ck;
  ck.add("empty", golden_payload(0, 0));
  ck.add(CheckpointSection("seven", golden_payload(7, 17)));  // sealed ahead of add
  ck.add("bulk.70k", golden_payload(kGoldenBulk, 101));
  const std::string p = path("golden.v6ckpt");
  ck.commit(p);
  const auto bytes = slurp(p);
  ASSERT_EQ(bytes.size(), sizeof kGoldenFraming + kGoldenBulk);
  EXPECT_TRUE(bytes == golden_container()) << "container encoding changed";
}

TEST_F(StateCodecTest, ReaderLoadsGoldenContainer) {
  const std::string p = path("golden_in.v6ckpt");
  spit(p, golden_container());
  CheckpointReader r(p);
  EXPECT_EQ(r.names(), (std::vector<std::string>{"empty", "seven", "bulk.70k"}));
  r.section("empty").expect_end();
  for (const auto& [name, n, salt] :
       {std::tuple{"seven", std::size_t{7}, 17u}, std::tuple{"bulk.70k", kGoldenBulk, 101u}}) {
    auto s = r.section(name);
    const util::StateWriter want = golden_payload(n, salt);
    ASSERT_EQ(s.remaining(), n) << name;
    std::vector<std::uint8_t> got(n);
    s.raw(got.data(), n);
    s.expect_end();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.bytes().begin())) << name;
  }
}

TEST_F(StateCodecTest, RoundtripSectionsAndValues) {
  const std::string p = write_sample("rt.v6ckpt");
  CheckpointReader r(p);
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_TRUE(r.has("beta"));
  EXPECT_FALSE(r.has("gamma"));
  EXPECT_EQ(r.names(), (std::vector<std::string>{"alpha", "beta"}));

  auto a = r.section("alpha");
  EXPECT_EQ(a.u32(), 7u);
  EXPECT_EQ(a.u64(), 0xDEADBEEFCAFEULL);
  EXPECT_EQ(a.str(), "hello");
  a.expect_end();

  auto b = r.section("beta");
  EXPECT_EQ(b.i64(), -42);
  EXPECT_EQ(b.f64(), 2.5);
  b.expect_end();

  EXPECT_THROW((void)r.section("gamma"), std::runtime_error);
}

TEST_F(StateCodecTest, EmptySectionRoundtrips) {
  CheckpointWriter ck;
  ck.add("void", util::StateWriter{});
  const std::string p = path("empty.v6ckpt");
  ck.commit(p);
  CheckpointReader r(p);
  auto s = r.section("void");
  s.expect_end();
}

TEST_F(StateCodecTest, DuplicateSectionNameRejectedAtAdd) {
  CheckpointWriter ck;
  ck.add("dup", util::StateWriter{});
  EXPECT_THROW(ck.add("dup", util::StateWriter{}), std::runtime_error);
}

TEST_F(StateCodecTest, CommitReplacesPreviousCheckpointAtomically) {
  const std::string p = path("swap.v6ckpt");
  {
    CheckpointWriter ck;
    util::StateWriter w;
    w.u32(1);
    ck.add("gen", std::move(w));
    ck.commit(p);
  }
  {
    CheckpointWriter ck;
    util::StateWriter w;
    w.u32(2);
    ck.add("gen", std::move(w));
    ck.commit(p);
  }
  CheckpointReader r(p);
  auto s = r.section("gen");
  EXPECT_EQ(s.u32(), 2u);
  EXPECT_FALSE(std::filesystem::exists(p + ".tmp")) << "tmp file must not linger";
}

TEST_F(StateCodecTest, CommitToMissingDirectoryThrowsAndLeavesNothing) {
  CheckpointWriter ck;
  ck.add("x", util::StateWriter{});
  const std::string p = (dir_ / "no_such_dir" / "ck.v6ckpt").string();
  EXPECT_THROW(ck.commit(p), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(p));
}

TEST_F(StateCodecTest, MissingFileThrows) {
  EXPECT_THROW(CheckpointReader r(path("absent.v6ckpt")), std::runtime_error);
}

TEST_F(StateCodecTest, WrongMagicRejected) {
  const std::string p = write_sample("magic.v6ckpt");
  auto bytes = slurp(p);
  bytes[0] ^= 0xFF;
  spit(p, bytes);
  EXPECT_THROW(CheckpointReader r(p), std::runtime_error);
}

TEST_F(StateCodecTest, UnsupportedContainerFormatRejected) {
  const std::string p = write_sample("fmt.v6ckpt");
  auto bytes = slurp(p);
  bytes[8] = 0x7F;  // container format u32 follows the 8-byte magic
  spit(p, bytes);
  try {
    CheckpointReader r(p);
    FAIL() << "format skew accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format"), std::string::npos) << e.what();
  }
}

TEST_F(StateCodecTest, StateVersionSkewRejected) {
  const std::string p = write_sample("skew.v6ckpt");
  auto bytes = slurp(p);
  bytes[12] = static_cast<std::uint8_t>(kCheckpointStateVersion + 1);  // state u32 at 12
  spit(p, bytes);
  try {
    CheckpointReader r(p);
    FAIL() << "state-version skew accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST_F(StateCodecTest, PayloadCorruptionTripsSectionCrc) {
  const std::string p = write_sample("crc.v6ckpt");
  const auto clean = slurp(p);
  // Flip one bit inside the *last* payload byte: section framing stays
  // intact, so only the CRC can catch it.
  auto bytes = clean;
  bytes[bytes.size() - 1] ^= 0x01;
  spit(p, bytes);
  try {
    CheckpointReader r(p);
    FAIL() << "payload corruption accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
}

TEST_F(StateCodecTest, EveryTruncationFailsCleanly) {
  const std::string p = write_sample("trunc.v6ckpt");
  const auto clean = slurp(p);
  for (std::size_t len = 0; len < clean.size(); ++len) {
    spit(p, {clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW(CheckpointReader r(p), std::runtime_error) << "prefix of " << len;
  }
}

TEST_F(StateCodecTest, TrailingGarbageRejected) {
  const std::string p = write_sample("tail.v6ckpt");
  auto bytes = slurp(p);
  bytes.push_back(0xAB);
  spit(p, bytes);
  EXPECT_THROW(CheckpointReader r(p), std::runtime_error);
}

TEST_F(StateCodecTest, BitFlipFuzzNeverCrashes) {
  // Flip every bit of the container one at a time. Each mutant must
  // either be rejected with std::runtime_error or parse into sections
  // that can be fetched — anything else (other exception types, UB
  // caught by sanitizers, aborts) fails the test. A flip inside a
  // section *name* can still parse (names are framed, not CRC'd), so
  // acceptance is allowed; silent damage to payload bytes is not.
  const std::string p = write_sample("fuzz.v6ckpt");
  const auto clean = slurp(p);
  std::size_t rejected = 0, accepted = 0;
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = clean;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      spit(p, mutant);
      try {
        CheckpointReader r(p);
        for (const auto& name : r.names()) {
          auto s = r.section(name);
          std::vector<std::uint8_t> sink(s.remaining());
          if (!sink.empty()) s.raw(sink.data(), sink.size());
          s.expect_end();
        }
        ++accepted;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // The vast majority of flips damage framing or payload CRC.
  EXPECT_GT(rejected, accepted * 4) << rejected << " rejected vs " << accepted;
}

TEST_F(StateCodecTest, ReaderBoundsChecks) {
  // StateReader's own guards, independent of the container: overruns
  // and absurd element counts must throw before any allocation.
  util::StateWriter w;
  w.u32(5);
  const std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());
  {
    util::StateReader r(bytes);
    (void)r.u32();
    EXPECT_THROW((void)r.u8(), std::runtime_error);
  }
  {
    util::StateReader r(bytes);
    EXPECT_THROW((void)r.u64(), std::runtime_error);
  }
  {
    util::StateWriter huge;
    huge.u64(UINT64_MAX);  // count prefix claiming ~2^64 elements
    const std::vector<std::uint8_t> hb(huge.bytes().begin(), huge.bytes().end());
    util::StateReader r(hb);
    EXPECT_THROW((void)r.count(16), std::runtime_error);
  }
}

TEST(FlatDump, PrefixImageHasZeroPaddingWhateverMemoryHeld) {
  // A prefix built in memory full of 0xA5: its 4 padding bytes (after
  // the length) keep that garbage, and the dump must not carry it.
  alignas(net::Ipv6Prefix) unsigned char raw[sizeof(net::Ipv6Prefix)];
  std::memset(raw, 0xA5, sizeof raw);
  const auto* p =
      new (raw) net::Ipv6Prefix(net::Ipv6Address{0x2001'0db8'0000'0000ULL, 0}, 32);
  util::StateWriter w;
  save_elem(w, *p);
  util::StateWriter want;  // the in-memory image's layout, padding zeroed
  want.i32(32);
  want.u32(0);
  want.u64(0x2001'0db8'0000'0000ULL);
  want.u64(0);
  ASSERT_EQ(w.size(), sizeof(net::Ipv6Prefix));
  EXPECT_TRUE(std::ranges::equal(w.bytes(), want.bytes()));
  util::StateReader r(w.bytes());
  net::Ipv6Prefix back;
  load_elem(r, back);
  EXPECT_EQ(back, *p);
  EXPECT_TRUE(r.at_end());
}

std::vector<ScanEvent> analyzer_events() {
  std::vector<ScanEvent> evs;
  for (std::uint64_t i = 0; i < 300; ++i) {
    ScanEvent ev;
    ev.source = net::Ipv6Prefix(net::Ipv6Address{0x2a10'0000'0000'0000ULL + i % 97, 0}, 64);
    ev.first_us = static_cast<sim::TimeUs>(i) * 1'000'000;
    ev.last_us = ev.first_us + 500'000;
    ev.packets = 10 + i;
    ev.distinct_dsts = static_cast<std::uint32_t>(5 + i % 13);
    ev.distinct_dsts_in_dns = static_cast<std::uint32_t>(i % 5);
    ev.src_asn = static_cast<std::uint32_t>(64'500 + i % 11);
    ev.port_packets = {{static_cast<std::uint16_t>(22 + i % 4), ev.packets}};
    ev.weekly_packets = {{static_cast<std::int32_t>(i % 3), ev.packets}};
    evs.push_back(std::move(ev));
  }
  return evs;
}

std::vector<std::uint8_t> saved_bundle(const std::vector<ScanEvent>& evs) {
  analysis::ReportBundle bundle(10);
  for (const auto& ev : evs) bundle.observe(ev);
  util::StateWriter w;
  bundle.save(w);
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(FlatDump, EqualAnalyzerStatesSaveToEqualBytes) {
  const auto evs = analyzer_events();
  const auto first = saved_bundle(evs);
  // Recycle heap blocks full of 0xA5 into the second bundle's tables:
  // padding copied from memory would now differ between the two saves.
  {
    std::vector<std::unique_ptr<unsigned char[]>> junk;
    for (std::size_t bytes = 64; bytes <= (1u << 16); bytes *= 2)
      for (int copies = 0; copies < 4; ++copies) {
        junk.emplace_back(new unsigned char[bytes]);
        std::memset(junk.back().get(), 0xA5, bytes);
      }
  }
  EXPECT_EQ(saved_bundle(evs), first);

  // SourceAnalyzer's dump, the one whose value type has padding too:
  // (prefix, {asn, 4 bytes, scans, packets, dsts_max}) entries, every
  // padding byte zero.
  analysis::SourceAnalyzer sources;
  for (const auto& ev : evs) sources.observe(ev);
  util::StateWriter w;
  sources.save(w);
  util::StateReader r(w.bytes());
  const std::uint64_t n = r.u64();
  EXPECT_EQ(n, 97u);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint8_t entry[24 + 32];
    r.raw(entry, sizeof entry);
    for (const std::size_t pad : {std::size_t{4}, std::size_t{24 + 4}})
      EXPECT_EQ(std::memcmp(entry + pad, "\0\0\0\0", 4), 0) << "entry " << i << " offset " << pad;
  }
}

}  // namespace
}  // namespace v6sonar::core
