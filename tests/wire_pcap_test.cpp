// Tests for the from-scratch pcap reader/writer, including foreign
// byte order and truncation handling.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/ipv6.hpp"
#include "wire/packet.hpp"
#include "wire/pcap.hpp"

namespace v6sonar::wire {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_pcap_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

std::vector<std::uint8_t> sample_frame(int i) {
  return FrameBuilder::tcp(net::Ipv6Address{0, static_cast<std::uint64_t>(i + 1)},
                           net::Ipv6Address::parse_or_throw("2001:db8::1"), 40'000,
                           static_cast<std::uint16_t>(i));
}

TEST_F(PcapTest, WriteReadRoundTripMicroseconds) {
  const auto p = path("micro.pcap");
  {
    PcapWriter w(p, /*nanosecond=*/false);
    for (int i = 0; i < 10; ++i) w.write(1'600'000'000 + i, 123'456, sample_frame(i));
    EXPECT_EQ(w.records_written(), 10u);
  }
  PcapReader r(p);
  EXPECT_FALSE(r.nanosecond());
  EXPECT_EQ(r.link_type(), kLinkTypeEthernet);
  int n = 0;
  while (auto rec = r.next()) {
    EXPECT_EQ(rec->ts_sec, 1'600'000'000 + n);
    EXPECT_EQ(rec->ts_frac, 123'456u);
    EXPECT_EQ(rec->data, sample_frame(n));
    ++n;
  }
  EXPECT_EQ(n, 10);
  EXPECT_FALSE(r.truncated());
}

TEST_F(PcapTest, NanosecondMagicPreserved) {
  const auto p = path("nano.pcap");
  {
    PcapWriter w(p, /*nanosecond=*/true);
    w.write(5, 999'999'999, sample_frame(0));
  }
  PcapReader r(p);
  EXPECT_TRUE(r.nanosecond());
  const auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ts_nanos(true), 5'999'999'999LL);
}

TEST_F(PcapTest, NanosecondRoundTripKeepsMagicAndFractions) {
  // Full ns round trip: the on-disk magic must be 0xa1b23c4d and every
  // fractional part must come back exactly — ns fractions use the full
  // 30 bits, where a µs-assuming path would truncate or overflow.
  const auto p = path("nano_rt.pcap");
  const std::uint32_t fracs[4] = {0, 1, 123'456'789, 999'999'999};
  {
    PcapWriter w(p, /*nanosecond=*/true);
    for (int i = 0; i < 4; ++i) w.write(100 + i, fracs[i], sample_frame(i));
  }
  {
    std::ifstream f(p, std::ios::binary);
    std::uint8_t m[4] = {};
    f.read(reinterpret_cast<char*>(m), 4);
    const std::uint32_t magic = static_cast<std::uint32_t>(m[0]) |
                                static_cast<std::uint32_t>(m[1]) << 8 |
                                static_cast<std::uint32_t>(m[2]) << 16 |
                                static_cast<std::uint32_t>(m[3]) << 24;
    EXPECT_EQ(magic, 0xa1b23c4du);
  }
  PcapReader r(p);
  EXPECT_TRUE(r.nanosecond());
  int n = 0;
  while (auto rec = r.next()) {
    EXPECT_EQ(rec->ts_sec, 100 + n);
    EXPECT_EQ(rec->ts_frac, fracs[n]);
    EXPECT_EQ(rec->ts_nanos(true), (100 + n) * 1'000'000'000LL + fracs[n]);
    EXPECT_EQ(rec->data, sample_frame(n));
    ++n;
  }
  EXPECT_EQ(n, 4);
  EXPECT_FALSE(r.truncated());
}

TEST_F(PcapTest, SwappedNanosecondMagicIsHandled) {
  // Byte-swapped *nanosecond* capture (magic reads back 0x4d3cb2a1):
  // the reader must both swap the fields and keep ns resolution.
  const auto p = path("swapped_nano.pcap");
  {
    std::ofstream f(p, std::ios::binary);
    auto be32 = [&](std::uint32_t v) {
      const std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24),
                                 static_cast<std::uint8_t>(v >> 16),
                                 static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v)};
      f.write(reinterpret_cast<const char*>(b), 4);
    };
    auto be16 = [&](std::uint16_t v) {
      const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v)};
      f.write(reinterpret_cast<const char*>(b), 2);
    };
    be32(0xa1b23c4d);  // ns magic, big-endian -> swapped on a LE host
    be16(2);
    be16(4);
    be32(0);
    be32(0);
    be32(65'535);
    be32(1);              // Ethernet
    be32(42);             // ts_sec
    be32(999'999'999);    // ts_frac, only valid as nanoseconds
    be32(4);              // incl_len
    be32(4);              // orig_len
    const char payload[4] = {1, 2, 3, 4};
    f.write(payload, 4);
  }
  PcapReader r(p);
  EXPECT_TRUE(r.nanosecond());
  EXPECT_EQ(r.link_type(), kLinkTypeEthernet);
  const auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ts_sec, 42);
  EXPECT_EQ(rec->ts_frac, 999'999'999u);
  EXPECT_EQ(rec->ts_nanos(true), 42'999'999'999LL);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.truncated());
}

TEST_F(PcapTest, MicroToNanoConversionDoesNotTruncate) {
  // Re-write a µs capture as ns (the µs->ns upconversion an importer
  // performs): every timestamp must survive exactly, including the
  // maximum µs fraction, whose ns value needs all 30 bits.
  const auto micro = path("conv_micro.pcap");
  const auto nano = path("conv_nano.pcap");
  const std::uint32_t fracs[3] = {0, 1, 999'999};
  {
    PcapWriter w(micro, /*nanosecond=*/false);
    for (int i = 0; i < 3; ++i) w.write(50 + i, fracs[i], sample_frame(i));
  }
  {
    PcapReader r(micro);
    PcapWriter w(nano, /*nanosecond=*/true);
    while (auto rec = r.next()) {
      const std::int64_t ns = rec->ts_nanos(r.nanosecond());
      w.write(ns / 1'000'000'000, static_cast<std::uint32_t>(ns % 1'000'000'000),
              rec->data);
    }
  }
  PcapReader r(nano);
  ASSERT_TRUE(r.nanosecond());
  int n = 0;
  while (auto rec = r.next()) {
    // Same instant, now in ns units: frac = µs * 1000, no rounding.
    EXPECT_EQ(rec->ts_sec, 50 + n);
    EXPECT_EQ(rec->ts_frac, fracs[n] * 1'000u);
    EXPECT_EQ(rec->ts_nanos(true), (50 + n) * 1'000'000'000LL + fracs[n] * 1'000LL);
    ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST_F(PcapTest, TimestampResolutionNormalization) {
  PcapRecord rec;
  rec.ts_sec = 2;
  rec.ts_frac = 500;
  EXPECT_EQ(rec.ts_nanos(false), 2'000'500'000LL);  // µs file
  EXPECT_EQ(rec.ts_nanos(true), 2'000'000'500LL);   // ns file
}

TEST_F(PcapTest, SnaplenTruncatesStoredData) {
  const auto p = path("snap.pcap");
  {
    PcapWriter w(p, false, /*snaplen=*/20);
    w.write(1, 0, sample_frame(0));
  }
  PcapReader r(p);
  const auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->data.size(), 20u);
}

TEST_F(PcapTest, ForeignEndiannessIsHandled) {
  // Hand-craft a byte-swapped (big-endian on this LE host) pcap with
  // one 4-byte record.
  const auto p = path("swapped.pcap");
  {
    std::ofstream f(p, std::ios::binary);
    auto be32 = [&](std::uint32_t v) {
      const std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24),
                                 static_cast<std::uint8_t>(v >> 16),
                                 static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v)};
      f.write(reinterpret_cast<const char*>(b), 4);
    };
    auto be16 = [&](std::uint16_t v) {
      const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v)};
      f.write(reinterpret_cast<const char*>(b), 2);
    };
    be32(0xa1b2c3d4);  // written big-endian -> reader sees swapped magic
    be16(2);
    be16(4);
    be32(0);
    be32(0);
    be32(65'535);
    be32(1);  // Ethernet
    be32(42);  // ts_sec
    be32(7);   // ts_frac
    be32(4);   // incl_len
    be32(4);   // orig_len
    const char payload[4] = {1, 2, 3, 4};
    f.write(payload, 4);
  }
  PcapReader r(p);
  EXPECT_EQ(r.link_type(), kLinkTypeEthernet);
  const auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ts_sec, 42);
  EXPECT_EQ(rec->ts_frac, 7u);
  EXPECT_EQ(rec->data.size(), 4u);
  EXPECT_FALSE(r.next().has_value());
}

TEST_F(PcapTest, RejectsBadMagic) {
  const auto p = path("bad.pcap");
  {
    std::ofstream f(p, std::ios::binary);
    f << "this is not a pcap file at all";
  }
  EXPECT_THROW(PcapReader{p}, std::runtime_error);
}

TEST_F(PcapTest, RejectsMissingFile) {
  EXPECT_THROW(PcapReader{path("missing.pcap")}, std::runtime_error);
}

TEST_F(PcapTest, TruncatedRecordEndsStreamWithFlag) {
  const auto p = path("trunc.pcap");
  {
    PcapWriter w(p, false);
    w.write(1, 0, sample_frame(0));
    w.write(2, 0, sample_frame(1));
  }
  // Chop the last 10 bytes off.
  const auto full = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, full - 10);

  PcapReader r(p);
  EXPECT_TRUE(r.next().has_value());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.truncated());
}

TEST_F(PcapTest, EmptyCaptureReadsCleanly) {
  const auto p = path("empty.pcap");
  { PcapWriter w(p, false); }
  PcapReader r(p);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.truncated());
}

}  // namespace
}  // namespace v6sonar::wire
