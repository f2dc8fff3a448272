// Tests for the pcapng reader/writer and format detection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "net/ipv6.hpp"
#include "wire/packet.hpp"
#include "wire/pcapng.hpp"

namespace v6sonar::wire {
namespace {

class PcapngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_pcapng_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

std::vector<std::uint8_t> sample_frame(int i) {
  return FrameBuilder::tcp(net::Ipv6Address{1, static_cast<std::uint64_t>(i + 1)},
                           net::Ipv6Address::parse_or_throw("2600::1"), 40'000,
                           static_cast<std::uint16_t>(22 + i));
}

TEST_F(PcapngTest, WriteReadRoundTrip) {
  const auto p = path("roundtrip.pcapng");
  {
    PcapngWriter w(p);
    for (int i = 0; i < 20; ++i)
      w.write(1'600'000'000'000'000LL + i * 1'000'000LL + 123, sample_frame(i));
    EXPECT_EQ(w.records_written(), 20u);
  }
  PcapngReader r(p);
  EXPECT_EQ(r.link_type(), kLinkTypeEthernet);
  int n = 0;
  while (auto rec = r.next()) {
    EXPECT_EQ(rec->ts_sec, 1'600'000'000 + n);
    EXPECT_EQ(rec->ts_frac, 123u);
    EXPECT_EQ(rec->data, sample_frame(n));
    const auto parsed = parse_frame(rec->data);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dst_port, 22 + n);
    ++n;
  }
  EXPECT_EQ(n, 20);
  EXPECT_FALSE(r.truncated());
}

TEST_F(PcapngTest, OddFrameSizesArePadded) {
  const auto p = path("pad.pcapng");
  {
    PcapngWriter w(p);
    std::vector<std::uint8_t> odd(77, 0xAB);  // not a multiple of 4
    w.write(5'000'000, odd);
    w.write(6'000'000, odd);
  }
  PcapngReader r(p);
  const auto a = r.next();
  const auto b = r.next();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->data.size(), 77u);
  EXPECT_EQ(b->data.size(), 77u);
  EXPECT_FALSE(r.next().has_value());
}

TEST_F(PcapngTest, RejectsNonPcapng) {
  const auto p = path("bogus.pcapng");
  {
    std::ofstream f(p, std::ios::binary);
    f << "definitely not a capture";
  }
  EXPECT_THROW(PcapngReader{p}, std::runtime_error);
}

TEST_F(PcapngTest, TruncationDetected) {
  const auto p = path("trunc.pcapng");
  {
    PcapngWriter w(p);
    w.write(1'000'000, sample_frame(0));
    w.write(2'000'000, sample_frame(1));
  }
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 6);
  PcapngReader r(p);
  EXPECT_TRUE(r.next().has_value());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.truncated());
}

TEST_F(PcapngTest, UnknownBlocksAreSkipped) {
  const auto p = path("extra.pcapng");
  {
    PcapngWriter w(p);
    w.write(1'000'000, sample_frame(0));
  }
  // Append a Name Resolution Block (type 4) after the packet; a
  // subsequent reader pass must not trip over it.
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    const std::uint32_t words[3] = {4, 12, 12};
    f.write(reinterpret_cast<const char*>(words), 12);
  }
  PcapngReader r(p);
  EXPECT_TRUE(r.next().has_value());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.truncated());
}

TEST_F(PcapngTest, FormatDetection) {
  const auto ng = path("detect.pcapng");
  { PcapngWriter w(ng); }
  EXPECT_EQ(detect_capture_format(ng), CaptureFormat::kPcapng);

  const auto classic = path("detect.pcap");
  { PcapWriter w(classic); }
  EXPECT_EQ(detect_capture_format(classic), CaptureFormat::kPcap);

  const auto junk = path("junk.bin");
  {
    std::ofstream f(junk, std::ios::binary);
    f << "0123456789";
  }
  EXPECT_EQ(detect_capture_format(junk), CaptureFormat::kUnknown);
  EXPECT_EQ(detect_capture_format(path("missing")), CaptureFormat::kUnknown);
}

}  // namespace
}  // namespace v6sonar::wire
