// Tests for sim: AS registry, stream merging, and binary log I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <span>

#include "sim/as_registry.hpp"
#include "sim/log_io.hpp"
#include "sim/merge.hpp"
#include "util/rng.hpp"

namespace v6sonar::sim {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;

AsInfo make_as(std::uint32_t asn, const char* prefix) {
  AsInfo info;
  info.asn = asn;
  info.type = AsType::kCloud;
  info.country = "XX";
  info.allocations = {Ipv6Prefix::parse_or_throw(prefix)};
  return info;
}

TEST(AsRegistry, AddAndLookup) {
  AsRegistry reg;
  reg.add(make_as(100, "2001:db8::/32"));
  reg.add(make_as(200, "2a00::/24"));
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.asn_of(Ipv6Address::parse_or_throw("2001:db8::5")), 100u);
  EXPECT_EQ(reg.asn_of(Ipv6Address::parse_or_throw("2a00:77::1")), 200u);
  EXPECT_EQ(reg.asn_of(Ipv6Address::parse_or_throw("3001::1")), 0u);
  ASSERT_NE(reg.find(100), nullptr);
  EXPECT_EQ(reg.find(100)->country, "XX");
  EXPECT_EQ(reg.find(999), nullptr);
}

TEST(AsRegistry, AllocationOfReturnsCoveringPrefix) {
  AsRegistry reg;
  reg.add(make_as(100, "2001:db8::/32"));
  const auto alloc = reg.allocation_of(Ipv6Address::parse_or_throw("2001:db8:ffff::1"));
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->to_string(), "2001:db8::/32");
  EXPECT_FALSE(reg.allocation_of(Ipv6Address::parse_or_throw("::1")).has_value());
}

TEST(AsRegistry, RejectsDuplicateAsn) {
  AsRegistry reg;
  reg.add(make_as(100, "2001:db8::/32"));
  EXPECT_THROW(reg.add(make_as(100, "2a00::/32")), std::invalid_argument);
}

TEST(AsRegistry, RejectsAsnZero) {
  AsRegistry reg;
  EXPECT_THROW(reg.add(make_as(0, "2001:db8::/32")), std::invalid_argument);
}

TEST(AsRegistry, RejectsOverlappingAllocations) {
  AsRegistry reg;
  reg.add(make_as(100, "2001:db8::/32"));
  // More-specific inside an existing allocation.
  EXPECT_THROW(reg.add(make_as(200, "2001:db8:1::/48")), std::invalid_argument);
  // Less-specific covering an existing allocation.
  EXPECT_THROW(reg.add(make_as(300, "2001::/16")), std::invalid_argument);
  // Exact duplicate.
  EXPECT_THROW(reg.add(make_as(400, "2001:db8::/32")), std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(AsRegistry, AllocateToUnknownAsnThrows) {
  AsRegistry reg;
  EXPECT_THROW(reg.allocate(5, Ipv6Prefix::parse_or_throw("2001:db8::/32")),
               std::invalid_argument);
}

TEST(AsRegistry, MultipleAllocationsPerAs) {
  AsRegistry reg;
  reg.add(make_as(100, "2001:db8::/32"));
  reg.allocate(100, Ipv6Prefix::parse_or_throw("2a00:1::/32"));
  EXPECT_EQ(reg.find(100)->allocations.size(), 2u);
  EXPECT_EQ(reg.asn_of(Ipv6Address::parse_or_throw("2a00:1::9")), 100u);
}

TEST(AsTypeNames, AllNamed) {
  EXPECT_EQ(to_string(AsType::kDatacenter), "Datacenter");
  EXPECT_EQ(to_string(AsType::kCloudTransit), "Cloud/Transit");
  EXPECT_EQ(to_string(AsType::kCybersecurity), "Cybersecurity");
}

LogRecord rec(TimeUs ts, std::uint64_t src_lo = 1) {
  LogRecord r;
  r.ts_us = ts;
  r.src = Ipv6Address{0x2001'0db8'0000'0000ULL, src_lo};
  r.dst = Ipv6Address{0x2600'0000'0000'0000ULL, 42};
  r.dst_port = 22;
  return r;
}

TEST(Merge, InterleavesByTime) {
  std::vector<std::unique_ptr<RecordStream>> sources;
  sources.push_back(std::make_unique<VectorStream>(std::vector<LogRecord>{rec(10), rec(30)}));
  sources.push_back(std::make_unique<VectorStream>(std::vector<LogRecord>{rec(20), rec(40)}));
  MergedStream m(std::move(sources));
  std::vector<TimeUs> ts;
  while (auto r = m.next()) ts.push_back(r->ts_us);
  EXPECT_EQ(ts, (std::vector<TimeUs>{10, 20, 30, 40}));
}

TEST(Merge, TieBreaksBySourceIndexDeterministically) {
  std::vector<std::unique_ptr<RecordStream>> sources;
  sources.push_back(std::make_unique<VectorStream>(std::vector<LogRecord>{rec(10, 111)}));
  sources.push_back(std::make_unique<VectorStream>(std::vector<LogRecord>{rec(10, 222)}));
  MergedStream m(std::move(sources));
  EXPECT_EQ(m.next()->src.lo(), 111u);
  EXPECT_EQ(m.next()->src.lo(), 222u);
}

TEST(Merge, EmptySourcesYieldNothing) {
  std::vector<std::unique_ptr<RecordStream>> sources;
  sources.push_back(std::make_unique<VectorStream>(std::vector<LogRecord>{}));
  MergedStream m(std::move(sources));
  EXPECT_FALSE(m.next().has_value());
  MergedStream empty({});
  EXPECT_FALSE(empty.next().has_value());
}

TEST(Merge, VectorStreamSortsItsInput) {
  VectorStream v({rec(30), rec(10), rec(20)});
  EXPECT_EQ(v.next()->ts_us, 10);
  EXPECT_EQ(v.next()->ts_us, 20);
  EXPECT_EQ(v.next()->ts_us, 30);
  EXPECT_FALSE(v.next().has_value());
}

TEST(Merge, DrainCollectsAll) {
  VectorStream v({rec(1), rec(2)});
  EXPECT_EQ(drain(v).size(), 2u);
}

class LogIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_logio_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(LogIoTest, RoundTripPreservesEveryField) {
  const auto p = path("log.bin");
  util::Xoshiro256 rng(4);
  std::vector<LogRecord> original;
  for (int i = 0; i < 1'000; ++i) {
    LogRecord r;
    r.ts_us = static_cast<TimeUs>(rng());
    r.src = net::Ipv6Address{rng(), rng()};
    r.dst = net::Ipv6Address{rng(), rng()};
    r.proto = static_cast<wire::IpProto>(rng.chance(0.5) ? 6 : 17);
    r.src_port = static_cast<std::uint16_t>(rng.below(65'536));
    r.dst_port = static_cast<std::uint16_t>(rng.below(65'536));
    r.frame_len = static_cast<std::uint16_t>(rng.below(1'500));
    r.src_asn = static_cast<std::uint32_t>(rng.below(1 << 30));
    r.dst_in_dns = rng.chance(0.5);
    original.push_back(r);
  }
  {
    LogWriter w(p);
    for (const auto& r : original) w.write(r);
    EXPECT_EQ(w.written(), original.size());
    w.close();
  }
  LogReader reader(p);
  EXPECT_EQ(reader.total_records(), original.size());
  for (const auto& want : original) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(reader.next().has_value());
}

/// The exact wire bytes of one record, boundary values in every field:
/// pins the little-endian layout that log files and the daemon's
/// ingest frames share, independent of the encode/decode fast paths.
TEST(LogRecordEncoding, GoldenBytes) {
  LogRecord r;
  r.ts_us = 0x0102'0304'0506'0708;
  r.src = Ipv6Address{0x2001'0db8'0000'0001, 0x1122'3344'5566'7788};
  r.dst = Ipv6Address{0xfe80'0000'0000'0000, 0x99aa'bbcc'ddee'ff00};
  r.src_asn = 0xdead'beef;
  r.src_port = 65'535;
  r.dst_port = 65'534;
  r.frame_len = 65'535;
  r.proto = static_cast<wire::IpProto>(0x8b);  // odd, unnamed protocol number
  r.dst_in_dns = true;
  const std::array<std::uint8_t, kLogRecordBytes> golden = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // ts
      0x01, 0x00, 0x00, 0x00, 0xb8, 0x0d, 0x01, 0x20,  // src hi
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // src lo
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0xfe,  // dst hi
      0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99,  // dst lo
      0xef, 0xbe, 0xad, 0xde,                          // src asn
      0xff, 0xff, 0xfe, 0xff, 0xff, 0xff,              // src port, dst port, frame len
      0x8b, 0x01};                                     // proto, dst in DNS
  std::array<std::uint8_t, kLogRecordBytes> got{};
  encode_record(r, got.data());
  EXPECT_EQ(got, golden);
  EXPECT_EQ(decode_record(golden.data()), r);
}

TEST_F(LogIoTest, BulkWriteMatchesRecordAtATime) {
  std::vector<LogRecord> recs;
  for (TimeUs t = 0; t < 300; ++t) recs.push_back(rec(t * 7));
  {
    LogWriter one(path("one.bin"));
    for (const auto& r : recs) one.write(r);
    one.close();
    LogWriter bulk(path("bulk.bin"));
    bulk.write(std::span<const LogRecord>(recs).first(100));
    bulk.write(std::span<const LogRecord>{});
    bulk.write(std::span<const LogRecord>(recs).subspan(100));
    EXPECT_EQ(bulk.written(), recs.size());
    bulk.close();
  }
  const auto bytes = [](const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    std::vector<char> b(std::filesystem::file_size(p));
    EXPECT_EQ(std::fread(b.data(), 1, b.size(), f), b.size());
    std::fclose(f);
    return b;
  };
  EXPECT_EQ(bytes(path("one.bin")), bytes(path("bulk.bin")));
}

TEST_F(LogIoTest, ReaderIsARecordStream) {
  const auto p = path("stream.bin");
  {
    LogWriter w(p);
    w.write(rec(5));
    w.close();
  }
  LogReader reader(p);
  RecordStream& s = reader;
  EXPECT_EQ(drain(s).size(), 1u);
}

/// The open-time error message for a corrupt log must name the file —
/// the operator locates data problems by path.
template <typename Reader>
std::string open_error(const std::string& p) {
  try {
    Reader reader(p);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

/// Both readers enforce the same open-time contract: magic checked,
/// header record count matched against the file size exactly, errors
/// naming the path. The typed suite runs every case against each.
template <typename Reader>
class LogReaderContractTest : public LogIoTest {
 protected:
  /// A valid 3-record log at `name`.
  std::string write_log(const char* name) {
    const auto p = path(name);
    LogWriter w(p);
    for (TimeUs t : {10, 20, 30}) w.write(rec(t));
    w.close();
    return p;
  }
};

using ReaderTypes = ::testing::Types<LogReader, MappedLogReader>;
TYPED_TEST_SUITE(LogReaderContractTest, ReaderTypes);

TYPED_TEST(LogReaderContractTest, RejectsBadMagic) {
  const auto p = this->write_log("magic.bin");
  {
    std::FILE* f = std::fopen(p.c_str(), "r+b");
    std::fputs("not a log", f);  // clobber the magic, keep the size
    std::fclose(f);
  }
  const std::string msg = open_error<TypeParam>(p);
  EXPECT_NE(msg.find("not a v6sonar log"), std::string::npos) << msg;
  EXPECT_NE(msg.find(p), std::string::npos) << msg;
}

TYPED_TEST(LogReaderContractTest, RejectsTruncatedRecord) {
  const auto p = this->write_log("trunc.bin");
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 5);
  const std::string msg = open_error<TypeParam>(p);
  EXPECT_NE(msg.find("record"), std::string::npos) << msg;
  EXPECT_NE(msg.find(p), std::string::npos) << msg;
}

TYPED_TEST(LogReaderContractTest, RejectsTruncatedHeader) {
  const auto p = this->write_log("header.bin");
  std::filesystem::resize_file(p, 7);  // not even a whole magic
  const std::string msg = open_error<TypeParam>(p);
  EXPECT_NE(msg.find("truncated header"), std::string::npos) << msg;
  EXPECT_NE(msg.find(p), std::string::npos) << msg;
}

TYPED_TEST(LogReaderContractTest, RejectsCountMismatchingSize) {
  const auto p = this->write_log("count.bin");
  {
    // Header claims one record more than the file holds.
    std::FILE* f = std::fopen(p.c_str(), "r+b");
    std::fseek(f, 8, SEEK_SET);
    const std::uint8_t four[8] = {4, 0, 0, 0, 0, 0, 0, 0};
    std::fwrite(four, 1, sizeof four, f);
    std::fclose(f);
  }
  const std::string msg = open_error<TypeParam>(p);
  EXPECT_NE(msg.find("claims 4 records"), std::string::npos) << msg;
  EXPECT_NE(msg.find(p), std::string::npos) << msg;
}

TYPED_TEST(LogReaderContractTest, RejectsMissingFile) {
  EXPECT_THROW(TypeParam{this->path("nonexistent.bin")}, std::runtime_error);
}

TYPED_TEST(LogReaderContractTest, BatchReadMatchesRecordAtATime) {
  const auto p = this->write_log("batch.bin");
  std::vector<LogRecord> one_by_one;
  {
    TypeParam r(p);
    while (auto rr = r.next()) one_by_one.push_back(*rr);
  }
  ASSERT_EQ(one_by_one.size(), 3u);
  for (std::size_t batch : {1u, 2u, 8u}) {
    TypeParam r(p);
    std::vector<LogRecord> got;
    std::vector<LogRecord> buf(batch);
    for (std::size_t n; (n = r.next_batch(buf.data(), batch)) > 0;)
      got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(got, one_by_one) << "batch size " << batch;
    EXPECT_EQ(r.next_batch(buf.data(), batch), 0u);  // stays at end
  }
}

TEST_F(LogIoTest, MappedReaderRoundTripAndRewind) {
  const auto p = path("mmap.bin");
  util::Xoshiro256 rng(7);
  std::vector<LogRecord> original;
  for (int i = 0; i < 257; ++i) {
    LogRecord r = rec(static_cast<TimeUs>(i), rng());
    r.src_asn = static_cast<std::uint32_t>(rng.below(1 << 30));
    r.dst_in_dns = rng.chance(0.5);
    original.push_back(r);
  }
  {
    LogWriter w(p);
    for (const auto& r : original) w.write(r);
    w.close();
  }
  MappedLogReader reader(p);
  EXPECT_EQ(reader.total_records(), original.size());
  std::vector<LogRecord> got;
  std::vector<LogRecord> buf(64);
  for (std::size_t n; (n = reader.next_batch(buf.data(), buf.size())) > 0;)
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  EXPECT_EQ(got, original);
  EXPECT_EQ(reader.position(), original.size());

  reader.rewind();
  EXPECT_EQ(reader.position(), 0u);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, original.front());
}

TEST_F(LogIoTest, MappedReaderHandlesEmptyLog) {
  const auto p = path("empty.bin");
  {
    LogWriter w(p);
    w.close();  // header only, zero records
  }
  MappedLogReader reader(p);
  EXPECT_EQ(reader.total_records(), 0u);
  EXPECT_FALSE(reader.next().has_value());
  LogRecord buf;
  EXPECT_EQ(reader.next_batch(&buf, 1), 0u);
}

}  // namespace
}  // namespace v6sonar::sim
