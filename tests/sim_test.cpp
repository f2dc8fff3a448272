// Tests for sim: AS registry, stream merging, and binary log I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <vector>

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

TEST(RecordStream, DefaultSkipDiscardsThatManyRecords) {
  VectorStream s({rec(10), rec(20), rec(30), rec(40)});
  EXPECT_EQ(s.skip(0), 0u);
  EXPECT_EQ(s.skip(2), 2u);
  EXPECT_EQ(s.next()->ts_us, 30);
  EXPECT_EQ(s.skip(5), 1u) << "a skip past the end returns the short count";
  EXPECT_FALSE(s.next().has_value());
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
  MappedLogReader reader(p);
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
  MappedLogReader reader(p);
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

}  // namespace

/// The one reader consumed through its wire images, the way `filter`
/// and `query ingest` read it: records decoded from unread(), the
/// cursor moved with skip(), the pages behind it handed back with
/// release(). As the second instance of the contract suite it checks
/// that this path yields exactly what next()/next_batch() yield. It
/// carries the retired stdio reader's name, so the suite's instances
/// keep the names they have always had.
class LogReader {
 public:
  explicit LogReader(const std::string& path) : mapped_(path) {}

  std::optional<LogRecord> next() {
    LogRecord r;
    if (next_batch(&r, 1) == 0) return std::nullopt;
    return r;
  }
  std::size_t next_batch(LogRecord* out, std::size_t max) {
    const auto images = mapped_.unread();
    const std::size_t n = std::min(max, images.size() / kLogRecordBytes);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = decode_record(images.data() + i * kLogRecordBytes);
    mapped_.skip(n);
    mapped_.release(images.data() + n * kLogRecordBytes);
    return n;
  }
  std::uint64_t skip(std::uint64_t n) { return mapped_.skip(n); }
  [[nodiscard]] std::uint64_t position() const noexcept { return mapped_.position(); }

 private:
  MappedLogReader mapped_;
};

namespace {

/// The reader's open-time contract (magic checked, header record count
/// matched against the file size exactly, errors naming the path) and
/// its cursor, over the reader's record path (MappedLogReader) and its
/// wire-image path (LogReader above).
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

  /// `n` distinct records, written to `name`.
  std::vector<LogRecord> write_records(const char* name, std::size_t n) {
    std::vector<LogRecord> records;
    for (std::size_t i = 0; i < n; ++i) records.push_back(rec(static_cast<TimeUs>(i), i + 1));
    LogWriter w(path(name));
    w.write(records);
    w.close();
    return records;
  }
};

/// Everything `r` still yields, pulled in batches of `batch`.
template <typename Reader>
std::vector<LogRecord> read_rest(Reader& r, std::size_t batch) {
  std::vector<LogRecord> got;
  std::vector<LogRecord> buf(batch);
  for (std::size_t n; (n = r.next_batch(buf.data(), batch)) > 0;)
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  return got;
}

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

TYPED_TEST(LogReaderContractTest, SkipThenReadEqualsDroppingThePrefix) {
  constexpr std::size_t kRecords = 37;
  const auto all = this->write_records("skip.bin", kRecords);
  const auto p = this->path("skip.bin");
  // Every record boundary, skip(0) included, then past the end: the
  // skip returns the short count and the reader stays at the end.
  for (std::size_t k = 0; k <= kRecords + 3; ++k) {
    TypeParam r(p);
    const std::size_t expect = std::min(k, kRecords);
    EXPECT_EQ(r.skip(k), expect) << "k " << k;
    EXPECT_EQ(r.position(), expect) << "k " << k;
    const std::vector<LogRecord> tail(all.begin() + static_cast<std::ptrdiff_t>(expect),
                                      all.end());
    EXPECT_EQ(read_rest(r, 8), tail) << "k " << k;
    EXPECT_EQ(r.position(), kRecords);
    EXPECT_EQ(r.skip(1), 0u) << "k " << k;
    EXPECT_FALSE(r.next().has_value()) << "k " << k;
  }
}

TYPED_TEST(LogReaderContractTest, SkipInterleavesWithNextAndNextBatch) {
  constexpr std::size_t kRecords = 101;
  const auto all = this->write_records("mix.bin", kRecords);
  util::Xoshiro256 rng(5);
  for (int round = 0; round < 20; ++round) {
    TypeParam r(this->path("mix.bin"));
    std::size_t at = 0;  // the model cursor
    std::vector<LogRecord> buf(16);
    while (at < kRecords) {
      const std::size_t want = rng.below(12);
      switch (rng.below(3)) {
        case 0: {
          const std::size_t k = r.skip(want);
          ASSERT_EQ(k, std::min(want, kRecords - at));
          at += k;
          break;
        }
        case 1: {
          const auto got = r.next();
          ASSERT_TRUE(got.has_value());
          ASSERT_EQ(*got, all[at++]);
          break;
        }
        default: {
          const std::size_t n = r.next_batch(buf.data(), want);
          ASSERT_EQ(n, std::min(want, kRecords - at));
          for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], all[at++]);
        }
      }
      ASSERT_EQ(r.position(), at) << "round " << round;
    }
    EXPECT_FALSE(r.next().has_value());
    EXPECT_EQ(r.skip(3), 0u);
  }
}

TEST_F(LogIoTest, MappedReaderRoundTripAndReread) {
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

  // A second reader over the same file starts at record 0, and a skip
  // lands it on the record after the skipped ones.
  MappedLogReader again(p);
  EXPECT_EQ(again.position(), 0u);
  const auto first = again.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, original.front());
  EXPECT_EQ(again.skip(100), 100u);
  EXPECT_EQ(again.position(), 101u);
  const auto after = again.next();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, original[101]);
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

/// Resident bytes of the mapping that holds `inside`: the `Rss:` line
/// of its VMA in /proc/self/smaps (0 if not found).
std::size_t mapping_rss(const void* inside) {
  const auto at = reinterpret_cast<std::uintptr_t>(inside);
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return 0;
  bool in_vma = false;
  std::size_t kb = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line, "%lx-%lx ", &lo, &hi) == 2) {
      in_vma = lo <= at && at < hi;
    } else if (in_vma && std::sscanf(line, "Rss: %zu kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb << 10;
}

/// Pages of [begin, end) the process has mapped in (/proc/self/pagemap
/// bit 63).
std::size_t present_pages(const std::uint8_t* begin, const std::uint8_t* end) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  std::FILE* f = std::fopen("/proc/self/pagemap", "rb");
  if (f == nullptr) return 0;
  std::size_t present = 0;
  for (auto p = reinterpret_cast<std::uintptr_t>(begin) / page;
       p < reinterpret_cast<std::uintptr_t>(end) / page; ++p) {
    std::uint64_t entry = 0;
    if (std::fseek(f, static_cast<long>(p * sizeof entry), SEEK_SET) != 0 ||
        std::fread(&entry, sizeof entry, 1, f) != 1)
      break;
    present += entry >> 63;
  }
  std::fclose(f);
  return present;
}

/// The reader keeps a 32 MiB window populated ahead of its cursor and
/// releases what lies behind it, so a log of ~2.5 windows never has
/// more than a window and a half of its mapping resident: read batch by
/// batch, in one batch that spans every window, and after a resume's
/// skip, whose pages are never touched.
TEST_F(LogIoTest, MappedReaderResidencyIsBoundedByTheWindow) {
  constexpr std::size_t kMiB = 1 << 20;
  constexpr std::size_t kRecords = 80 * kMiB / kLogRecordBytes;
  constexpr std::size_t kBatch = 4'096;
  constexpr std::size_t kBound = 48 * kMiB;
  const auto p = path("long.bin");
  {
    std::vector<LogRecord> chunk(kBatch);
    LogWriter w(p);
    for (std::size_t i = 0; i < kRecords; i += kBatch) {
      const std::size_t n = std::min(kBatch, kRecords - i);
      for (std::size_t k = 0; k < n; ++k) chunk[k] = rec(static_cast<TimeUs>(i + k), i + k);
      w.write(std::span<const LogRecord>(chunk).first(n));
    }
    w.close();
  }
  std::vector<LogRecord> buf(kRecords);
  {
    MappedLogReader r(p);
    const std::uint8_t* data = r.unread().data();
    std::size_t peak = 0;
    for (std::size_t n; (n = r.next_batch(buf.data(), kBatch)) > 0;) {
      EXPECT_EQ(buf[n - 1], rec(static_cast<TimeUs>(r.position() - 1), r.position() - 1));
      peak = std::max(peak, mapping_rss(data));
      ASSERT_LE(peak, kBound + kBatch * kLogRecordBytes) << "at record " << r.position();
    }
    EXPECT_EQ(r.position(), kRecords);
    EXPECT_GT(peak, 16 * kMiB) << "the window was never populated";
  }
  {
    MappedLogReader r(p);
    const std::uint8_t* data = r.unread().data();
    ASSERT_EQ(r.next_batch(buf.data(), kRecords), kRecords);
    EXPECT_EQ(buf.back(), rec(static_cast<TimeUs>(kRecords - 1), kRecords - 1));
    EXPECT_LE(mapping_rss(data), kBound) << "one long batch kept what it read";
  }
  {
    MappedLogReader r(p);
    const std::uint8_t* data = r.unread().data();
    ASSERT_EQ(r.skip(kRecords / 2), kRecords / 2);
    const std::uint8_t* cursor = r.unread().data();
    ASSERT_EQ(r.next_batch(buf.data(), kBatch), kBatch);
    EXPECT_EQ(buf[0], rec(static_cast<TimeUs>(kRecords / 2), kRecords / 2));
    // The first fault may map cached pages around it (fault-around, a
    // large folio): at most 2 MiB below the cursor.
    EXPECT_EQ(present_pages(data, cursor - 2 * kMiB), 0u) << "skipped pages are resident";
    EXPECT_GT(present_pages(cursor, cursor + kMiB), 0u) << "pagemap shows no window";
    EXPECT_LE(mapping_rss(data), kBound + kBatch * kLogRecordBytes);
  }
}

}  // namespace
}  // namespace v6sonar::sim
