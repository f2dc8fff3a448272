// Deterministic mutation fuzz for daemon::FrameDecoder, the parser of
// every byte a v6sonard client sends. A valid frame stream is mutated
// by seeded bit flips, truncated at every offset, given extreme length
// prefixes, and split at every offset; each mutant is fed in seeded
// chunks and must yield exactly what a one-pass reference parser over
// the whole buffer yields: the same frames, then kNeedMore, or
// kMalformed with a message. Never a crash, an exception or an
// allocation sized by a lying length. Run under ASan by
// `tools/check.sh address`, where an out-of-bounds read fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "daemon/framing.hpp"
#include "util/rng.hpp"

namespace v6sonar::daemon {
namespace {

using Result = FrameDecoder::Result;

/// What decoding a whole byte string comes to: its complete frames,
/// then how the rest ends.
struct Parse {
  std::vector<Frame> frames;
  Result end = Result::kNeedMore;
  std::size_t rest = 0;  ///< bytes left after the frames (kNeedMore)
};

std::uint32_t get_u32(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[at + i])) << (8 * i);
  return v;
}

void put_u32(std::string& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<char>(v >> (8 * i));
}

/// The reference: walk the buffer frame by frame, as the header layout
/// in framing.hpp reads.
Parse reference(const std::string& b) {
  Parse p;
  std::size_t at = 0;
  for (;;) {
    const std::size_t left = b.size() - at;
    if (left < kFrameHeaderBytes) break;
    const std::uint32_t len = get_u32(b, at);
    if (len > kMaxPayload) {
      p.end = Result::kMalformed;
      return p;
    }
    if (left < kFrameHeaderBytes + len) break;
    Frame f;
    f.verb = static_cast<std::uint8_t>(b[at + 4]);
    f.status = static_cast<std::uint8_t>(b[at + 5]);
    f.seq = static_cast<std::uint16_t>(static_cast<std::uint8_t>(b[at + 6]) |
                                       (static_cast<std::uint8_t>(b[at + 7]) << 8));
    f.payload = b.substr(at + kFrameHeaderBytes, len);
    p.frames.push_back(std::move(f));
    at += kFrameHeaderBytes + len;
  }
  p.rest = b.size() - at;
  return p;
}

/// Feed `b` to a decoder in the given chunk sizes (cycled), draining
/// frames after every feed, and check the outcome against the
/// reference.
void expect_decodes_as_reference(const std::string& b, const std::vector<std::size_t>& chunks,
                                 const std::string& what) {
  const Parse want = reference(b);
  FrameDecoder dec;
  std::vector<Frame> got;
  Result last = Result::kNeedMore;
  const auto drain = [&] {
    Frame f;
    while ((last = dec.next(f)) == Result::kFrame) got.push_back(f);
  };
  std::size_t at = 0;
  for (std::size_t k = 0; at < b.size(); ++k) {
    const std::size_t n = std::min(chunks[k % chunks.size()], b.size() - at);
    dec.feed(b.data() + at, n);
    at += n;
    drain();
  }
  drain();
  ASSERT_EQ(got.size(), want.frames.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want.frames[i]) << what << ": frame " << i;
  ASSERT_EQ(last, want.end) << what;
  if (want.end == Result::kMalformed) {
    EXPECT_NE(dec.error().find("exceeds"), std::string::npos) << what << ": " << dec.error();
    // Sticky: more bytes change nothing.
    dec.feed("\0\0\0\0\0\0\0\0", 8);
    Frame f;
    EXPECT_EQ(dec.next(f), Result::kMalformed) << what;
  } else {
    EXPECT_EQ(dec.buffered(), want.rest) << what;
  }
}

/// A valid stream of `n` seeded frames: every verb and status byte,
/// payloads from empty to a few KiB.
std::string make_stream(std::size_t n, util::Xoshiro256& rng) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    Frame f;
    f.verb = static_cast<std::uint8_t>(rng.below(256));
    f.status = static_cast<std::uint8_t>(rng.below(256));
    f.seq = static_cast<std::uint16_t>(rng.below(65'536));
    const std::size_t len = rng.below(8) == 0 ? rng.below(4'096) : rng.below(64);
    for (std::size_t k = 0; k < len; ++k) f.payload.push_back(static_cast<char>(rng.below(256)));
    out += encode_frame(f);
  }
  return out;
}

/// Seeded chunk sizes, from single bytes to more than a frame.
std::vector<std::size_t> make_chunks(util::Xoshiro256& rng) {
  std::vector<std::size_t> chunks;
  for (int i = 0; i < 8; ++i)
    chunks.push_back(1 + (rng.below(3) == 0 ? rng.below(5'000) : rng.below(16)));
  return chunks;
}

/// Start offset of every frame in a valid stream, then its end.
std::vector<std::size_t> frame_starts(const std::string& b) {
  std::vector<std::size_t> starts;
  for (std::size_t at = 0; at < b.size(); at += kFrameHeaderBytes + get_u32(b, at))
    starts.push_back(at);
  starts.push_back(b.size());
  return starts;
}

constexpr int kFlipRounds = 600;

TEST(FrameFuzz, ByteFlipsDecodeAsTheReference) {
  util::Xoshiro256 rng(17);
  const std::string good = make_stream(40, rng);
  const auto starts = frame_starts(good);
  for (int round = 0; round < kFlipRounds; ++round) {
    std::string b = good;
    for (std::size_t k = 0, flips = 1 + rng.below(4); k < flips; ++k) {
      // Half the flips land in a length prefix, where they matter most.
      const std::size_t at = rng.below(2) == 0
                                 ? starts[rng.below(starts.size() - 1)] + rng.below(4)
                                 : rng.below(b.size());
      b[at] = static_cast<char>(b[at] ^ (1u << rng.below(8)));
    }
    expect_decodes_as_reference(b, make_chunks(rng), "flip round " + std::to_string(round));
  }
}

TEST(FrameFuzz, TruncationAtEveryOffsetNeedsMore) {
  util::Xoshiro256 rng(19);
  const std::string good = make_stream(12, rng);
  const auto starts = frame_starts(good);
  for (std::size_t len = 0; len <= good.size(); ++len) {
    const std::string b = good.substr(0, len);
    const std::string what = "truncated at " + std::to_string(len);
    expect_decodes_as_reference(b, make_chunks(rng), what);
    // Whole frames are those whose end (the next start) fits the cut.
    const auto whole = std::count_if(starts.begin() + 1, starts.end(),
                                     [&](std::size_t end) { return end <= len; });
    const Parse p = reference(b);
    ASSERT_EQ(p.end, Result::kNeedMore) << what;
    ASSERT_EQ(p.frames.size(), static_cast<std::size_t>(whole)) << what;
  }
}

TEST(FrameFuzz, ExtremeLengthPrefixes) {
  util::Xoshiro256 rng(23);
  const std::string good = make_stream(10, rng);
  const auto starts = frame_starts(good);
  for (const std::uint32_t len : {0u, 1u, kMaxPayload - 1, kMaxPayload, kMaxPayload + 1,
                                  0x7FFF'FFFFu, 0x8000'0000u, 0xFFFF'FFFEu, 0xFFFF'FFFFu}) {
    for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
      std::string b = good;
      put_u32(b, starts[i], len);
      const std::string what = "frame " + std::to_string(i) + " length " + std::to_string(len);
      expect_decodes_as_reference(b, make_chunks(rng), what);
      const Parse p = reference(b);
      if (len > kMaxPayload) {
        EXPECT_EQ(p.end, Result::kMalformed) << what;
        EXPECT_EQ(p.frames.size(), i) << what;
      }
    }
  }
  // A frame at exactly the cap decodes once its last byte arrives.
  std::string big = encode_header(7, 0, 1, kMaxPayload);
  big.resize(kFrameHeaderBytes + kMaxPayload, 'x');
  big += encode_frame(Frame{.verb = 1, .status = 0, .seq = 2, .payload = "after"});
  expect_decodes_as_reference(big, {1 << 20, 3}, "payload at the cap");
}

TEST(FrameFuzz, ValidStreamSplitAtEveryOffset) {
  util::Xoshiro256 rng(29);
  const std::string good = make_stream(16, rng);
  const Parse whole = reference(good);
  ASSERT_EQ(whole.frames.size(), 16u);
  ASSERT_EQ(whole.rest, 0u);
  for (std::size_t cut = 0; cut <= good.size(); ++cut) {
    // Two feeds, split at `cut`, and three, with a seeded second cut.
    expect_decodes_as_reference(good, {cut == 0 ? good.size() : cut, good.size()},
                                "split at " + std::to_string(cut));
    const std::size_t second = 1 + rng.below(good.size());
    expect_decodes_as_reference(good, {cut == 0 ? 1 : cut, second, good.size()},
                                "split at " + std::to_string(cut) + " and +" +
                                    std::to_string(second));
  }
}

}  // namespace
}  // namespace v6sonar::daemon
