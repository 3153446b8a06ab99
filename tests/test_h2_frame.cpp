#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "h2/frame.hpp"

namespace h2sim::h2 {
namespace {

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

TEST(FrameCodec, HeaderRoundTrip) {
  Frame f;
  f.type = FrameType::kData;
  f.flags = flags::kEndStream;
  f.stream_id = 12345;
  f.payload = {9, 8, 7};
  const auto wire = serialize_frame(f);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 3);

  FrameDecoder dec;
  dec.feed(wire);
  auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, FrameType::kData);
  EXPECT_EQ(out->flags, flags::kEndStream);
  EXPECT_EQ(out->stream_id, 12345u);
  EXPECT_EQ(bytes_of(out->payload), f.payload);
}

TEST(FrameCodec, ReservedBitMaskedOff) {
  Frame f;
  f.stream_id = 0x80000001u;  // high bit set
  const auto wire = serialize_frame(f);
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_EQ(dec.next()->stream_id, 1u);
}

TEST(FrameCodec, IncrementalFeed) {
  Frame f;
  f.type = FrameType::kHeaders;
  f.payload.assign(300, 0x11);
  const auto wire = serialize_frame(f);
  FrameDecoder dec;
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, wire.size() - i);
    dec.feed(std::span(wire.data() + i, n));
  }
  auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload.size(), 300u);
}

TEST(FrameCodec, OversizedFrameSetsError) {
  Frame f;
  f.payload.assign(20000, 1);  // > default 16384
  const auto wire = serialize_frame(f);
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.error());
}

TEST(FrameCodec, CoalescedFramesInOneFeed) {
  std::vector<std::uint8_t> wire;
  for (std::uint32_t sid = 1; sid <= 5; ++sid) {
    Frame f;
    f.type = sid % 2 ? FrameType::kData : FrameType::kHeaders;
    f.stream_id = sid;
    f.payload.assign(sid * 10, static_cast<std::uint8_t>(sid));
    const auto w = serialize_frame(f);
    wire.insert(wire.end(), w.begin(), w.end());
  }
  FrameDecoder dec;
  dec.feed(wire);
  for (std::uint32_t sid = 1; sid <= 5; ++sid) {
    auto out = dec.next();
    ASSERT_TRUE(out.has_value()) << sid;
    EXPECT_EQ(out->stream_id, sid);
    EXPECT_EQ(bytes_of(out->payload),
              std::vector<std::uint8_t>(sid * 10, static_cast<std::uint8_t>(sid)));
  }
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.error());
}

TEST(FrameCodec, LongStreamInOddPiecesComesOutByteIdentical) {
  // More than 64 KB of frames whose sizes vary, fed in odd-sized pieces:
  // frames straddle feeds and the consumed prefix crosses the 4 KiB point at
  // which the decoder compacts its buffer, many times over.
  std::vector<Frame> sent;
  std::vector<std::uint8_t> wire;
  std::uint8_t next_byte = 0;
  for (std::uint32_t i = 0; wire.size() < 80 * 1024; ++i) {
    Frame f;
    f.type = FrameType::kData;
    f.stream_id = 2 * i + 1;
    f.payload.resize((i * 977) % 5000);
    for (auto& b : f.payload) b = next_byte++;
    const auto w = serialize_frame(f);
    wire.insert(wire.end(), w.begin(), w.end());
    sent.push_back(std::move(f));
  }
  FrameDecoder dec;
  std::vector<Frame> got;  // copies: a view lasts only until the next feed
  const std::size_t pieces[] = {1, 3, 7, 13, 511, 4099, 9, 2047};
  std::size_t pos = 0;
  for (std::size_t k = 0; pos < wire.size(); ++k) {
    const std::size_t n =
        std::min(pieces[k % std::size(pieces)], wire.size() - pos);
    dec.feed(std::span(wire.data() + pos, n));
    pos += n;
    while (auto f = dec.next()) {
      got.push_back(Frame{f->type, f->flags, f->stream_id, bytes_of(f->payload)});
    }
  }
  ASSERT_FALSE(dec.error());
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].stream_id, sent[i].stream_id) << i;
    EXPECT_EQ(got[i].payload, sent[i].payload) << i;
  }
}

TEST(FrameCodec, ErrorStaysSetAfterOversizedFrame) {
  Frame big;
  big.payload.assign(20000, 1);
  Frame small;
  small.payload = {1, 2, 3};
  FrameDecoder dec;
  dec.feed(serialize_frame(big));
  EXPECT_FALSE(dec.next().has_value());
  ASSERT_TRUE(dec.error());
  // Valid frames fed afterwards are never produced.
  dec.feed(serialize_frame(small));
  dec.feed(serialize_frame(small));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.error());
}

TEST(FrameCodec, MaxFrameSizeAdjustable) {
  Frame f;
  f.payload.assign(20000, 1);
  const auto wire = serialize_frame(f);
  FrameDecoder dec;
  dec.set_max_frame_size(1 << 20);
  dec.feed(wire);
  EXPECT_TRUE(dec.next().has_value());
  EXPECT_FALSE(dec.error());
}

TEST(SettingsCodec, RoundTrip) {
  const SettingsEntry entries[] = {
      {SettingId::kInitialWindowSize, 131072},
      {SettingId::kMaxFrameSize, 16384},
      {SettingId::kEnablePush, 0},
  };
  const auto payload = encode_settings(entries);
  EXPECT_EQ(payload.size(), 18u);
  auto out = parse_settings(payload);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].id, SettingId::kInitialWindowSize);
  EXPECT_EQ((*out)[0].value, 131072u);
}

TEST(SettingsCodec, RejectsBadLength) {
  std::vector<std::uint8_t> bad(7, 0);
  EXPECT_FALSE(parse_settings(bad).has_value());
}

TEST(RstCodec, RoundTrip) {
  const auto payload = encode_rst_stream(ErrorCode::kCancel);
  auto out = parse_rst_stream(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, ErrorCode::kCancel);
  EXPECT_FALSE(parse_rst_stream({}).has_value());
}

TEST(WindowUpdateCodec, RoundTrip) {
  const auto payload = encode_window_update(65535);
  auto out = parse_window_update(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 65535u);
}

TEST(GoawayCodec, RoundTrip) {
  GoawayPayload g;
  g.last_stream_id = 41;
  g.error = ErrorCode::kEnhanceYourCalm;
  g.debug = "slow down";
  auto out = parse_goaway(encode_goaway(g));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->last_stream_id, 41u);
  EXPECT_EQ(out->error, ErrorCode::kEnhanceYourCalm);
  EXPECT_EQ(out->debug, "slow down");
}

TEST(PriorityCodec, RoundTrip) {
  PriorityPayload p;
  p.dependency = 3;
  p.exclusive = true;
  p.weight = 200;
  auto out = parse_priority(encode_priority(p));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dependency, 3u);
  EXPECT_TRUE(out->exclusive);
  EXPECT_EQ(out->weight, 200);
}

TEST(PushPromiseCodec, RoundTrip) {
  const std::vector<std::uint8_t> block = {0x82, 0x86};
  auto out = parse_push_promise(encode_push_promise(2, block));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->promised_id, 2u);
  EXPECT_EQ(out->block, block);
}

TEST(Preface, MatchesRfc) {
  const auto p = client_preface();
  ASSERT_EQ(p.size(), 24u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p.data()), 3), "PRI");
}

TEST(FrameNames, AllNamed) {
  EXPECT_STREQ(to_string(FrameType::kData), "DATA");
  EXPECT_STREQ(to_string(FrameType::kRstStream), "RST_STREAM");
  EXPECT_STREQ(to_string(ErrorCode::kFlowControlError), "FLOW_CONTROL_ERROR");
}

}  // namespace
}  // namespace h2sim::h2
