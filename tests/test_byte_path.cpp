// The byte path's buffers: sim::ByteQueue, and the readers that parse a byte
// stream in place -- tls::RecordParser (record views), the header-only
// tls::RecordHeaderFramer behind attack::TrafficMonitor, and h2::FrameDecoder
// (frame views). Each reader must report the same records and frames, each
// at the feed that carries its last byte, however its input is cut.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/monitor.hpp"
#include "h2/frame.hpp"
#include "sim/byte_queue.hpp"
#include "sim/random.hpp"
#include "tls/record.hpp"

namespace h2sim {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes bytes_of(std::span<const std::uint8_t> s) { return {s.begin(), s.end()}; }

Bytes pattern(std::size_t n, std::uint8_t start) {
  Bytes v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(start + i * 13);
  return v;
}

// --- sim::ByteQueue ---

TEST(ByteQueue, AppendViewConsume) {
  sim::ByteQueue q;
  EXPECT_TRUE(q.empty());
  q.append(pattern(10, 1));
  q.append(pattern(5, 100));
  ASSERT_EQ(q.size(), 15u);
  Bytes want = pattern(10, 1);
  const Bytes tail = pattern(5, 100);
  want.insert(want.end(), tail.begin(), tail.end());
  EXPECT_EQ(bytes_of(q.view()), want);
  q.consume(4);
  EXPECT_EQ(bytes_of(q.view()), Bytes(want.begin() + 4, want.end()));
  q.consume(11);
  EXPECT_TRUE(q.empty());
}

TEST(ByteQueue, DrainedQueueRestartsAtOffsetZero) {
  sim::ByteQueue q;
  q.append(pattern(100, 0));
  q.consume(100);
  EXPECT_EQ(q.dead_prefix(), 100u);  // consume moves no bytes
  q.append(pattern(10, 7));
  EXPECT_EQ(q.dead_prefix(), 0u);
  EXPECT_EQ(bytes_of(q.view()), pattern(10, 7));
}

TEST(ByteQueue, CompactsOnceThePrefixIsFourKiBAndAtLeastTheLiveRest) {
  sim::ByteQueue q;
  q.append(pattern(20000, 0));
  q.consume(20000);
  const std::size_t cap = q.capacity();

  // Prefix 4095 bytes: one byte short of the 4 KiB floor.
  q.append(pattern(8000, 1));
  q.consume(4095);
  q.append(pattern(1, 2));
  EXPECT_EQ(q.dead_prefix(), 4095u);
  // Prefix 4096 >= live 3905: the next growth compacts.
  q.consume(1);
  q.append(pattern(1, 3));
  EXPECT_EQ(q.dead_prefix(), 0u);
  EXPECT_EQ(q.size(), 3906u);
  EXPECT_EQ(q.capacity(), cap);  // compaction, not reallocation

  // Prefix 5000 < live 7000: kept; prefix 7001 >= live 5000: compacted.
  q.clear();
  q.append(pattern(12000, 4));
  q.consume(5000);
  q.append(pattern(1, 5));
  EXPECT_EQ(q.dead_prefix(), 5000u);
  q.consume(2001);
  q.append(pattern(1, 6));
  EXPECT_EQ(q.dead_prefix(), 0u);
  EXPECT_EQ(q.capacity(), cap);
}

TEST(ByteQueue, GrowAcrossCompactionAndReallocationKeepsTheStream) {
  // A producer writing in place through grow() while a consumer takes
  // uneven bites: the live bytes must always be the stream's next bytes,
  // across every compaction and reallocation on the way.
  sim::ByteQueue q;
  sim::Rng rng(11);
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  std::size_t compactions = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::size_t n = rng.uniform(3000);
    const std::size_t prefix_before = q.dead_prefix();
    const std::size_t cap_before = q.capacity();
    const std::span<std::uint8_t> out = q.grow(n);
    ASSERT_EQ(out.size(), n);
    if (n > 0 && prefix_before > 0 && q.dead_prefix() == 0 &&
        q.capacity() == cap_before) {
      ++compactions;
    }
    for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(produced++ * 31);
    const std::size_t take = std::min<std::size_t>(rng.uniform(3200), q.size());
    const std::span<const std::uint8_t> v = q.view();
    for (std::size_t i = 0; i < take; ++i) {
      ASSERT_EQ(v[i], static_cast<std::uint8_t>((consumed + i) * 31)) << step;
    }
    q.consume(take);
    consumed += take;
  }
  EXPECT_GT(compactions, 0u);
  EXPECT_EQ(q.size(), produced - consumed);
}

// --- Segmentation invariance of the readers ---

struct RefRecord {
  tls::RecordHeader header;
  Bytes body;
  std::size_t end = 0;  // stream offset one past the record's last byte
};

struct RefFrame {
  h2::FrameType type;
  std::uint8_t flags;
  std::uint32_t stream_id;
  Bytes payload;
  std::size_t end = 0;  // offset one past its last byte in the frame stream
};

/// One fixed stream: HTTP/2 frames of many sizes (empty ones, 16 KiB ones),
/// carried as the bodies of TLS records of many sizes, zero-length records
/// among them. Record bodies are the plain frame bytes, so the frame decoder
/// can run on what the record parser hands out.
struct Corpus {
  std::vector<RefFrame> frames;
  std::vector<RefRecord> records;
  Bytes wire;  // the record stream
};

Corpus make_corpus() {
  Corpus c;
  sim::Rng rng(2020);
  Bytes frame_stream;
  const std::size_t fixed_sizes[] = {0, 1, 8, 9, 1000, 4096, 16384, 0, 2048};
  for (std::size_t i = 0; frame_stream.size() < 120 * 1024; ++i) {
    h2::Frame f;
    f.type = i % 3 == 0 ? h2::FrameType::kHeaders : h2::FrameType::kData;
    f.flags = static_cast<std::uint8_t>(i % 2);
    f.stream_id = static_cast<std::uint32_t>(2 * i + 1);
    const std::size_t n = i < std::size(fixed_sizes) ? fixed_sizes[i] : rng.uniform(5000);
    f.payload = pattern(n, static_cast<std::uint8_t>(i));
    const Bytes w = h2::serialize_frame(f);
    frame_stream.insert(frame_stream.end(), w.begin(), w.end());
    c.frames.push_back({f.type, f.flags, f.stream_id, f.payload, frame_stream.size()});
  }

  const std::size_t body_sizes[] = {0, 1, 4, 5, 1049, 4091, 16384, 0, 0, 2078};
  std::size_t pos = 0;
  for (std::size_t i = 0; pos < frame_stream.size(); ++i) {
    std::size_t n = i < std::size(body_sizes) ? body_sizes[i] : rng.uniform(6000);
    if (i % 7 == 3) n = 0;  // a zero-length record between data records
    n = std::min(n, frame_stream.size() - pos);
    tls::RecordHeader h;
    h.type = n == 0 && i % 2 ? tls::ContentType::kHandshake
                             : tls::ContentType::kApplicationData;
    h.length = static_cast<std::uint16_t>(n);
    const std::span<const std::uint8_t> body(frame_stream.data() + pos, n);
    const Bytes w = tls::serialize_record(h, body);
    c.wire.insert(c.wire.end(), w.begin(), w.end());
    c.records.push_back({h, bytes_of(body), c.wire.size()});
    pos += n;
  }
  return c;
}

const Corpus& corpus() {
  static const Corpus c = make_corpus();
  return c;
}

/// The feed index at which a reader must report something whose last byte
/// sits just before stream offset `end`: the piece holding byte end - 1.
std::size_t piece_of(const std::vector<std::size_t>& piece_ends, std::size_t end) {
  return static_cast<std::size_t>(
      std::lower_bound(piece_ends.begin(), piece_ends.end(), end) - piece_ends.begin());
}

/// Runs the record stream, cut at `cuts` (ascending offsets), through the
/// record parser (and the frame decoder behind it), the header framer and
/// the traffic monitor, and checks every output against the corpus.
void check_cut(const std::vector<std::size_t>& cuts, const std::string& what) {
  SCOPED_TRACE(what);
  const Corpus& c = corpus();
  std::vector<std::size_t> piece_ends = cuts;
  piece_ends.push_back(c.wire.size());

  // Record k's frame stream position, so a frame's expected piece is the
  // piece of the record that carries its last byte.
  std::vector<std::size_t> record_frame_end;
  std::size_t fpos = 0;
  for (const RefRecord& r : c.records) record_frame_end.push_back(fpos += r.body.size());

  tls::RecordParser parser;
  tls::RecordHeaderFramer framer;
  h2::FrameDecoder decoder;
  decoder.set_max_frame_size(1 << 14);
  attack::TrafficMonitor monitor;
  net::Packet syn;
  syn.src = 1;
  syn.dst = 2;
  syn.tcp.src_port = 50000;
  syn.tcp.dst_port = 443;
  syn.tcp.seq = 999;
  syn.tcp.flags = net::tcpflag::kSyn;
  monitor.observe(syn, net::Direction::kClientToServer, sim::TimePoint::origin());

  std::size_t parsed = 0;
  std::size_t framed = 0;
  std::size_t decoded = 0;
  std::size_t begin = 0;
  for (std::size_t j = 0; j < piece_ends.size(); ++j) {
    const std::span<const std::uint8_t> piece(c.wire.data() + begin,
                                              piece_ends[j] - begin);
    // The monitor stamps each record with its packet's time: piece j at j ns.
    net::Packet p;
    p.id = j + 1;
    p.src = 1;
    p.dst = 2;
    p.tcp.src_port = 50000;
    p.tcp.dst_port = 443;
    p.tcp.seq = static_cast<std::uint32_t>(1000 + begin);
    p.tcp.flags = net::tcpflag::kAck;
    p.payload = bytes_of(piece);
    monitor.observe(p, net::Direction::kClientToServer,
                    sim::TimePoint::origin() + sim::Duration::nanos(static_cast<std::int64_t>(j)));

    parser.feed(piece);
    while (const auto rec = parser.next()) {
      ASSERT_LT(parsed, c.records.size());
      const RefRecord& want = c.records[parsed];
      EXPECT_EQ(rec->header.type, want.header.type) << parsed;
      EXPECT_EQ(rec->header.length, want.header.length) << parsed;
      EXPECT_EQ(bytes_of(rec->body), want.body) << parsed;
      EXPECT_EQ(j, piece_of(piece_ends, want.end)) << "record " << parsed;
      // The body view feeds the frame decoder, as TLS decrypts into it.
      decoder.feed(rec->body);
      while (const auto f = decoder.next()) {
        ASSERT_LT(decoded, c.frames.size());
        const RefFrame& fw = c.frames[decoded];
        EXPECT_EQ(f->type, fw.type) << decoded;
        EXPECT_EQ(f->flags, fw.flags) << decoded;
        EXPECT_EQ(f->stream_id, fw.stream_id) << decoded;
        EXPECT_EQ(bytes_of(f->payload), fw.payload) << decoded;
        const std::size_t carrier = static_cast<std::size_t>(
            std::lower_bound(record_frame_end.begin(), record_frame_end.end(), fw.end) -
            record_frame_end.begin());
        EXPECT_EQ(carrier, parsed) << "frame " << decoded;
        ++decoded;
      }
      ++parsed;
    }

    std::span<const std::uint8_t> rest = piece;
    while (const auto h = framer.next(rest)) {
      ASSERT_LT(framed, c.records.size());
      EXPECT_EQ(h->type, c.records[framed].header.type) << framed;
      EXPECT_EQ(h->length, c.records[framed].header.length) << framed;
      EXPECT_EQ(j, piece_of(piece_ends, c.records[framed].end)) << "header " << framed;
      ++framed;
    }
    EXPECT_TRUE(rest.empty());
    begin = piece_ends[j];
  }

  EXPECT_EQ(parsed, c.records.size());
  EXPECT_EQ(framed, c.records.size());
  EXPECT_EQ(decoded, c.frames.size());
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(parser.pending_bytes(), 0u);
  EXPECT_TRUE(framer.at_record_boundary());

  const auto& seen = monitor.trace().records();
  ASSERT_EQ(seen.size(), c.records.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].type, c.records[i].header.type) << i;
    EXPECT_EQ(seen[i].body_len, c.records[i].header.length) << i;
    EXPECT_EQ((seen[i].time - sim::TimePoint::origin()).count_nanos(),
              static_cast<std::int64_t>(piece_of(piece_ends, c.records[i].end)))
        << "monitor record " << i;
  }
}

TEST(SegmentationInvariance, WholeStreamInOneFeed) { check_cut({}, "whole"); }

TEST(SegmentationInvariance, RandomPiecesOverTwoHundredSeeds) {
  const std::size_t total = corpus().wire.size();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    std::vector<std::size_t> cuts;
    for (std::size_t pos = 1 + rng.uniform(2000); pos < total;
         pos += 1 + rng.uniform(2000)) {
      cuts.push_back(pos);
    }
    check_cut(cuts, "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(SegmentationInvariance, HeadersSplitAtEveryOffset) {
  const Corpus& c = corpus();
  for (std::size_t k = 1; k < tls::kRecordHeaderBytes; ++k) {
    std::vector<std::size_t> cuts;
    std::size_t start = 0;
    for (const RefRecord& r : c.records) {
      cuts.push_back(start + k);
      start = r.end;
    }
    check_cut(cuts, "header split at offset " + std::to_string(k));
    if (HasFatalFailure()) return;
  }
}

TEST(SegmentationInvariance, OneByteAtATime) {
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 1; pos < corpus().wire.size(); ++pos) cuts.push_back(pos);
  check_cut(cuts, "one byte per feed");
}

TEST(RecordParser, RepeatedFeedsWithoutDrainingKeepStreamOrder) {
  // Feeding again before next() runs dry must neither lose nor reorder
  // bytes, though the parser then copies them.
  const Corpus& c = corpus();
  tls::RecordParser parser;
  const std::size_t third = c.wire.size() / 3;
  parser.feed(std::span(c.wire).first(third));
  parser.feed(std::span(c.wire).subspan(third, third));
  parser.feed(std::span(c.wire).subspan(2 * third));
  std::size_t i = 0;
  while (const auto rec = parser.next()) {
    ASSERT_LT(i, c.records.size());
    EXPECT_EQ(bytes_of(rec->body), c.records[i].body) << i;
    ++i;
  }
  EXPECT_EQ(i, c.records.size());
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

}  // namespace
}  // namespace h2sim
