#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/byte_queue.hpp"

namespace h2sim::tls {

/// TLS record content types — cleartext on the wire. The paper's adversary
/// filters on `ssl.record.content_type == 23` to spot application data.
enum class ContentType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
};

inline constexpr std::uint16_t kTlsVersion = 0x0303;  // TLS 1.2 on the wire
inline constexpr std::size_t kRecordHeaderBytes = 5;
inline constexpr std::size_t kMaxPlaintextPerRecord = 16384;
/// AEAD tag appended to every protected record.
inline constexpr std::size_t kAeadTagBytes = 16;

struct RecordHeader {
  ContentType type = ContentType::kApplicationData;
  std::uint16_t version = kTlsVersion;
  std::uint16_t length = 0;  // bytes following the 5-byte header
};

/// Serializes header + body into wire bytes.
std::vector<std::uint8_t> serialize_record(const RecordHeader& h,
                                           std::span<const std::uint8_t> body);

/// One record whose body lives elsewhere: in the bytes fed to a
/// RecordParser, or in its queue for a record split across feeds.
struct RecordView {
  RecordHeader header;
  std::span<const std::uint8_t> body;
};

/// Incremental record-stream parser for the endpoints. Feed raw TCP bytes
/// in order; each complete record comes out as its header and a view of its
/// body. A record that lies wholly inside one feed() is parsed in place in
/// the caller's bytes; only a record split across feeds is copied, into an
/// internal queue, until its last byte arrives.
///
/// View lifetime: a body view stays valid until the next feed(), or until
/// next() returns nullopt (which is when a trailing partial record is
/// copied aside). The bytes passed to feed() must stay valid until then too.
class RecordParser {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Pops the next complete record, if any.
  std::optional<RecordView> next();

  /// Bytes fed but not yet returned in a record.
  std::size_t pending_bytes() const {
    return partial_.size() - partial_done_ + in_.size();
  }

 private:
  std::span<const std::uint8_t> in_;  // unparsed rest of the current feed
  sim::ByteQueue partial_;            // a record split across feeds
  std::size_t partial_done_ = 0;      // a completed record still at partial_'s front
};

/// Header-only record framing for observers that need record lengths and
/// never bodies (the adversary's monitor, and so the offline capture
/// reassembler). It holds at most the 5 header bytes of the current record
/// and counts its body bytes without storing them.
class RecordHeaderFramer {
 public:
  /// Consumes `bytes` from the front up to and including the last byte of
  /// the next record that completes in them, and returns that record's
  /// header; otherwise consumes all of `bytes` and returns nullopt. Call
  /// until nullopt to see every record a feed completes.
  std::optional<RecordHeader> next(std::span<const std::uint8_t>& bytes);

  /// True when no byte of the next record has been seen yet.
  bool at_record_boundary() const { return header_have_ == 0; }

 private:
  std::array<std::uint8_t, kRecordHeaderBytes> header_{};
  std::size_t header_have_ = 0;
  std::size_t body_left_ = 0;  // body bytes still to come, once the header is in
};

}  // namespace h2sim::tls
