#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/byte_queue.hpp"

namespace h2sim::h2 {

/// RFC 7540 §6 frame types.
enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoaway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

const char* to_string(FrameType t);

/// RFC 7540 §7 error codes.
enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kSettingsTimeout = 0x4,
  kStreamClosed = 0x5,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
  kCompressionError = 0x9,
  kConnectError = 0xa,
  kEnhanceYourCalm = 0xb,
  kInadequateSecurity = 0xc,
  kHttp11Required = 0xd,
};

const char* to_string(ErrorCode e);

namespace flags {
inline constexpr std::uint8_t kEndStream = 0x1;   // DATA, HEADERS
inline constexpr std::uint8_t kAck = 0x1;         // SETTINGS, PING
inline constexpr std::uint8_t kEndHeaders = 0x4;  // HEADERS, PUSH_PROMISE, CONT
inline constexpr std::uint8_t kPadded = 0x8;
inline constexpr std::uint8_t kPriority = 0x20;
}  // namespace flags

inline constexpr std::size_t kFrameHeaderBytes = 9;
inline constexpr std::size_t kDefaultMaxFrameSize = 16384;
inline constexpr std::size_t kMaxAllowedFrameSize = (1u << 24) - 1;

/// RFC 7540 §11.3 settings identifiers.
enum class SettingId : std::uint16_t {
  kHeaderTableSize = 0x1,
  kEnablePush = 0x2,
  kMaxConcurrentStreams = 0x3,
  kInitialWindowSize = 0x4,
  kMaxFrameSize = 0x5,
  kMaxHeaderListSize = 0x6,
};

struct SettingsEntry {
  SettingId id;
  std::uint32_t value;
};

/// One HTTP/2 frame whose payload lives elsewhere: in the decoder's input
/// queue for a received frame, or in the sender's own storage (a stream's
/// send queue, a Frame) for one being written.
struct FrameView {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;  // 31 bits; high bit reserved
  std::span<const std::uint8_t> payload;

  bool has_flag(std::uint8_t f) const { return (flags & f) != 0; }
};

/// One HTTP/2 frame that owns its payload: 9-byte header + payload.
struct Frame {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;  // 31 bits; high bit reserved
  std::vector<std::uint8_t> payload;

  bool has_flag(std::uint8_t f) const { return (flags & f) != 0; }
  std::size_t wire_size() const { return kFrameHeaderBytes + payload.size(); }
  FrameView view() const { return {type, flags, stream_id, payload}; }
};

/// The 9-byte wire header of `f` (length, type, flags, stream id).
std::array<std::uint8_t, kFrameHeaderBytes> frame_header(const FrameView& f);

std::vector<std::uint8_t> serialize_frame(const Frame& f);

/// Incremental frame decoder over an in-order byte stream.
class FrameDecoder {
 public:
  void set_max_frame_size(std::size_t n) { max_frame_size_ = n; }
  void feed(std::span<const std::uint8_t> bytes) { buf_.append(bytes); }

  /// The decoder's input queue, for a producer that writes the stream in
  /// place (TlsSession::set_plaintext_queue); appending to it is feeding.
  sim::ByteQueue& input() { return buf_; }

  /// Next complete frame, or nullopt. The payload is a view into the input
  /// queue, valid until the next feed. After an oversized frame, error() is
  /// set and no further frames are produced (FRAME_SIZE_ERROR connection
  /// error per §4.2).
  std::optional<FrameView> next();
  bool error() const { return error_; }

 private:
  sim::ByteQueue buf_;
  std::size_t max_frame_size_ = kDefaultMaxFrameSize;
  bool error_ = false;
};

// --- Typed payload helpers ---

std::vector<std::uint8_t> encode_settings(std::span<const SettingsEntry> entries);
std::optional<std::vector<SettingsEntry>> parse_settings(
    std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_rst_stream(ErrorCode code);
std::optional<ErrorCode> parse_rst_stream(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_window_update(std::uint32_t increment);
std::optional<std::uint32_t> parse_window_update(std::span<const std::uint8_t> payload);

struct GoawayPayload {
  std::uint32_t last_stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  std::string debug;
};
std::vector<std::uint8_t> encode_goaway(const GoawayPayload& g);
std::optional<GoawayPayload> parse_goaway(std::span<const std::uint8_t> payload);

struct PriorityPayload {
  std::uint32_t dependency = 0;
  bool exclusive = false;
  std::uint8_t weight = 16;  // wire value + 1
};
std::vector<std::uint8_t> encode_priority(const PriorityPayload& p);
std::optional<PriorityPayload> parse_priority(std::span<const std::uint8_t> payload);

/// PUSH_PROMISE payload: promised stream id + header block fragment.
std::vector<std::uint8_t> encode_push_promise(std::uint32_t promised_id,
                                              std::span<const std::uint8_t> block);
struct PushPromisePayload {
  std::uint32_t promised_id = 0;
  std::vector<std::uint8_t> block;
};
std::optional<PushPromisePayload> parse_push_promise(
    std::span<const std::uint8_t> payload);

/// The 24-byte client connection preface (§3.5).
std::span<const std::uint8_t> client_preface();

}  // namespace h2sim::h2
