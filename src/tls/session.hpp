#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "sim/byte_queue.hpp"
#include "tcp/tcp_connection.hpp"
#include "tls/record.hpp"

namespace h2sim::tls {

/// The deterministic keystream word for absolute word counter `counter` in
/// the direction keyed by `dir_key` — both endpoints derive it identically.
std::uint64_t keystream_word(std::uint64_t dir_key, std::uint64_t counter);

/// XORs the deterministic keystream over [src, src+n) into dst, starting at
/// absolute keystream offset `stream_off`. Word-at-a-time with a 4-wide
/// unrolled middle on the aligned body; bit-identical to the bytewise
/// definition. A free function (no session state) so bench_micro can measure
/// the record-protection inner loop on the real code.
void apply_keystream(std::uint64_t key, std::uint64_t stream_off,
                     const std::uint8_t* src, std::uint8_t* dst,
                     std::size_t n);

/// The 16-byte tag over the ciphertext [body, body+n) of the record that
/// starts at keystream offset `stream_off`, standing in for an AEAD tag.
/// Four independent multiply-xorshift lanes take one 8-byte word each in
/// turn and are folded with the length at the end; changing any single word
/// of the ciphertext always changes the tag. Not cryptography.
std::array<std::uint8_t, kAeadTagBytes> record_tag(std::uint64_t key,
                                                   std::uint64_t stream_off,
                                                   const std::uint8_t* body,
                                                   std::size_t n);

/// Checks and decrypts one protected record body (ciphertext followed by its
/// tag) at keystream offset `stream_off`, appending the plaintext to
/// `plaintext_out`. Returns false, leaving `plaintext_out` untouched, when the
/// body is shorter than a tag or the tag does not match.
bool unprotect(std::uint64_t key, std::uint64_t stream_off,
               std::span<const std::uint8_t> body, sim::ByteQueue& plaintext_out);

/// Simulated TLS session over a TcpConnection.
///
/// Fidelity notes (documented substitution, see DESIGN.md): the handshake is
/// a fixed-shape record exchange with realistic sizes, and record protection
/// is a keystream XOR plus a 16-byte keyed checksum standing in for an AEAD
/// tag. This is NOT cryptography — it exists so that (a) payload bytes on the
/// wire differ from plaintext, (b) records carry the authentic +21-byte
/// overhead the paper's size side-channel sees, and (c) the checksum detects
/// any byte-stream corruption, turning the TLS layer into a running
/// integrity check on the TCP implementation underneath.
class TlsSession {
 public:
  enum class Role { kClient, kServer };

  struct Callbacks {
    std::function<void()> on_established;
    /// The plaintext of one record, just appended to the plaintext queue
    /// (see set_plaintext_queue); valid until the callback returns.
    std::function<void(std::span<const std::uint8_t>)> on_plaintext;
    std::function<void()> on_peer_close;
    std::function<void(std::string_view reason)> on_aborted;
    /// Forwarded TCP send-buffer-drained signal (socket backpressure).
    std::function<void()> on_writable;
  };

  /// Installs itself as the TCP connection's callback owner. The connection
  /// must outlive the session.
  TlsSession(tcp::TcpConnection& conn, Role role);

  TlsSession(const TlsSession&) = delete;
  TlsSession& operator=(const TlsSession&) = delete;

  void set_callbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  /// Decrypts received records straight into `q`, the consumer's own input
  /// queue, which then owns the bytes (the consumer consumes them). Without
  /// it, the session decrypts into a queue of its own and empties it after
  /// each on_plaintext.
  void set_plaintext_queue(sim::ByteQueue& q) { plain_ = &q; }

  /// Client only: begins the handshake once TCP connects (automatic if TCP
  /// is already established).
  void start();

  bool established() const { return established_; }

  /// Protects and sends application plaintext. Each call produces one record
  /// per `kMaxPlaintextPerRecord` chunk; callers control record boundaries by
  /// the granularity of their writes (HTTP/2 writes one frame per call, so
  /// frame sizes are visible as record sizes — exactly the side channel the
  /// paper studies).
  void write(std::span<const std::uint8_t> plaintext) { write(plaintext, {}); }

  /// Protects and sends the concatenation `head` ++ `body`, cut into records
  /// exactly as one write() of it would be, without first copying the two
  /// together (HTTP/2 passes a frame header and a view of its payload).
  ///
  /// Each record is sealed in place in the TCP send queue. When that queue
  /// cannot take a record (TcpConfig::send_buffer_limit), the session fails
  /// with "tls-send-buffer-full" instead of skipping a record the peer would
  /// then fail to authenticate.
  void write(std::span<const std::uint8_t> head, std::span<const std::uint8_t> body);

  /// Graceful close (close_notify alert + TCP FIN).
  void close();

  tcp::TcpConnection& connection() { return conn_; }

  std::uint64_t records_sent() const { return records_sent_; }
  std::uint64_t records_received() const { return records_received_; }

 private:
  void on_tcp_connected();
  void on_tcp_data(std::span<const std::uint8_t> bytes);
  void handle_record(const RecordView& rec);
  void handle_handshake_record(const RecordView& rec);
  /// Queues a record header in the TCP send queue and returns where its
  /// `body_len` body bytes go, or nullptr when the record cannot be sent:
  /// silently once TCP has stopped taking data, by failing the session when
  /// the send queue is full.
  std::uint8_t* begin_record(ContentType type, std::size_t body_len);
  /// Hands a record begun with begin_record to TCP.
  void end_record();
  void send_record(ContentType type, std::span<const std::uint8_t> body);
  /// Protects the plaintext `a` ++ `b` (at most kMaxPlaintextPerRecord bytes)
  /// as one ApplicationData record, writing ciphertext and tag in place.
  void send_protected(std::span<const std::uint8_t> a,
                      std::span<const std::uint8_t> b);
  void send_handshake_flight(std::size_t size);
  void fail(std::string_view reason);

  std::uint64_t direction_key(bool encrypt) const;

  tcp::TcpConnection& conn_;
  Role role_;
  Callbacks cbs_;
  RecordParser parser_;
  bool established_ = false;
  bool failed_ = false;
  int handshake_flights_seen_ = 0;
  std::uint64_t session_key_ = 0;
  std::uint64_t encrypt_counter_ = 0;
  std::uint64_t decrypt_counter_ = 0;
  std::uint64_t records_sent_ = 0;
  std::uint64_t records_received_ = 0;
  sim::ByteQueue own_plain_;             // plaintext queue by default
  sim::ByteQueue* plain_ = &own_plain_;  // where records decrypt to
};

}  // namespace h2sim::tls
