#include "tls/session.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "obs/profiler.hpp"

namespace h2sim::tls {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

void store64(std::uint8_t* p, std::uint64_t w) { std::memcpy(p, &w, sizeof(w)); }

constexpr std::size_t kClientHelloBytes = 512;
constexpr std::size_t kServerFlightBytes = 2500;  // hello + cert + finished
constexpr std::size_t kClientFinishedBytes = 64;

}  // namespace

TlsSession::TlsSession(tcp::TcpConnection& conn, Role role)
    : conn_(conn), role_(role) {
  // Both endpoints derive the same session key from the 4-tuple; stands in
  // for the key agreement the real handshake would perform.
  const std::uint64_t lo = std::min(conn.local_port(), conn.remote_port());
  const std::uint64_t hi = std::max(conn.local_port(), conn.remote_port());
  session_key_ = mix64((lo << 32) | (hi << 16) | 0x7153u);

  tcp::TcpConnection::Callbacks cbs;
  cbs.on_connected = [this] { on_tcp_connected(); };
  cbs.on_data = [this](std::span<const std::uint8_t> b) { on_tcp_data(b); };
  cbs.on_remote_close = [this] {
    if (cbs_.on_peer_close) cbs_.on_peer_close();
  };
  cbs.on_aborted = [this](std::string_view reason) {
    if (cbs_.on_aborted) cbs_.on_aborted(reason);
  };
  cbs.on_writable = [this] {
    if (cbs_.on_writable) cbs_.on_writable();
  };
  conn_.set_callbacks(std::move(cbs));
}

void TlsSession::start() {
  if (role_ == Role::kClient && conn_.established()) {
    send_handshake_flight(kClientHelloBytes);
  }
}

void TlsSession::on_tcp_connected() {
  if (role_ == Role::kClient) send_handshake_flight(kClientHelloBytes);
}

void TlsSession::send_handshake_flight(std::size_t size) {
  std::uint8_t* body = begin_record(ContentType::kHandshake, size);
  if (body == nullptr) return;
  for (std::size_t i = 0; i < size; ++i) {
    body[i] = static_cast<std::uint8_t>(mix64(session_key_ + i) & 0xff);
  }
  end_record();
}

void TlsSession::send_record(ContentType type, std::span<const std::uint8_t> body) {
  std::uint8_t* out = begin_record(type, body.size());
  if (out == nullptr) return;
  std::copy(body.begin(), body.end(), out);
  end_record();
}

std::uint8_t* TlsSession::begin_record(ContentType type, std::size_t body_len) {
  if (!conn_.accepts_data()) return nullptr;
  const std::span<std::uint8_t> out = conn_.send_space(kRecordHeaderBytes + body_len);
  if (out.empty()) {
    // Refused before anything was sealed, so the keystream counter still
    // matches the peer's; failing beats silently skipping a record.
    fail("tls-send-buffer-full");
    return nullptr;
  }
  out[0] = static_cast<std::uint8_t>(type);
  out[1] = static_cast<std::uint8_t>(kTlsVersion >> 8);
  out[2] = static_cast<std::uint8_t>(kTlsVersion & 0xff);
  out[3] = static_cast<std::uint8_t>(body_len >> 8);
  out[4] = static_cast<std::uint8_t>(body_len & 0xff);
  return out.data() + kRecordHeaderBytes;
}

void TlsSession::end_record() {
  ++records_sent_;
  conn_.push();
}

std::uint64_t TlsSession::direction_key(bool encrypt) const {
  // Client-to-server traffic uses key A, server-to-client key B; "encrypt"
  // refers to this endpoint's sending direction.
  const bool c2s = (role_ == Role::kClient) == encrypt;
  return session_key_ ^ (c2s ? 0xa5a5a5a5a5a5a5a5ULL : 0x5a5a5a5a5a5a5a5aULL);
}

std::uint64_t keystream_word(std::uint64_t dir_key, std::uint64_t counter) {
  return mix64(dir_key + 0x9e3779b97f4a7c15ULL * (counter + 1));
}

void apply_keystream(std::uint64_t key, std::uint64_t stream_off,
                     const std::uint8_t* src, std::uint8_t* dst,
                     std::size_t n) {
  // The keystream byte at stream offset `o` is byte (o % 8) of
  // keystream_word(key, o / 8) — identical to the original bytewise
  // formulation, but each word is derived once per 8 bytes instead of once
  // per byte, and aligned runs XOR whole words.
  std::uint64_t off = stream_off;
  std::size_t i = 0;
  // Head: unaligned bytes up to the next keystream-word boundary.
  if (i < n && off % 8 != 0) {
    const std::uint64_t word = keystream_word(key, off / 8);
    while (i < n && off % 8 != 0) {
      dst[i] = src[i] ^ static_cast<std::uint8_t>(word >> ((off % 8) * 8));
      ++i;
      ++off;
    }
  }
  // Body: whole words. A little-endian word XOR equals eight byte XORs in
  // keystream order; big-endian targets take the bytewise tail loop instead.
  if constexpr (std::endian::native == std::endian::little) {
    // Counter-mode words are independent, so a 4-wide block exposes the
    // mix64 pipelines to the vectorizer (no intrinsics; each lane computes
    // exactly the word the single-word loop would).
    for (; i + 32 <= n; i += 32, off += 32) {
      const std::uint64_t base = off / 8;
      const std::uint64_t w0 = keystream_word(key, base + 0);
      const std::uint64_t w1 = keystream_word(key, base + 1);
      const std::uint64_t w2 = keystream_word(key, base + 2);
      const std::uint64_t w3 = keystream_word(key, base + 3);
      store64(dst + i + 0, load64(src + i + 0) ^ w0);
      store64(dst + i + 8, load64(src + i + 8) ^ w1);
      store64(dst + i + 16, load64(src + i + 16) ^ w2);
      store64(dst + i + 24, load64(src + i + 24) ^ w3);
    }
    for (; i + 8 <= n; i += 8, off += 8) {
      store64(dst + i, load64(src + i) ^ keystream_word(key, off / 8));
    }
  }
  // Tail: the final partial word (or everything after the head on
  // big-endian targets), one keystream word per 8 bytes.
  while (i < n) {
    const std::uint64_t word = keystream_word(key, off / 8);
    do {
      dst[i] = src[i] ^ static_cast<std::uint8_t>(word >> ((off % 8) * 8));
      ++i;
      ++off;
    } while (i < n && off % 8 != 0);
  }
}

std::array<std::uint8_t, kAeadTagBytes> record_tag(std::uint64_t key,
                                                   std::uint64_t stream_off,
                                                   const std::uint8_t* body,
                                                   std::size_t n) {
  // Word j (the last partial word zero-padded) enters lane j % 4. A lane step
  // -- xor, multiply by an odd constant, xorshift -- is a bijection of the
  // lane for a fixed word and of the word for a fixed lane, so changing any
  // one word changes its lane's final state. The four lanes are independent
  // chains, which keeps the loop throughput-bound instead of latency-bound.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  auto step = [](std::uint64_t lane, std::uint64_t w) {
    lane = (lane ^ w) * kMul;
    return lane ^ (lane >> 29);
  };
  const std::uint64_t seed = mix64(key ^ (stream_off * kMul));
  std::uint64_t l0 = seed;
  std::uint64_t l1 = seed ^ 0xa0761d6478bd642fULL;
  std::uint64_t l2 = seed ^ 0xe7037ed1a0b428dbULL;
  std::uint64_t l3 = seed ^ 0x8ebc6af09c88c6e3ULL;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    l0 = step(l0, load64(body + i));
    l1 = step(l1, load64(body + i + 8));
    l2 = step(l2, load64(body + i + 16));
    l3 = step(l3, load64(body + i + 24));
  }
  std::uint64_t tail[4] = {0, 0, 0, 0};
  if (i < n) std::memcpy(tail, body + i, n - i);
  const std::size_t tail_words = (n - i + 7) / 8;
  if (tail_words > 0) l0 = step(l0, tail[0]);
  if (tail_words > 1) l1 = step(l1, tail[1]);
  if (tail_words > 2) l2 = step(l2, tail[2]);
  if (tail_words > 3) l3 = step(l3, tail[3]);
  // t1 is a bijection of each lane given the others, so any lane change
  // changes t1. The length separates zero padding from genuine trailing
  // zero bytes.
  const std::uint64_t t1 = mix64(l0 + mix64(l1 + mix64(l2 + mix64(l3 ^ n))));
  const std::uint64_t t2 = mix64(l3 + mix64(l2 + mix64(l1 + mix64(l0 ^ ~t1))));
  std::array<std::uint8_t, kAeadTagBytes> tag;
  store64(tag.data(), t1);
  store64(tag.data() + 8, t2);
  return tag;
}

bool unprotect(std::uint64_t key, std::uint64_t stream_off,
               std::span<const std::uint8_t> body, sim::ByteQueue& plaintext_out) {
  if (body.size() < kAeadTagBytes) return false;
  const std::size_t n = body.size() - kAeadTagBytes;
  const auto tag = record_tag(key, stream_off, body.data(), n);
  if (std::memcmp(tag.data(), body.data() + n, kAeadTagBytes) != 0) {
    return false;
  }
  apply_keystream(key, stream_off, body.data(), plaintext_out.grow(n).data(), n);
  return true;
}

void TlsSession::send_protected(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b) {
  obs::ProfileScope prof(obs::Component::kTls);
  const std::size_t n = a.size() + b.size();
  std::uint8_t* body = begin_record(ContentType::kApplicationData, n + kAeadTagBytes);
  if (body == nullptr) return;
  // The keystream is a function of the stream offset alone, so protecting
  // the two pieces at consecutive offsets equals protecting their
  // concatenation.
  const std::uint64_t key = direction_key(/*encrypt=*/true);
  apply_keystream(key, encrypt_counter_, a.data(), body, a.size());
  apply_keystream(key, encrypt_counter_ + a.size(), b.data(), body + a.size(), b.size());
  const auto tag = record_tag(key, encrypt_counter_, body, n);
  std::memcpy(body + n, tag.data(), kAeadTagBytes);
  encrypt_counter_ += n;
  end_record();
}

void TlsSession::write(std::span<const std::uint8_t> head,
                       std::span<const std::uint8_t> body) {
  while (!failed_ && (!head.empty() || !body.empty())) {
    const std::size_t a = std::min(head.size(), kMaxPlaintextPerRecord);
    const std::size_t b = std::min(body.size(), kMaxPlaintextPerRecord - a);
    send_protected(head.first(a), body.first(b));
    head = head.subspan(a);
    body = body.subspan(b);
  }
}

void TlsSession::close() {
  if (!failed_ && conn_.established()) {
    const std::uint8_t close_notify[2] = {1, 0};  // warning, close_notify
    send_record(ContentType::kAlert, close_notify);
  }
  conn_.close();
}

void TlsSession::fail(std::string_view reason) {
  if (failed_) return;
  failed_ = true;
  conn_.abort(reason);
}

void TlsSession::on_tcp_data(std::span<const std::uint8_t> bytes) {
  obs::ProfileScope prof(obs::Component::kTls);
  if (failed_) return;
  parser_.feed(bytes);
  while (const auto rec = parser_.next()) {
    ++records_received_;
    handle_record(*rec);
    if (failed_) return;
  }
}

void TlsSession::handle_record(const RecordView& rec) {
  switch (rec.header.type) {
    case ContentType::kHandshake:
      handle_handshake_record(rec);
      return;
    case ContentType::kApplicationData: {
      if (!unprotect(direction_key(/*encrypt=*/false), decrypt_counter_,
                     rec.body, *plain_)) {
        fail("tls-bad-record-mac");
        return;
      }
      const std::size_t n = rec.body.size() - kAeadTagBytes;
      decrypt_counter_ += n;
      if (cbs_.on_plaintext) cbs_.on_plaintext(plain_->view().last(n));
      if (plain_ == &own_plain_) own_plain_.clear();
      return;
    }
    case ContentType::kAlert:
      // close_notify; the TCP FIN that follows drives teardown.
      return;
    case ContentType::kChangeCipherSpec:
      return;
  }
}

void TlsSession::handle_handshake_record(const RecordView&) {
  ++handshake_flights_seen_;
  if (role_ == Role::kServer) {
    if (handshake_flights_seen_ == 1) {
      // ClientHello received: answer with the full server flight.
      send_handshake_flight(kServerFlightBytes);
    } else if (handshake_flights_seen_ == 2 && !established_) {
      established_ = true;  // client Finished received
      if (cbs_.on_established) cbs_.on_established();
    }
  } else {
    if (handshake_flights_seen_ == 1 && !established_) {
      send_handshake_flight(kClientFinishedBytes);
      established_ = true;
      if (cbs_.on_established) cbs_.on_established();
    }
  }
}

}  // namespace h2sim::tls
