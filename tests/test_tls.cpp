#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/event_loop.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/record.hpp"
#include "tls/session.hpp"

namespace h2sim::tls {
namespace {

TEST(RecordCodec, SerializeParseRoundTrip) {
  RecordHeader h;
  h.type = ContentType::kApplicationData;
  std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  h.length = static_cast<std::uint16_t>(body.size());
  const auto wire = serialize_record(h, body);
  ASSERT_EQ(wire.size(), kRecordHeaderBytes + 5);
  EXPECT_EQ(wire[0], 23);

  RecordParser p;
  p.feed(wire);
  auto rec = p.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->header.type, ContentType::kApplicationData);
  EXPECT_EQ(std::vector<std::uint8_t>(rec->body.begin(), rec->body.end()), body);
  EXPECT_FALSE(p.next().has_value());
}

TEST(RecordCodec, ParserHandlesFragmentedInput) {
  RecordHeader h;
  std::vector<std::uint8_t> body(100, 0x55);
  h.length = 100;
  const auto wire = serialize_record(h, body);

  RecordParser p;
  // Feed one byte at a time.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    p.feed(std::span(&wire[i], 1));
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(p.next().has_value());
    }
  }
  auto rec = p.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->body.size(), 100u);
}

TEST(RecordCodec, ParserHandlesCoalescedRecords) {
  RecordHeader h;
  std::vector<std::uint8_t> b1(10, 1), b2(20, 2);
  h.length = 10;
  auto wire = serialize_record(h, b1);
  h.length = 20;
  const auto wire2 = serialize_record(h, b2);
  wire.insert(wire.end(), wire2.begin(), wire2.end());

  RecordParser p;
  p.feed(wire);
  auto r1 = p.next();
  auto r2 = p.next();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->body.size(), 10u);
  EXPECT_EQ(r2->body.size(), 20u);
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return v;
}

/// One protected record body (ciphertext followed by its tag), built the
/// way TlsSession::send_protected builds it.
std::vector<std::uint8_t> protect(std::uint64_t key, std::uint64_t off,
                                  const std::vector<std::uint8_t>& plain) {
  std::vector<std::uint8_t> body(plain.size() + kAeadTagBytes);
  apply_keystream(key, off, plain.data(), body.data(), plain.size());
  const auto tag = record_tag(key, off, body.data(), plain.size());
  std::copy(tag.begin(), tag.end(), body.begin() + static_cast<std::ptrdiff_t>(plain.size()));
  return body;
}

TEST(RecordTag, KnownAnswersForFixedKey) {
  // Pins the tag function: these bytes are on the wire of every protected
  // record, so a change here moves the pcapng goldens' SHA256s. The tag
  // loads words in host byte order; the values are for little-endian hosts.
  const std::uint64_t key = 0x0123456789abcdefULL;
  const auto body = pattern(45);
  EXPECT_EQ(hex(record_tag(key, 0, body.data(), 0)), "48f538154f1e47a9b9c561d60ea2de07");
  EXPECT_EQ(hex(record_tag(key, 0, body.data(), 5)), "443dbb40628d290839018d4273d6d58b");
  EXPECT_EQ(hex(record_tag(key, 0, body.data(), 8)), "cdb7a74213541cefdb1cdf2bb1f1cd93");
  EXPECT_EQ(hex(record_tag(key, 0, body.data(), 29)), "aa57610b87e5d120e64f5f40f78ef1b6");
  EXPECT_EQ(hex(record_tag(key, 0, body.data(), 32)), "a232b79e1ad32ae3170bc6cd5aeb9941");
  EXPECT_EQ(hex(record_tag(key, 0, body.data(), 45)), "ecc2b31f8b61cbb7146dfa2ceda4c464");
  EXPECT_EQ(hex(record_tag(key, 1000, body.data(), 45)), "c74a79069b244626b55c6005f93b6e82");
  EXPECT_EQ(hex(record_tag(~key, 1000, body.data(), 45)), "6cbdba58a0b3b9f7c3b1193244a4dc03");
}

TEST(RecordTag, TagRejectsEverySingleBitFlip) {
  const std::uint64_t key = 0x5eed5eed5eed5eedULL;
  for (std::size_t n : {0, 1, 7, 8, 9, 31, 32, 33, 1000, 16384}) {
    const std::uint64_t off = 3 + n;  // not word-aligned
    const auto plain = pattern(n);
    auto body = protect(key, off, plain);
    sim::ByteQueue out;
    ASSERT_TRUE(unprotect(key, off, body, out)) << n;
    ASSERT_EQ(std::vector<std::uint8_t>(out.view().begin(), out.view().end()), plain)
        << n;

    std::size_t accepted = 0;
    for (std::size_t byte = 0; byte < body.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        body[byte] ^= static_cast<std::uint8_t>(1u << bit);
        out.clear();
        if (unprotect(key, off, body, out)) ++accepted;
        EXPECT_TRUE(out.empty());  // a rejected record appends nothing
        body[byte] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
    EXPECT_EQ(accepted, 0u) << "body length " << n;
  }
}

TEST(RecordTag, UnprotectRejectsWrongOffsetAndShortBody) {
  const std::uint64_t key = 0x5eed5eed5eed5eedULL;
  const auto body = protect(key, 64, pattern(100));
  sim::ByteQueue out;
  EXPECT_TRUE(unprotect(key, 64, body, out));
  EXPECT_FALSE(unprotect(key, 65, body, out));
  EXPECT_FALSE(unprotect(key ^ 1, 64, body, out));
  EXPECT_FALSE(unprotect(key, 64, std::span(body.data(), kAeadTagBytes - 1), out));
}

/// Full client/server TLS-over-TCP fixture through the simulated path.
class TlsPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::make_unique<net::Path>(loop_, net::Path::Config{});
    server_stack_ = std::make_unique<tcp::TcpStack>(
        loop_, sim::Rng(1), net::Path::kServerNode, tcp_cfg_,
        [this](net::Packet&& p) { path_->send_from_server(std::move(p)); });
    client_stack_ = std::make_unique<tcp::TcpStack>(
        loop_, sim::Rng(2), net::Path::kClientNode, tcp_cfg_,
        [this](net::Packet&& p) { path_->send_from_client(std::move(p)); });
    path_->set_server_sink(
        [this](net::Packet&& p) { server_stack_->deliver(std::move(p)); });
    path_->set_client_sink(
        [this](net::Packet&& p) { client_stack_->deliver(std::move(p)); });

    server_stack_->listen(443, [this](tcp::TcpConnection& c) {
      server_tls_ = std::make_unique<TlsSession>(c, TlsSession::Role::kServer);
      TlsSession::Callbacks cbs;
      cbs.on_established = [this] { server_established_ = true; };
      cbs.on_plaintext = [this](std::span<const std::uint8_t> b) {
        server_received_.insert(server_received_.end(), b.begin(), b.end());
        if (echo_) server_tls_->write(b);
      };
      server_tls_->set_callbacks(std::move(cbs));
    });

    tcp::TcpConnection& c = client_stack_->connect(net::Path::kServerNode, 443);
    client_tls_ = std::make_unique<TlsSession>(c, TlsSession::Role::kClient);
    TlsSession::Callbacks cbs;
    cbs.on_established = [this] { client_established_ = true; };
    cbs.on_plaintext = [this](std::span<const std::uint8_t> b) {
      client_received_.insert(client_received_.end(), b.begin(), b.end());
    };
    client_tls_->set_callbacks(std::move(cbs));
  }

  /// Runs the loop for `seconds` of additional simulated time.
  void run(double seconds = 5) {
    loop_.run(loop_.now() + sim::Duration::seconds_f(seconds));
  }

  tcp::TcpConfig tcp_cfg_;  // both endpoints; set before SetUp runs
  sim::EventLoop loop_;
  std::unique_ptr<net::Path> path_;
  std::unique_ptr<tcp::TcpStack> server_stack_;
  std::unique_ptr<tcp::TcpStack> client_stack_;
  std::unique_ptr<TlsSession> server_tls_;
  std::unique_ptr<TlsSession> client_tls_;
  std::vector<std::uint8_t> server_received_;
  std::vector<std::uint8_t> client_received_;
  bool client_established_ = false;
  bool server_established_ = false;
  bool echo_ = false;
};

TEST_F(TlsPairTest, HandshakeCompletesBothSides) {
  run();
  EXPECT_TRUE(client_established_);
  EXPECT_TRUE(server_established_);
}

TEST_F(TlsPairTest, PlaintextRoundTrip) {
  echo_ = true;
  run(1);
  ASSERT_TRUE(client_established_);
  std::vector<std::uint8_t> msg(5000);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  client_tls_->write(msg);
  run(5);
  EXPECT_EQ(server_received_, msg);
  EXPECT_EQ(client_received_, msg);  // echoed back
}

TEST_F(TlsPairTest, CiphertextDiffersFromPlaintext) {
  run(1);
  // Tap the path to confirm no plaintext pattern leaks on the wire.
  std::vector<std::uint8_t> wire_bytes;
  path_->middlebox().set_tap(
      [&](const net::Packet& p, net::Direction d, sim::TimePoint) {
        if (d == net::Direction::kClientToServer) {
          wire_bytes.insert(wire_bytes.end(), p.payload.begin(), p.payload.end());
        }
      });
  std::vector<std::uint8_t> msg(1000, 0x41);  // 'A' repeated
  client_tls_->write(msg);
  run(5);
  ASSERT_EQ(server_received_, msg);
  // The wire must not contain a run of 100 'A's.
  int run_len = 0, max_run = 0;
  for (std::uint8_t b : wire_bytes) {
    run_len = b == 0x41 ? run_len + 1 : 0;
    max_run = std::max(max_run, run_len);
  }
  EXPECT_LT(max_run, 100);
}

TEST_F(TlsPairTest, RecordOverheadIsAccounted) {
  run(1);
  const auto before = client_tls_->records_sent();
  std::vector<std::uint8_t> msg(100, 1);
  client_tls_->write(msg);
  run(1);
  EXPECT_EQ(client_tls_->records_sent(), before + 1);
}

TEST_F(TlsPairTest, LargeWritesSplitIntoMaxSizeRecords) {
  run(1);
  const auto before = client_tls_->records_sent();
  std::vector<std::uint8_t> msg(40000, 1);
  client_tls_->write(msg);
  run(5);
  // 40000 / 16384 -> 3 records.
  EXPECT_EQ(client_tls_->records_sent(), before + 3);
  EXPECT_EQ(server_received_.size(), 40000u);
}

TEST_F(TlsPairTest, ManySmallWritesSurviveTcpCoalescing) {
  run(1);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> msg(37, static_cast<std::uint8_t>(i));
    client_tls_->write(msg);
  }
  run(5);
  EXPECT_EQ(server_received_.size(), 50u * 37u);
}

TEST_F(TlsPairTest, CloseDeliversCleanTeardown) {
  run(1);
  // Server closes its side in response (full duplex teardown).
  tls::TlsSession::Callbacks cbs;
  cbs.on_peer_close = [this] { server_tls_->close(); };
  server_tls_->set_callbacks(std::move(cbs));
  client_tls_->close();
  run(5);
  EXPECT_TRUE(client_tls_->connection().fully_closed());
  EXPECT_TRUE(server_tls_->connection().fully_closed());
}

/// A send queue smaller than one record: TCP must refuse it.
class TlsSmallSendBufferTest : public TlsPairTest {
 protected:
  void SetUp() override {
    tcp_cfg_.send_buffer_limit = 4096;
    TlsPairTest::SetUp();
  }
};

TEST_F(TlsSmallSendBufferTest, RefusedRecordFailsTheSessionNotThePeersMac) {
  run(1);
  ASSERT_TRUE(client_established_);
  ASSERT_TRUE(server_established_);
  std::string client_reason;
  std::string server_reason;
  TlsSession::Callbacks ccb;
  ccb.on_aborted = [&](std::string_view r) { client_reason = r; };
  client_tls_->set_callbacks(std::move(ccb));
  TlsSession::Callbacks scb;
  scb.on_plaintext = [this](std::span<const std::uint8_t> b) {
    server_received_.insert(server_received_.end(), b.begin(), b.end());
  };
  scb.on_aborted = [&](std::string_view r) { server_reason = r; };
  server_tls_->set_callbacks(std::move(scb));

  const std::vector<std::uint8_t> first(100, 1);
  client_tls_->write(first);
  // One 8213-byte record: more than the 4 KiB send queue takes.
  client_tls_->write(std::vector<std::uint8_t>(8192, 2));
  // Had the refused record been skipped, this one would be sealed at a
  // keystream offset the peer never reaches, and fail its MAC there.
  client_tls_->write(std::vector<std::uint8_t>(100, 3));
  run(5);

  EXPECT_EQ(client_reason, "tls-send-buffer-full");
  EXPECT_NE(server_reason, "tls-bad-record-mac");
  EXPECT_EQ(server_received_, first);
  EXPECT_TRUE(client_tls_->connection().aborted());
}

}  // namespace
}  // namespace h2sim::tls
