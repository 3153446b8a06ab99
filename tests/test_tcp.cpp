#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/event_loop.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/tcp_stack.hpp"

namespace h2sim::tcp {
namespace {

/// Two TCP endpoints joined by a controllable wire: fixed one-way delay plus
/// per-packet drop/hold hooks for loss and reordering experiments.
class TcpPair : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<TcpConnection>(
        loop_, cfg_, 1, 1000, 2, 443,
        [this](net::Packet&& p) { transmit(std::move(p), /*to_server=*/true); },
        client_iss_);
    server_ = std::make_unique<TcpConnection>(
        loop_, cfg_, 2, 443, 1, 1000,
        [this](net::Packet&& p) { transmit(std::move(p), /*to_server=*/false); },
        server_iss_);
  }

  void transmit(net::Packet&& p, bool to_server) {
    if (filter_ && !filter_(p, to_server)) return;  // dropped by the test
    deliver(std::move(p), to_server);
  }

  /// Puts a packet on the wire, bypassing the filter.
  void deliver(net::Packet p, bool to_server) {
    loop_.schedule_after(delay_, [this, p = std::move(p), to_server]() mutable {
      (to_server ? *server_ : *client_).handle_segment(p);
    });
  }

  void run_for(double seconds) {
    loop_.run(loop_.now() + sim::Duration::seconds_f(seconds));
  }

  void establish() {
    client_->connect();
    run_for(5);
    ASSERT_TRUE(client_->established());
    ASSERT_TRUE(server_->established());
  }

  std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t seed = 7) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
  }

  sim::EventLoop loop_;
  TcpConfig cfg_;
  std::uint32_t client_iss_ = 1000;
  std::uint32_t server_iss_ = 5000;
  sim::Duration delay_ = sim::Duration::millis(5);
  std::function<bool(const net::Packet&, bool to_server)> filter_;
  std::unique_ptr<TcpConnection> client_;
  std::unique_ptr<TcpConnection> server_;
};

/// Initial sequence numbers just below 2^32, so both byte streams cross the
/// sequence wrap within their first few segments.
class TcpPairWrap : public TcpPair {
 protected:
  void SetUp() override {
    client_iss_ = 0xFFFFF000u;  // wraps inside the client's 3rd data segment
    server_iss_ = 0xFFFFFF00u;  // wraps inside the server's 1st data segment
    TcpPair::SetUp();
  }
};

TEST_F(TcpPair, ThreeWayHandshake) {
  establish();
  EXPECT_EQ(client_->state(), TcpConnection::State::kEstablished);
  EXPECT_EQ(server_->state(), TcpConnection::State::kEstablished);
}

TEST_F(TcpPair, ConnectedCallbacksFire) {
  bool client_cb = false, server_cb = false;
  TcpConnection::Callbacks ccb;
  ccb.on_connected = [&] { client_cb = true; };
  client_->set_callbacks(std::move(ccb));
  TcpConnection::Callbacks scb;
  scb.on_connected = [&] { server_cb = true; };
  server_->set_callbacks(std::move(scb));
  establish();
  EXPECT_TRUE(client_cb);
  EXPECT_TRUE(server_cb);
}

TEST_F(TcpPair, DeliversBytesInOrder) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  const auto payload = bytes(10000);
  client_->send(payload);
  run_for(5);
  EXPECT_EQ(received, payload);
}

TEST_F(TcpPair, SegmentsRespectMss) {
  establish();
  client_->send(bytes(5000));
  // 5000 bytes -> 4 segments (3x1460 + 620); check via stats.
  run_for(5);
  EXPECT_EQ(client_->stats().bytes_sent, 5000u);
  EXPECT_GE(client_->stats().segments_sent, 4u);
}

TEST_F(TcpPair, LostDataSegmentRecoversViaFastRetransmit) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  int data_packets = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty()) {
      ++data_packets;
      if (data_packets == 2) return false;  // drop the 2nd data segment once
    }
    return true;
  };
  const auto payload = bytes(20000);
  client_->send(payload);
  run_for(10);
  EXPECT_EQ(received, payload);
  EXPECT_GE(client_->stats().retransmits_fast, 1u);
  EXPECT_EQ(client_->stats().retransmits_rto, 0u);  // no timeout needed
  EXPECT_GE(server_->stats().out_of_order_segments, 1u);
}

TEST_F(TcpPair, LoneLossRecoversViaRto) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  bool dropped = false;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty() && !dropped) {
      dropped = true;  // drop the only data segment: no dupacks possible
      return false;
    }
    return true;
  };
  client_->send(bytes(500));
  run_for(10);
  EXPECT_EQ(received.size(), 500u);
  EXPECT_GE(client_->stats().retransmits_rto, 1u);
}

// Around the wrap, the retransmit and reassembly queues hold ranges whose raw
// 32-bit values are out of sequence order. Mangle each direction's first
// transmissions there: drop data segment 2, swap segments 4 and 5, and
// duplicate segment 6. Both streams must still arrive intact.
TEST_F(TcpPairWrap, TransferAcrossSequenceWrap) {
  std::vector<std::uint8_t> at_server, at_client;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    at_server.insert(at_server.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  TcpConnection::Callbacks ccb;
  ccb.on_data = [&](std::span<const std::uint8_t> b) {
    at_client.insert(at_client.end(), b.begin(), b.end());
  };
  client_->set_callbacks(std::move(ccb));
  establish();

  struct Direction {
    int data_segments = 0;
    std::optional<net::Packet> held;
  };
  Direction dir[2];  // [to_server]
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (p.payload.empty() || p.is_retransmission) return true;
    Direction& d = dir[to_server];
    switch (++d.data_segments) {
      case 2:
        return false;
      case 4:  // held back, then sent right after segment 5
        d.held = p;
        return false;
      case 5:
        deliver(p, to_server);
        deliver(std::move(*d.held), to_server);
        return false;
      case 6:  // an extra copy ahead of the original
        deliver(p, to_server);
        return true;
      default:
        return true;
    }
  };

  const auto up = bytes(512 * 1024, 11);
  const auto down = bytes(512 * 1024, 97);
  client_->send(up);
  server_->send(down);
  run_for(20);

  EXPECT_EQ(at_server, up);
  EXPECT_EQ(at_client, down);
  for (const TcpConnection* c : {client_.get(), server_.get()}) {
    EXPECT_GE(c->stats().retransmits_fast, 1u);
    // One loss, one retransmission: the receiver joined every buffered
    // segment once the hole filled, whichever side of the wrap it began on.
    EXPECT_EQ(c->stats().total_retransmits(), 1u);
    EXPECT_GE(c->stats().out_of_order_segments, 1u);
    EXPECT_EQ(c->bytes_in_flight(), 0u);
    EXPECT_EQ(c->retransmit_queue_size(), 0u);
    EXPECT_EQ(c->reassembly_queue_size(), 0u);
  }
}

TEST_F(TcpPair, CwndGrowsInSlowStart) {
  establish();
  const std::size_t initial = client_->cwnd();
  TcpConnection::Callbacks scb;
  server_->set_callbacks(std::move(scb));
  client_->send(bytes(200000));
  run_for(10);
  EXPECT_GT(client_->cwnd(), initial);
}

TEST_F(TcpPair, GracefulCloseBothDirections) {
  bool server_saw_eof = false, client_saw_eof = false;
  TcpConnection::Callbacks scb;
  scb.on_remote_close = [&] {
    server_saw_eof = true;
    server_->close();
  };
  server_->set_callbacks(std::move(scb));
  TcpConnection::Callbacks ccb;
  ccb.on_remote_close = [&] { client_saw_eof = true; };
  client_->set_callbacks(std::move(ccb));
  establish();

  client_->send(bytes(1000));
  client_->close();
  run_for(10);
  EXPECT_TRUE(server_saw_eof);
  EXPECT_TRUE(client_saw_eof);
  EXPECT_TRUE(client_->fully_closed());
  EXPECT_TRUE(server_->fully_closed());
}

TEST_F(TcpPair, FinRetransmittedWhenLost) {
  bool fin_dropped = false;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && p.tcp.fin() && !fin_dropped) {
      fin_dropped = true;
      return false;
    }
    return true;
  };
  bool server_saw_eof = false;
  TcpConnection::Callbacks scb;
  scb.on_remote_close = [&] { server_saw_eof = true; };
  server_->set_callbacks(std::move(scb));
  establish();
  client_->close();
  run_for(20);
  EXPECT_TRUE(fin_dropped);
  EXPECT_TRUE(server_saw_eof);
}

TEST_F(TcpPair, RstAbortsPeer) {
  bool aborted = false;
  std::string reason;
  TcpConnection::Callbacks scb;
  scb.on_aborted = [&](std::string_view r) {
    aborted = true;
    reason = std::string(r);
  };
  server_->set_callbacks(std::move(scb));
  establish();
  client_->abort("test");
  run_for(2);
  EXPECT_TRUE(aborted);
  EXPECT_EQ(reason, "rst-received");
  EXPECT_TRUE(client_->aborted());
  EXPECT_TRUE(server_->aborted());
}

TEST_F(TcpPair, TotalBlackoutBreaksConnection) {
  bool aborted = false;
  TcpConnection::Callbacks ccb;
  ccb.on_aborted = [&](std::string_view) { aborted = true; };
  client_->set_callbacks(std::move(ccb));
  establish();
  filter_ = [](const net::Packet&, bool) { return false; };  // cut the wire
  client_->send(bytes(1000));
  run_for(120);
  EXPECT_TRUE(aborted);  // stuck-timeout or retry budget, either way broken
}

TEST_F(TcpPair, SynRetransmittedWhenLost) {
  int syns = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && p.tcp.syn()) {
      ++syns;
      if (syns == 1) return false;  // drop the first SYN
    }
    return true;
  };
  establish();
  EXPECT_GE(syns, 2);
}

TEST_F(TcpPair, ReorderedSegmentsDeliverInOrder) {
  // Hold the first data segment longer than the second (reordering).
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  int n = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty() && ++n == 1) {
      // Re-inject the first data segment with extra delay.
      net::Packet copy = p;
      loop_.schedule_after(sim::Duration::millis(30), [this, copy]() mutable {
        loop_.schedule_after(delay_, [this, copy]() mutable {
          server_->handle_segment(copy);
        });
      });
      return false;
    }
    return true;
  };
  const auto payload = bytes(4000);
  client_->send(payload);
  run_for(10);
  EXPECT_EQ(received, payload);
}

TEST_F(TcpPair, DupAcksCountedAtSender) {
  establish();
  int data_packets = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty()) {
      ++data_packets;
      if (data_packets == 1) return false;  // hole at the front
    }
    return true;
  };
  client_->send(bytes(30000));
  run_for(10);
  EXPECT_GE(client_->stats().dup_acks_received, 3u);
}

// --- Stack-level tests ---

TEST(TcpStack, ConnectAndAcceptThroughPath) {
  sim::EventLoop loop;
  sim::Rng rng(3);
  net::Path path(loop, net::Path::Config{});
  TcpConfig cfg;
  TcpStack server(loop, rng.split(), net::Path::kServerNode, cfg,
                  [&](net::Packet&& p) { path.send_from_server(std::move(p)); });
  TcpStack client(loop, rng.split(), net::Path::kClientNode, cfg,
                  [&](net::Packet&& p) { path.send_from_client(std::move(p)); });
  path.set_server_sink([&](net::Packet&& p) { server.deliver(std::move(p)); });
  path.set_client_sink([&](net::Packet&& p) { client.deliver(std::move(p)); });

  std::vector<std::uint8_t> got;
  server.listen(443, [&](TcpConnection& c) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::span<const std::uint8_t> b) {
      got.insert(got.end(), b.begin(), b.end());
    };
    c.set_callbacks(std::move(cbs));
  });

  TcpConnection& conn = client.connect(net::Path::kServerNode, 443);
  TcpConnection::Callbacks ccb;
  ccb.on_connected = [&] {
    const std::uint8_t hello[5] = {1, 2, 3, 4, 5};
    conn.send(hello);
  };
  conn.set_callbacks(std::move(ccb));
  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(5));
  EXPECT_EQ(got.size(), 5u);
}

TEST(TcpStack, SynToClosedPortIgnored) {
  sim::EventLoop loop;
  sim::Rng rng(3);
  net::Path path(loop, net::Path::Config{});
  TcpConfig cfg;
  TcpStack server(loop, rng.split(), net::Path::kServerNode, cfg,
                  [&](net::Packet&& p) { path.send_from_server(std::move(p)); });
  TcpStack client(loop, rng.split(), net::Path::kClientNode, cfg,
                  [&](net::Packet&& p) { path.send_from_client(std::move(p)); });
  path.set_server_sink([&](net::Packet&& p) { server.deliver(std::move(p)); });
  path.set_client_sink([&](net::Packet&& p) { client.deliver(std::move(p)); });

  TcpConnection& conn = client.connect(net::Path::kServerNode, 999);
  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(3));
  EXPECT_FALSE(conn.established());
}

TEST(SeqArith, WrapSafety) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));
  EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_le(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

}  // namespace
}  // namespace h2sim::tcp
