// Timer-centric TCP behaviours: RTO estimation, exponential backoff and its
// cap, the no-forward-progress abort, and retransmission statistics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "tcp/tcp_connection.hpp"

namespace h2sim::tcp {
namespace {

class TcpTimerTest : public ::testing::Test {
 protected:
  void SetUp() override { build(); }

  void build() {
    client_ = std::make_unique<TcpConnection>(
        loop_, cfg_, 1, 1000, 2, 443,
        [this](net::Packet&& p) { transmit(std::move(p), true); }, 1000);
    server_ = std::make_unique<TcpConnection>(
        loop_, cfg_, 2, 443, 1, 1000,
        [this](net::Packet&& p) { transmit(std::move(p), false); }, 5000);
  }

  void transmit(net::Packet&& p, bool to_server) {
    if (to_server) sent_to_server_.push_back(p);
    if (filter_ && !filter_(p, to_server)) return;
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
  }

  sim::EventLoop loop_;
  TcpConfig cfg_;
  sim::Duration delay_ = sim::Duration::millis(5);
  std::function<bool(const net::Packet&, bool)> filter_;
  std::vector<net::Packet> sent_to_server_;
  std::unique_ptr<TcpConnection> client_;
  std::unique_ptr<TcpConnection> server_;
};

TEST_F(TcpTimerTest, RtoConvergesTowardsRttAfterSamples) {
  establish();
  // Exchange enough data for RTT samples (RTT = 10 ms round trip).
  for (int i = 0; i < 10; ++i) {
    client_->send(std::vector<std::uint8_t>(500, 1));
    run_for(0.1);
  }
  // RFC 6298 with min_rto clamp: srtt ~10 ms -> rto == min_rto (200 ms).
  EXPECT_EQ(client_->current_rto().to_millis(), cfg_.min_rto.to_millis());
}

TEST_F(TcpTimerTest, KarnRuleSkipsRttSampleOnRetransmittedRange) {
  establish();
  for (int i = 0; i < 10; ++i) {
    client_->send(std::vector<std::uint8_t>(500, 1));
    run_for(0.1);
  }
  const sim::Duration clean_rto = client_->current_rto();

  // Lose the next segment once; the lone segment in flight can only be
  // recovered by the retransmission timer.
  bool dropped = false;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty() && !dropped) {
      dropped = true;
      return false;
    }
    return true;
  };
  client_->send(std::vector<std::uint8_t>(500, 2));
  run_for(2.0);
  ASSERT_TRUE(dropped);
  ASSERT_EQ(client_->stats().retransmits_rto, 1u);
  ASSERT_EQ(client_->bytes_in_flight(), 0u);

  // The ACK of the retransmission is ambiguous: timed from the original
  // send it would read RTO + RTT (>= 210 ms) and push the RTO well above the
  // clean value, so it must not be sampled.
  EXPECT_EQ(client_->current_rto().count_nanos(), clean_rto.count_nanos());
}

TEST_F(TcpTimerTest, BackoffIsCappedDuringBlackout) {
  establish();
  client_->send(std::vector<std::uint8_t>(500, 1));
  run_for(0.1);

  // Cut the wire and record retransmission times.
  std::vector<double> rtx_times;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && p.is_retransmission) rtx_times.push_back(loop_.now().to_millis());
    return false;
  };
  client_->send(std::vector<std::uint8_t>(500, 2));
  run_for(4.0);

  ASSERT_GE(rtx_times.size(), 3u);
  for (std::size_t i = 1; i < rtx_times.size(); ++i) {
    const double gap = rtx_times[i] - rtx_times[i - 1];
    EXPECT_LE(gap, cfg_.rto_backoff_cap.to_millis() * 1.1)
        << "backoff gap " << i << " exceeds the cap";
  }
}

TEST_F(TcpTimerTest, NoForwardProgressAbortsWithReason) {
  std::string reason;
  TcpConnection::Callbacks cbs;
  cbs.on_aborted = [&](std::string_view r) { reason = std::string(r); };
  client_->set_callbacks(std::move(cbs));
  establish();
  filter_ = [](const net::Packet&, bool) { return false; };  // blackout
  client_->send(std::vector<std::uint8_t>(500, 1));
  run_for(30);
  EXPECT_TRUE(reason == "no-forward-progress" || reason == "rto-retries-exceeded")
      << reason;
  EXPECT_TRUE(client_->aborted());
}

TEST_F(TcpTimerTest, IdlePeriodsDoNotTripTheProgressTimer) {
  establish();
  // Stay idle for far longer than stuck_timeout...
  run_for(30);
  // ...then send: the clock must restart, not abort.
  std::vector<std::uint8_t> got;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    got.insert(got.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  client_->send(std::vector<std::uint8_t>(700, 3));
  run_for(5);
  EXPECT_FALSE(client_->aborted());
  EXPECT_EQ(got.size(), 700u);
}

TEST_F(TcpTimerTest, RetransmissionFlagOnWire) {
  establish();
  bool dropped_once = false;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty() && !dropped_once) {
      dropped_once = true;
      return false;
    }
    return true;
  };
  client_->send(std::vector<std::uint8_t>(500, 1));
  run_for(10);

  int originals = 0, retransmissions = 0;
  for (const auto& p : sent_to_server_) {
    if (p.payload.empty()) continue;
    (p.is_retransmission ? retransmissions : originals)++;
  }
  EXPECT_GE(originals, 1);
  EXPECT_GE(retransmissions, 1);
}

TEST_F(TcpTimerTest, StatsSeparateFastAndRtoRetransmits) {
  establish();
  // Force an RTO-style loss (single in-flight segment).
  bool dropped = false;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty() && !dropped) {
      dropped = true;
      return false;
    }
    return true;
  };
  client_->send(std::vector<std::uint8_t>(100, 1));
  run_for(10);
  EXPECT_GE(client_->stats().retransmits_rto, 1u);
  EXPECT_EQ(client_->stats().retransmits_fast, 0u);
  EXPECT_EQ(client_->stats().total_retransmits(),
            client_->stats().retransmits_fast + client_->stats().retransmits_rto);
}

}  // namespace
}  // namespace h2sim::tcp
