#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"
#include "tcp/tcp_types.hpp"

namespace h2sim::tcp {

/// A single TCP connection endpoint: byte-stream delivery with slow start /
/// congestion avoidance, duplicate-ACK fast retransmit with NewReno-style
/// recovery, Jacobson/Karn RTT estimation, exponential RTO backoff and abort
/// after repeated timeouts. This is the substrate whose dynamics (dup-ACKs,
/// fast retransmits, resets) the paper's adversary provokes and exploits.
class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kLastAck,
    kClosing,
    kTimeWait,
    kAborted,
  };

  struct Callbacks {
    std::function<void()> on_connected;
    std::function<void(std::span<const std::uint8_t>)> on_data;
    std::function<void()> on_remote_close;  // FIN received: clean EOF
    std::function<void(std::string_view reason)> on_aborted;
    /// Fired whenever an ACK frees send-buffer space; upper layers use it to
    /// resume writing after socket backpressure.
    std::function<void()> on_writable;
  };

  using SendFn = std::function<void(net::Packet&&)>;

  TcpConnection(sim::EventLoop& loop, const TcpConfig& cfg, net::NodeId local_node,
                net::Port local_port, net::NodeId remote_node, net::Port remote_port,
                SendFn send_fn, std::uint32_t initial_seq);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;
  ~TcpConnection();

  void set_callbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  /// Active open: sends SYN.
  void connect();

  /// Queues application bytes for in-order delivery to the peer.
  void send(std::span<const std::uint8_t> data);

  /// Graceful close: FIN after all queued data.
  void close();

  /// Hard abort: sends RST and tears down locally.
  void abort(std::string_view reason);

  /// Entry point for segments from the network (called by TcpStack).
  void handle_segment(const net::Packet& p);

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  bool aborted() const { return state_ == State::kAborted; }
  bool fully_closed() const {
    return state_ == State::kTimeWait || state_ == State::kClosed ||
           state_ == State::kAborted;
  }
  const TcpStats& stats() const { return stats_; }
  net::NodeId local_node() const { return local_node_; }
  net::NodeId remote_node() const { return remote_node_; }
  net::Port local_port() const { return local_port_; }
  net::Port remote_port() const { return remote_port_; }
  std::size_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
  std::size_t unsent_bytes() const {
    return (buf_seq_ + static_cast<std::uint32_t>(send_buf_bytes())) - snd_nxt_;
  }
  /// Transmitted ranges awaiting acknowledgment and buffered out-of-order
  /// segments; both are empty once every byte is acked and delivered.
  std::size_t retransmit_queue_size() const { return tx_queue_.size() - tx_head_; }
  std::size_t reassembly_queue_size() const { return ooo_.size(); }
  std::size_t cwnd() const { return cwnd_; }
  sim::Duration current_rto() const { return rto_; }

 private:
  /// A transmitted range [seq, end_seq) awaiting acknowledgment.
  struct TxRecord {
    std::uint32_t seq;
    std::uint32_t end_seq;
    sim::TimePoint first_tx;
    int tx_count = 1;
  };
  /// An out-of-order segment held until the hole before it fills.
  struct OooSegment {
    std::uint32_t seq;
    std::vector<std::uint8_t> bytes;
  };

  void emit(std::uint8_t flags, std::uint32_t seq, std::size_t payload_len,
            bool retransmission);
  void send_ack();
  void try_send();
  void retransmit_from(std::uint32_t seq, const char* why, bool rto_driven);
  /// First queued retransmit record that does not start before `seq`.
  std::vector<TxRecord>::iterator tx_lower_bound(std::uint32_t seq);
  void handle_ack(const net::Packet& p);
  void handle_payload(const net::Packet& p);
  void on_new_ack(std::uint32_t ack, std::size_t newly_acked);
  void enter_fast_retransmit();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void update_rtt(sim::Duration sample);
  void collect_in_order(std::vector<std::uint8_t>& ready);
  void become(State s);
  void maybe_send_fin();
  void finish_if_done();

  sim::EventLoop& loop_;
  TcpConfig cfg_;
  net::NodeId local_node_;
  net::Port local_port_;
  net::NodeId remote_node_;
  net::Port remote_port_;
  SendFn send_fn_;
  Callbacks cbs_;

  State state_ = State::kClosed;

  // --- Sender ---
  std::uint32_t iss_;
  std::uint32_t snd_una_;
  std::uint32_t snd_nxt_;
  std::uint32_t buf_seq_;  // sequence number of the first unacked byte
  // Unacked + unsent stream bytes: flat buffer with an acked-prefix offset,
  // so segment emission copies from contiguous storage and acking is O(1).
  std::vector<std::uint8_t> send_buf_;
  std::size_t send_head_ = 0;
  std::size_t send_buf_bytes() const { return send_buf_.size() - send_head_; }
  std::size_t cwnd_;
  std::size_t ssthresh_;
  std::size_t peer_wnd_ = 65535;
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint32_t recover_ = 0;  // NewReno high-water mark
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Retransmit queue in sequence order of `seq` (relative to snd_una_), with
  // a consumed-head offset like send_buf_: an ACK visits only the records
  // that start before it, since only those can end at or before it.
  std::vector<TxRecord> tx_queue_;
  std::size_t tx_head_ = 0;
  sim::Duration rto_;
  sim::Duration srtt_ = sim::Duration::zero();
  sim::Duration rttvar_ = sim::Duration::zero();
  bool have_rtt_sample_ = false;
  sim::TimerHandle rto_timer_;
  int consecutive_rto_ = 0;
  sim::TimePoint last_forward_progress_;

  // --- Receiver ---
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  // Reassembly queue in sequence order (all entries start after rcv_nxt_
  // between segments); collect_in_order consumes it from the front.
  std::vector<OooSegment> ooo_;
  std::optional<std::uint32_t> remote_fin_seq_;
  std::uint32_t last_ack_sent_ = 0;

  TcpStats stats_;

  // Process-wide observability (obs/): per-connection handles into the shared
  // registry — increments aggregate across every connection in the trial.
  struct Metrics {
    obs::Counter segments_sent;
    obs::Counter segments_received;
    obs::Counter retransmits_fast;
    obs::Counter retransmits_rto;
    obs::Counter rto_expirations;
    obs::Counter dup_acks_received;
    obs::Counter connections_aborted;
    obs::Histogram cwnd_bytes;
  };
  Metrics metrics_;
  void trace_cwnd();
};

const char* to_string(TcpConnection::State s);

}  // namespace h2sim::tcp
