#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <cassert>

#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "sim/log.hpp"

namespace h2sim::tcp {

using net::Packet;
using net::tcpflag::kAck;
using net::tcpflag::kFin;
using net::tcpflag::kRst;
using net::tcpflag::kSyn;

namespace {

/// Trace pid for a connection endpoint: node 1 is the client host, everything
/// else renders under the server track.
std::uint32_t trace_pid(net::NodeId node) {
  return node == 1 ? obs::track::kClient : obs::track::kServer;
}

}  // namespace

const char* to_string(TcpConnection::State s) {
  switch (s) {
    case TcpConnection::State::kClosed: return "CLOSED";
    case TcpConnection::State::kSynSent: return "SYN_SENT";
    case TcpConnection::State::kSynReceived: return "SYN_RCVD";
    case TcpConnection::State::kEstablished: return "ESTABLISHED";
    case TcpConnection::State::kFinWait1: return "FIN_WAIT_1";
    case TcpConnection::State::kFinWait2: return "FIN_WAIT_2";
    case TcpConnection::State::kCloseWait: return "CLOSE_WAIT";
    case TcpConnection::State::kLastAck: return "LAST_ACK";
    case TcpConnection::State::kClosing: return "CLOSING";
    case TcpConnection::State::kTimeWait: return "TIME_WAIT";
    case TcpConnection::State::kAborted: return "ABORTED";
  }
  return "?";
}

TcpConnection::TcpConnection(sim::EventLoop& loop, const TcpConfig& cfg,
                             net::NodeId local_node, net::Port local_port,
                             net::NodeId remote_node, net::Port remote_port,
                             SendFn send_fn, std::uint32_t initial_seq)
    : loop_(loop),
      cfg_(cfg),
      local_node_(local_node),
      local_port_(local_port),
      remote_node_(remote_node),
      remote_port_(remote_port),
      send_fn_(std::move(send_fn)),
      iss_(initial_seq),
      snd_una_(initial_seq),
      snd_nxt_(initial_seq),
      buf_seq_(initial_seq + 1),
      cwnd_(cfg.initial_cwnd_segments * cfg.mss),
      ssthresh_(cfg.recv_window),
      rto_(cfg.initial_rto) {
  auto& reg = obs::metrics();
  metrics_.segments_sent = reg.counter("tcp.segments_sent");
  metrics_.segments_received = reg.counter("tcp.segments_received");
  metrics_.retransmits_fast = reg.counter("tcp.retransmits_fast");
  metrics_.retransmits_rto = reg.counter("tcp.retransmits_rto");
  metrics_.rto_expirations = reg.counter("tcp.rto_expirations");
  metrics_.dup_acks_received = reg.counter("tcp.dup_acks_received");
  metrics_.connections_aborted = reg.counter("tcp.connections_aborted");
  metrics_.cwnd_bytes =
      reg.histogram("tcp.cwnd_bytes", obs::exponential_buckets(1460, 2.0, 14));
}

TcpConnection::~TcpConnection() { cancel_rto(); }

void TcpConnection::become(State s) {
  sim::logf(sim::LogLevel::kTrace, loop_.now(), "tcp", "%u:%u %s -> %s",
            local_node_, local_port_, to_string(state_), to_string(s));
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.instant(obs::Component::kTcp, std::string("tcp:") + to_string(s),
               loop_.now(), trace_pid(local_node_), local_port_,
               obs::TraceArgs().add("from", to_string(state_)).take());
  }
  if (s == State::kEstablished) last_forward_progress_ = loop_.now();
  state_ = s;
}

void TcpConnection::trace_cwnd() {
  metrics_.cwnd_bytes.observe(static_cast<double>(cwnd_));
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.counter(obs::Component::kTcp, "cwnd", loop_.now(), trace_pid(local_node_),
               local_port_, static_cast<double>(cwnd_));
  }
}

void TcpConnection::emit(std::uint8_t flags, std::uint32_t seq,
                         std::size_t payload_len, bool retransmission) {
  Packet p;
  // Ids come from the trial's own event loop: unique within the simulated
  // world, deterministic, and unshared with concurrently running trials.
  p.id = loop_.allocate_id();
  p.src = local_node_;
  p.dst = remote_node_;
  p.tcp.src_port = local_port_;
  p.tcp.dst_port = remote_port_;
  p.tcp.seq = seq;
  p.tcp.ack = (flags & kAck) ? rcv_nxt_ : 0;
  p.tcp.flags = flags;
  p.tcp.wnd = static_cast<std::uint32_t>(cfg_.recv_window);
  p.sent_at = loop_.now();
  p.is_retransmission = retransmission;
  if (payload_len > 0) {
    const std::size_t off = send_head_ + (seq - buf_seq_);
    assert(off + payload_len <= send_buf_.size());
    // Recycled buffer: the assign reuses pooled capacity, so steady-state
    // segment emission performs no heap allocation.
    p.payload = loop_.payload_pool().acquire();
    const std::uint8_t* src = send_buf_.data() + off;
    p.payload.assign(src, src + payload_len);
  }
  ++stats_.segments_sent;
  metrics_.segments_sent.inc();
  if (flags & kAck) last_ack_sent_ = rcv_nxt_;
  send_fn_(std::move(p));
}

void TcpConnection::send_ack() { emit(kAck, snd_nxt_, 0, false); }

void TcpConnection::connect() {
  assert(state_ == State::kClosed);
  become(State::kSynSent);
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  emit(kSyn, iss_, 0, false);
  arm_rto();
}

void TcpConnection::send(std::span<const std::uint8_t> data) {
  if (state_ == State::kAborted || fin_pending_ || fin_sent_) return;
  if (send_buf_bytes() + data.size() > cfg_.send_buffer_limit) {
    sim::logf(sim::LogLevel::kWarn, loop_.now(), "tcp", "send buffer overflow");
    return;
  }
  if (send_head_ == send_buf_.size()) {
    send_buf_.clear();
    send_head_ = 0;
  } else if (send_head_ >= 4096 && send_head_ >= send_buf_bytes()) {
    // Reclaim the acked prefix once it dominates the buffer.
    send_buf_.erase(send_buf_.begin(),
                    send_buf_.begin() + static_cast<std::ptrdiff_t>(send_head_));
    send_head_ = 0;
  }
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished || state_ == State::kCloseWait) try_send();
}

void TcpConnection::close() {
  if (state_ == State::kEstablished) {
    become(State::kFinWait1);
  } else if (state_ == State::kCloseWait) {
    become(State::kLastAck);
  } else {
    return;
  }
  fin_pending_ = true;
  try_send();
}

void TcpConnection::abort(std::string_view reason) {
  if (state_ == State::kAborted) return;
  metrics_.connections_aborted.inc();
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.instant(obs::Component::kTcp, "abort", loop_.now(),
               trace_pid(local_node_), local_port_,
               obs::TraceArgs().add("reason", reason).take());
  }
  emit(kRst | kAck, snd_nxt_, 0, false);
  cancel_rto();
  become(State::kAborted);
  if (cbs_.on_aborted) cbs_.on_aborted(reason);
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait1 && state_ != State::kLastAck) {
    return;
  }
  const std::uint32_t buf_end = buf_seq_ + static_cast<std::uint32_t>(send_buf_bytes());
  const bool was_idle = snd_una_ == snd_nxt_;
  bool sent_any = false;
  for (;;) {
    const std::size_t flight = snd_nxt_ - snd_una_;
    const std::size_t wnd = std::min(cwnd_, static_cast<std::size_t>(peer_wnd_));
    if (flight >= wnd) break;
    const std::size_t usable = wnd - flight;
    if (!seq_lt(snd_nxt_, buf_end)) break;  // nothing unsent
    const std::size_t unsent = buf_end - snd_nxt_;
    const std::size_t len = std::min({cfg_.mss, unsent, usable});
    if (len == 0) break;
    // snd_nxt_ is past every queued record's start, so this keeps the order.
    assert(tx_head_ == tx_queue_.size() || seq_lt(tx_queue_.back().seq, snd_nxt_));
    tx_queue_.push_back(TxRecord{snd_nxt_, snd_nxt_ + static_cast<std::uint32_t>(len),
                                 loop_.now(), 1});
    emit(kAck, snd_nxt_, len, false);
    stats_.bytes_sent += len;
    snd_nxt_ += static_cast<std::uint32_t>(len);
    sent_any = true;
  }
  maybe_send_fin();
  // The no-progress clock measures time stalled on in-flight data, not idle
  // time: restart it when transmission resumes after an idle period.
  if (was_idle && snd_una_ != snd_nxt_) last_forward_progress_ = loop_.now();
  if (sent_any || fin_sent_) arm_rto();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_) return;
  const std::uint32_t buf_end = buf_seq_ + static_cast<std::uint32_t>(send_buf_bytes());
  if (seq_lt(snd_nxt_, buf_end)) return;  // data still unsent
  fin_seq_ = snd_nxt_;
  fin_sent_ = true;
  snd_nxt_ += 1;  // FIN consumes one sequence number
  emit(kFin | kAck, fin_seq_, 0, false);
  arm_rto();
}

void TcpConnection::retransmit_from(std::uint32_t seq, const char* why,
                                    bool rto_driven) {
  const std::uint32_t buf_end = buf_seq_ + static_cast<std::uint32_t>(send_buf_bytes());
  if (fin_sent_ && seq == fin_seq_) {
    emit(kFin | kAck, fin_seq_, 0, true);
  } else if (seq_lt(seq, buf_end)) {
    const std::size_t avail = buf_end - seq;
    const std::size_t in_flight_past = snd_nxt_ - seq;
    const std::size_t len = std::min({cfg_.mss, avail, in_flight_past});
    if (len == 0) return;
    const auto it = tx_lower_bound(seq);
    if (it != tx_queue_.end() && it->seq == seq) {
      ++it->tx_count;  // Karn: this range no longer yields RTT samples
    } else {
      // Rare: `seq` is inside a partially acked record, so the new record
      // goes in order near the front.
      tx_queue_.insert(it, TxRecord{seq, seq + static_cast<std::uint32_t>(len),
                                    loop_.now(), 2});
    }
    emit(kAck, seq, len, true);
  } else {
    return;
  }
  if (rto_driven) {
    ++stats_.retransmits_rto;
    metrics_.retransmits_rto.inc();
  } else {
    ++stats_.retransmits_fast;
    metrics_.retransmits_fast.inc();
  }
  sim::logf(sim::LogLevel::kDebug, loop_.now(), "tcp", "%u:%u retransmit seq=%u (%s)",
            local_node_, local_port_, seq, why);
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.instant(obs::Component::kTcp, "retransmit", loop_.now(),
               trace_pid(local_node_), local_port_,
               obs::TraceArgs().add("seq", seq).add("why", why).take());
  }
}

std::vector<TcpConnection::TxRecord>::iterator TcpConnection::tx_lower_bound(
    std::uint32_t seq) {
  return std::lower_bound(
      tx_queue_.begin() + static_cast<std::ptrdiff_t>(tx_head_), tx_queue_.end(), seq,
      [](const TxRecord& r, std::uint32_t s) { return seq_lt(r.seq, s); });
}

void TcpConnection::arm_rto() {
  sim::logf(sim::LogLevel::kTrace, loop_.now(), "tcp", "%u:%u arm_rto %.1fms",
            local_node_, local_port_, rto_.to_millis());
  // Rearm in place when possible: reschedule_after assigns the same fire time
  // and the same FIFO seq as cancel+schedule would, so traces are unchanged,
  // but the callback is kept instead of destroyed and rebuilt.
  if (!loop_.reschedule_after(rto_timer_, rto_)) {
    rto_timer_ = loop_.schedule_after(rto_, [this] { on_rto(); });
  }
}

void TcpConnection::cancel_rto() { rto_timer_.cancel(); }

void TcpConnection::on_rto() {
  if (state_ == State::kAborted || state_ == State::kTimeWait ||
      state_ == State::kClosed) {
    return;
  }
  ++stats_.rto_expirations;
  metrics_.rto_expirations.inc();
  {
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kTcp)) {
      tr.instant(obs::Component::kTcp, "rto", loop_.now(),
                 trace_pid(local_node_), local_port_,
                 obs::TraceArgs().add("rto_ms", rto_.to_millis()).take());
    }
  }
  ++consecutive_rto_;
  if (consecutive_rto_ > cfg_.max_rto_retries) {
    sim::logf(sim::LogLevel::kWarn, loop_.now(), "tcp",
              "%u:%u broken connection after %d consecutive RTOs", local_node_,
              local_port_, consecutive_rto_);
    abort("rto-retries-exceeded");
    return;
  }
  if (snd_una_ != snd_nxt_ &&
      loop_.now() - last_forward_progress_ > cfg_.stuck_timeout) {
    sim::logf(sim::LogLevel::kWarn, loop_.now(), "tcp",
              "%u:%u broken connection: no forward progress for %.1fs",
              local_node_, local_port_,
              (loop_.now() - last_forward_progress_).to_seconds());
    abort("no-forward-progress");
    return;
  }
  rto_ = std::min({rto_ * 2, cfg_.max_rto,
                   std::max(cfg_.rto_backoff_cap, cfg_.min_rto)});

  if (state_ == State::kSynSent) {
    emit(kSyn, iss_, 0, true);
    ++stats_.retransmits_rto;
  } else if (state_ == State::kSynReceived) {
    emit(kSyn | kAck, iss_, 0, true);
    ++stats_.retransmits_rto;
  } else if (snd_una_ != snd_nxt_) {
    // Loss signalled by timeout: back off to one segment.
    const std::size_t flight = snd_nxt_ - snd_una_;
    ssthresh_ = std::max(flight / 2, 2 * cfg_.mss);
    cwnd_ = cfg_.mss;
    trace_cwnd();
    in_fast_recovery_ = false;
    dupacks_ = 0;
    retransmit_from(snd_una_, "rto", true);
  }
  // Re-arm only while something is actually outstanding.
  if (snd_una_ != snd_nxt_ || state_ == State::kSynSent ||
      state_ == State::kSynReceived) {
    arm_rto();
  }
}

void TcpConnection::update_rtt(sim::Duration sample) {
  if (!have_rtt_sample_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_sample_ = true;
  } else {
    const auto err = sim::Duration::nanos(
        std::abs(srtt_.count_nanos() - sample.count_nanos()));
    rttvar_ = rttvar_ * 3 / 4 + err / 4;
    srtt_ = srtt_ * 7 / 8 + sample / 8;
  }
  sim::Duration rto = srtt_ + rttvar_ * 4;
  rto_ = std::clamp(rto, cfg_.min_rto, cfg_.max_rto);
}

void TcpConnection::handle_segment(const net::Packet& p) {
  ++stats_.segments_received;
  metrics_.segments_received.inc();
  if (state_ == State::kAborted || state_ == State::kClosed) {
    if (p.tcp.syn() && state_ == State::kClosed) {
      // Passive open.
      irs_ = p.tcp.seq;
      rcv_nxt_ = irs_ + 1;
      peer_wnd_ = p.tcp.wnd;
      become(State::kSynReceived);
      snd_nxt_ = iss_ + 1;
      emit(kSyn | kAck, iss_, 0, false);
      arm_rto();
    }
    return;
  }

  if (p.tcp.rst()) {
    cancel_rto();
    become(State::kAborted);
    if (cbs_.on_aborted) cbs_.on_aborted("rst-received");
    return;
  }

  peer_wnd_ = p.tcp.wnd;

  if (state_ == State::kSynSent) {
    if (p.tcp.syn() && p.tcp.ack_flag() && p.tcp.ack == iss_ + 1) {
      irs_ = p.tcp.seq;
      rcv_nxt_ = irs_ + 1;
      snd_una_ = p.tcp.ack;
      consecutive_rto_ = 0;
      cancel_rto();
      rto_ = cfg_.initial_rto;
      become(State::kEstablished);
      send_ack();
      if (cbs_.on_connected) cbs_.on_connected();
      try_send();
    }
    return;
  }

  if (state_ == State::kSynReceived) {
    if (p.tcp.ack_flag() && p.tcp.ack == iss_ + 1) {
      snd_una_ = p.tcp.ack;
      consecutive_rto_ = 0;
      cancel_rto();
      rto_ = cfg_.initial_rto;
      become(State::kEstablished);
      if (cbs_.on_connected) cbs_.on_connected();
      // fall through: the ACK may carry data
    } else if (p.tcp.syn()) {
      emit(kSyn | kAck, iss_, 0, true);  // retransmitted SYN: re-answer
      return;
    } else {
      return;
    }
  }

  if (p.tcp.ack_flag()) handle_ack(p);
  if (state_ == State::kAborted) return;
  if (!p.payload.empty() || p.tcp.fin()) handle_payload(p);
}

void TcpConnection::handle_ack(const net::Packet& p) {
  const std::uint32_t ack = p.tcp.ack;
  if (seq_gt(ack, snd_nxt_)) return;  // acks data never sent; ignore

  if (seq_gt(ack, snd_una_)) {
    const std::size_t newly_acked = ack - snd_una_;
    on_new_ack(ack, newly_acked);
    return;
  }

  // ack == snd_una_ (or older): potential duplicate ACK.
  if (ack == snd_una_ && p.payload.empty() && !p.tcp.fin() &&
      snd_una_ != snd_nxt_) {
    ++stats_.dup_acks_received;
    metrics_.dup_acks_received.inc();
    ++dupacks_;
    sim::logf(sim::LogLevel::kTrace, loop_.now(), "tcp",
              "%u:%u dupack #%d ack=%u flight=%zu", local_node_, local_port_,
              dupacks_, ack, static_cast<std::size_t>(snd_nxt_ - snd_una_));
    if (in_fast_recovery_) {
      cwnd_ += cfg_.mss;  // inflate for the segment that left the network
      try_send();
    } else if (dupacks_ == cfg_.dupack_threshold) {
      enter_fast_retransmit();
    }
  }
}

void TcpConnection::on_new_ack(std::uint32_t ack, std::size_t newly_acked) {
  consecutive_rto_ = 0;
  last_forward_progress_ = loop_.now();

  // RTT sampling: only the segment at the left window edge, and only if it
  // was transmitted exactly once (Karn). Sampling later segments of a
  // cumulative ACK would count queueing time behind retransmission holes as
  // path RTT and blow up the RTO.
  const auto edge = tx_lower_bound(snd_una_);
  if (edge != tx_queue_.end() && edge->seq == snd_una_ &&
      seq_le(edge->end_seq, ack) && edge->tx_count == 1) {
    update_rtt(loop_.now() - edge->first_tx);
  }
  // Drop every record that ends at or before `ack`. Only records starting
  // before `ack` can, and they are a prefix of the queue: walk it backwards,
  // keep the ones straddling `ack` in order at its back, and move the head
  // past the rest.
  std::size_t acked_end = tx_head_;
  while (acked_end < tx_queue_.size() && seq_lt(tx_queue_[acked_end].seq, ack)) {
    ++acked_end;
  }
  std::size_t kept = acked_end;
  for (std::size_t i = acked_end; i-- > tx_head_;) {
    if (!seq_le(tx_queue_[i].end_seq, ack)) tx_queue_[--kept] = tx_queue_[i];
  }
  tx_head_ = kept;
  if (tx_head_ == tx_queue_.size()) {
    tx_queue_.clear();
    tx_head_ = 0;
  } else if (tx_head_ >= 64 && tx_head_ >= tx_queue_.size() - tx_head_) {
    // Reclaim the consumed prefix once it dominates the queue.
    tx_queue_.erase(tx_queue_.begin(),
                    tx_queue_.begin() + static_cast<std::ptrdiff_t>(tx_head_));
    tx_head_ = 0;
  }

  snd_una_ = ack;

  // Release acked stream bytes (the FIN consumes a non-stream sequence slot).
  std::uint32_t data_end = ack;
  if (fin_sent_ && seq_gt(ack, fin_seq_)) data_end = fin_seq_;
  if (seq_gt(data_end, buf_seq_)) {
    std::size_t n = data_end - buf_seq_;
    n = std::min(n, send_buf_bytes());
    send_head_ += n;
    buf_seq_ += static_cast<std::uint32_t>(n);
  }

  if (in_fast_recovery_) {
    if (seq_ge(ack, recover_)) {
      cwnd_ = ssthresh_;  // full recovery
      in_fast_recovery_ = false;
      dupacks_ = 0;
    } else {
      // NewReno partial ACK: retransmit the next hole, deflate the window.
      retransmit_from(snd_una_, "partial-ack", false);
      cwnd_ = cwnd_ > newly_acked ? cwnd_ - newly_acked + cfg_.mss : cfg_.mss;
    }
  } else {
    dupacks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(newly_acked, cfg_.mss);  // slow start
    } else {
      cwnd_ += std::max<std::size_t>(1, cfg_.mss * cfg_.mss / cwnd_);  // CA
    }
  }
  trace_cwnd();

  // Our FIN acknowledged?
  if (fin_sent_ && seq_gt(snd_una_, fin_seq_)) {
    if (state_ == State::kFinWait1) become(State::kFinWait2);
    else if (state_ == State::kClosing) become(State::kTimeWait);
    else if (state_ == State::kLastAck) become(State::kClosed);
  }

  // New data acknowledged: exponential backoff ends (Linux resets
  // icsk_backoff here); the timer is re-armed from the smoothed estimate.
  if (have_rtt_sample_) {
    rto_ = std::clamp(srtt_ + rttvar_ * 4, cfg_.min_rto, cfg_.max_rto);
  } else {
    rto_ = cfg_.initial_rto;
  }
  if (snd_una_ == snd_nxt_) {
    cancel_rto();
  } else {
    arm_rto();
  }
  try_send();
  if (cbs_.on_writable) cbs_.on_writable();
}

void TcpConnection::enter_fast_retransmit() {
  const std::size_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max(flight / 2, 2 * cfg_.mss);
  recover_ = snd_nxt_;
  in_fast_recovery_ = true;
  retransmit_from(snd_una_, "fast-retransmit", false);
  cwnd_ = ssthresh_ + 3 * cfg_.mss;
  trace_cwnd();
}

void TcpConnection::handle_payload(const net::Packet& p) {
  const std::uint32_t rcv_before = rcv_nxt_;
  const bool had_fin = p.tcp.fin();
  std::uint32_t seq = p.tcp.seq;
  if (had_fin) {
    const std::uint32_t fin_at = seq + static_cast<std::uint32_t>(p.payload.size());
    if (!remote_fin_seq_) remote_fin_seq_ = fin_at;
  }

  if (!p.payload.empty()) {
    if (seq_gt(seq, rcv_nxt_)) {
      ++stats_.out_of_order_segments;
      const auto it = std::lower_bound(
          ooo_.begin(), ooo_.end(), seq,
          [](const OooSegment& s, std::uint32_t v) { return seq_lt(s.seq, v); });
      if (it == ooo_.end() || it->seq != seq) {  // the first copy of a start wins
        ooo_.insert(it, OooSegment{seq, p.payload});
      }
      ++stats_.dup_acks_sent;
    } else {
      const std::uint32_t end = seq + static_cast<std::uint32_t>(p.payload.size());
      if (seq_gt(end, rcv_nxt_)) {
        // Assemble the full newly-contiguous run (this segment's fresh bytes
        // plus any buffered out-of-order segments it unblocks) and advance
        // rcv_nxt_ over all of it BEFORE delivering to the application:
        // packets the application emits during delivery must carry the final
        // cumulative acknowledgment, exactly like a real stack that
        // processes the segment batch before the app runs.
        const std::size_t skip = rcv_nxt_ - seq;
        std::vector<std::uint8_t> ready = loop_.payload_pool().acquire();
        ready.assign(p.payload.begin() + static_cast<std::ptrdiff_t>(skip),
                     p.payload.end());
        rcv_nxt_ = end;
        collect_in_order(ready);
        stats_.bytes_received += ready.size();
        if (cbs_.on_data) cbs_.on_data(std::span(ready));
        loop_.payload_pool().release(std::move(ready));
      } else {
        ++stats_.dup_acks_sent;  // pure duplicate segment
      }
    }
  }

  // Process FIN once all preceding data has been consumed.
  if (remote_fin_seq_ && rcv_nxt_ == *remote_fin_seq_) {
    rcv_nxt_ += 1;
    remote_fin_seq_.reset();
    if (state_ == State::kEstablished) become(State::kCloseWait);
    else if (state_ == State::kFinWait1) become(State::kClosing);
    else if (state_ == State::kFinWait2) become(State::kTimeWait);
    if (cbs_.on_remote_close) cbs_.on_remote_close();
  }

  // Acknowledge. Out-of-order or duplicate segments must generate duplicate
  // ACKs (they drive the peer's fast retransmit). For in-order data, skip
  // the pure ACK when delivery already emitted a packet (e.g. an HTTP/2
  // WINDOW_UPDATE) carrying the same acknowledgment — a redundant pure ACK
  // here would look like a duplicate ACK to the peer and trigger spurious
  // fast retransmits.
  const bool advanced = rcv_nxt_ != rcv_before;
  if (!advanced || last_ack_sent_ != rcv_nxt_) send_ack();
}

void TcpConnection::collect_in_order(std::vector<std::uint8_t>& ready) {
  // In sequence order, each queued segment either lies wholly behind
  // rcv_nxt_ (a duplicate), extends the run, or starts past a hole, which
  // ends the walk; everything before the hole is consumed.
  auto it = ooo_.begin();
  for (; it != ooo_.end() && !seq_gt(it->seq, rcv_nxt_); ++it) {
    const std::uint32_t seg_end = it->seq + static_cast<std::uint32_t>(it->bytes.size());
    if (seq_gt(seg_end, rcv_nxt_)) {
      const std::size_t skip = rcv_nxt_ - it->seq;
      ready.insert(ready.end(), it->bytes.begin() + static_cast<std::ptrdiff_t>(skip),
                   it->bytes.end());
      rcv_nxt_ = seg_end;
    }
  }
  ooo_.erase(ooo_.begin(), it);
}

}  // namespace h2sim::tcp
