#include "attack/monitor.hpp"

#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "tcp/tcp_types.hpp"

namespace h2sim::attack {

void TrafficMonitor::observe(const net::Packet& p, net::Direction dir,
                             sim::TimePoint now) {
  obs::ProfileScope prof(obs::Component::kAttack);
  // Connection key: the client's (address, ephemeral port) pair identifies
  // the flow in both directions — port alone is ambiguous on a shared
  // gateway, where independent client stacks draw from colliding ephemeral
  // ranges.
  const std::uint64_t key =
      dir == net::Direction::kClientToServer
          ? (static_cast<std::uint64_t>(p.src) << 16) | p.tcp.src_port
          : (static_cast<std::uint64_t>(p.dst) << 16) | p.tcp.dst_port;
  StreamState& st = dir == net::Direction::kClientToServer ? c2s_[key] : s2c_[key];

  if (p.tcp.syn()) {
    st.synced = true;
    st.next_seq = p.tcp.seq + 1;
    st.ooo.clear();
    return;
  }
  if (!st.synced || p.payload.empty()) return;

  // Retransmission classification: payload starting at or below the stream
  // head was already seen.
  if (dir == net::Direction::kClientToServer &&
      tcp::seq_lt(p.tcp.seq, st.next_seq)) {
    last_c2s_retrans_packet_id_ = p.id;
  }

  // Live request classification for the controller: does this packet begin
  // a fresh application-data record big enough to carry a GET? Only
  // decidable when the packet lands exactly at the reassembled stream head.
  if (dir == net::Direction::kClientToServer && p.tcp.seq == st.next_seq &&
      st.framer.at_record_boundary() && p.payload.size() >= 5 &&
      p.payload[0] == static_cast<std::uint8_t>(tls::ContentType::kApplicationData)) {
    const std::size_t rec_len =
        static_cast<std::size_t>(p.payload[3]) << 8 | p.payload[4];
    if (rec_len >= cfg_.get_min_record_body) last_request_packet_id_ = p.id;
  }

  feed(st, p, dir, now);
}

void TrafficMonitor::feed(StreamState& st, const net::Packet& p,
                          net::Direction dir, sim::TimePoint now) {
  using tcp::seq_gt;
  using tcp::seq_le;

  const std::uint32_t seq = p.tcp.seq;
  const std::uint32_t end = seq + static_cast<std::uint32_t>(p.payload.size());

  if (seq_le(end, st.next_seq)) return;  // pure duplicate (retransmission)

  if (seq_gt(seq, st.next_seq)) {
    st.ooo.emplace(seq, p.payload);
    return;
  }

  // In-order (possibly overlapping): frame the fresh suffix.
  const std::size_t skip = st.next_seq - seq;
  st.next_seq = end;
  frame(st, std::span(p.payload).subspan(skip), dir, now);

  // Drain any now-contiguous buffered segments.
  for (auto it = st.ooo.begin(); it != st.ooo.end();) {
    const std::uint32_t sseq = it->first;
    const auto& bytes = it->second;
    const std::uint32_t send = sseq + static_cast<std::uint32_t>(bytes.size());
    if (seq_le(send, st.next_seq)) {
      it = st.ooo.erase(it);
      continue;
    }
    if (seq_gt(sseq, st.next_seq)) break;
    const std::size_t skip2 = st.next_seq - sseq;
    st.next_seq = send;
    frame(st, std::span(bytes).subspan(skip2), dir, now);
    it = st.ooo.erase(it);
    it = st.ooo.begin();
  }
}

void TrafficMonitor::frame(StreamState& st, std::span<const std::uint8_t> bytes,
                           net::Direction dir, sim::TimePoint now) {
  while (const auto record = st.framer.next(bytes)) {
    const tls::RecordHeader& header = *record;
    analysis::RecordObs obs;
    obs.time = now;
    obs.dir = dir;
    obs.type = header.type;
    obs.body_len = header.length;
    trace_.add(obs);
    metrics_.records_observed.inc();

    if (dir == net::Direction::kClientToServer &&
        header.type == tls::ContentType::kApplicationData &&
        header.length >= cfg_.get_min_record_body) {
      ++get_count_;
      metrics_.gets_counted.inc();
      auto& tr = obs::tracer();
      if (tr.enabled(obs::Component::kAttack)) {
        tr.instant(obs::Component::kAttack, "get-seen", now,
                   obs::track::kAdversary, 0,
                   obs::TraceArgs()
                       .add("index", get_count_)
                       .add("record_len", header.length)
                       .take());
      }
      if (on_get) on_get(get_count_, now);
    }
  }
}

}  // namespace h2sim::attack
