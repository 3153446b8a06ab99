#include "tls/record.hpp"

#include <algorithm>

namespace h2sim::tls {

std::vector<std::uint8_t> serialize_record(const RecordHeader& h,
                                           std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(kRecordHeaderBytes + body.size());
  out.push_back(static_cast<std::uint8_t>(h.type));
  out.push_back(static_cast<std::uint8_t>(h.version >> 8));
  out.push_back(static_cast<std::uint8_t>(h.version & 0xff));
  const auto len = static_cast<std::uint16_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

namespace {

RecordHeader parse_header(const std::uint8_t* p) {
  RecordHeader h;
  h.type = static_cast<ContentType>(p[0]);
  h.version = static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[1]) << 8 | p[2]);
  h.length = static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[3]) << 8 | p[4]);
  return h;
}

}  // namespace

void RecordParser::feed(std::span<const std::uint8_t> bytes) {
  partial_.consume(partial_done_);
  partial_done_ = 0;
  if (in_.empty()) {
    in_ = bytes;
    return;
  }
  // Fed again before next() ran dry: keep everything, in stream order, in
  // the queue, so no earlier input has to outlive this call.
  partial_.append(in_);
  partial_.append(bytes);
  in_ = {};
}

std::optional<RecordView> RecordParser::next() {
  partial_.consume(partial_done_);
  partial_done_ = 0;
  if (!partial_.empty()) {
    // A record split across feeds: complete it from the new bytes.
    if (partial_.size() < kRecordHeaderBytes) {
      const std::size_t take =
          std::min(kRecordHeaderBytes - partial_.size(), in_.size());
      partial_.append(in_.first(take));
      in_ = in_.subspan(take);
      if (partial_.size() < kRecordHeaderBytes) return std::nullopt;
    }
    const RecordHeader h = parse_header(partial_.view().data());
    const std::size_t total = kRecordHeaderBytes + h.length;
    if (partial_.size() < total) {
      const std::size_t take = std::min(total - partial_.size(), in_.size());
      partial_.append(in_.first(take));
      in_ = in_.subspan(take);
      if (partial_.size() < total) return std::nullopt;
    }
    partial_done_ = total;
    return RecordView{h, partial_.view().subspan(kRecordHeaderBytes, h.length)};
  }
  if (in_.size() >= kRecordHeaderBytes) {
    const RecordHeader h = parse_header(in_.data());
    const std::size_t total = kRecordHeaderBytes + h.length;
    if (in_.size() >= total) {
      const RecordView r{h, in_.subspan(kRecordHeaderBytes, h.length)};
      in_ = in_.subspan(total);
      return r;
    }
  }
  partial_.append(in_);  // a trailing partial record waits for its rest
  in_ = {};
  return std::nullopt;
}

std::optional<RecordHeader> RecordHeaderFramer::next(
    std::span<const std::uint8_t>& bytes) {
  if (header_have_ < kRecordHeaderBytes) {
    if (header_have_ == 0 && bytes.size() >= kRecordHeaderBytes) {
      // The usual case, a whole header in one feed: a fixed-size copy.
      std::copy_n(bytes.data(), kRecordHeaderBytes, header_.data());
      header_have_ = kRecordHeaderBytes;
      bytes = bytes.subspan(kRecordHeaderBytes);
    }
    while (header_have_ < kRecordHeaderBytes && !bytes.empty()) {
      header_[header_have_++] = bytes.front();
      bytes = bytes.subspan(1);
    }
    if (header_have_ < kRecordHeaderBytes) return std::nullopt;
    body_left_ = parse_header(header_.data()).length;
  }
  const std::size_t take = std::min(body_left_, bytes.size());
  body_left_ -= take;
  bytes = bytes.subspan(take);
  if (body_left_ > 0) return std::nullopt;  // `bytes` ran out first
  header_have_ = 0;
  return parse_header(header_.data());
}

}  // namespace h2sim::tls
