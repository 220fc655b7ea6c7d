#ifndef DELUGE_NET_FRAME_H_
#define DELUGE_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/message.h"

namespace deluge::net {

/// Real-socket wire framing for `net::Message` (DESIGN.md §12).
///
/// A frame is a little-endian length prefix followed by a fixed header
/// and the payload bytes:
///
///   u32 length      bytes after this field (== 20 + payload size)
///   u32 from        sender node id (cluster-global)
///   u32 to          destination node id
///   u32 type        application message type
///   u64 size+qos    bits 0..55: modelled size (0 = payload + overhead,
///                   so bandwidth accounting matches the simulator's);
///                   bits 56..63: QoS wire tag (`QosWireTag`).  Legacy
///                   encoders wrote sizes < 2^56 with zero top bits, so
///                   their frames decode with qos = kBulk unchanged.
///   ...payload      `length - 20` opaque bytes
///
/// The payload is the same zero-copy `common::Buffer` encoding the sim
/// path carries; the encoder never copies it (senders gather-write the
/// header and the buffer with one sendmsg).

/// Encoded header size, including the length prefix.
inline constexpr size_t kFrameHeaderBytes = 24;

/// The frame header must fit inside the per-message overhead the
/// simulator charges, so a byte budgeted by sim bandwidth accounting
/// covers the real header too (the remainder models L2-L4 framing).
static_assert(kFrameHeaderBytes <= kFrameOverheadBytes,
              "frame header outgrew the shared overhead constant");

/// Frames whose declared payload exceeds this are rejected before any
/// payload allocation (a corrupt or hostile length prefix cannot make
/// the decoder balloon).
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Writes the frame header for `msg` into `out[kFrameHeaderBytes]`.
void EncodeFrameHeader(const Message& msg, char* out);

/// Header + payload as one contiguous string (tests and small frames;
/// the hot path uses EncodeFrameHeader + a gather write instead).
std::string EncodeFrame(const Message& msg);

/// Incremental frame parser for one byte stream (one per connection).
///
/// Feed whatever chunk the socket produced — frames split across reads,
/// multiple frames per read, and torn length prefixes all reassemble.
/// Malformed input (oversized or impossible length) poisons the decoder:
/// the error returns now and on every later Feed, and the connection
/// should be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Consumes `n` bytes, appending every completed message to `out`.
  Status Feed(const char* data, size_t n, std::vector<Message>* out);

  /// Bytes held for a frame still incomplete.
  size_t buffered() const { return pending_.size(); }
  /// Messages decoded over the decoder's lifetime.
  uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  size_t max_frame_bytes_;
  std::string pending_;
  uint64_t frames_decoded_ = 0;
  Status status_;  // sticky error
};

}  // namespace deluge::net

#endif  // DELUGE_NET_FRAME_H_
