#ifndef AIM_NET_FRAME_H_
#define AIM_NET_FRAME_H_

#include <cstdint>
#include <vector>

#include "aim/common/binary_io.h"
#include "aim/common/status.h"
#include "aim/common/types.h"
#include "aim/net/node_channel.h"

namespace aim {
namespace net {

/// Length-prefixed frame protocol of the AIM cluster transport (see
/// docs/NETWORKING.md). Every message on a connection is one frame:
///
///   magic u32 | type u8 | flags u8 | reserved u16 | request_id u64 |
///   payload_size u32 | payload bytes
///
/// The 20-byte header and all payloads use the BinaryWriter/BinaryReader
/// little-endian wire format (enforced at build time in binary_io.h).
/// request_id matches a reply to its request; id 0 is reserved for
/// fire-and-forget frames that never get a reply (kFlagNoReply).

inline constexpr std::uint32_t kFrameMagic = 0x464D4941;  // "AIMF"
inline constexpr std::size_t kFrameHeaderSize = 20;
/// Upper bound on a payload: larger than any serialized query or partial
/// result by orders of magnitude; a header announcing more than this is
/// garbage and fails the connection instead of a giant allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;
inline constexpr std::uint32_t kProtocolVersion = 1;

enum class FrameType : std::uint8_t {
  kHello = 1,         // client -> server: protocol version
  kHelloReply = 2,    // server -> client: version + NodeInfo [+ features]
  kEvent = 3,         // 64-byte event wire format
  kEventReply = 4,    // status + fired rule ids
  kQuery = 5,         // serialized Query
  kQueryReply = 6,    // serialized PartialResult (empty = failed/shutdown)
  kRecordRequest = 7, // kind + entity + expected_version + row
  kRecordReply = 8,   // status + version + row
  kEventBatch = 9,    // count + count x 64-byte events (batched ingest)
};

/// kEvent flag: no reply wanted (fire-and-forget submission).
inline constexpr std::uint8_t kFlagNoReply = 1u << 0;

struct FrameHeader {
  FrameType type = FrameType::kHello;
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
};

/// Appends the 20-byte header for `header` to `out`.
void EncodeFrameHeader(const FrameHeader& header, BinaryWriter* out);

/// Parses a header from exactly kFrameHeaderSize bytes. Fails with
/// kInvalidArgument on a bad magic, unknown type, or oversized payload —
/// the caller must then drop the connection (framing is lost).
Status DecodeFrameHeader(const std::uint8_t* bytes, FrameHeader* header);

/// Builds one complete frame (header + payload) ready to write to a socket.
std::vector<std::uint8_t> BuildFrame(FrameType type, std::uint8_t flags,
                                     std::uint64_t request_id,
                                     const std::uint8_t* payload,
                                     std::size_t payload_size);

// --- payload codecs ---------------------------------------------------------
// Encode*/Decode* pairs for the payloads that are not already a serialized
// domain object (events, queries and partials ship their existing wire
// formats verbatim). Decoders return kInvalidArgument on malformed input
// (BinaryReader's sticky-error path).

void EncodeStatusPayload(const Status& status, BinaryWriter* out);
Status DecodeStatusPayload(BinaryReader* in, Status* status);

void EncodeHello(BinaryWriter* out);
Status DecodeHello(BinaryReader* in, std::uint32_t* version);

void EncodeHelloReply(const NodeChannel::NodeInfo& info, BinaryWriter* out);
Status DecodeHelloReply(BinaryReader* in, NodeChannel::NodeInfo* info);

void EncodeEventReply(const Status& status,
                      const std::vector<std::uint32_t>& fired_rules,
                      BinaryWriter* out);
Status DecodeEventReply(BinaryReader* in, Status* status,
                        std::vector<std::uint32_t>* fired_rules);

void EncodeRecordRequest(const RecordRequest& request, BinaryWriter* out);
/// Decodes everything but the reply callback (a transport artifact).
Status DecodeRecordRequest(BinaryReader* in, RecordRequest* request);

void EncodeRecordReply(const Status& status,
                       const std::vector<std::uint8_t>& row, Version version,
                       BinaryWriter* out);
Status DecodeRecordReply(BinaryReader* in, Status* status,
                         std::vector<std::uint8_t>* row, Version* version);

/// EVENT_BATCH payload: u32 count, then exactly count concatenated 64-byte
/// event payloads — each entry is byte-identical to a kEvent payload, so
/// batching never re-encodes events. Every TcpServer decodes it and
/// advertises NodeChannel::kFeatureEventBatch in its hello reply.
inline constexpr std::size_t kEventBatchEntrySize = 64;
/// Largest count a well-formed EVENT_BATCH payload can announce.
inline constexpr std::uint32_t kMaxEventBatchCount =
    (kMaxFramePayload - 4) / kEventBatchEntrySize;

void EncodeEventBatch(const std::vector<EventMessage>& batch,
                      BinaryWriter* out);
/// Splits a batch payload back into per-event byte vectors (cleared first;
/// each decoded vector is exactly kEventBatchEntrySize bytes). The count
/// must match the payload size exactly — any truncation or excess fails.
Status DecodeEventBatch(BinaryReader* in,
                        std::vector<std::vector<std::uint8_t>>* events);

}  // namespace net
}  // namespace aim

#endif  // AIM_NET_FRAME_H_
