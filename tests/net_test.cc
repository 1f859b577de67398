// Frame-protocol and TCP-transport tests: codec round trips (including the
// malformed-input paths through BinaryReader's sticky error), the loopback
// end-to-end path TcpClient -> TcpServer -> StorageNode, the routing of
// asynchronous replies that overtake each other on one connection, and the
// client's robustness contract — deadlines, disconnect handling and
// reconnect.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aim/common/annotated_mutex.h"
#include "aim/common/logging.h"
#include "aim/esp/event.h"
#include "aim/net/coalescing_writer.h"
#include "aim/net/frame.h"
#include "aim/net/frame_assembler.h"
#include "aim/net/socket.h"
#include "aim/net/tcp_client.h"
#include "aim/net/tcp_server.h"
#include "aim/rta/partial_result.h"
#include "aim/server/local_node_channel.h"
#include "aim/server/storage_node.h"
#include "aim/workload/benchmark_schema.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/dimension_data.h"
#include "aim/workload/query_workload.h"

namespace aim {
namespace {

using net::BuildFrame;
using net::DecodeFrameHeader;
using net::EncodeFrameHeader;
using net::FrameHeader;
using net::FrameType;
using net::kFrameHeaderSize;
using net::kFrameMagic;

// --- frame assembler --------------------------------------------------------
// The same class the TcpServer read loop and fuzz_frame_stream drive; these
// tests pin the split-tolerance and poison semantics the fuzzer relies on.

TEST(FrameAssemblerTest, ReassemblesFramesFromByteAtATimeDelivery) {
  const std::uint8_t p1[] = {1, 2, 3};
  std::vector<std::uint8_t> stream =
      BuildFrame(FrameType::kHello, 0, 7, p1, sizeof(p1));
  const std::vector<std::uint8_t> f2 =
      BuildFrame(FrameType::kQuery, net::kFlagNoReply, 8, nullptr, 0);
  stream.insert(stream.end(), f2.begin(), f2.end());

  net::FrameAssembler asm_;
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  std::vector<std::pair<FrameHeader, std::vector<std::uint8_t>>> got;
  for (std::uint8_t b : stream) {
    ASSERT_TRUE(asm_.Push(&b, 1).ok());
    while (asm_.Next(&header, &payload)) got.emplace_back(header, payload);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first.type, FrameType::kHello);
  EXPECT_EQ(got[0].first.request_id, 7u);
  EXPECT_EQ(got[0].second, std::vector<std::uint8_t>(p1, p1 + sizeof(p1)));
  EXPECT_EQ(got[1].first.type, FrameType::kQuery);
  EXPECT_EQ(got[1].first.flags, net::kFlagNoReply);
  EXPECT_TRUE(got[1].second.empty());
  EXPECT_EQ(asm_.buffered(), 0u);
  EXPECT_TRUE(asm_.ok());
}

TEST(FrameAssemblerTest, HeaderCorruptionPoisonsPermanently) {
  std::vector<std::uint8_t> stream =
      BuildFrame(FrameType::kHello, 0, 1, nullptr, 0);
  stream.resize(stream.size() + kFrameHeaderSize, 0xAB);  // bad magic next

  net::FrameAssembler asm_;
  ASSERT_TRUE(asm_.Push(stream.data(), stream.size()).ok());
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  // The valid frame ahead of the corruption still comes out; the corrupt
  // header then poisons — once framing is lost there is no trustworthy
  // boundary to resume from.
  ASSERT_TRUE(asm_.Next(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kHello);
  EXPECT_FALSE(asm_.Next(&header, &payload));
  EXPECT_FALSE(asm_.ok());
  EXPECT_TRUE(asm_.status().IsInvalidArgument());
  EXPECT_EQ(asm_.buffered(), 0u);  // buffer released on poison
  const std::uint8_t more = 0;
  EXPECT_FALSE(asm_.Push(&more, 1).ok());  // sticky: push is a no-op
  EXPECT_EQ(asm_.buffered(), 0u);
}

TEST(FrameAssemblerTest, OversizePayloadClaimRejectedWithoutBuffering) {
  // A header announcing > kMaxFramePayload must poison at the header, not
  // park the assembler waiting to buffer 64 MiB of attacker bytes.
  FrameHeader h;
  h.type = FrameType::kEvent;
  h.flags = 0;
  h.request_id = 1;
  h.payload_size = net::kMaxFramePayload + 1;
  BinaryWriter w;
  EncodeFrameHeader(h, &w);
  net::FrameAssembler asm_;
  ASSERT_TRUE(asm_.Push(w.buffer().data(), w.size()).ok());
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(asm_.Next(&header, &payload));
  EXPECT_FALSE(asm_.ok());
  EXPECT_TRUE(asm_.status().IsInvalidArgument());
  EXPECT_EQ(asm_.buffered(), 0u);  // nothing parked waiting for 64 MiB
  const std::uint8_t more = 0;
  EXPECT_FALSE(asm_.Push(&more, 1).ok());
}

TEST(FrameAssemblerTest, IncompleteFrameStaysParkedUntilPayloadArrives) {
  const std::uint8_t p[] = {9, 9, 9, 9};
  const std::vector<std::uint8_t> frame =
      BuildFrame(FrameType::kEventReply, 0, 3, p, sizeof(p));
  net::FrameAssembler asm_;
  ASSERT_TRUE(asm_.Push(frame.data(), frame.size() - 1).ok());
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(asm_.Next(&header, &payload));
  EXPECT_TRUE(asm_.ok());
  EXPECT_EQ(asm_.buffered(), frame.size() - 1);
  ASSERT_TRUE(asm_.Push(&frame.back(), 1).ok());
  ASSERT_TRUE(asm_.Next(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kEventReply);
  EXPECT_EQ(payload, std::vector<std::uint8_t>(p, p + sizeof(p)));
  EXPECT_EQ(asm_.buffered(), 0u);
}

// --- codecs -----------------------------------------------------------------

TEST(FrameCodecTest, HeaderRoundTrip) {
  FrameHeader in;
  in.type = FrameType::kRecordRequest;
  in.flags = net::kFlagNoReply;
  in.request_id = 0x1122334455667788ull;
  in.payload_size = 4096;
  BinaryWriter w;
  EncodeFrameHeader(in, &w);
  ASSERT_EQ(w.size(), kFrameHeaderSize);
  FrameHeader out;
  ASSERT_TRUE(DecodeFrameHeader(w.buffer().data(), &out).ok());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.flags, in.flags);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload_size, in.payload_size);
}

TEST(FrameCodecTest, HeaderWireLayoutIsLittleEndian) {
  // The wire format is pinned to little-endian (static_assert in
  // binary_io.h); the magic 0x464D4941 must serialize as "AIMF" bytes.
  FrameHeader h;
  h.type = FrameType::kEvent;
  h.request_id = 0x0102030405060708ull;
  h.payload_size = 0x64;
  BinaryWriter w;
  EncodeFrameHeader(h, &w);
  const std::uint8_t* b = w.buffer().data();
  EXPECT_EQ(b[0], 0x41);  // 'A'
  EXPECT_EQ(b[1], 0x49);  // 'I'
  EXPECT_EQ(b[2], 0x4D);  // 'M'
  EXPECT_EQ(b[3], 0x46);  // 'F'
  EXPECT_EQ(b[4], static_cast<std::uint8_t>(FrameType::kEvent));
  EXPECT_EQ(b[8], 0x08);  // request_id little-endian, low byte first
  EXPECT_EQ(b[15], 0x01);
  EXPECT_EQ(b[16], 0x64);  // payload_size low byte
}

TEST(FrameCodecTest, HeaderRejectsGarbage) {
  FrameHeader good;
  good.type = FrameType::kQuery;
  BinaryWriter w;
  EncodeFrameHeader(good, &w);
  FrameHeader out;

  std::vector<std::uint8_t> bad_magic(w.buffer());
  bad_magic[0] ^= 0xFF;
  EXPECT_TRUE(DecodeFrameHeader(bad_magic.data(), &out).IsInvalidArgument());

  std::vector<std::uint8_t> bad_type(w.buffer());
  bad_type[4] = 0;  // below kHello
  EXPECT_TRUE(DecodeFrameHeader(bad_type.data(), &out).IsInvalidArgument());
  bad_type[4] = 99;  // above kRecordReply
  EXPECT_TRUE(DecodeFrameHeader(bad_type.data(), &out).IsInvalidArgument());

  FrameHeader oversized;
  oversized.type = FrameType::kQuery;
  oversized.payload_size = net::kMaxFramePayload + 1;
  BinaryWriter w2;
  EncodeFrameHeader(oversized, &w2);
  EXPECT_TRUE(
      DecodeFrameHeader(w2.buffer().data(), &out).IsInvalidArgument());
}

TEST(FrameCodecTest, StatusPayloadRoundTripsEveryCode) {
  const Status codes[] = {
      Status::OK(),          Status::NotFound("a"),
      Status::Conflict("b"), Status::InvalidArgument("c"),
      Status::Capacity("d"), Status::Unsupported("e"),
      Status::Internal("f"), Status::TimedOut("g"),
      Status::Shutdown("h"), Status::DeadlineExceeded("i"),
  };
  for (const Status& in : codes) {
    BinaryWriter w;
    net::EncodeStatusPayload(in, &w);
    BinaryReader r(w.buffer());
    Status out;
    ASSERT_TRUE(net::DecodeStatusPayload(&r, &out).ok());
    EXPECT_EQ(out.code(), in.code());
    EXPECT_EQ(out.message(), in.message());
  }
}

TEST(FrameCodecTest, EventReplyRoundTripAndTruncation) {
  BinaryWriter w;
  net::EncodeEventReply(Status::OK(), {3, 7, 42}, &w);
  BinaryReader r(w.buffer());
  Status status;
  std::vector<std::uint32_t> fired;
  ASSERT_TRUE(net::DecodeEventReply(&r, &status, &fired).ok());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{3, 7, 42}));

  // Every truncation must fail through the sticky-error reader, never read
  // out of bounds or return partially parsed data as success.
  for (std::size_t len = 0; len < w.size(); ++len) {
    BinaryReader t(w.buffer().data(), len);
    EXPECT_FALSE(net::DecodeEventReply(&t, &status, &fired).ok())
        << "prefix " << len;
  }
}

TEST(FrameCodecTest, RecordRequestRoundTripAndGarbageSize) {
  RecordRequest in;
  in.kind = RecordRequest::Kind::kPut;
  in.entity = 12345;
  in.expected_version = 9;
  in.row = {1, 2, 3, 4, 5};
  BinaryWriter w;
  net::EncodeRecordRequest(in, &w);
  BinaryReader r(w.buffer());
  RecordRequest out;
  ASSERT_TRUE(net::DecodeRecordRequest(&r, &out).ok());
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.entity, in.entity);
  EXPECT_EQ(out.expected_version, in.expected_version);
  EXPECT_EQ(out.row, in.row);

  // A row size claiming more bytes than the payload holds must be rejected
  // (no giant resize, no out-of-bounds read).
  std::vector<std::uint8_t> corrupt(w.buffer());
  const std::uint32_t huge = 0x7FFFFFFF;
  std::memcpy(corrupt.data() + 17, &huge, sizeof(huge));
  BinaryReader cr(corrupt);
  EXPECT_TRUE(net::DecodeRecordRequest(&cr, &out).IsInvalidArgument());
}

TEST(FrameCodecTest, RecordReplyRoundTripAndTruncation) {
  BinaryWriter w;
  net::EncodeRecordReply(Status::Conflict("ver"), {9, 8, 7}, 17, &w);
  BinaryReader r(w.buffer());
  Status status;
  std::vector<std::uint8_t> row;
  Version version = 0;
  ASSERT_TRUE(net::DecodeRecordReply(&r, &status, &row, &version).ok());
  EXPECT_TRUE(status.IsConflict());
  EXPECT_EQ(version, 17u);
  EXPECT_EQ(row, (std::vector<std::uint8_t>{9, 8, 7}));
  for (std::size_t len = 0; len < w.size(); ++len) {
    BinaryReader t(w.buffer().data(), len);
    EXPECT_FALSE(net::DecodeRecordReply(&t, &status, &row, &version).ok())
        << "prefix " << len;
  }
}

TEST(FrameCodecTest, HelloReplyRejectsVersionSkew) {
  NodeChannel::NodeInfo info;
  info.node_id = 3;
  info.num_partitions = 4;
  info.record_size = 128;
  BinaryWriter w;
  net::EncodeHelloReply(info, &w);
  std::vector<std::uint8_t> skewed(w.buffer());
  skewed[0] += 1;  // bump the version field
  BinaryReader r(skewed);
  NodeChannel::NodeInfo out;
  EXPECT_TRUE(net::DecodeHelloReply(&r, &out).IsUnsupported());
}

TEST(FrameCodecTest, EventBatchRoundTripAndTruncation) {
  std::vector<EventMessage> batch;
  for (int i = 0; i < 3; ++i) {
    EventMessage msg;
    msg.bytes.assign(net::kEventBatchEntrySize,
                     static_cast<std::uint8_t>(i + 1));
    batch.push_back(std::move(msg));
  }
  BinaryWriter w;
  net::EncodeEventBatch(batch, &w);
  ASSERT_EQ(w.size(), 4 + 3 * net::kEventBatchEntrySize);
  BinaryReader r(w.buffer());
  std::vector<std::vector<std::uint8_t>> out;
  ASSERT_TRUE(net::DecodeEventBatch(&r, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], batch[i].bytes);

  // An empty batch is well-formed (count 0, no entries).
  BinaryWriter w0;
  net::EncodeEventBatch({}, &w0);
  BinaryReader r0(w0.buffer());
  ASSERT_TRUE(net::DecodeEventBatch(&r0, &out).ok());
  EXPECT_TRUE(out.empty());

  // Every truncation prefix must fail — the count has to match the payload
  // byte-exactly, so no prefix of a 3-event batch parses as a shorter one.
  for (std::size_t len = 0; len < w.size(); ++len) {
    BinaryReader t(w.buffer().data(), len);
    EXPECT_FALSE(net::DecodeEventBatch(&t, &out).ok()) << "prefix " << len;
  }
  // Trailing excess fails the same way.
  std::vector<std::uint8_t> extra(w.buffer());
  extra.push_back(0);
  BinaryReader re(extra);
  EXPECT_FALSE(net::DecodeEventBatch(&re, &out).ok());
  // A count lying far beyond the payload fails without a giant allocation.
  std::vector<std::uint8_t> lying(w.buffer());
  const std::uint32_t huge = 0x40000000;
  std::memcpy(lying.data(), &huge, sizeof(huge));
  BinaryReader rl(lying);
  EXPECT_FALSE(net::DecodeEventBatch(&rl, &out).ok());
}

TEST(FrameCodecTest, HelloReplyFeatureBitsAndOldPayloadCompat) {
  NodeChannel::NodeInfo info;
  info.node_id = 1;
  info.num_partitions = 2;
  info.record_size = 64;
  info.features = NodeChannel::kFeatureEventBatch;
  BinaryWriter w;
  net::EncodeHelloReply(info, &w);
  BinaryReader r(w.buffer());
  NodeChannel::NodeInfo out;
  ASSERT_TRUE(net::DecodeHelloReply(&r, &out).ok());
  EXPECT_EQ(out.features, NodeChannel::kFeatureEventBatch);

  // An old server's payload stops before the capability word; the decoder
  // must read that as "no optional capabilities", not as an error.
  BinaryReader old(w.buffer().data(), w.size() - 4);
  NodeChannel::NodeInfo from_old;
  ASSERT_TRUE(net::DecodeHelloReply(&old, &from_old).ok());
  EXPECT_EQ(from_old.features, 0u);
  EXPECT_EQ(from_old.record_size, 64u);
}

// --- coalescing writer ------------------------------------------------------

TEST(CoalescingWriterTest, QueuedFramesLeaveInOneWritev) {
  StatusOr<net::Socket> listener = net::TcpListen("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = *net::LocalPort(*listener);
  StatusOr<net::Socket> sender = net::TcpConnect("127.0.0.1", port, 2000);
  ASSERT_TRUE(sender.ok());
  StatusOr<net::Socket> peer = net::Accept(*listener, 2000);
  ASSERT_TRUE(peer.ok());

  net::CoalescingWriter writer;
  for (std::uint32_t i = 0; i < 10; ++i) {
    BinaryWriter payload;
    payload.PutU32(i);
    bool should_flush = false;
    ASSERT_TRUE(writer.Enqueue(
        BuildFrame(FrameType::kEvent, net::kFlagNoReply, 0,
                   payload.buffer().data(), payload.size()),
        &should_flush));
    // The first enqueue elects this thread; later frames see a flush in
    // flight and just queue behind it.
    EXPECT_EQ(should_flush, i == 0);
  }
  const std::uint64_t syscalls_before = net::SendFramesSyscalls();
  ASSERT_TRUE(writer.Flush(*sender, 2000).ok());
  // The whole backlog left in a single writev: that is the coalescing win.
  EXPECT_EQ(net::SendFramesSyscalls() - syscalls_before, 1u);

  // And the peer still sees ten intact frames, in order.
  for (std::uint32_t i = 0; i < 10; ++i) {
    std::uint8_t header_bytes[kFrameHeaderSize];
    ASSERT_TRUE(
        net::RecvAll(*peer, header_bytes, kFrameHeaderSize, 2000).ok());
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(header_bytes, &header).ok());
    ASSERT_EQ(header.type, FrameType::kEvent);
    ASSERT_EQ(header.payload_size, 4u);
    std::uint8_t payload[4];
    ASSERT_TRUE(net::RecvAll(*peer, payload, sizeof(payload), 2000).ok());
    std::uint32_t value = 0;
    std::memcpy(&value, payload, sizeof(value));
    EXPECT_EQ(value, i);
  }
}

// --- EventCompletion::WaitFor regression ------------------------------------

TEST(EventCompletionTest, WaitForTimesOutAndCompletes) {
  EventCompletion completion;
  // Nothing completes it: the bounded wait must return false, where Wait()
  // would hang forever (the bug this API fixes for remote peers).
  EXPECT_FALSE(completion.WaitFor(50));

  std::thread completer([&completion] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    completion.done.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(completion.WaitFor(5000));
  completer.join();
}

// --- loopback end-to-end ----------------------------------------------------

class NetLoopbackTest : public ::testing::Test {
 protected:
  NetLoopbackTest() : schema_(MakeCompactSchema()), dims_(MakeBenchmarkDims()) {}

  void StartNode(std::uint64_t entities = 200) {
    StorageNode::Options opts;
    opts.node_id = 0;
    opts.num_partitions = 2;
    opts.bucket_size = 64;
    opts.max_records_per_partition = 1 << 14;
    opts.scan_poll_micros = 200;
    opts.metrics = &metrics_;
    node_ = std::make_unique<StorageNode>(schema_.get(), &dims_.catalog,
                                          &rules_, opts);
    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    for (EntityId e = 1; e <= entities; ++e) {
      std::fill(row.begin(), row.end(), 0);
      PopulateEntityProfile(*schema_, dims_, e, entities, row.data());
      ASSERT_TRUE(node_->BulkLoad(e, row.data()).ok());
    }
    ASSERT_TRUE(node_->Start().ok());
    channel_ = std::make_unique<LocalNodeChannel>(node_.get());
  }

  void StartServer() {
    net::TcpServer::Options opts;
    opts.metrics = &metrics_;
    server_ = std::make_unique<net::TcpServer>(channel_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<net::TcpClient> MakeClient(
      std::uint16_t port, std::int64_t request_timeout_millis = 5000) {
    net::TcpClient::Options opts;
    opts.port = port;
    opts.request_timeout_millis = request_timeout_millis;
    opts.backoff_initial_millis = 5;
    opts.metrics = &metrics_;
    return std::make_unique<net::TcpClient>(opts);
  }

  std::vector<std::uint8_t> SerializedEvent(EntityId caller) {
    Event event;
    event.caller = caller;
    event.callee = caller + 1;
    event.timestamp = next_ts_ += 10;
    event.duration = 60;
    event.cost = 1.5f;
    event.data_mb = 0.0f;
    BinaryWriter w;
    event.Serialize(&w);
    return w.TakeBuffer();
  }

  /// Synchronous query through any channel; empty optional on rejection.
  std::vector<std::uint8_t> QueryBytes(NodeChannel* channel, const Query& q) {
    BinaryWriter w;
    q.Serialize(&w);
    std::atomic<bool> done{false};
    std::vector<std::uint8_t> result;
    EXPECT_TRUE(channel->SubmitQuery(
        w.TakeBuffer(), [&](std::vector<std::uint8_t>&& bytes) {
          result = std::move(bytes);
          done.store(true, std::memory_order_release);
        }));
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    return result;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (node_ != nullptr) node_->Stop();
  }

  std::unique_ptr<Schema> schema_;
  BenchmarkDims dims_;
  std::vector<Rule> rules_;
  MetricsRegistry metrics_;
  std::unique_ptr<StorageNode> node_;
  std::unique_ptr<LocalNodeChannel> channel_;
  std::unique_ptr<net::TcpServer> server_;
  Timestamp next_ts_ = 0;
};

TEST_F(NetLoopbackTest, HandshakeFillsNodeInfo) {
  StartNode();
  StartServer();
  auto client = MakeClient(server_->port());
  ASSERT_TRUE(client->Connect().ok());
  const NodeChannel::NodeInfo info = client->info();
  EXPECT_EQ(info.node_id, 0u);
  EXPECT_EQ(info.num_partitions, 2u);
  EXPECT_EQ(info.record_size, schema_->record_size());
  // Remote routing must agree with the node's own partition function.
  for (EntityId e = 1; e <= 50; ++e) {
    EXPECT_EQ(client->PartitionOf(e), node_->PartitionOf(e)) << e;
  }
  client->Close();
}

TEST_F(NetLoopbackTest, EventRoundTripsMatchInProcessResults) {
  StartNode();
  StartServer();
  auto client = MakeClient(server_->port());

  for (int i = 0; i < 100; ++i) {
    const EntityId caller = 1 + (i % 50);
    ASSERT_TRUE(client->EventRoundTrip(SerializedEvent(caller), nullptr).ok());
  }

  // The same query through the in-process channel and over TCP must settle
  // on identical serialized partials — the loopback deployment answers with
  // the exact same state.
  QueryWorkload workload(schema_.get(), &dims_, 99);
  const Query q = workload.Make(1);
  std::vector<std::uint8_t> local;
  std::vector<std::uint8_t> remote;
  for (int attempt = 0; attempt < 500; ++attempt) {
    local = QueryBytes(channel_.get(), q);
    remote = QueryBytes(client.get(), q);
    if (!local.empty() && local == remote) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(local.empty());
  EXPECT_EQ(local, remote);
  BinaryReader r(remote);
  EXPECT_TRUE(PartialResult::Deserialize(&r).ok());
  client->Close();
}

TEST_F(NetLoopbackTest, FireAndForgetEventsAreProcessed) {
  StartNode();
  StartServer();
  auto client = MakeClient(server_->port());
  ASSERT_TRUE(client->Connect().ok());
  constexpr std::uint64_t kEvents = 500;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(
        client->SubmitEvent(SerializedEvent(1 + (i % 100)), nullptr));
  }
  for (int attempt = 0; attempt < 2000; ++attempt) {
    if (node_->stats().events_processed >= kEvents) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(node_->stats().events_processed, kEvents);
  client->Close();
}

TEST_F(NetLoopbackTest, RecordGetPutRoundTrip) {
  StartNode();
  StartServer();
  auto client = MakeClient(server_->port());
  ASSERT_TRUE(client->Connect().ok());

  struct Result {
    std::atomic<bool> done{false};
    Status status;
    std::vector<std::uint8_t> row;
    Version version = 0;
  };
  auto roundtrip = [&](RecordRequest request, Result* out) {
    request.reply = [out](Status st, std::vector<std::uint8_t>&& row,
                          Version v) {
      out->status = std::move(st);
      out->row = std::move(row);
      out->version = v;
      out->done.store(true, std::memory_order_release);
    };
    ASSERT_TRUE(client->SubmitRecordRequest(std::move(request)));
    while (!out->done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };

  RecordRequest get;
  get.kind = RecordRequest::Kind::kGet;
  get.entity = 7;
  Result got;
  roundtrip(std::move(get), &got);
  ASSERT_TRUE(got.status.ok());
  ASSERT_EQ(got.row.size(), schema_->record_size());

  // Conditional put with the observed version succeeds; a stale version
  // must come back kConflict over the wire, not just in-process.
  RecordRequest put;
  put.kind = RecordRequest::Kind::kPut;
  put.entity = 7;
  put.row = got.row;
  put.expected_version = got.version;
  Result put_ok;
  roundtrip(std::move(put), &put_ok);
  EXPECT_TRUE(put_ok.status.ok());

  RecordRequest stale;
  stale.kind = RecordRequest::Kind::kPut;
  stale.entity = 7;
  stale.row = got.row;
  stale.expected_version = got.version;  // now one behind
  Result put_stale;
  roundtrip(std::move(stale), &put_stale);
  EXPECT_TRUE(put_stale.status.IsConflict());

  RecordRequest missing;
  missing.kind = RecordRequest::Kind::kGet;
  missing.entity = 999999;
  Result not_found;
  roundtrip(std::move(missing), &not_found);
  EXPECT_TRUE(not_found.status.IsNotFound());
  client->Close();
}

TEST_F(NetLoopbackTest, ServerDropsGarbageConnectionAndKeepsServing) {
  StartNode();
  StartServer();

  StatusOr<net::Socket> raw =
      net::TcpConnect("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(raw.ok());
  // Longer than one frame header, so the server's header read completes and
  // fails on the magic instead of waiting out its I/O deadline.
  const char garbage[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_TRUE(
      net::SendAll(*raw, garbage, sizeof(garbage) - 1, 1000).ok());
  // Framing is unrecoverable: the server must close this connection.
  std::uint8_t byte;
  EXPECT_FALSE(net::RecvAll(*raw, &byte, 1, 2000).ok());
  raw->Close();

  // A short frame (partial header, then close) must not wedge a handler.
  StatusOr<net::Socket> shorty =
      net::TcpConnect("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(shorty.ok());
  const std::uint8_t partial[] = {0x41, 0x49, 0x4D};
  ASSERT_TRUE(net::SendAll(*shorty, partial, sizeof(partial), 1000).ok());
  shorty->Close();

  // The server keeps serving well-formed clients afterwards.
  auto client = MakeClient(server_->port());
  EXPECT_TRUE(client->EventRoundTrip(SerializedEvent(3), nullptr).ok());
  client->Close();

  Counter* errors = metrics_.GetCounter(
      "aim_net_frame_errors_total",
      {{"role", "server"},
       {"addr", "127.0.0.1:" + std::to_string(server_->port())}});
  EXPECT_GE(errors->Value(), 1u);
}

// Minimal scripted peer: completes the hello handshake, then runs `script`
// on the connection (silence, close, etc.) — for exercising client deadline
// and disconnect paths no real server would take.
class FakeNode {
 public:
  explicit FakeNode(std::function<void(net::Socket&)> script)
      : script_(std::move(script)) {
    StatusOr<net::Socket> listener = net::TcpListen("127.0.0.1", 0, 4);
    AIM_CHECK(listener.ok());
    listener_ = std::move(listener).value();
    port_ = *net::LocalPort(listener_);
    thread_ = std::thread([this] { Run(); });
  }

  ~FakeNode() {
    listener_.ShutdownBoth();
    if (thread_.joinable()) thread_.join();
    listener_.Close();
  }

  std::uint16_t port() const { return port_; }

 private:
  void Run() {
    StatusOr<net::Socket> conn = net::Accept(listener_, 10'000);
    if (!conn.ok()) return;
    // Serve the hello so TcpClient::Connect succeeds.
    std::uint8_t header_bytes[kFrameHeaderSize];
    if (!net::RecvAll(*conn, header_bytes, kFrameHeaderSize, 5000).ok()) {
      return;
    }
    FrameHeader header;
    if (!DecodeFrameHeader(header_bytes, &header).ok()) return;
    std::vector<std::uint8_t> payload(header.payload_size);
    if (!payload.empty() &&
        !net::RecvAll(*conn, payload.data(), payload.size(), 5000).ok()) {
      return;
    }
    NodeChannel::NodeInfo info;
    info.num_partitions = 1;
    BinaryWriter reply;
    net::EncodeHelloReply(info, &reply);
    const std::vector<std::uint8_t> frame =
        BuildFrame(FrameType::kHelloReply, 0, header.request_id,
                   reply.buffer().data(), reply.size());
    if (!net::SendAll(*conn, frame.data(), frame.size(), 5000).ok()) return;
    script_(*conn);
  }

  std::function<void(net::Socket&)> script_;
  net::Socket listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST_F(NetLoopbackTest, ClientTimesOutWhenReplyNeverArrives) {
  std::atomic<bool> release{false};
  FakeNode fake([&release](net::Socket& conn) {
    // Swallow requests, never reply.
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  auto client = MakeClient(fake.port(), /*request_timeout_millis=*/200);
  ASSERT_TRUE(client->Connect().ok());

  EventCompletion completion;
  ASSERT_TRUE(client->SubmitEvent(SerializedEvent(1), &completion));
  // The deadline sweep must fail the completion; without it this would
  // hang forever on a lost reply.
  ASSERT_TRUE(completion.WaitFor(5000));
  EXPECT_TRUE(completion.status.IsDeadlineExceeded());

  Counter* timeouts = metrics_.GetCounter(
      "aim_net_timeouts_total",
      {{"role", "client"},
       {"peer", "127.0.0.1:" + std::to_string(fake.port())}});
  EXPECT_GE(timeouts->Value(), 1u);
  release.store(true, std::memory_order_release);
  client->Close();
}

TEST_F(NetLoopbackTest, ClientFailsOutstandingRequestsOnDisconnect) {
  FakeNode fake([](net::Socket& conn) {
    // Read one frame header's worth of the incoming request, then drop the
    // connection mid-request.
    std::uint8_t buf[kFrameHeaderSize];
    net::RecvAll(conn, buf, sizeof(buf), 5000);
    conn.ShutdownBoth();
  });
  auto client = MakeClient(fake.port(), /*request_timeout_millis=*/30'000);
  ASSERT_TRUE(client->Connect().ok());

  EventCompletion completion;
  ASSERT_TRUE(client->SubmitEvent(SerializedEvent(1), &completion));
  // Despite the huge request deadline the completion must fail promptly:
  // the receiver observes the disconnect and fails everything outstanding.
  ASSERT_TRUE(completion.WaitFor(10'000));
  EXPECT_TRUE(completion.status.IsDeadlineExceeded());
  client->Close();
}

TEST_F(NetLoopbackTest, ClientReconnectsAfterServerRestart) {
  StartNode();
  StartServer();
  const std::uint16_t port = server_->port();
  auto client = MakeClient(port);
  ASSERT_TRUE(client->EventRoundTrip(SerializedEvent(1), nullptr).ok());

  server_->Stop();
  server_.reset();
  // Submits while the peer is down fail fast (and arm the backoff).
  for (int i = 0; i < 3; ++i) {
    EventCompletion completion;
    if (client->SubmitEvent(SerializedEvent(1), &completion)) {
      ASSERT_TRUE(completion.WaitFor(5000));
      EXPECT_FALSE(completion.status.ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  net::TcpServer::Options opts;
  opts.port = port;  // same endpoint comes back
  opts.metrics = &metrics_;
  server_ = std::make_unique<net::TcpServer>(channel_.get(), opts);
  ASSERT_TRUE(server_->Start().ok());

  // The next submits reconnect lazily through the capped backoff.
  bool recovered = false;
  for (int attempt = 0; attempt < 500 && !recovered; ++attempt) {
    recovered = client->EventRoundTrip(SerializedEvent(1), nullptr).ok();
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered);

  Counter* reconnects = metrics_.GetCounter(
      "aim_net_reconnects_total",
      {{"role", "client"}, {"peer", "127.0.0.1:" + std::to_string(port)}});
  EXPECT_GE(reconnects->Value(), 1u);
  client->Close();
}

// --- batched ingest over the wire -------------------------------------------

TEST_F(NetLoopbackTest, FireAndForgetBatchLandsAsOneFrame) {
  StartNode();
  StartServer();
  auto client = MakeClient(server_->port());
  ASSERT_TRUE(client->Connect().ok());
  // The loopback server advertises the capability, so the client batches.
  ASSERT_NE(client->info().features & NodeChannel::kFeatureEventBatch, 0u);

  Counter* frames = metrics_.GetCounter(
      "aim_net_frames_received_total",
      {{"role", "server"},
       {"addr", "127.0.0.1:" + std::to_string(server_->port())}});
  const std::uint64_t frames_before = frames->Value();
  const std::uint64_t processed_before = node_->stats().events_processed;

  constexpr std::uint32_t kBatch = 32;
  std::vector<EventMessage> batch;
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    EventMessage msg;
    msg.bytes = SerializedEvent(1 + (i % 8));
    batch.push_back(std::move(msg));
  }
  ASSERT_EQ(client->SubmitEventBatch(std::move(batch)), kBatch);
  for (int attempt = 0; attempt < 2000; ++attempt) {
    if (node_->stats().events_processed >= processed_before + kBatch) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(node_->stats().events_processed, processed_before + kBatch);
  // All 32 events crossed the wire in exactly one EVENT_BATCH frame.
  EXPECT_EQ(frames->Value() - frames_before, 1u);
  client->Close();
}

TEST_F(NetLoopbackTest, MixedBatchesSinglesAndQueriesOnOneConnection) {
  StartNode();
  StartServer();
  auto client = MakeClient(server_->port());
  ASSERT_TRUE(client->Connect().ok());

  // EVENT_BATCH, plain EVENT (both reply-wanted and fire-and-forget) and
  // QUERY frames interleaved on one connection: framing must never skew.
  std::uint64_t sent = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<EventMessage> batch;
    for (int i = 0; i < 16; ++i) {
      EventMessage msg;
      msg.bytes = SerializedEvent(1 + (sent++ % 100));
      batch.push_back(std::move(msg));
    }
    EventCompletion last;
    batch.back().completion = &last;  // reply-wanted tail splits the batch
    ASSERT_EQ(client->SubmitEventBatch(std::move(batch)), 16u);
    ASSERT_TRUE(
        client->EventRoundTrip(SerializedEvent(1 + (sent++ % 100)), nullptr)
            .ok());
    ASSERT_TRUE(last.WaitFor(10'000)) << "round " << round;
    EXPECT_TRUE(last.status.ok()) << last.status.message();
  }
  for (int attempt = 0; attempt < 2000; ++attempt) {
    if (node_->stats().events_processed >= sent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(node_->stats().events_processed, sent);

  // After the mixed traffic, queries still answer identically to the
  // in-process channel.
  QueryWorkload workload(schema_.get(), &dims_, 7);
  const Query q = workload.Make(1);
  std::vector<std::uint8_t> local;
  std::vector<std::uint8_t> remote;
  for (int attempt = 0; attempt < 500; ++attempt) {
    local = QueryBytes(channel_.get(), q);
    remote = QueryBytes(client.get(), q);
    if (!local.empty() && local == remote) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(local.empty());
  EXPECT_EQ(local, remote);
  client->Close();
}

TEST_F(NetLoopbackTest, OldStylePerEventClientStillServed) {
  StartNode();
  StartServer();
  // Hand-rolled pre-batching client: raw hello, then one reply-wanted
  // kEvent. The upgraded server must serve it exactly as before.
  StatusOr<net::Socket> raw =
      net::TcpConnect("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(raw.ok());
  auto read_frame = [&](FrameHeader* header,
                        std::vector<std::uint8_t>* payload) {
    std::uint8_t hb[kFrameHeaderSize];
    ASSERT_TRUE(net::RecvAll(*raw, hb, kFrameHeaderSize, 5000).ok());
    ASSERT_TRUE(DecodeFrameHeader(hb, header).ok());
    payload->resize(header->payload_size);
    if (!payload->empty()) {
      ASSERT_TRUE(
          net::RecvAll(*raw, payload->data(), payload->size(), 5000).ok());
    }
  };

  BinaryWriter hello;
  net::EncodeHello(&hello);
  std::vector<std::uint8_t> frame = BuildFrame(
      FrameType::kHello, 0, 1, hello.buffer().data(), hello.size());
  ASSERT_TRUE(net::SendAll(*raw, frame.data(), frame.size(), 2000).ok());
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  read_frame(&header, &payload);
  ASSERT_EQ(header.type, FrameType::kHelloReply);
  // An old client reads only the version-1 fields and stops; the capability
  // word is strictly appended, so nothing it reads moved.
  BinaryReader r(payload.data(), payload.size());
  EXPECT_EQ(r.GetU32(), net::kProtocolVersion);
  EXPECT_EQ(r.GetU32(), 0u);  // node_id
  EXPECT_EQ(r.GetU32(), 2u);  // num_partitions
  EXPECT_EQ(r.GetU32(), schema_->record_size());
  ASSERT_TRUE(r.ok());

  const std::vector<std::uint8_t> event = SerializedEvent(5);
  frame = BuildFrame(FrameType::kEvent, 0, 2, event.data(), event.size());
  ASSERT_TRUE(net::SendAll(*raw, frame.data(), frame.size(), 2000).ok());
  read_frame(&header, &payload);
  ASSERT_EQ(header.type, FrameType::kEventReply);
  EXPECT_EQ(header.request_id, 2u);
  BinaryReader er(payload.data(), payload.size());
  Status status;
  std::vector<std::uint32_t> fired;
  ASSERT_TRUE(net::DecodeEventReply(&er, &status, &fired).ok());
  EXPECT_TRUE(status.ok()) << status.message();
  raw->Close();
}

// --- asynchronous reply routing ---------------------------------------------
// Event replies are written by whichever thread completes the last event of
// a frame, so replies on one connection may overtake each other. These tests
// hold events back in a scripted node and check that nothing queues behind
// them and that every reply reaches its own request.

std::vector<std::uint8_t> EventBytes(EntityId caller) {
  Event event;
  event.caller = caller;
  event.callee = caller + 1;
  BinaryWriter w;
  event.Serialize(&w);
  return w.TakeBuffer();
}

/// Scripted node. Accepted events are held until Release(), which completes
/// them on the calling thread through EventCompletion::Complete with
/// fired_rules = {caller}; or, with complete_inline, they are completed
/// inside Submit* by storing `done` directly (no Complete). Queries are
/// answered at once with their own bytes unless hold_queries, then they
/// wait for Release() too. SubmitEventBatch accepts at most accept_limit
/// events.
class ScriptedChannel : public NodeChannel {
 public:
  NodeInfo info() const override {
    NodeInfo i;
    i.num_partitions = 1;
    return i;
  }

  bool SubmitEvent(std::vector<std::uint8_t> bytes,
                   EventCompletion* completion) override {
    std::vector<EventMessage> one(1);
    one[0].bytes = std::move(bytes);
    one[0].completion = completion;
    return SubmitEventBatch(std::move(one)) == 1;
  }

  std::size_t SubmitEventBatch(std::vector<EventMessage>&& batch) override {
    MutexLock lock(mu_);
    const std::size_t n = std::min(batch.size(), accept_limit.load());
    for (std::size_t i = 0; i < n; ++i) {
      if (complete_inline) {
        Fill(batch[i]);
        if (batch[i].completion != nullptr) {
          batch[i].completion->done.store(true, std::memory_order_release);
        }
      } else {
        held_events_.push_back(std::move(batch[i]));
      }
    }
    return n;
  }

  bool SubmitQuery(
      std::vector<std::uint8_t> bytes,
      std::function<void(std::vector<std::uint8_t>&&)> reply) override {
    {
      MutexLock lock(mu_);
      if (hold_queries) {
        held_queries_.emplace_back(std::move(bytes), std::move(reply));
        return true;
      }
    }
    reply(std::move(bytes));
    return true;
  }

  bool SubmitRecordRequest(RecordRequest) override { return false; }

  std::size_t held() const {
    MutexLock lock(mu_);
    return held_events_.size() + held_queries_.size();
  }

  /// Waits (bounded) until `n` events and queries are held.
  bool AwaitHeld(std::size_t n) const {
    for (int i = 0; i < 5000 && held() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return held() == n;
  }

  void Release() {
    std::vector<EventMessage> events;
    std::vector<std::pair<std::vector<std::uint8_t>,
                          std::function<void(std::vector<std::uint8_t>&&)>>>
        queries;
    {
      MutexLock lock(mu_);
      events.swap(held_events_);
      queries.swap(held_queries_);
    }
    for (EventMessage& msg : events) {
      Fill(msg);
      if (msg.completion != nullptr) msg.completion->Complete();
    }
    for (auto& [bytes, reply] : queries) reply(std::move(bytes));
  }

  std::atomic<std::size_t> accept_limit{
      std::numeric_limits<std::size_t>::max()};
  bool complete_inline = false;
  bool hold_queries = false;

 private:
  static void Fill(EventMessage& msg) {
    if (msg.completion == nullptr) return;
    BinaryReader r(msg.bytes);
    msg.completion->status = Status::OK();
    msg.completion->fired_rules = {
        static_cast<std::uint32_t>(Event::Deserialize(&r).caller)};
  }

  mutable Mutex mu_;
  std::vector<EventMessage> held_events_ AIM_GUARDED_BY(mu_);
  std::vector<std::pair<std::vector<std::uint8_t>,
                        std::function<void(std::vector<std::uint8_t>&&)>>>
      held_queries_ AIM_GUARDED_BY(mu_);
};

/// Raw protocol peer: hello handshake, then hand-built frames.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    StatusOr<net::Socket> sock = net::TcpConnect("127.0.0.1", port, 2000);
    AIM_CHECK(sock.ok());
    sock_ = std::move(sock).value();
    BinaryWriter hello;
    net::EncodeHello(&hello);
    Send(FrameType::kHello, 0, 1, hello);
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    AIM_CHECK(Read(&header, &payload));
    AIM_CHECK(header.type == FrameType::kHelloReply);
  }

  bool Send(FrameType type, std::uint8_t flags, std::uint64_t request_id,
            const BinaryWriter& payload) {
    const std::vector<std::uint8_t> frame =
        BuildFrame(type, flags, request_id, payload.buffer().data(),
                   payload.size());
    return net::SendAll(sock_, frame.data(), frame.size(), 2000).ok();
  }

  bool SendEventBatch(std::uint64_t request_id,
                      const std::vector<EntityId>& callers) {
    std::vector<EventMessage> batch(callers.size());
    for (std::size_t i = 0; i < callers.size(); ++i) {
      batch[i].bytes = EventBytes(callers[i]);
    }
    BinaryWriter payload;
    net::EncodeEventBatch(batch, &payload);
    return Send(FrameType::kEventBatch, 0, request_id, payload);
  }

  bool Read(FrameHeader* header, std::vector<std::uint8_t>* payload) {
    std::uint8_t hb[kFrameHeaderSize];
    if (!net::RecvAll(sock_, hb, kFrameHeaderSize, 5000).ok()) return false;
    if (!DecodeFrameHeader(hb, header).ok()) return false;
    payload->resize(header->payload_size);
    return payload->empty() ||
           net::RecvAll(sock_, payload->data(), payload->size(), 5000).ok();
  }

  /// Reads the next frame, which must be a kEventReply for `request_id`.
  Status ReadEventReply(std::uint64_t request_id,
                        std::vector<std::uint32_t>* fired) {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    if (!Read(&header, &payload)) return Status::Internal("no frame");
    EXPECT_EQ(header.type, FrameType::kEventReply);
    EXPECT_EQ(header.request_id, request_id);
    BinaryReader in(payload);
    Status status;
    EXPECT_TRUE(net::DecodeEventReply(&in, &status, fired).ok());
    return status;
  }

 private:
  net::Socket sock_;
};

TEST(NetReplyRoutingTest, QueryOvertakesHeldEventsOnOneClientConnection) {
  ScriptedChannel node;
  net::TcpServer server(&node, net::TcpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  net::TcpClient::Options copts;
  copts.port = server.port();
  net::TcpClient client(copts);
  ASSERT_TRUE(client.Connect().ok());

  // Reply-wanted events, each on its own kEvent frame, all held by the node.
  constexpr std::size_t kEvents = 4;
  EventCompletion completions[kEvents];
  std::vector<EventMessage> batch(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    batch[i].bytes = EventBytes(100 + i);
    batch[i].completion = &completions[i];
  }
  ASSERT_EQ(client.SubmitEventBatch(std::move(batch)), kEvents);
  ASSERT_TRUE(node.AwaitHeld(kEvents));

  // The query behind them on the same connection is answered at once.
  std::atomic<bool> answered{false};
  std::vector<std::uint8_t> answer;
  ASSERT_TRUE(client.SubmitQuery({1, 2, 3},
                                 [&](std::vector<std::uint8_t>&& bytes) {
                                   answer = std::move(bytes);
                                   answered.store(true,
                                                  std::memory_order_release);
                                 }));
  for (int i = 0; i < 5000 && !answered.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(answered.load(std::memory_order_acquire));
  EXPECT_EQ(answer, (std::vector<std::uint8_t>{1, 2, 3}));
  for (const EventCompletion& c : completions) EXPECT_FALSE(c.done.load());

  // Released, each event reply reaches its own completion.
  node.Release();
  for (std::size_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(completions[i].WaitFor(5000)) << i;
    EXPECT_TRUE(completions[i].status.ok()) << completions[i].status.message();
    EXPECT_EQ(completions[i].fired_rules,
              (std::vector<std::uint32_t>{static_cast<std::uint32_t>(100 + i)}));
  }
  client.Close();
}

TEST(NetReplyRoutingTest, QueryReplyPrecedesHeldEventBatchReply) {
  ScriptedChannel node;
  net::TcpServer server(&node, net::TcpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn(server.port());

  ASSERT_TRUE(conn.SendEventBatch(/*request_id=*/2, {7, 8, 9}));
  ASSERT_TRUE(node.AwaitHeld(3));
  BinaryWriter query;
  query.PutU32(42);
  ASSERT_TRUE(conn.Send(FrameType::kQuery, 0, /*request_id=*/3, query));

  FrameHeader header;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(conn.Read(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kQueryReply);
  EXPECT_EQ(header.request_id, 3u);
  EXPECT_EQ(payload, query.buffer());

  node.Release();
  std::vector<std::uint32_t> fired;
  EXPECT_TRUE(conn.ReadEventReply(2, &fired).ok());
  EXPECT_TRUE(fired.empty());  // batch replies carry no fired rules
}

TEST(NetReplyRoutingTest, PartlyAcceptedBatchGetsOneShutdownReply) {
  ScriptedChannel node;
  node.accept_limit = 2;
  net::TcpServer server(&node, net::TcpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn(server.port());

  ASSERT_TRUE(conn.SendEventBatch(/*request_id=*/5, {1, 2, 3, 4}));
  ASSERT_TRUE(node.AwaitHeld(2));
  node.Release();
  std::vector<std::uint32_t> fired;
  EXPECT_TRUE(conn.ReadEventReply(5, &fired).IsShutdown());

  // Exactly one reply: the next frame on the connection answers the next
  // request.
  ASSERT_TRUE(conn.Send(FrameType::kQuery, 0, /*request_id=*/6,
                        BinaryWriter()));
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(conn.Read(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kQueryReply);
  EXPECT_EQ(header.request_id, 6u);

  // Nothing accepted at all: the reply goes out from the handler.
  node.accept_limit = 0;
  ASSERT_TRUE(conn.SendEventBatch(/*request_id=*/7, {1, 2}));
  EXPECT_TRUE(conn.ReadEventReply(7, &fired).IsShutdown());
}

TEST(NetReplyRoutingTest, PerEventReplyCarriesFiredRules) {
  ScriptedChannel node;
  net::TcpServer server(&node, net::TcpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  net::TcpClient::Options copts;
  copts.port = server.port();
  net::TcpClient client(copts);

  EventCompletion completion;
  ASSERT_TRUE(client.SubmitEvent(EventBytes(77), &completion));
  ASSERT_TRUE(node.AwaitHeld(1));
  node.Release();
  ASSERT_TRUE(completion.WaitFor(5000));
  EXPECT_TRUE(completion.status.ok());
  EXPECT_EQ(completion.fired_rules, (std::vector<std::uint32_t>{77}));
  client.Close();
}

TEST(NetReplyRoutingTest, CompletionsDoneInsideSubmitAreStillReplied) {
  // A channel may store `done` inside Submit* without Complete(); the server
  // must reply to those events anyway.
  ScriptedChannel node;
  node.complete_inline = true;
  net::TcpServer server(&node, net::TcpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  net::TcpClient::Options copts;
  copts.port = server.port();
  net::TcpClient client(copts);

  std::vector<std::uint32_t> fired;
  ASSERT_TRUE(client.EventRoundTrip(EventBytes(5), &fired).ok());
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{5}));

  RawConnection conn(server.port());
  ASSERT_TRUE(conn.SendEventBatch(/*request_id=*/9, {1, 2, 3}));
  EXPECT_TRUE(conn.ReadEventReply(9, &fired).ok());
  client.Close();
}

TEST(NetReplyRoutingTest, ServerDestroyedBeforeNodeDrains) {
  // Reply closures must hold only per-connection state: the server (and
  // its private metrics registry) is gone by the time the node completes.
  ScriptedChannel node;
  node.hold_queries = true;
  auto server =
      std::make_unique<net::TcpServer>(&node, net::TcpServer::Options());
  ASSERT_TRUE(server->Start().ok());
  net::TcpClient::Options copts;
  copts.port = server->port();
  net::TcpClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  RawConnection conn(server->port());

  EventCompletion completion;
  ASSERT_TRUE(client.SubmitEvent(EventBytes(1), &completion));
  std::atomic<bool> answered{false};
  ASSERT_TRUE(client.SubmitQuery({4}, [&](std::vector<std::uint8_t>&&) {
    answered.store(true, std::memory_order_release);
  }));
  ASSERT_TRUE(conn.SendEventBatch(/*request_id=*/2, {1, 2}));
  ASSERT_TRUE(node.AwaitHeld(4));

  server.reset();
  node.Release();

  // The client saw the connection drop and failed both requests itself.
  ASSERT_TRUE(completion.WaitFor(5000));
  EXPECT_FALSE(completion.status.ok());
  for (int i = 0; i < 5000 && !answered.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(answered.load(std::memory_order_acquire));
  client.Close();
}

TEST_F(NetLoopbackTest, SubmitAfterCloseFails) {
  StartNode();
  StartServer();
  auto client = MakeClient(server_->port());
  ASSERT_TRUE(client->Connect().ok());
  client->Close();
  EventCompletion completion;
  EXPECT_FALSE(client->SubmitEvent(SerializedEvent(1), &completion));
  EXPECT_FALSE(client->SubmitQuery({1, 2, 3}, [](auto&&) {}));
}

}  // namespace
}  // namespace aim
