#include "aim/net/tcp_server.h"

#include <chrono>
#include <utility>

#include "aim/common/logging.h"
#include "aim/common/thread_name.h"
#include "aim/esp/event.h"
#include "aim/net/coalescing_writer.h"
#include "aim/net/frame_assembler.h"

namespace aim {
namespace net {

namespace {
/// How often blocked accept/read loops wake up to notice Stop().
constexpr std::int64_t kStopPollMillis = 100;

/// Receive chunk: big enough that a full event batch rarely takes more
/// than a few reads, small enough to live on the handler stack.
constexpr std::size_t kRecvChunk = 64 * 1024;

std::int64_t MonoMillis() {
  using namespace std::chrono;
  return duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

/// The socket lives here so a reply arriving after the handler thread
/// exited still refers to a reserved (if shut down) fd, never a recycled
/// one. Reply closures hold only this state, never the server.
struct TcpServer::ConnectionState {
  /// Serializes one frame and queues it on the coalescing writer, flushing
  /// when elected. Any write failure marks the connection closed.
  void WriteFrame(FrameType type, std::uint64_t request_id,
                  const BinaryWriter& payload);

  Socket sock;
  /// Reply frames from the handler and the node's service threads are
  /// coalesced per connection: whoever is elected flusher gather-writes
  /// everything queued meanwhile with one writev.
  CoalescingWriter writer;
  std::int64_t io_timeout_millis = 0;
  /// The server's private registry, if it has one: the writer's metrics
  /// live there.
  std::shared_ptr<MetricsRegistry> own_metrics;
  std::atomic<bool> open{true};
  std::atomic<bool> done{false};  // handler thread exited
};

/// Owns the completions of one reply-wanted frame's events plus one
/// reference per completion and one for the submitting handler. Each
/// completion's hook drops its reference; whoever drops the last one — the
/// ESP thread completing the last event, or the handler if every event
/// completed or was refused before Submit* returned — writes the frame's
/// single kEventReply and frees the ticket.
struct TcpServer::EventReplyTicket {
  EventReplyTicket(std::shared_ptr<ConnectionState> conn, std::uint64_t id,
                   bool single_event, std::size_t events)
      : state(std::move(conn)),
        request_id(id),
        per_event(single_event),
        completions(events),
        refs(events + 1) {
    for (EventCompletion& c : completions) {
      c.on_complete = [this] { Release(1); };
    }
  }

  /// The handler's last touch, once Submit* accepted a prefix of
  /// `accepted_events`. A channel may set `done` inside Submit* without
  /// Complete(); such completions still hold their hook, so run it here.
  /// The acquire load orders this after any Complete(), which takes its
  /// hook out before it stores `done`. Unaccepted events are never
  /// completed: their references go with the handler's own.
  void Submitted(std::size_t accepted_events) {
    accepted = accepted_events;
    for (std::size_t i = 0; i < accepted; ++i) {
      EventCompletion& c = completions[i];
      if (c.done.load(std::memory_order_acquire) && c.on_complete) {
        std::exchange(c.on_complete, nullptr)();
      }
    }
    Release(completions.size() - accepted + 1);
  }

  void Release(std::size_t n) {
    if (refs.fetch_sub(n, std::memory_order_acq_rel) != n) return;
    // A kEvent reply carries the event's fired rules; an EVENT_BATCH reply
    // carries the first failure. Either way a shortfall is Shutdown.
    Status status = accepted < completions.size()
                        ? Status::Shutdown("node stopped")
                        : Status::OK();
    for (const EventCompletion& c : completions) {
      if (!status.ok()) break;
      status = c.status;
    }
    BinaryWriter reply;
    EncodeEventReply(status,
                     per_event && status.ok() ? completions[0].fired_rules
                                              : std::vector<std::uint32_t>{},
                     &reply);
    state->WriteFrame(FrameType::kEventReply, request_id, reply);
    delete this;
  }

  std::shared_ptr<ConnectionState> state;
  std::uint64_t request_id;
  bool per_event;
  std::size_t accepted = 0;  // written by the handler before its Release
  std::vector<EventCompletion> completions;
  std::atomic<std::size_t> refs;
};

TcpServer::TcpServer(NodeChannel* node, const Options& options)
    : node_(node), options_(options) {
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_shared<MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running()) return Status::InvalidArgument("already running");

  StatusOr<Socket> listener = TcpListen(options_.host, options_.port, 128);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  StatusOr<std::uint16_t> port = LocalPort(listener_);
  if (!port.ok()) return port.status();
  port_ = *port;

  const Labels labels = {{"role", "server"},
                         {"addr", options_.host + ":" +
                                      std::to_string(port_)}};
  frames_received_ =
      metrics_->GetCounter("aim_net_frames_received_total", labels);
  frames_sent_ = metrics_->GetCounter("aim_net_frames_sent_total", labels);
  bytes_received_ =
      metrics_->GetCounter("aim_net_bytes_received_total", labels);
  bytes_sent_ = metrics_->GetCounter("aim_net_bytes_sent_total", labels);
  frame_errors_ = metrics_->GetCounter("aim_net_frame_errors_total", labels);
  connections_total_ =
      metrics_->GetCounter("aim_net_connections_total", labels);
  connections_gauge_ = metrics_->GetGauge("aim_net_connections", labels);
  frames_coalesced_ =
      metrics_->GetHistogram("aim_net_frames_coalesced", labels);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  std::vector<Connection> connections;
  {
    MutexLock lock(connections_mu_);
    connections.swap(connections_);
  }
  for (Connection& conn : connections) {
    conn.state->open.store(false, std::memory_order_release);
    conn.state->sock.ShutdownBoth();
  }
  for (Connection& conn : connections) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  connections_gauge_->Set(0);
}

void TcpServer::PruneFinished() {
  MutexLock lock(connections_mu_);
  for (std::size_t i = 0; i < connections_.size();) {
    if (connections_[i].state->done.load(std::memory_order_acquire)) {
      if (connections_[i].thread.joinable()) connections_[i].thread.join();
      connections_.erase(connections_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  connections_gauge_->Set(static_cast<std::int64_t>(connections_.size()));
}

void TcpServer::AcceptLoop() {
  SetCurrentThreadName("aim-accept");
  while (running()) {
    StatusOr<Socket> accepted = Accept(listener_, kStopPollMillis);
    if (!accepted.ok()) {
      if (accepted.status().IsDeadlineExceeded()) {
        PruneFinished();
        continue;
      }
      if (!running()) return;
      continue;  // transient accept error; keep serving
    }
    PruneFinished();
    std::size_t active;
    {
      MutexLock lock(connections_mu_);
      active = connections_.size();
    }
    if (active >= options_.max_connections) {
      // Refuse by closing: the client sees a clean EOF and backs off via
      // its reconnect path instead of wedging a handler slot.
      continue;
    }
    auto state = std::make_shared<ConnectionState>();
    state->sock = std::move(accepted).value();
    state->io_timeout_millis = options_.io_timeout_millis;
    state->own_metrics = own_metrics_;
    CoalescingWriter::Metrics wm;
    wm.frames_sent = frames_sent_;
    wm.bytes_sent = bytes_sent_;
    wm.frames_coalesced = frames_coalesced_;
    state->writer.AttachMetrics(wm);
    connections_total_->Add();
    Connection conn;
    conn.state = state;
    conn.thread = std::thread([this, state] { ServeConnection(state); });
    {
      MutexLock lock(connections_mu_);
      connections_.push_back(std::move(conn));
      connections_gauge_->Set(static_cast<std::int64_t>(connections_.size()));
    }
  }
}

void TcpServer::ConnectionState::WriteFrame(FrameType type,
                                            std::uint64_t request_id,
                                            const BinaryWriter& payload) {
  if (!open.load(std::memory_order_acquire)) return;
  bool should_flush = false;
  if (!writer.Enqueue(BuildFrame(type, 0, request_id, payload.buffer().data(),
                                 payload.size()),
                      &should_flush)) {
    return;  // writer already failed; the connection is going down
  }
  if (!should_flush) return;  // an active flusher will carry this frame
  Status st = writer.Flush(sock, io_timeout_millis);
  if (!st.ok()) {
    open.store(false, std::memory_order_release);
    sock.ShutdownBoth();
  }
}

void TcpServer::ServeConnection(std::shared_ptr<ConnectionState> state) {
  SetCurrentThreadName("aim-conn");
  // All received bytes flow through the FrameAssembler — the same class
  // the stream fuzz harness drives with arbitrary byte splits, so the
  // path exercised here is byte-for-byte the one certified there.
  FrameAssembler assembler;
  std::uint8_t chunk[kRecvChunk];
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  // Wall-clock start of the currently incomplete frame (-1 = none). The
  // io timeout is enforced from the first byte of a frame to its last, so
  // a byte-trickler cannot hold a handler slot forever by keeping the
  // socket technically active.
  std::int64_t partial_since = -1;

  while (running() && state->open.load(std::memory_order_acquire)) {
    StatusOr<std::size_t> got =
        RecvSome(state->sock, chunk, sizeof(chunk), kStopPollMillis);
    if (!got.ok()) {
      if (got.status().IsDeadlineExceeded()) {
        if (partial_since >= 0 &&
            MonoMillis() - partial_since > options_.io_timeout_millis) {
          frame_errors_->Add();  // frame started but never finished
          break;
        }
        continue;
      }
      if (got.status().IsShutdown()) {
        // EOF between frames is an orderly close; EOF inside one is a
        // truncated frame.
        if (assembler.buffered() > 0) frame_errors_->Add();
        break;
      }
      frame_errors_->Add();
      break;
    }
    assembler.Push(chunk, *got);

    bool drop = false;
    while (assembler.Next(&header, &payload)) {
      frames_received_->Add();
      bytes_received_->Add(kFrameHeaderSize + payload.size());
      HandleFrame(state, header, std::move(payload));
      payload.clear();
    }
    if (!assembler.ok()) {
      // Garbage on the wire: framing is lost, drop the connection.
      frame_errors_->Add();
      drop = true;
    }
    if (drop) break;

    if (assembler.buffered() > 0) {
      if (partial_since < 0) partial_since = MonoMillis();
      if (MonoMillis() - partial_since > options_.io_timeout_millis) {
        frame_errors_->Add();
        break;
      }
    } else {
      partial_since = -1;
    }
  }

  state->open.store(false, std::memory_order_release);
  state->sock.ShutdownBoth();
  // The gauge is corrected by the accept loop's next PruneFinished — doing
  // it here would need connections_mu_, which PruneFinished holds while
  // joining this very thread.
  state->done.store(true, std::memory_order_release);
}

void TcpServer::SubmitWithReply(const std::shared_ptr<ConnectionState>& state,
                                std::uint64_t request_id, bool per_event,
                                std::vector<std::vector<std::uint8_t>>&& events) {
  auto* ticket =
      new EventReplyTicket(state, request_id, per_event, events.size());
  std::size_t accepted = 0;
  if (per_event) {
    accepted = node_->SubmitEvent(std::move(events[0]),
                                  &ticket->completions[0])
                   ? 1
                   : 0;
  } else {
    std::vector<EventMessage> batch(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      batch[i].bytes = std::move(events[i]);
      batch[i].completion = &ticket->completions[i];
    }
    accepted = node_->SubmitEventBatch(std::move(batch));
  }
  ticket->Submitted(accepted);
}

void TcpServer::HandleFrame(const std::shared_ptr<ConnectionState>& state,
                            const FrameHeader& header,
                            std::vector<std::uint8_t>&& payload) {
  const bool wants_reply = (header.flags & kFlagNoReply) == 0;
  switch (header.type) {
    case FrameType::kHello: {
      std::uint32_t version = 0;
      BinaryReader in(payload);
      if (!DecodeHello(&in, &version).ok() || version != kProtocolVersion) {
        frame_errors_->Add();
        state->open.store(false, std::memory_order_release);
        break;
      }
      BinaryWriter reply;
      // Advertise the transport's own capabilities on top of the node's:
      // this server decodes EVENT_BATCH whatever channel backs it.
      NodeChannel::NodeInfo info = node_->info();
      info.features |= NodeChannel::kFeatureEventBatch;
      EncodeHelloReply(info, &reply);
      state->WriteFrame(FrameType::kHelloReply, header.request_id, reply);
      break;
    }

    case FrameType::kEvent: {
      if (payload.size() != kEventWireSize) {
        // The node would reject a short event anyway, but with a status
        // ("node stopped") that misdiagnoses the problem — and an
        // oversized one would silently drop the trailing bytes. Reject
        // here with the honest verdict; framing is intact, so the
        // connection survives.
        frame_errors_->Add();
        if (wants_reply) {
          BinaryWriter reply;
          EncodeEventReply(Status::InvalidArgument("malformed event"), {},
                           &reply);
          state->WriteFrame(FrameType::kEventReply, header.request_id,
                            reply);
        }
        break;
      }
      if (!wants_reply) {
        node_->SubmitEvent(std::move(payload), nullptr);
        break;
      }
      std::vector<std::vector<std::uint8_t>> events(1);
      events[0] = std::move(payload);
      SubmitWithReply(state, header.request_id, /*per_event=*/true,
                      std::move(events));
      break;
    }

    case FrameType::kEventBatch: {
      BinaryReader in(payload);
      std::vector<std::vector<std::uint8_t>> events;
      if (!DecodeEventBatch(&in, &events).ok()) {
        // Count/size mismatch inside the payload: framing-level garbage.
        frame_errors_->Add();
        state->open.store(false, std::memory_order_release);
        break;
      }
      if (wants_reply) {
        // One aggregated kEventReply: the first failure's status, no fired
        // rules (clients needing per-event replies use per-event frames).
        SubmitWithReply(state, header.request_id, /*per_event=*/false,
                        std::move(events));
        break;
      }
      std::vector<EventMessage> batch(events.size());
      for (std::size_t i = 0; i < events.size(); ++i) {
        batch[i].bytes = std::move(events[i]);
      }
      node_->SubmitEventBatch(std::move(batch));
      break;
    }

    case FrameType::kQuery: {
      // Replies are written from the node's RTA coordinator thread; the
      // shared_ptr keeps the connection state alive however late the
      // reply lands.
      const std::uint64_t request_id = header.request_id;
      const bool accepted = node_->SubmitQuery(
          std::move(payload),
          [state, request_id](std::vector<std::uint8_t>&& bytes) {
            BinaryWriter reply;
            if (!bytes.empty()) reply.PutBytes(bytes.data(), bytes.size());
            state->WriteFrame(FrameType::kQueryReply, request_id, reply);
          });
      if (!accepted) {
        state->WriteFrame(FrameType::kQueryReply, header.request_id,
                          BinaryWriter());
      }
      break;
    }

    case FrameType::kRecordRequest: {
      RecordRequest request;
      BinaryReader in(payload);
      if (!DecodeRecordRequest(&in, &request).ok()) {
        frame_errors_->Add();
        BinaryWriter reply;
        EncodeRecordReply(Status::InvalidArgument("malformed record request"),
                          {}, 0, &reply);
        state->WriteFrame(FrameType::kRecordReply, header.request_id, reply);
        break;
      }
      const std::uint64_t request_id = header.request_id;
      request.reply = [state, request_id](Status st_reply,
                                          std::vector<std::uint8_t>&& row,
                                          Version version) {
        BinaryWriter reply;
        EncodeRecordReply(st_reply, row, version, &reply);
        state->WriteFrame(FrameType::kRecordReply, request_id, reply);
      };
      if (!node_->SubmitRecordRequest(std::move(request))) {
        BinaryWriter reply;
        EncodeRecordReply(Status::Shutdown("node stopped"), {}, 0, &reply);
        state->WriteFrame(FrameType::kRecordReply, header.request_id, reply);
      }
      break;
    }

    default:
      // A reply type arriving at the server is a protocol violation.
      frame_errors_->Add();
      state->open.store(false, std::memory_order_release);
      break;
  }
}

}  // namespace net
}  // namespace aim
