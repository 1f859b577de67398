#include "aim/net/tcp_client.h"

#include <algorithm>
#include <chrono>

#include "aim/common/thread_name.h"

namespace aim {
namespace net {

namespace {

std::int64_t NowMillis() {
  using namespace std::chrono;
  return duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
      .count();
}

/// Receiver poll slice: bounds both Stop() latency and deadline-sweep lag.
constexpr std::int64_t kReceiverPollMillis = 100;

}  // namespace

TcpClient::TcpClient(const Options& options)
    : options_(options), backoff_millis_(options.backoff_initial_millis) {
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  const Labels labels = {
      {"role", "client"},
      {"peer", options_.host + ":" + std::to_string(options_.port)}};
  frames_sent_ = metrics_->GetCounter("aim_net_frames_sent_total", labels);
  frames_received_ =
      metrics_->GetCounter("aim_net_frames_received_total", labels);
  bytes_sent_ = metrics_->GetCounter("aim_net_bytes_sent_total", labels);
  bytes_received_ =
      metrics_->GetCounter("aim_net_bytes_received_total", labels);
  reconnects_ = metrics_->GetCounter("aim_net_reconnects_total", labels);
  timeouts_ = metrics_->GetCounter("aim_net_timeouts_total", labels);
  frame_errors_ = metrics_->GetCounter("aim_net_frame_errors_total", labels);
  CoalescingWriter::Metrics wm;
  wm.frames_sent = frames_sent_;
  wm.bytes_sent = bytes_sent_;
  wm.frames_coalesced =
      metrics_->GetHistogram("aim_net_frames_coalesced", labels);
  writer_.AttachMetrics(wm);
}

TcpClient::~TcpClient() { Close(); }

Status TcpClient::Connect() {
  MutexLock lock(mu_);
  return EnsureConnectedLocked();
}

void TcpClient::Close() {
  std::vector<Pending> orphaned;
  {
    MutexLock lock(mu_);
    if (closed_) return;
    closed_ = true;
    orphaned = DisconnectLocked();
  }
  FailPending(std::move(orphaned), Status::Shutdown("client closed"));
  if (receiver_.joinable()) receiver_.join();
  // A late flusher may still be gather-writing on the (shut down) socket;
  // the fd must stay reserved until it stands down.
  writer_.WaitIdle();
  MutexLock lock(mu_);
  sock_.Close();
}

bool TcpClient::connected() const {
  MutexLock lock(mu_);
  return connected_;
}

NodeChannel::NodeInfo TcpClient::info() const {
  MutexLock lock(mu_);
  return info_;
}

Status TcpClient::EnsureConnectedLocked() {
  if (closed_) return Status::Shutdown("client closed");
  if (connected_) return Status::OK();

  // A previous connection's receiver may still be winding down; never
  // join it before its done flag (set outside mu_) — we hold mu_ and its
  // error path needs it.
  if (receiver_.joinable()) {
    if (!receiver_done_.load(std::memory_order_acquire)) {
      return Status::Internal("previous connection still closing");
    }
    receiver_.join();
  }
  // Same for a flusher still draining onto the dead socket: closing the fd
  // under it would let the kernel recycle the descriptor mid-writev.
  if (writer_.busy()) {
    return Status::Internal("previous connection still closing");
  }
  writer_.Reset();
  sock_.Close();

  const std::int64_t now = NowMillis();
  if (now < next_attempt_millis_) {
    return Status::DeadlineExceeded("reconnect backoff");
  }

  Status st = [&]() -> Status {
    StatusOr<Socket> sock =
        TcpConnect(options_.host, options_.port,
                   options_.connect_timeout_millis);
    if (!sock.ok()) return sock.status();

    // Hello handshake, synchronous on the connect deadline: learn the
    // node identity (routing) and let the server veto a version skew.
    BinaryWriter hello;
    EncodeHello(&hello);
    const std::vector<std::uint8_t> frame =
        BuildFrame(FrameType::kHello, 0, /*request_id=*/0,
                   hello.buffer().data(), hello.size());
    Status io = SendAll(*sock, frame.data(), frame.size(),
                        options_.connect_timeout_millis);
    if (!io.ok()) return io;

    std::uint8_t header_bytes[kFrameHeaderSize];
    io = RecvAll(*sock, header_bytes, kFrameHeaderSize,
                 options_.connect_timeout_millis);
    if (!io.ok()) return io;
    FrameHeader header;
    io = DecodeFrameHeader(header_bytes, &header);
    if (!io.ok() || header.type != FrameType::kHelloReply) {
      return Status::Internal("bad hello reply frame");
    }
    std::vector<std::uint8_t> payload(header.payload_size);
    io = RecvAll(*sock, payload.data(), payload.size(),
                 options_.connect_timeout_millis);
    if (!io.ok()) return io;
    BinaryReader in(payload);
    NodeInfo node_info;
    io = DecodeHelloReply(&in, &node_info);
    if (!io.ok()) return io;

    sock_ = std::move(sock).value();
    info_ = node_info;
    return Status::OK();
  }();

  if (!st.ok()) {
    next_attempt_millis_ = now + backoff_millis_;
    backoff_millis_ = std::min(backoff_millis_ * 2,
                               options_.backoff_max_millis);
    return st;
  }

  connected_ = true;
  backoff_millis_ = options_.backoff_initial_millis;
  next_attempt_millis_ = 0;
  if (ever_connected_) reconnects_->Add();
  ever_connected_ = true;
  receiver_done_.store(false, std::memory_order_release);
  receiver_ = std::thread([this] { ReceiverLoop(); });
  return Status::OK();
}

std::vector<TcpClient::Pending> TcpClient::DisconnectLocked() {
  connected_ = false;
  // Shutdown (not Close): the receiver may still be blocked reading this
  // fd without holding mu_; the fd stays reserved until it is joined.
  sock_.ShutdownBoth();
  std::vector<Pending> orphaned;
  orphaned.reserve(outstanding_.size());
  for (auto& [id, pending] : outstanding_) {
    orphaned.push_back(std::move(pending));
  }
  outstanding_.clear();
  return orphaned;
}

void TcpClient::FailPending(std::vector<Pending> pending,
                            const Status& status) {
  for (Pending& p : pending) {
    if (status.IsDeadlineExceeded()) timeouts_->Add();
    if (p.completion != nullptr) {
      p.completion->status = status;
      p.completion->fired_rules.clear();
      p.completion->Complete();
    } else if (p.query_reply) {
      p.query_reply({});  // empty payload = failed, the shutdown idiom
    } else if (p.record_reply) {
      p.record_reply(status, {}, 0);
    }
  }
}

bool TcpClient::EnqueueFrameLocked(FrameType type, std::uint8_t flags,
                                   std::uint64_t request_id,
                                   const std::uint8_t* payload,
                                   std::size_t payload_size,
                                   bool* should_flush) {
  bool elected = false;
  const bool ok = writer_.Enqueue(
      BuildFrame(type, flags, request_id, payload, payload_size), &elected);
  if (elected) *should_flush = true;
  return ok;
}

void TcpClient::FlushWriter(bool should_flush) {
  if (!should_flush) return;
  Status st = writer_.Flush(sock_, options_.write_timeout_millis);
  if (st.ok()) return;
  // Write failure: the stream is broken, so every outstanding request is
  // as lost as its frame. Tear down and fail them immediately.
  std::vector<Pending> orphaned;
  {
    MutexLock lock(mu_);
    if (connected_) orphaned = DisconnectLocked();
  }
  FailPending(std::move(orphaned),
              Status::DeadlineExceeded("connection lost"));
}

bool TcpClient::SubmitEvent(std::vector<std::uint8_t> event_bytes,
                            EventCompletion* completion) {
  bool accepted = false;
  bool should_flush = false;
  {
    MutexLock lock(mu_);
    if (!EnsureConnectedLocked().ok()) return false;
    if (completion == nullptr) {
      accepted = EnqueueFrameLocked(FrameType::kEvent, kFlagNoReply,
                                    /*request_id=*/0, event_bytes.data(),
                                    event_bytes.size(), &should_flush);
    } else {
      const std::uint64_t id = next_request_id_++;
      Pending pending;
      pending.completion = completion;
      pending.deadline_millis =
          NowMillis() + options_.request_timeout_millis;
      outstanding_.emplace(id, std::move(pending));
      accepted = EnqueueFrameLocked(FrameType::kEvent, 0, id,
                                    event_bytes.data(), event_bytes.size(),
                                    &should_flush);
      // Contract: false means the completion is never touched — remove
      // our own entry again.
      if (!accepted) outstanding_.erase(id);
    }
  }
  FlushWriter(should_flush);
  return accepted;
}

std::size_t TcpClient::SubmitEventBatch(std::vector<EventMessage>&& batch) {
  if (batch.empty()) return 0;
  std::size_t accepted = 0;
  bool should_flush = false;
  {
    MutexLock lock(mu_);
    if (!EnsureConnectedLocked().ok()) return 0;
    bool writer_ok = true;

    // Pending run of fire-and-forget events, shipped as one EVENT_BATCH
    // frame (a lone event as a plain kEvent frame, 4 bytes smaller).
    std::vector<EventMessage> run;
    auto ship_run = [&]() {
      if (run.empty() || !writer_ok) return;
      if (run.size() > 1) {
        BinaryWriter payload;
        EncodeEventBatch(run, &payload);
        writer_ok = EnqueueFrameLocked(
            FrameType::kEventBatch, kFlagNoReply, /*request_id=*/0,
            payload.buffer().data(), payload.size(), &should_flush);
      } else {
        writer_ok = EnqueueFrameLocked(
            FrameType::kEvent, kFlagNoReply, /*request_id=*/0,
            run[0].bytes.data(), run[0].bytes.size(), &should_flush);
      }
      if (writer_ok) accepted += run.size();
      run.clear();
    };

    for (EventMessage& msg : batch) {
      if (!writer_ok) break;
      if (msg.completion == nullptr) {
        run.push_back(std::move(msg));
        continue;
      }
      // Reply-wanted events keep per-event frames: each needs its own
      // request id and its exact per-event status + fired rules.
      ship_run();
      if (!writer_ok) break;
      const std::uint64_t id = next_request_id_++;
      Pending pending;
      pending.completion = msg.completion;
      pending.deadline_millis =
          NowMillis() + options_.request_timeout_millis;
      outstanding_.emplace(id, std::move(pending));
      writer_ok = EnqueueFrameLocked(FrameType::kEvent, 0, id,
                                     msg.bytes.data(), msg.bytes.size(),
                                     &should_flush);
      if (!writer_ok) {
        outstanding_.erase(id);
        break;
      }
      ++accepted;
    }
    ship_run();
  }
  FlushWriter(should_flush);
  return accepted;
}

bool TcpClient::SubmitQuery(
    std::vector<std::uint8_t> query_bytes,
    std::function<void(std::vector<std::uint8_t>&&)> reply) {
  bool accepted = false;
  bool should_flush = false;
  {
    MutexLock lock(mu_);
    if (!EnsureConnectedLocked().ok()) return false;
    const std::uint64_t id = next_request_id_++;
    Pending pending;
    pending.query_reply = std::move(reply);
    pending.deadline_millis = NowMillis() + options_.request_timeout_millis;
    auto [it, inserted] = outstanding_.emplace(id, std::move(pending));
    accepted = EnqueueFrameLocked(FrameType::kQuery, 0, id,
                                  query_bytes.data(), query_bytes.size(),
                                  &should_flush);
    if (!accepted) outstanding_.erase(it);
  }
  FlushWriter(should_flush);
  return accepted;
}

bool TcpClient::SubmitRecordRequest(RecordRequest request) {
  BinaryWriter payload;
  EncodeRecordRequest(request, &payload);
  bool accepted = false;
  bool should_flush = false;
  {
    MutexLock lock(mu_);
    if (!EnsureConnectedLocked().ok()) return false;
    const std::uint64_t id = next_request_id_++;
    Pending pending;
    pending.record_reply = std::move(request.reply);
    pending.deadline_millis = NowMillis() + options_.request_timeout_millis;
    auto [it, inserted] = outstanding_.emplace(id, std::move(pending));
    accepted = EnqueueFrameLocked(FrameType::kRecordRequest, 0, id,
                                  payload.buffer().data(), payload.size(),
                                  &should_flush);
    if (!accepted) outstanding_.erase(it);
  }
  FlushWriter(should_flush);
  return accepted;
}

Status TcpClient::EventRoundTrip(std::vector<std::uint8_t> event_bytes,
                                 std::vector<std::uint32_t>* fired_rules) {
  EventCompletion completion;
  if (!SubmitEvent(std::move(event_bytes), &completion)) {
    return Status::DeadlineExceeded("peer unreachable");
  }
  // Safe unbounded wait: the client itself guarantees completion — the
  // receiver fails it at the request deadline or on disconnect.
  completion.Wait();
  if (fired_rules != nullptr) *fired_rules = completion.fired_rules;
  return completion.status;
}

void TcpClient::ReceiverLoop() {
  SetCurrentThreadName("aim-cli-rx");
  std::uint8_t header_bytes[kFrameHeaderSize];
  for (;;) {
    Status readable = WaitReadable(sock_, kReceiverPollMillis);
    if (readable.IsDeadlineExceeded()) {
      SweepDeadlines();
      {
        MutexLock lock(mu_);
        if (!connected_) break;
      }
      continue;
    }
    if (!readable.ok()) break;

    Status st = RecvAll(sock_, header_bytes, kFrameHeaderSize,
                        options_.request_timeout_millis);
    if (!st.ok()) break;
    FrameHeader header;
    st = DecodeFrameHeader(header_bytes, &header);
    if (!st.ok()) {
      frame_errors_->Add();
      break;  // framing lost
    }
    std::vector<std::uint8_t> payload(header.payload_size);
    if (header.payload_size > 0) {
      st = RecvAll(sock_, payload.data(), payload.size(),
                   options_.request_timeout_millis);
      if (!st.ok()) break;
    }
    frames_received_->Add();
    bytes_received_->Add(kFrameHeaderSize + payload.size());
    DispatchReply(header, std::move(payload));
    SweepDeadlines();
  }

  // Connection gone: fail everything still in flight, then hand the
  // socket back (joined + closed by the next connect attempt or Close).
  std::vector<Pending> orphaned;
  {
    MutexLock lock(mu_);
    if (connected_) orphaned = DisconnectLocked();
  }
  FailPending(std::move(orphaned),
              Status::DeadlineExceeded("connection lost"));
  receiver_done_.store(true, std::memory_order_release);
}

void TcpClient::DispatchReply(const FrameHeader& header,
                              std::vector<std::uint8_t>&& payload) {
  Pending pending;
  {
    MutexLock lock(mu_);
    auto it = outstanding_.find(header.request_id);
    if (it == outstanding_.end()) return;  // expired request's late reply
    pending = std::move(it->second);
    outstanding_.erase(it);
  }

  switch (header.type) {
    case FrameType::kEventReply: {
      if (pending.completion == nullptr) break;
      BinaryReader in(payload);
      Status status;
      std::vector<std::uint32_t> fired;
      if (!DecodeEventReply(&in, &status, &fired).ok()) {
        frame_errors_->Add();
        status = Status::Internal("malformed event reply");
        fired.clear();
      }
      pending.completion->status = std::move(status);
      pending.completion->fired_rules = std::move(fired);
      pending.completion->Complete();
      return;
    }
    case FrameType::kQueryReply: {
      if (!pending.query_reply) break;
      pending.query_reply(std::move(payload));
      return;
    }
    case FrameType::kRecordReply: {
      if (!pending.record_reply) break;
      BinaryReader in(payload);
      Status status;
      std::vector<std::uint8_t> row;
      Version version = 0;
      if (!DecodeRecordReply(&in, &status, &row, &version).ok()) {
        frame_errors_->Add();
        status = Status::Internal("malformed record reply");
        row.clear();
        version = 0;
      }
      pending.record_reply(std::move(status), std::move(row), version);
      return;
    }
    default:
      break;
  }
  // Reply type didn't match the request's sink: protocol confusion.
  frame_errors_->Add();
  FailPending({std::move(pending)}, Status::Internal("mismatched reply"));
}

void TcpClient::SweepDeadlines() {
  std::vector<Pending> expired;
  {
    MutexLock lock(mu_);
    const std::int64_t now = NowMillis();
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      if (now >= it->second.deadline_millis) {
        expired.push_back(std::move(it->second));
        it = outstanding_.erase(it);
      } else {
        ++it;
      }
    }
  }
  FailPending(std::move(expired),
              Status::DeadlineExceeded("request deadline"));
}

}  // namespace net
}  // namespace aim
