#ifndef AIM_NET_TCP_CLIENT_H_
#define AIM_NET_TCP_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aim/common/annotated_mutex.h"
#include "aim/net/coalescing_writer.h"
#include "aim/net/frame.h"
#include "aim/net/node_channel.h"
#include "aim/net/socket.h"
#include "aim/obs/registry.h"

namespace aim {
namespace net {

/// NodeChannel over one TCP connection to a TcpServer — the remote leg of
/// the paper's distributed deployment (§4.2, Figure 4). Drop-in for a
/// StorageNode pointer in EspTierNode / RtaFrontEnd via the channel
/// constructors.
///
/// Robustness contract (the part an in-process channel never needs):
///  - every socket operation carries a deadline (connect, write, reply);
///  - an accepted request is always completed: replies that never arrive —
///    deadline expiry or a dropped connection — complete with
///    Status::DeadlineExceeded (events, records) or an empty payload
///    (queries), never a hang;
///  - a lost connection is reconnected lazily on the next submit, gated by
///    capped exponential backoff (submits during backoff fail fast with
///    `false`, matching a stopped in-process node).
///
/// Threading: submits may come from any thread (writes serialize on an
/// internal mutex); one receiver thread dispatches replies and sweeps
/// request deadlines every ~100ms.
class TcpClient : public NodeChannel {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::int64_t connect_timeout_millis = 2'000;
    /// Reply deadline per request, measured from submission.
    std::int64_t request_timeout_millis = 5'000;
    std::int64_t write_timeout_millis = 2'000;
    /// Reconnect backoff: initial delay, doubled per failed attempt up to
    /// the cap, reset by a successful connect.
    std::int64_t backoff_initial_millis = 10;
    std::int64_t backoff_max_millis = 2'000;
    /// Registry for the aim_net_* client series (labels role="client",
    /// peer="host:port"). When null the client owns a private one.
    MetricsRegistry* metrics = nullptr;
  };

  explicit TcpClient(const Options& options);
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Eagerly connects (and runs the hello handshake that fills info()).
  /// Optional — any submit connects lazily — but callers that route by
  /// PartitionOf before the first submit need the handshake's node
  /// identity first.
  Status Connect();
  void Close();
  bool connected() const;

  // NodeChannel interface.
  NodeInfo info() const override;
  bool SubmitEvent(std::vector<std::uint8_t> event_bytes,
                   EventCompletion* completion) override;
  /// Batched submission. Runs of fire-and-forget events ship as one
  /// EVENT_BATCH frame; reply-wanted events use per-event frames so each
  /// keeps its exact per-event reply. All frames of the batch enter the
  /// coalescing writer under one lock hold and typically leave in one
  /// writev.
  std::size_t SubmitEventBatch(std::vector<EventMessage>&& batch) override;
  bool SubmitQuery(
      std::vector<std::uint8_t> query_bytes,
      std::function<void(std::vector<std::uint8_t>&&)> reply) override;
  bool SubmitRecordRequest(RecordRequest request) override;

  /// Synchronous event round trip: submit, wait for the (deadline-bounded)
  /// completion, return its status. Convenience for drivers and benches.
  Status EventRoundTrip(std::vector<std::uint8_t> event_bytes,
                        std::vector<std::uint32_t>* fired_rules);

  const Options& options() const { return options_; }

 private:
  /// One in-flight request: exactly one of the three reply sinks is set.
  struct Pending {
    EventCompletion* completion = nullptr;
    std::function<void(std::vector<std::uint8_t>&&)> query_reply;
    std::function<void(Status, std::vector<std::uint8_t>&&, Version)>
        record_reply;
    std::int64_t deadline_millis = 0;
  };

  Status EnsureConnectedLocked() AIM_REQUIRES(mu_);
  /// Marks the connection lost, wakes the receiver and fails every
  /// outstanding request (outside the lock, via the returned list).
  std::vector<Pending> DisconnectLocked() AIM_REQUIRES(mu_);
  /// Queues one frame on the coalescing writer (under mu_). Returns false
  /// if the writer has failed; `*should_flush` tells the caller to run
  /// FlushWriter after releasing mu_.
  bool EnqueueFrameLocked(FrameType type, std::uint8_t flags,
                          std::uint64_t request_id,
                          const std::uint8_t* payload,
                          std::size_t payload_size, bool* should_flush)
      AIM_REQUIRES(mu_);
  /// Runs the elected flush outside mu_; a write failure tears the
  /// connection down (outstanding requests fail immediately).
  void FlushWriter(bool should_flush) AIM_EXCLUDES(mu_);
  void FailPending(std::vector<Pending> pending, const Status& status);
  void ReceiverLoop();
  void DispatchReply(const FrameHeader& header,
                     std::vector<std::uint8_t>&& payload) AIM_EXCLUDES(mu_);
  void SweepDeadlines() AIM_EXCLUDES(mu_);

  Options options_;

  mutable Mutex mu_;
  // Deliberately not AIM_GUARDED_BY(mu_): the receiver thread reads sock_
  // without the lock by design — the fd stays reserved (shutdown, not
  // closed) until the receiver is joined, and EnsureConnectedLocked never
  // reassigns it while the receiver or a flusher is alive.
  Socket sock_;
  // Write path: frames enter under mu_, the elected flusher gather-writes
  // them outside mu_ (sock_ is never closed or reassigned while the writer
  // is busy — EnsureConnectedLocked and Close wait it out first). The
  // writer is internally synchronized.
  CoalescingWriter writer_;
  bool connected_ AIM_GUARDED_BY(mu_) = false;
  bool closed_ AIM_GUARDED_BY(mu_) = false;
  bool ever_connected_ AIM_GUARDED_BY(mu_) = false;
  NodeInfo info_ AIM_GUARDED_BY(mu_);
  std::uint64_t next_request_id_ AIM_GUARDED_BY(mu_) = 1;
  std::unordered_map<std::uint64_t, Pending> outstanding_
      AIM_GUARDED_BY(mu_);
  std::int64_t backoff_millis_ AIM_GUARDED_BY(mu_) = 0;
  std::int64_t next_attempt_millis_ AIM_GUARDED_BY(mu_) = 0;

  std::thread receiver_;
  // Set by the receiver as its very last action outside mu_, so a joiner
  // holding mu_ can never deadlock against a receiver still winding down.
  std::atomic<bool> receiver_done_{false};

  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* frames_sent_ = nullptr;
  Counter* frames_received_ = nullptr;
  Counter* bytes_sent_ = nullptr;
  Counter* bytes_received_ = nullptr;
  Counter* reconnects_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* frame_errors_ = nullptr;
};

}  // namespace net
}  // namespace aim

#endif  // AIM_NET_TCP_CLIENT_H_
