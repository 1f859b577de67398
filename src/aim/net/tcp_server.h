#ifndef AIM_NET_TCP_SERVER_H_
#define AIM_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aim/common/annotated_mutex.h"
#include "aim/net/frame.h"
#include "aim/net/node_channel.h"
#include "aim/net/socket.h"
#include "aim/obs/registry.h"

namespace aim {
namespace net {

/// TCP front door of one storage node (paper §4.2, Figure 4: ESP nodes,
/// RTA front-ends and drivers reach storage over the network). Serves the
/// frame protocol (frame.h) against any NodeChannel — in production the
/// node's LocalNodeChannel, in tests possibly a mock.
///
/// Threading: one accept thread plus one handler thread per connection
/// (bounded by Options::max_connections; excess connections are refused by
/// an immediate close). The handler only reads and submits: every reply —
/// event, query, record — is written asynchronously by whichever thread
/// completes the request (the node's ESP thread for events and records,
/// its RTA coordinator for queries), coalesced per connection. So one
/// connection carries any number of requests in flight, replies may arrive
/// out of request order (clients route them by request id), and a query
/// never waits behind an event batch on the same connection — TcpClient
/// sends both over its one connection.
///
/// Lifecycle: Start binds and serves; Stop refuses new work, wakes every
/// blocked thread and joins them. Stop (or destroy) the server before or
/// after the node: replies land on per-connection state the reply closures
/// share, never on the server, and a closed connection drops them. The
/// node must still complete everything it accepted — an in-process node
/// drains its queues on Stop — or the reply state of that request leaks.
class TcpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
    std::uint32_t max_connections = 64;
    /// Per-frame socket I/O deadline (header+payload read, reply write).
    std::int64_t io_timeout_millis = 10'000;
    /// Registry for the aim_net_* server series. Null = metrics disabled
    /// is not an option — the node's registry is the natural home; when
    /// null the server owns a private one.
    MetricsRegistry* metrics = nullptr;
  };

  /// `node` must outlive the server.
  TcpServer(NodeChannel* node, const Options& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (valid after Start; resolves port 0).
  std::uint16_t port() const { return port_; }

 private:
  /// Per-connection state shared with the asynchronous reply writers
  /// (defined in the .cc).
  struct ConnectionState;
  /// One reply-wanted event frame in flight (defined in the .cc).
  struct EventReplyTicket;

  struct Connection {
    std::shared_ptr<ConnectionState> state;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<ConnectionState> state);
  /// Dispatches one reassembled frame to the node. Malformed payloads
  /// count a frame error; header-level garbage never gets here (the
  /// assembler drops the connection first). May mark the connection
  /// closed (protocol violation) via `state->open`.
  void HandleFrame(const std::shared_ptr<ConnectionState>& state,
                   const FrameHeader& header,
                   std::vector<std::uint8_t>&& payload);
  /// Submits the events of one reply-wanted kEvent (`per_event`) or
  /// EVENT_BATCH frame under a reply ticket and returns at once.
  void SubmitWithReply(const std::shared_ptr<ConnectionState>& state,
                       std::uint64_t request_id, bool per_event,
                       std::vector<std::vector<std::uint8_t>>&& events);
  void PruneFinished() AIM_EXCLUDES(connections_mu_);

  NodeChannel* node_;
  Options options_;

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};

  Mutex connections_mu_;
  std::vector<Connection> connections_ AIM_GUARDED_BY(connections_mu_);

  /// Shared with every connection: a reply that lands after the server is
  /// gone still counts into live metrics.
  std::shared_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* frames_received_ = nullptr;
  Counter* frames_sent_ = nullptr;
  Counter* bytes_received_ = nullptr;
  Counter* bytes_sent_ = nullptr;
  Counter* frame_errors_ = nullptr;
  Counter* connections_total_ = nullptr;
  Gauge* connections_gauge_ = nullptr;
  AtomicHistogram* frames_coalesced_ = nullptr;
};

}  // namespace net
}  // namespace aim

#endif  // AIM_NET_TCP_SERVER_H_
