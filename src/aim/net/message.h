#ifndef AIM_NET_MESSAGE_H_
#define AIM_NET_MESSAGE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "aim/common/status.h"
#include "aim/common/types.h"

namespace aim {

/// Completion slot for an event submission. The submitter owns it and polls
/// (or blocks on) `done`, or installs `on_complete` to be called instead;
/// the storage node's ESP thread fills it in. This models the synchronous
/// ESP <-> storage interaction of the paper (§4.2) without a per-request
/// heap allocation.
struct EventCompletion {
  std::atomic<bool> done{false};
  Status status;
  std::vector<std::uint32_t> fired_rules;
  std::int64_t submit_nanos = 0;    // set by the submitter
  std::int64_t complete_nanos = 0;  // set by the ESP thread
  /// Optional hook, set by the submitter before submission and run once by
  /// Complete() on the completer's thread. It must not block for long: it
  /// runs on a node's ESP thread (TcpServer writes the event reply here).
  std::function<void()> on_complete;

  /// The completer's one exit: publishes status/fired_rules/complete_nanos
  /// (filled in before the call) by storing `done`, then runs the hook. The
  /// hook is taken out *before* `done` is stored, because the submitter may
  /// reuse or free the slot the moment it sees `done`.
  void Complete() {
    std::function<void()> hook = std::exchange(on_complete, nullptr);
    done.store(true, std::memory_order_release);
    if (hook) hook();
  }

  void Reset() {
    // relaxed: Reset must not race with an in-flight completion anyway
    // (the slot is reused only after Wait() returned).
    done.store(false, std::memory_order_relaxed);
    status = Status::OK();
    fired_rules.clear();
    submit_nanos = 0;
    complete_nanos = 0;
    on_complete = nullptr;
  }

  /// Unbounded wait — only safe when the completer provably cannot
  /// disappear (an in-process node drains its queues on Stop). Anything
  /// that waits on a *remote* peer must use WaitFor: a dropped connection
  /// means `done` may never flip.
  void Wait() const {
    while (!done.load(std::memory_order_acquire)) {
      // The ESP SLA is 10ms; yielding is plenty precise at that scale.
      std::this_thread::yield();
    }
  }

  /// Bounded wait. Returns true once completed, false when
  /// `timeout_millis` elapsed first — the slot then must NOT be reused or
  /// destroyed until the completer is known to be done with it (the TCP
  /// client guarantees this by failing the completion itself on timeout or
  /// disconnect before handing the slot back).
  bool WaitFor(std::int64_t timeout_millis) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    while (!done.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }
};

/// Event message on the "wire" between the event dispatcher and a storage
/// node: the 64-byte serialized CDR plus an optional completion slot.
struct EventMessage {
  std::vector<std::uint8_t> bytes;
  EventCompletion* completion = nullptr;  // may be null (fire-and-forget)
};

/// Query message: serialized Query plus a reply callback receiving the
/// node's serialized PartialResult. The callback is invoked exactly once,
/// from the node's RTA coordinator thread; shutdown aborts with an empty
/// payload.
struct QueryMessage {
  std::vector<std::uint8_t> bytes;
  std::function<void(std::vector<std::uint8_t>&&)> reply;
  /// Stamped by SubmitQuery; the coordinator records queue+scan+merge time
  /// against it when it replies (aim_rta_query_latency_micros).
  std::int64_t enqueue_nanos = 0;
};

/// Record-level request against a storage node's Get/Put interface — the
/// paper's deployment option (a), where a separate ESP tier manipulates
/// Entity Records remotely (§4.2). Served by the node's ESP service threads
/// so the single-writer-per-partition discipline is preserved.
struct RecordRequest {
  enum class Kind : std::uint8_t { kGet = 0, kPut = 1, kInsert = 2 };

  Kind kind = Kind::kGet;
  EntityId entity = 0;
  std::vector<std::uint8_t> row;  // kPut / kInsert payload (record bytes)
  Version expected_version = 0;   // kPut conditional-write guard

  /// Reply: status, record bytes (kGet only) and current version. Invoked
  /// exactly once from the owning ESP service thread; shutdown replies
  /// kShutdown.
  std::function<void(Status, std::vector<std::uint8_t>&&, Version)> reply;
};

}  // namespace aim

#endif  // AIM_NET_MESSAGE_H_
