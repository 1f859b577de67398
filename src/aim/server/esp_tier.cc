#include "aim/server/esp_tier.h"

#include <chrono>
#include <cstring>

#include "aim/common/logging.h"
#include "aim/common/thread_name.h"
#include "aim/esp/rule_eval.h"
#include "aim/esp/update_kernel.h"
#include "aim/schema/record.h"
#include "aim/server/local_node_channel.h"

namespace aim {

namespace {

std::int64_t NowNanos() {
  using namespace std::chrono;
  return duration_cast<nanoseconds>(steady_clock::now().time_since_epoch())
      .count();
}

/// Synchronous rendezvous for one Get/Put round trip.
struct Rendezvous {
  std::atomic<bool> done{false};
  Status status;
  std::vector<std::uint8_t> row;
  Version version = 0;

  void Complete(Status st, std::vector<std::uint8_t>&& bytes, Version v) {
    status = std::move(st);
    row = std::move(bytes);
    version = v;
    done.store(true, std::memory_order_release);
  }

  /// Bounded wait: false when the reply did not land in time. The slot must
  /// then be abandoned (not reused) — a late completer may still write it.
  bool WaitFor(std::int64_t timeout_millis) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    while (!done.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

  void Reset() {
    // relaxed: the slot is only reused after Wait() returned.
    done.store(false, std::memory_order_relaxed);
    status = Status::OK();
    row.clear();
    version = 0;
  }
};

}  // namespace

EspTierNode::EspTierNode(const Schema* schema, NodeChannel* channel,
                         const std::vector<Rule>* rules,
                         const Options& options)
    : schema_(schema), channel_(channel), rules_(rules), options_(options) {
  sys_.entity_id = schema_->FindAttribute("entity_id");
  sys_.last_event_ts = schema_->FindAttribute("last_event_ts");
  sys_.preferred_number = schema_->FindAttribute("preferred_number");
  for (std::uint32_t i = 0; i < options_.num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

EspTierNode::EspTierNode(const Schema* schema, StorageNode* node,
                         const std::vector<Rule>* rules,
                         const Options& options)
    : EspTierNode(schema, static_cast<NodeChannel*>(nullptr), rules,
                  options) {
  owned_channel_ = std::make_unique<LocalNodeChannel>(node);
  channel_ = owned_channel_.get();
}

EspTierNode::~EspTierNode() { Stop(); }

Status EspTierNode::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("already running");
  }
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker* raw = workers_[i].get();
    raw->index = static_cast<std::uint32_t>(i);
    raw->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
  return Status::OK();
}

void EspTierNode::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

bool EspTierNode::SubmitEvent(std::vector<std::uint8_t> event_bytes,
                              EventCompletion* completion) {
  if (!running_.load(std::memory_order_acquire)) return false;
  if (event_bytes.size() < kEventWireSize) return false;
  EntityId caller;
  std::memcpy(&caller, event_bytes.data(), sizeof(caller));
  // Sticky entity -> worker mapping preserves the single-writer discipline
  // across tier workers.
  const std::uint32_t w =
      channel_->PartitionOf(caller) % options_.num_threads;
  EventMessage msg;
  msg.bytes = std::move(event_bytes);
  msg.completion = completion;
  return workers_[w]->queue.Push(std::move(msg));
}

void EspTierNode::WorkerLoop(Worker* worker) {
  SetCurrentThreadName("aim-tier-", worker->index);
  UpdateProgram program(*schema_, sys_.preferred_number);
  RuleEvaluator evaluator(rules_);
  FiringPolicyTracker policy_tracker;
  std::vector<std::uint32_t> matched;
  // Heap slot shared with the reply callback so a timed-out rendezvous can
  // be abandoned to its late completer; reused across events otherwise, so
  // the steady state stays allocation-free.
  auto rendezvous = std::make_shared<Rendezvous>();
  const std::uint32_t record_size = schema_->record_size();
  // Persistent drain buffer: one queue lock acquisition admits up to
  // max_event_batch events; processing (and completion) stays per event.
  std::vector<EventMessage> batch;
  const std::size_t max_batch =
      options_.max_event_batch > 0 ? options_.max_event_batch : 1;

  while (true) {
    batch.clear();
    if (worker->queue.DrainInto(&batch, max_batch) == 0) {
      // Empty: fall back to the blocking Pop, which also detects close.
      std::optional<EventMessage> msg = worker->queue.Pop();
      if (!msg.has_value()) break;  // queue closed and drained
      batch.push_back(std::move(*msg));
    }

    for (EventMessage& queued : batch) {
      BinaryReader reader(queued.bytes);
      const Event event = Event::Deserialize(&reader);

      matched.clear();
      Status result = Status::Conflict("retries exhausted");
      for (int attempt = 0; attempt < options_.max_txn_retries; ++attempt) {
        // Remote Get: the full Entity Record crosses the wire.
        rendezvous->Reset();
        RecordRequest get;
        get.kind = RecordRequest::Kind::kGet;
        get.entity = event.caller;
        get.reply = [rv = rendezvous](Status st,
                                      std::vector<std::uint8_t>&& row,
                                      Version v) {
          rv->Complete(std::move(st), std::move(row), v);
        };
        if (!channel_->SubmitRecordRequest(std::move(get))) {
          result = Status::Shutdown();
          break;
        }
        if (!rendezvous->WaitFor(options_.record_reply_timeout_millis)) {
          result = Status::DeadlineExceeded("record get reply timed out");
          rendezvous = std::make_shared<Rendezvous>();  // abandon the slot
          break;
        }

        bool fresh = false;
        std::vector<std::uint8_t> row;
        Version version = 0;
        if (rendezvous->status.ok()) {
          row = std::move(rendezvous->row);
          // relaxed: monitoring counter; no ordering with the record data.
          record_bytes_shipped_.fetch_add(row.size(),
                                          std::memory_order_relaxed);
          version = rendezvous->version;
        } else if (rendezvous->status.IsNotFound()) {
          row.assign(record_size, 0);
          RecordView rec(schema_, row.data());
          if (sys_.entity_id != kInvalidAttr) {
            rec.SetAs<std::uint64_t>(sys_.entity_id, event.caller);
          }
          fresh = true;
        } else {
          result = rendezvous->status;
          break;
        }

        // Local processing on the ESP node: update program + rules.
        program.Apply(event, row.data());
        if (sys_.last_event_ts != kInvalidAttr) {
          RecordView(schema_, row.data())
              .SetAs<std::int64_t>(sys_.last_event_ts, event.timestamp);
        }
        evaluator.Evaluate(event, ConstRecordView(schema_, row.data()),
                           &matched);
        policy_tracker.Filter(*rules_, event.caller, event.timestamp,
                              &matched);

        // Remote Put: the record crosses the wire again.
        rendezvous->Reset();
        RecordRequest put;
        put.kind = fresh ? RecordRequest::Kind::kInsert
                         : RecordRequest::Kind::kPut;
        put.entity = event.caller;
        put.row = std::move(row);
        put.expected_version = version;
        // relaxed: monitoring counter.
        record_bytes_shipped_.fetch_add(record_size,
                                        std::memory_order_relaxed);
        put.reply = [rv = rendezvous](Status st, std::vector<std::uint8_t>&& b,
                                      Version v) {
          rv->Complete(std::move(st), std::move(b), v);
        };
        if (!channel_->SubmitRecordRequest(std::move(put))) {
          result = Status::Shutdown();
          break;
        }
        if (!rendezvous->WaitFor(options_.record_reply_timeout_millis)) {
          result = Status::DeadlineExceeded("record put reply timed out");
          rendezvous = std::make_shared<Rendezvous>();  // abandon the slot
          break;
        }
        if (rendezvous->status.ok()) {
          result = Status::OK();
          break;
        }
        if (rendezvous->status.IsConflict()) {
          // relaxed: monitoring counter.
          txn_conflicts_.fetch_add(1, std::memory_order_relaxed);
          continue;  // restart the single-row transaction
        }
        result = rendezvous->status;
        break;
      }

      // relaxed: monitoring counters; stats() tolerates torn snapshots.
      if (result.ok()) {
        events_processed_.fetch_add(1, std::memory_order_relaxed);
        rules_fired_.fetch_add(matched.size(), std::memory_order_relaxed);
      }
      if (queued.completion != nullptr) {
        queued.completion->status = result;
        queued.completion->fired_rules = matched;
        queued.completion->complete_nanos = NowNanos();
        queued.completion->Complete();
      }
      event_buffers_.Release(std::move(queued.bytes));
    }
  }
}

EspTierNode::Stats EspTierNode::stats() const {
  Stats s;
  // relaxed: monitoring snapshot; counters may be mutually torn.
  s.events_processed = events_processed_.load(std::memory_order_relaxed);
  s.txn_conflicts = txn_conflicts_.load(std::memory_order_relaxed);
  s.rules_fired = rules_fired_.load(std::memory_order_relaxed);
  s.record_bytes_shipped =
      record_bytes_shipped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace aim
