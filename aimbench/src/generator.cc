#include "generator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "aim/common/binary_io.h"
#include "aim/common/clock.h"
#include "aim/common/random.h"
#include "aim/net/message.h"
#include "aim/rta/partial_result.h"

namespace aimbench {
namespace {

using aim::EventCompletion;
using aim::EventMessage;
using aim::MonotonicNanos;

constexpr std::size_t kEventSize = 64;
constexpr int kProbeSlot = -1;
constexpr std::int64_t kDrainTimeoutNs = 60'000'000'000;

struct Reply {
  int slot;
  std::int64_t t_ns;
  std::vector<std::uint8_t> bytes;
};

/// Query replies arrive on node (or TCP receiver) threads; the generator
/// sleeps here until one arrives or its next deadline passes.
class ReplyBox {
 public:
  void Push(Reply r) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      replies_.push_back(std::move(r));
    }
    cv_.notify_one();
  }

  void WaitTake(std::int64_t deadline_ns, std::vector<Reply>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (replies_.empty()) {
      const std::chrono::steady_clock::time_point tp{
          std::chrono::nanoseconds(deadline_ns)};
      cv_.wait_until(lock, tp, [&] { return !replies_.empty(); });
    }
    out->swap(replies_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Reply> replies_;
};

struct MarkerBatch {
  EventCompletion* marker;
  std::int64_t submit_ns;
  std::uint32_t events;
};

struct Sampled {
  EventCompletion* completion;
  std::int64_t due_ns;
};

struct QuerySlot {
  bool busy = false;
  std::int64_t submit_ns = 0;
  std::size_t query = 0;
};

/// Completion slots must outlive any node thread that may still write them;
/// the pool is shared with nothing and freed only after a full drain.
class CompletionPool {
 public:
  EventCompletion* Get() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<EventCompletion>());
      free_.push_back(all_.back().get());
    }
    EventCompletion* c = free_.back();
    free_.pop_back();
    c->Reset();
    return c;
  }
  void Put(EventCompletion* c) { free_.push_back(c); }
  void Leak() {
    for (auto& c : all_) c.release();
  }

 private:
  std::vector<std::unique_ptr<EventCompletion>> all_;
  std::vector<EventCompletion*> free_;
};

EventMessage MakeMessage(const std::uint8_t* bytes, EventCompletion* c) {
  EventMessage m;
  m.bytes.assign(bytes, bytes + kEventSize);
  m.completion = c;
  return m;
}

}  // namespace

LoadResult RunLoad(aim::NodeChannel* channel, const World& world,
                   const LoadInputs& inputs, const LoadConfig& config,
                   double seconds, Tracer* tracer) {
  LoadResult r;
  auto box = std::make_shared<ReplyBox>();
  CompletionPool pool;
  const std::size_t n_events = inputs.num_events();
  const bool closed = config.events == LoadConfig::Events::kClosed;
  const std::int64_t start_ns = MonotonicNanos();
  std::int64_t end_ns =
      config.max_events > 0
          ? INT64_MAX
          : start_ns + static_cast<std::int64_t>(seconds * 1e9);
  bool in_window = true;
  std::uint64_t op_id = 0;

  std::deque<MarkerBatch> markers;
  std::deque<Sampled> sampled;
  std::uint64_t stream_acked = 0;
  std::uint64_t paced_next = 0;
  const double paced_interval_ns = 1e9 / kPacedEps;

  std::vector<QuerySlot> slots(config.queries_outstanding);
  std::size_t next_query = 0;
  bool probe_query_busy = false;
  std::int64_t probe_query_submit_ns = 0;
  bool probe_pending = false;
  std::int64_t probe_submit_ns = 0;
  // Due times of the next probe event / probe query (INT64_MAX: none due).
  std::int64_t probe_event_due = INT64_MAX;
  std::int64_t probe_query_due = INT64_MAX;
  aim::Random jitter(config.seed * 2654435761u + 11);
  auto jittered = [&](std::int64_t now) {
    const std::uint64_t us = jitter.Uniform(
        static_cast<std::uint64_t>(kProbeJitterMicros));
    return now + static_cast<std::int64_t>(us) * 1000;
  };

  auto record_shape = [&](const std::vector<EventMessage>& batch) {
    if (r.batch_shapes.size() >= kRecordedBatches) return;
    std::vector<bool> shape;
    for (const EventMessage& m : batch) shape.push_back(m.completion != nullptr);
    r.batch_shapes.push_back(std::move(shape));
  };

  auto fail_stop = [&](std::uint64_t n) {
    r.failed += n;
    in_window = false;
  };

  auto submit_batch = [&]() {
    std::uint32_t n = kBatchEvents;
    if (config.max_events > 0) {
      if (r.stream_events_submitted >= config.max_events) return false;
      n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          n, config.max_events - r.stream_events_submitted));
    }
    const std::int64_t t0 = MonotonicNanos();
    std::vector<EventMessage> batch;
    batch.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::size_t idx =
          (config.first_event + r.stream_events_submitted + i) % n_events;
      batch.push_back(MakeMessage(&inputs.events[idx * kEventSize], nullptr));
    }
    EventCompletion* marker = pool.Get();
    marker->submit_nanos = t0;
    batch.back().completion = marker;
    record_shape(batch);
    std::size_t accepted;
    {
      ScopedSpan span(tracer, "channel.SubmitEventBatch", ++op_id);
      accepted = channel->SubmitEventBatch(std::move(batch));
    }
    if (accepted != n) {
      pool.Put(marker);
      fail_stop(n);
      return false;
    }
    markers.push_back({marker, t0, n});
    r.stream_events_submitted += n;
    r.events_submitted += n;
    r.gen_event_us.Add(static_cast<double>(MonotonicNanos() - t0) / 1e3 / n);
    return true;
  };

  auto submit_paced = [&](std::int64_t now) {
    std::vector<EventMessage> batch;
    std::vector<std::int64_t> due;
    const std::int64_t t0 = MonotonicNanos();
    while (true) {
      const std::int64_t d =
          start_ns + static_cast<std::int64_t>(paced_next * paced_interval_ns);
      if (d > now) break;
      const std::size_t idx =
          (config.first_event + r.stream_events_submitted) % n_events;
      EventCompletion* c = nullptr;
      if (paced_next % kPacedSampleEvery == 0) {
        c = pool.Get();
        c->submit_nanos = d;
        sampled.push_back({c, d});
      }
      batch.push_back(MakeMessage(&inputs.events[idx * kEventSize], c));
      due.push_back(d);
      ++paced_next;
      ++r.stream_events_submitted;
      ++r.events_submitted;
    }
    if (batch.empty()) return;
    const std::size_t n = batch.size();
    record_shape(batch);
    std::size_t accepted;
    {
      ScopedSpan span(tracer, "channel.SubmitEventBatch", ++op_id);
      accepted = channel->SubmitEventBatch(std::move(batch));
    }
    const std::int64_t t1 = MonotonicNanos();
    if (accepted != n) {
      fail_stop(n);
      return;
    }
    for (std::int64_t d : due) r.lag_ms.Add(static_cast<double>(t1 - d) / 1e6);
    r.gen_event_us.Add(static_cast<double>(t1 - t0) / 1e3 / n);
  };

  auto submit_probe = [&]() {
    if (r.probes_submitted >= inputs.num_probes()) return;
    std::vector<EventMessage> batch;
    batch.push_back(MakeMessage(
        &inputs.probes[r.probes_submitted * kEventSize], nullptr));
    record_shape(batch);
    probe_submit_ns = MonotonicNanos();
    std::size_t accepted;
    {
      ScopedSpan span(tracer, "channel.SubmitEventBatch(probe)", ++op_id);
      accepted = channel->SubmitEventBatch(std::move(batch));
    }
    if (accepted != 1) {
      fail_stop(1);
      return;
    }
    ++r.probes_submitted;
    ++r.events_submitted;
    probe_pending = true;
  };

  auto submit_query = [&](int slot) {
    QuerySlot& s = slots[slot];
    s.query = next_query++ % inputs.queries.size();
    s.submit_ns = MonotonicNanos();
    std::shared_ptr<ReplyBox> b = box;
    bool ok;
    {
      ScopedSpan span(tracer, "channel.SubmitQuery", ++op_id);
      ok = channel->SubmitQuery(
          inputs.queries[s.query],
          [b, slot](std::vector<std::uint8_t>&& bytes) {
            b->Push({slot, MonotonicNanos(), std::move(bytes)});
          });
    }
    if (!ok) {
      fail_stop(1);
      return;
    }
    s.busy = true;
    ++r.queries_submitted;
    r.gen_query_us.Add(static_cast<double>(MonotonicNanos() - s.submit_ns) /
                       1e3);
  };

  auto submit_probe_query = [&]() {
    std::shared_ptr<ReplyBox> b = box;
    probe_query_submit_ns = MonotonicNanos();
    bool ok;
    {
      ScopedSpan span(tracer, "channel.SubmitQuery(probe)", ++op_id);
      ok = channel->SubmitQuery(
          inputs.probe_query, [b](std::vector<std::uint8_t>&& bytes) {
            b->Push({kProbeSlot, MonotonicNanos(), std::move(bytes)});
          });
    }
    if (!ok) {
      fail_stop(1);
      return;
    }
    probe_query_busy = true;
    ++r.probe_queries;
  };

  // Decodes a node partial and finalizes it the way a client does.
  auto finalize = [&](const aim::Query& q, const std::vector<std::uint8_t>& b,
                      aim::QueryResult* out) {
    if (b.empty()) return false;
    aim::BinaryReader reader(b);
    const std::int64_t t0 = tracer->Begin();
    aim::StatusOr<aim::PartialResult> partial =
        aim::PartialResult::Deserialize(&reader);
    tracer->End("rta.PartialResult::Deserialize", t0);
    if (!partial.ok()) return false;
    ScopedSpan span(tracer, "rta.FinalizeResult");
    *out = aim::FinalizeResult(q, &world.dims.catalog,
                               std::move(partial).value());
    return out->status.ok();
  };

  // Initial fill.
  if (closed) {
    while (markers.size() < config.credit_window && submit_batch()) {
    }
  }
  for (std::size_t i = 0; i < slots.size() && in_window; ++i) {
    submit_query(static_cast<int>(i));
  }
  if (config.probes && in_window) {
    probe_event_due = start_ns;
    probe_query_due = start_ns;
  }

  std::vector<Reply> replies;
  std::int64_t window_end_ns = 0;
  std::int64_t drain_deadline = 0;
  while (true) {
    std::int64_t now = MonotonicNanos();
    if (in_window && now >= end_ns) in_window = false;
    if (!in_window && window_end_ns == 0) {
      window_end_ns = std::min(now, end_ns);
      drain_deadline = now + kDrainTimeoutNs;
    }

    // Event acknowledgements.
    while (!markers.empty() &&
           markers.front().marker->done.load(std::memory_order_acquire)) {
      const MarkerBatch m = markers.front();
      markers.pop_front();
      const std::int64_t acked_ns =
          config.node_stamps_completions ? m.marker->complete_nanos : now;
      if (!m.marker->status.ok()) {
        r.failed += 1;
      } else if (window_end_ns == 0 || acked_ns <= window_end_ns) {
        r.t_esp_ms.Add(acked_ns,
                       static_cast<double>(acked_ns - m.submit_ns) / 1e6);
        r.events_acked_in_window += m.events;
        r.events_acked.Add(acked_ns, m.events);
      }
      stream_acked += m.events;
      pool.Put(m.marker);
      if (config.max_events > 0 && stream_acked >= config.max_events &&
          in_window) {
        in_window = false;
        end_ns = acked_ns;
        window_end_ns = acked_ns;
        drain_deadline = now + kDrainTimeoutNs;
      }
    }
    while (!sampled.empty() &&
           sampled.front().completion->done.load(std::memory_order_acquire)) {
      const Sampled s = sampled.front();
      sampled.pop_front();
      const std::int64_t acked_ns = s.completion->complete_nanos;
      if (!s.completion->status.ok()) {
        r.failed += 1;
      } else if (window_end_ns == 0 || acked_ns <= window_end_ns) {
        r.t_esp_ms.Add(acked_ns, static_cast<double>(acked_ns - s.due_ns) / 1e6);
      }
      pool.Put(s.completion);
    }
    if (in_window) {
      if (closed) {
        while (markers.size() < config.credit_window && submit_batch()) {
        }
      } else {
        submit_paced(now);
      }
      if (now >= probe_event_due) {
        probe_event_due = INT64_MAX;
        submit_probe();
      }
      if (now >= probe_query_due) {
        probe_query_due = INT64_MAX;
        submit_probe_query();
      }
    }

    std::size_t busy = 0;
    for (const QuerySlot& s : slots) busy += s.busy ? 1 : 0;
    const bool idle = markers.empty() && sampled.empty() && busy == 0 &&
                      !probe_query_busy;
    if (!in_window && idle) break;
    if (!in_window && now > drain_deadline) {
      r.failed += markers.size() + sampled.size() + busy +
                  (probe_query_busy ? 1 : 0);
      pool.Leak();  // node threads may still complete these slots
      break;
    }

    std::int64_t wake = in_window ? end_ns : drain_deadline;
    if (!markers.empty() || !sampled.empty()) {
      wake = std::min(wake, now + kPollMicros * 1000);
    }
    if (in_window && !closed) {
      wake = std::min(wake, start_ns + static_cast<std::int64_t>(
                                           paced_next * paced_interval_ns));
    }
    if (in_window) wake = std::min({wake, probe_event_due, probe_query_due});
    replies.clear();
    box->WaitTake(wake, &replies);

    for (Reply& reply : replies) {
      const bool counted = window_end_ns == 0 || reply.t_ns <= window_end_ns;
      if (reply.slot == kProbeSlot) {
        probe_query_busy = false;
        const std::int64_t t0 = MonotonicNanos();
        aim::QueryResult result;
        if (!finalize(inputs.probe_query_object, reply.bytes, &result) ||
            result.rows.empty() || result.rows[0].values.empty()) {
          fail_stop(1);
          continue;
        }
        const double seen = result.rows[0].values[0];
        if (counted) {
          r.probe_rta_ms.Add(
              reply.t_ns,
              static_cast<double>(reply.t_ns - probe_query_submit_ns) / 1e6);
        }
        if (probe_pending &&
            seen >= static_cast<double>(r.probes_submitted)) {
          probe_pending = false;
          if (counted) {
            r.t_fresh_ms.Add(
                reply.t_ns,
                static_cast<double>(reply.t_ns - probe_submit_ns) / 1e6);
          }
          probe_event_due = jittered(reply.t_ns);
        }
        r.gen_query_us.Add(static_cast<double>(MonotonicNanos() - t0) / 1e3);
        probe_query_due = jittered(reply.t_ns);
        continue;
      }
      QuerySlot& s = slots[reply.slot];
      s.busy = false;
      const std::int64_t t0 = MonotonicNanos();
      aim::QueryResult result;
      if (!finalize(inputs.query_objects[s.query], reply.bytes, &result)) {
        fail_stop(1);
        continue;
      }
      if (counted) {
        const double ms = static_cast<double>(reply.t_ns - s.submit_ns) / 1e6;
        r.t_rta_ms.Add(reply.t_ns, ms);
        r.t_rta_class_ms[inputs.query_class[s.query]].Add(ms);
        ++r.queries_answered_in_window;
        r.queries_answered.Add(reply.t_ns, 1);
      }
      r.gen_query_us.Add(static_cast<double>(MonotonicNanos() - t0) / 1e3);
      if (in_window) submit_query(reply.slot);
    }
  }
  r.window_s = static_cast<double>(window_end_ns - start_ns) / 1e9;
  r.start_ns = start_ns;
  r.window_end_ns = window_end_ns;
  return r;
}

}  // namespace aimbench
