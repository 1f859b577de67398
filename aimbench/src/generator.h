// The single load-generator thread. It submits asynchronously through a
// NodeChannel and never spin-waits: it sleeps on a condition variable that
// query replies signal, waking at most every kPollMicros to look at event
// completions (which carry no wakeup) and at paced due times.

#ifndef AIMBENCH_GENERATOR_H_
#define AIMBENCH_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "aim/net/node_channel.h"
#include "aim/rta/query.h"
#include "bench.h"

namespace aimbench {

/// Inputs generated from the seed before timing starts.
struct LoadInputs {
  std::vector<std::uint8_t> events;  // n x 64-byte serialized CDR events
  std::vector<std::uint8_t> probes;  // serialized probe events, in order
  std::vector<std::vector<std::uint8_t>> queries;  // serialized Q1..Q7
  std::vector<int> query_class;                    // 1..7, parallel
  std::vector<aim::Query> query_objects;           // parallel (replays)
  std::vector<std::uint8_t> probe_query;           // serialized probe query
  aim::Query probe_query_object;

  std::size_t num_events() const { return events.size() / 64; }
  std::size_t num_probes() const { return probes.size() / 64; }
};

// The load's fixed shape, the same in every workload.
// Closed loop: batches of kBatchEvents, the last event of each carrying the
// completion ("marker").
constexpr std::uint32_t kBatchEvents = 64;
// Paced (open loop): kPacedEps events/s, every kPacedSampleEvery-th carrying
// a completion timed from its due time.
constexpr double kPacedEps = 1000;
constexpr std::uint32_t kPacedSampleEvery = 4;
// Before each probe event and each probe query the generator waits a seeded
// uniform delay in [0, kProbeJitterMicros), so probes sample every phase of
// the node's scan cycle instead of locking onto it.
constexpr std::int64_t kProbeJitterMicros = 2000;
constexpr std::int64_t kPollMicros = 200;
// Event batches whose shape LoadResult::batch_shapes records.
constexpr std::size_t kRecordedBatches = 512;

struct LoadConfig {
  enum class Events { kClosed, kPaced };
  Events events = Events::kClosed;
  // Closed loop: marker batches outstanding.
  std::uint32_t credit_window = 2;
  // Closed loop: stop after this many events (0 = run for the window).
  std::uint64_t max_events = 0;
  // Index of the first stream event to submit (an earlier, untimed load may
  // have ingested a prefix).
  std::uint64_t first_event = 0;
  // The node stamps completion times (in-process channels); otherwise the
  // generator's observation time is the acknowledgement time.
  bool node_stamps_completions = true;
  std::uint32_t queries_outstanding = 8;
  bool probes = true;
  std::uint64_t seed = 1;
};

struct LoadResult {
  double window_s = 0;
  std::uint64_t events_submitted = 0;  // includes probes
  std::uint64_t stream_events_submitted = 0;  // prefix of inputs.events (mod n)
  std::uint64_t probes_submitted = 0;
  std::uint64_t events_acked_in_window = 0;
  std::uint64_t queries_submitted = 0;  // Q1..Q7 only
  std::uint64_t queries_answered_in_window = 0;
  std::uint64_t probe_queries = 0;
  std::uint64_t failed = 0;
  // Latencies and completions, stamped with the time they completed.
  Series t_esp_ms;
  Series t_rta_ms;
  Samples t_rta_class_ms[8];
  Series t_fresh_ms;
  Series probe_rta_ms;
  Series events_acked;      // marker acks: (time, events acknowledged)
  Series queries_answered;  // Q1..Q7 answers: (time, 1)
  Samples gen_event_us;  // generator time per event submitted
  Samples gen_query_us;  // generator time per query (submit + answer decode)
  Samples lag_ms;        // paced: submit time minus due time
  // The first kRecordedBatches SubmitEventBatch calls (probes included): one
  // flag per event, true where the event carries a completion.
  std::vector<std::vector<bool>> batch_shapes;
  std::int64_t start_ns = 0;
  std::int64_t window_end_ns = 0;
};

/// Runs the load for `seconds` (or until `max_events` are acknowledged),
/// then drains every outstanding operation. Spans go to `tracer`.
LoadResult RunLoad(aim::NodeChannel* channel, const World& world,
                   const LoadInputs& inputs, const LoadConfig& config,
                   double seconds, Tracer* tracer);

}  // namespace aimbench

#endif  // AIMBENCH_GENERATOR_H_
