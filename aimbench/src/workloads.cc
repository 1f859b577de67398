#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "aim/common/binary_io.h"
#include "aim/common/random.h"
#include "aim/net/tcp_client.h"
#include "aim/net/tcp_server.h"
#include "aim/rta/simd.h"
#include "aim/server/local_node_channel.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/query_workload.h"
#include "checks.h"
#include "generator.h"
#include "layers.h"

namespace aimbench {
namespace {

using aim::MonotonicNanos;

// 01:00 on day 0: every generated event falls into the same day, week and
// month windows, so number_of_calls_this_month counts every event sent.
constexpr aim::Timestamp kStartTs = 3'600'000;
// Set-up repetitions per run: at least kMinSetups, more while they fit in
// kSetupBudgetS (short set-ups get more samples), at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;
constexpr int kCheckQueriesPerClass = 4;
// Pregenerated Q1..Q7 instances the generator cycles through.
constexpr std::size_t kQueries = 4096;
// recovery: timed recoveries per run.
constexpr int kRecoveries = 5;

struct Spec {
  std::uint64_t entities = 10000;
  bool tcp = false;
  bool durable = false;
  LoadConfig load;
  std::size_t events = 0;   // pregenerated stream events
  std::size_t probes = 0;   // pregenerated probe events
  // recovery: untimed events ingested after the incremental checkpoint,
  // which each recovery replays
  std::uint64_t tail_events = 0;
};

std::uint64_t ProbeEntity(const Spec& spec) { return spec.entities + 1; }

LoadInputs MakeInputs(const World& w, const Args& args, const Spec& spec) {
  LoadInputs in;
  aim::CdrGenerator::Options gopts;
  gopts.num_entities = spec.entities;
  gopts.seed = args.seed;
  aim::CdrGenerator gen(gopts);
  aim::BinaryWriter events;
  for (std::size_t i = 0; i < spec.events; ++i) {
    gen.Next(kStartTs + static_cast<aim::Timestamp>(i)).Serialize(&events);
  }
  in.events = events.TakeBuffer();

  // Probe events go to one reserved, bulk-loaded entity no stream event
  // touches, so its call count is exactly the number of probes seen.
  gopts.seed = args.seed ^ 0x5eed5eedULL;
  aim::CdrGenerator probe_gen(gopts);
  aim::BinaryWriter probes;
  for (std::size_t i = 0; i < spec.probes; ++i) {
    aim::Event e = probe_gen.Next(kStartTs + static_cast<aim::Timestamp>(i));
    e.caller = ProbeEntity(spec);
    e.Serialize(&probes);
  }
  in.probes = probes.TakeBuffer();

  aim::QueryWorkload qw(w.schema.get(), &w.dims, args.seed * 7919 + 1);
  aim::Random pick(args.seed * 104729 + 3);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const int cls = 1 + static_cast<int>(pick.Uniform(7));
    aim::Query q = qw.Make(cls);
    aim::BinaryWriter bytes;
    q.Serialize(&bytes);
    in.queries.push_back(bytes.TakeBuffer());
    in.query_class.push_back(cls);
    in.query_objects.push_back(std::move(q));
  }
  in.probe_query_object =
      *aim::QueryBuilder(w.schema.get())
           .Select(aim::AggOp::kSum, "number_of_calls_this_month")
           .Where("entity_id", aim::CmpOp::kEq,
                  aim::Value::UInt64(ProbeEntity(spec)))
           .Build();
  aim::BinaryWriter pq;
  in.probe_query_object.Serialize(&pq);
  in.probe_query = pq.TakeBuffer();
  return in;
}

std::vector<aim::Query> CheckQueries(const World& w, const Args& args) {
  aim::QueryWorkload qw(w.schema.get(), &w.dims, args.seed * 31 + 17);
  std::vector<aim::Query> out;
  for (int cls = 1; cls <= 7; ++cls) {
    for (int i = 0; i < kCheckQueriesPerClass; ++i) out.push_back(qw.Make(cls));
  }
  return out;
}

/// Calls per entity implied by what the generator sent: the first
/// `stream_events` of the stream and `probes` probe events.
std::vector<std::uint32_t> ExpectedCalls(const Spec& spec,
                                         const LoadInputs& in,
                                         std::uint64_t stream_events,
                                         std::uint64_t probes) {
  std::vector<std::uint32_t> calls(spec.entities + 2, 0);
  const std::size_t n = in.num_events();
  for (std::uint64_t i = 0; i < stream_events; ++i) {
    aim::EntityId caller;
    std::memcpy(&caller, &in.events[(i % n) * 64], sizeof(caller));
    ++calls[caller];
  }
  calls[ProbeEntity(spec)] = static_cast<std::uint32_t>(probes);
  return calls;
}

/// One set-up of the system under test: world, node, bulk load, (initial
/// checkpoint), start, (server + connection).
struct Deployment {
  World world;
  std::unique_ptr<aim::StorageNode> node;
  std::unique_ptr<aim::LocalNodeChannel> local;
  std::unique_ptr<aim::net::TcpServer> server;
  std::unique_ptr<aim::net::TcpClient> client;
  aim::NodeChannel* channel = nullptr;
  std::string server_addr;
  double setup_s = 0;
  double restart_s = 0;  // node construction -> serving

  void Stop() {
    if (client) client->Close();
    if (server) server->Stop();
    if (node) node->Stop();
  }
  ~Deployment() { Stop(); }
};

bool Deploy(const Spec& spec, const std::string& durable_dir, Deployment* d,
            std::string* why) {
  const std::int64_t t0 = MonotonicNanos();
  d->world = MakeWorld();
  const World& w = d->world;
  const std::int64_t r0 = MonotonicNanos();
  if (spec.durable) std::filesystem::remove_all(durable_dir);
  d->node = std::make_unique<aim::StorageNode>(
      w.schema.get(), &w.dims.catalog, &w.rules,
      NodeOptions(spec.durable ? durable_dir : ""));
  if (spec.durable) {
    aim::StatusOr<aim::StorageNode::RecoveryStats> st = d->node->Recover();
    if (!st.ok() || !st->cold_start) {
      *why = "cold-start Recover() failed";
      return false;
    }
  }
  std::vector<std::uint8_t> row(w.schema->record_size());
  for (aim::EntityId e = 1; e <= ProbeEntity(spec); ++e) {
    std::fill(row.begin(), row.end(), 0);
    aim::PopulateEntityProfile(*w.schema, w.dims, e, spec.entities,
                               row.data());
    if (!d->node->BulkLoad(e, row.data()).ok()) {
      *why = "bulk load failed";
      return false;
    }
  }
  if (spec.durable && !d->node->CheckpointNow().ok()) {
    *why = "initial checkpoint failed";
    return false;
  }
  if (!d->node->Start().ok()) {
    *why = "node start failed";
    return false;
  }
  d->local = std::make_unique<aim::LocalNodeChannel>(d->node.get());
  d->channel = d->local.get();
  if (spec.tcp) {
    aim::net::TcpServer::Options sopts;
    sopts.metrics = &d->node->metrics();
    d->server = std::make_unique<aim::net::TcpServer>(d->local.get(), sopts);
    if (!d->server->Start().ok()) {
      *why = "server start failed";
      return false;
    }
    d->server_addr = sopts.host + ":" + std::to_string(d->server->port());
    aim::net::TcpClient::Options copts;
    copts.port = d->server->port();
    copts.metrics = &d->node->metrics();
    d->client = std::make_unique<aim::net::TcpClient>(copts);
    if (!d->client->Connect().ok()) {
      *why = "client connect failed";
      return false;
    }
    d->channel = d->client.get();
  }
  const std::int64_t t1 = MonotonicNanos();
  d->setup_s = static_cast<double>(t1 - t0) / 1e9;
  d->restart_s = static_cast<double>(t1 - r0) / 1e9;
  return true;
}

struct SetupTimes {
  double setup_s = 0;    // median
  double restart_s = 0;  // median
  std::uint64_t count = 0;
};

/// Sets the system up repeatedly (keeping the last set-up) and returns the
/// median set-up and restart times.
std::unique_ptr<Deployment> DeployRepeatedly(const Spec& spec,
                                             const std::string& dir,
                                             SetupTimes* times,
                                             std::string* why) {
  std::vector<double> setups, restarts;
  std::unique_ptr<Deployment> d;
  double spent = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || spent < kSetupBudgetS);
       ++i) {
    d.reset();  // the previous set-up is torn down before the next starts
    d = std::make_unique<Deployment>();
    if (!Deploy(spec, dir, d.get(), why)) return nullptr;
    setups.push_back(d->setup_s);
    restarts.push_back(d->restart_s);
    spent += d->setup_s;
  }
  times->setup_s = Median(setups);
  times->restart_s = Median(restarts);
  times->count = setups.size();
  return d;
}

// Gated figures come from kSlices equal slices of the window (see Series):
// a rate is the slice rate a quarter of the slices reach, a latency the
// slice median a quarter of the slices beat. The shared host's noise (steal
// time, other tenants' memory traffic) only ever slows a slice, so the
// better quarter follows the system, the middle of the slices the host
// (README, "Steadiness rules"). The reference lines give exact quantiles
// over the whole window.
constexpr int kSlices = 20;
constexpr double kBetterQuarter = 0.25;
constexpr std::size_t kMinSliceSamples = 10;

std::int64_t SliceNs(const LoadResult& r) {
  return std::max<std::int64_t>(1, (r.window_end_ns - r.start_ns) / kSlices);
}

double QuantileOf(const std::vector<double>& v, double q) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.Quantile(q);
}

/// The per-slice figures behind the gated metrics (rates, and medians of
/// the latency series), kept in the run JSON; throughput and latencies go
/// to the end-to-end report, the slice medians to the reference lines.
void AddSliced(RunOutput* out, const Series& rate, const Series& t_esp,
               const Series& t_rta, const Series& t_fresh,
               const LoadResult& r) {
  const std::int64_t slice = SliceNs(r);
  const std::vector<double> rates =
      rate.SliceRates(r.start_ns, r.window_end_ns, slice);
  out->slices.emplace_back("throughput_per_s", rates);
  out->end_to_end.Add("throughput_per_s",
                      QuantileOf(rates, 1 - kBetterQuarter), "1/s",
                      rates.size());
  out->kpis.Add("throughput_per_s(slice median)", QuantileOf(rates, 0.5),
                "1/s", rates.size());
  for (const auto& [name, s] : {std::pair<const char*, const Series*>{
                                    "t_esp_p50_ms", &t_esp},
                                {"t_rta_p50_ms", &t_rta},
                                {"t_fresh_p50_ms", &t_fresh}}) {
    std::vector<double> medians = s->SliceQuantiles(
        0.5, r.start_ns, r.window_end_ns, slice, kMinSliceSamples);
    // Too few samples for any slice: the window's median.
    if (medians.empty()) medians.push_back(s->All().Quantile(0.5));
    // Only the median is gated: on the shared reference host the p90s
    // spread too far between runs (README, "Steadiness rules").
    out->end_to_end.Add(name, QuantileOf(medians, kBetterQuarter), "ms",
                        s->size());
    out->kpis.Add(std::string(name) + "(slice median)",
                  QuantileOf(medians, 0.5), "ms", medians.size());
    out->slices.emplace_back(name, std::move(medians));
  }
}

void AddWindowLatency(Report* k, const std::string& name, const Series& s) {
  const Samples all = s.All();
  for (const auto& [q, tag] : {std::pair{0.5, "_p50_ms"}, {0.9, "_p90_ms"},
                               {0.99, "_p99_ms"}, {1.0, "_max_ms"}}) {
    k->Add(name + tag, all.Quantile(q), "ms", all.size());
  }
}

void Header(RunOutput* out, const Args& args, const Spec& spec,
            const char* workload) {
  auto add = [&](const std::string& k, const std::string& v) {
    out->header.emplace_back(k, v);
  };
  const aim::StorageNode::Options o = NodeOptions(spec.durable ? "tmp" : "");
  add("workload", workload);
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
  add("simd_level", aim::simd::SimdLevelName(aim::simd::ActiveLevel()));
#if defined(NDEBUG)
  add("build_type", "Release");
#else
  add("build_type", "Debug");
#endif
  add("git_sha", args.git_sha);
  add("src_digest", args.src_digest);
  add("seed", std::to_string(args.seed));
  add("seconds", std::to_string(args.seconds));
  add("trace", args.trace ? "1" : "0");
  add("entities", std::to_string(spec.entities));
  add("probe_entity", std::to_string(ProbeEntity(spec)));
  add("transport", spec.tcp ? "tcp-loopback" : "in-process");
  add("node.num_partitions", std::to_string(o.num_partitions));
  add("node.num_esp_threads", std::to_string(o.num_esp_threads));
  add("node.max_query_batch", std::to_string(o.max_query_batch));
  add("node.max_event_batch", std::to_string(o.max_event_batch));
  add("node.scan_poll_micros", std::to_string(o.scan_poll_micros));
  add("node.esp_idle_micros", std::to_string(o.esp_idle_micros));
  add("node.scan_pool_threads", std::to_string(o.scan_pool_threads));
  add("node.durable", spec.durable ? "1" : "0");
  add("node.group_commit_micros",
      std::to_string(o.durability.group_commit_micros));
  const bool closed = spec.load.events == LoadConfig::Events::kClosed;
  add("events", closed ? "closed loop, " +
                             std::to_string(spec.load.credit_window) +
                             " marker batches of " +
                             std::to_string(kBatchEvents)
                       : "open loop, " +
                             std::to_string(static_cast<int>(kPacedEps)) +
                             "/s, every " + std::to_string(kPacedSampleEvery) +
                             "th timed from its due time");
  if (spec.tail_events > 0) {
    add("events.tail", std::to_string(spec.tail_events) +
                           " untimed after the incremental checkpoint");
    add("recoveries", std::to_string(kRecoveries));
  }
  add("queries_outstanding", std::to_string(spec.load.queries_outstanding));
  add("freshness_probes", spec.load.probes ? "1" : "0");
  add("setups_per_run", "at least " + std::to_string(kMinSetups) +
                            ", more within " +
                            std::to_string(kSetupBudgetS) + " s, at most " +
                            std::to_string(kMaxSetups));
}

/// mixed and analytics: live window, quiesce, check, (replays).
bool RunLive(const Args& args, const Spec& spec, const char* workload,
             Tracer* tracer, RunOutput* out) {
  Header(out, args, spec, workload);
  SetupTimes setup;
  const std::string dir = args.tmp_dir + "/node";
  std::unique_ptr<Deployment> d =
      DeployRepeatedly(spec, dir, &setup, &out->why);
  if (!d) {
    out->attempted = out->failed = 1;  // the set-up itself failed
    return true;
  }
  const World& w = d->world;
  const LoadInputs in = MakeInputs(w, args, spec);

  const ObsSnapshot before = TakeObsSnapshot(*d->node, d->server_addr);
  const LoadResult r =
      RunLoad(d->channel, w, in, spec.load, args.seconds, tracer);
  const ObsSnapshot after = TakeObsSnapshot(*d->node, d->server_addr);
  out->attempted = r.events_submitted + r.queries_submitted + r.probe_queries;
  out->failed = r.failed;

  // Untimed output checks.
  const std::vector<std::uint32_t> calls =
      ExpectedCalls(spec, in, r.stream_events_submitted, r.probes_submitted);
  const double total = static_cast<double>(r.stream_events_submitted +
                                           r.probes_submitted);
  CheckSummary summary;
  out->correct =
      r.failed == 0 &&
      WaitPublished(d->channel, w, total, &out->why) &&
      CheckLiveOutputs(d->channel, w, d->node->options().bucket_size,
                       ProbeEntity(spec), calls, CheckQueries(w, args),
                       args.inject, &summary, &out->why);
  if (r.failed > 0 && out->why.empty()) out->why = "operations failed";
  out->header.emplace_back("checked",
                           std::to_string(summary.queries_checked) +
                               " answers (active and scalar tier) vs "
                               "RowQueryRun, " +
                               std::to_string(summary.rows_checked) +
                               " rows vs the generator's call counts");

  const bool closed = spec.load.events == LoadConfig::Events::kClosed;
  Report& e = out->end_to_end;
  e.Add("setup_s", setup.setup_s, "s", setup.count);
  e.Add("peak_rss_mb", PeakRssMb(), "MB");
  AddSliced(out, closed ? r.events_acked : r.queries_answered, r.t_esp_ms,
            r.t_rta_ms, r.t_fresh_ms, r);
  e.Add("rto_s", setup.restart_s, "s", setup.count);

  Report& k = out->kpis;
  if (closed) {
    k.Add("ingest_eps", r.events_acked_in_window / r.window_s, "events/s",
          r.events_acked_in_window);
  }
  k.Add("rta_qps", r.queries_answered_in_window / r.window_s, "queries/s",
        r.queries_answered_in_window);
  AddWindowLatency(&k, "t_rta", r.t_rta_ms);
  AddWindowLatency(&k, "t_esp", r.t_esp_ms);
  AddWindowLatency(&k, "t_fresh", r.t_fresh_ms);
  for (int c = 1; c <= 7; ++c) {
    k.Add("t_rta_q" + std::to_string(c) + "_p50_ms",
          r.t_rta_class_ms[c].Quantile(0.5), "ms", r.t_rta_class_ms[c].size());
  }
  if (!closed) {
    k.Add("generator_lag_p50_ms", r.lag_ms.Quantile(0.5), "ms",
          r.lag_ms.size());
  }
  k.Add("rto_s(volatile restart)", setup.restart_s, "s", setup.count);
  k.Add("window_s", r.window_s, "s");

  d->Stop();
  if (args.trace && out->correct) {
    LayerContext ctx;
    ctx.world = &w;
    ctx.inputs = &in;
    ctx.load = &r;
    ctx.obs_before = before;
    ctx.obs_after = after;
    ctx.node = d->node.get();
    ctx.entities = spec.entities;
    ctx.tmp_dir = args.tmp_dir;
    ctx.tracer = tracer;
    if (!RunLayerReplays(ctx, &out->layers, &out->why)) out->correct = false;
  }
  return true;
}

bool RunRecovery(const Args& args, const Spec& spec, Tracer* tracer,
                 RunOutput* out) {
  Header(out, args, spec, "recovery");
  SetupTimes setup;
  const std::string dir = args.tmp_dir + "/node";
  std::unique_ptr<Deployment> d =
      DeployRepeatedly(spec, dir, &setup, &out->why);
  if (!d) {
    out->attempted = out->failed = 1;  // the set-up itself failed
    return true;
  }
  const World& w = d->world;
  const LoadInputs in = MakeInputs(w, args, spec);
  const std::uint32_t parts = d->node->options().num_partitions;

  // Timed: durable ingest for the window. Then, untimed, an incremental
  // checkpoint cut with the ingest paused (its ~90 MB of I/O stays out of
  // the window) and a fixed tail of events, which every recovery replays
  // on top of the chain (full + incremental).
  aim::StorageNode* node = d->node.get();
  const ObsSnapshot before = TakeObsSnapshot(*node, "");
  const LoadResult r =
      RunLoad(d->channel, w, in, spec.load, args.seconds, tracer);
  const ObsSnapshot after = TakeObsSnapshot(*node, "");
  out->failed = r.failed;
  out->attempted = r.events_submitted + r.probe_queries;

  const std::uint64_t ckpt_want = node->checkpoints_completed() + parts;
  const double ckpt_start = NowSeconds();
  node->RequestCheckpoint();
  while (node->checkpoints_completed() < ckpt_want &&
         NowSeconds() - ckpt_start < 60) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double ckpt_s = NowSeconds() - ckpt_start;
  ++out->attempted;
  if (node->checkpoints_completed() < ckpt_want) {
    out->why = "incremental checkpoint failed";
    ++out->failed;
    return true;
  }
  LoadConfig tail = spec.load;
  tail.max_events = spec.tail_events;
  tail.first_event = r.stream_events_submitted;
  tail.probes = false;
  Tracer untraced(false);
  const LoadResult post = RunLoad(d->channel, w, in, tail, 0, &untraced);
  out->failed += post.failed;
  out->attempted += post.events_submitted;

  // The acknowledged pre-crash state, read back through the channel and
  // checked against the generator's stream: the timed events and the
  // untimed tail from event 0 on, plus the probes.
  const std::uint64_t last = ProbeEntity(spec);
  const std::uint32_t rs = w.schema->record_size();
  std::vector<std::uint8_t> acked_rows((last + 1) * rs);
  std::vector<std::uint32_t> calls =
      ExpectedCalls(spec, in,
                    r.stream_events_submitted + post.stream_events_submitted,
                    r.probes_submitted);
  if (args.inject == Args::Inject::kCalls) calls[1] += 1;
  bool calls_ok = true;
  if (!ReadRows(
          d->channel, w, last,
          [&](aim::EntityId e, const std::uint8_t* row) {
            std::memcpy(&acked_rows[e * rs], row, rs);
            if (calls_ok) calls_ok = CallsMatch(w, e, row, calls[e], &out->why);
          },
          &out->why) ||
      !calls_ok) {
    return true;
  }
  if (args.inject == Args::Inject::kRows) acked_rows[1 * rs + 8] ^= 0xff;
  // Crash: stop without a final checkpoint, so recovery must restore the
  // chain and replay the log tail.
  d->Stop();
  d->node.reset();

  std::vector<double> rtos;
  std::unique_ptr<aim::StorageNode> recovered;
  aim::StorageNode::RecoveryStats stats;
  bool rows_ok = true;
  for (int k = 0; k < kRecoveries && rows_ok; ++k) {
    recovered.reset();
    const std::int64_t t0 = MonotonicNanos();
    {
      ScopedSpan span(tracer, "server.StorageNode(ctor)+Recover+Start", k + 1);
      recovered = std::make_unique<aim::StorageNode>(
          w.schema.get(), &w.dims.catalog, &w.rules, NodeOptions(dir));
      aim::StatusOr<aim::StorageNode::RecoveryStats> st =
          recovered->Recover();
      if (!st.ok() || st->cold_start || !recovered->Start().ok()) {
        out->why = "recovery failed";
        ++out->failed;
        return true;
      }
      stats = *st;
    }
    rtos.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e9);
    ++out->attempted;
    const bool last_one = k + 1 == kRecoveries;
    if (k == 0 || last_one) {
      aim::LocalNodeChannel channel(recovered.get());
      std::uint64_t mismatched = 0;
      aim::EntityId first_bad = 0;
      if (!ReadRows(
              &channel, w, last,
              [&](aim::EntityId e, const std::uint8_t* row) {
                if (std::memcmp(&acked_rows[e * rs], row, rs) != 0) {
                  if (mismatched++ == 0) first_bad = e;
                }
              },
              &out->why)) {
        rows_ok = false;
      } else if (mismatched > 0) {
        out->why = std::to_string(mismatched) +
                   " recovered rows differ from the acknowledged state "
                   "(first: entity " +
                   std::to_string(first_bad) + ")";
        rows_ok = false;
      }
    }
    recovered->Stop();
  }
  out->correct = rows_ok && out->failed == 0;
  if (out->failed > 0 && out->why.empty()) out->why = "operations failed";
  out->header.emplace_back(
      "checked", std::to_string(last) +
                     " pre-crash rows vs the generator's call counts; "
                     "recovered rows byte for byte vs them, first and last "
                     "recovery");
  out->header.emplace_back(
      "recovery", std::to_string(rtos.size()) + " recoveries; each restores " +
                      std::to_string(stats.checkpoints_applied) +
                      " chain files and replays " +
                      std::to_string(stats.events_replayed) + " events");

  const double rto = Median(rtos);
  Report& e = out->end_to_end;
  e.Add("setup_s", setup.setup_s, "s", setup.count);
  e.Add("peak_rss_mb", PeakRssMb(), "MB");
  AddSliced(out, r.events_acked, r.t_esp_ms, r.probe_rta_ms, r.t_fresh_ms,
            r);
  e.Add("rto_s", rto, "s", rtos.size());

  Report& k = out->kpis;
  k.Add("ingest_eps(durable)", r.events_acked_in_window / r.window_s,
        "events/s", r.events_acked_in_window);
  AddWindowLatency(&k, "t_esp", r.t_esp_ms);
  AddWindowLatency(&k, "t_fresh", r.t_fresh_ms);
  AddWindowLatency(&k, "t_rta(probe)", r.probe_rta_ms);
  k.Add("rto_s", rto, "s", rtos.size());
  k.Add("rto_min_s", *std::min_element(rtos.begin(), rtos.end()), "s");
  k.Add("rto_max_s", *std::max_element(rtos.begin(), rtos.end()), "s");
  k.Add("window_s", r.window_s, "s");
  k.Add("incremental_checkpoint_s(untimed)", ckpt_s, "s");

  if (args.trace && out->correct) {
    LayerContext ctx;
    ctx.world = &w;
    ctx.inputs = &in;
    ctx.load = &r;
    ctx.obs_before = before;
    ctx.obs_after = after;
    ctx.node = recovered.get();
    ctx.entities = spec.entities;
    ctx.tmp_dir = args.tmp_dir;
    ctx.tracer = tracer;
    if (!RunLayerReplays(ctx, &out->layers, &out->why)) out->correct = false;
  }
  recovered.reset();
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace

bool RunWorkload(const Args& args, Tracer* tracer, RunOutput* out) {
  Spec spec;
  spec.load.seed = args.seed;
  if (args.workload == "mixed") {
    spec.entities = 10000;
    spec.tcp = true;
    spec.load.events = LoadConfig::Events::kClosed;
    spec.load.node_stamps_completions = false;  // TcpClient does not stamp
    spec.events = static_cast<std::size_t>(args.seconds * 40000) + 4096;
    spec.probes = static_cast<std::size_t>(args.seconds * 4000) + 64;
    return RunLive(args, spec, "mixed", tracer, out);
  }
  if (args.workload == "analytics") {
    spec.entities = 200000;
    spec.load.events = LoadConfig::Events::kPaced;
    spec.events = static_cast<std::size_t>(args.seconds * 1000) + 1024;
    spec.probes = static_cast<std::size_t>(args.seconds * 4000) + 64;
    return RunLive(args, spec, "analytics", tracer, out);
  }
  if (args.workload == "recovery") {
    spec.entities = 10000;
    spec.durable = true;
    spec.load.events = LoadConfig::Events::kClosed;
    // Up to 16 x 64 events wait on one group commit: see NodeOptions.
    spec.load.credit_window = 16;
    spec.load.queries_outstanding = 0;
    spec.tail_events = 30000;
    spec.events = static_cast<std::size_t>(args.seconds * 30000) +
                  spec.tail_events;
    spec.probes = static_cast<std::size_t>(args.seconds * 4000) + 64;
    return RunRecovery(args, spec, tracer, out);
  }
  return false;
}

}  // namespace aimbench
