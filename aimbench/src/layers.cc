#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <span>
#include <thread>
#include <unordered_set>

#include "aim/common/binary_io.h"
#include "aim/esp/esp_engine.h"
#include "aim/esp/rule_eval.h"
#include "aim/esp/update_kernel.h"
#include "aim/net/frame.h"
#include "aim/net/frame_assembler.h"
#include "aim/net/tcp_client.h"
#include "aim/net/tcp_server.h"
#include "aim/obs/registry.h"
#include "aim/rta/compiled_query.h"
#include "aim/rta/shared_scan.h"
#include "aim/rta/simd.h"
#include "aim/schema/record.h"
#include "aim/storage/event_log.h"
#include "aim/storage/fs_util.h"
#include "aim/storage/recovery.h"
#include "aim/workload/cdr_generator.h"

namespace aimbench {
namespace {

using aim::MonotonicNanos;

constexpr std::size_t kEventSize = 64;
constexpr std::size_t kMaxReplayEvents = 20000;
constexpr std::size_t kEspBatch = 64;  // StorageNode's max_event_batch
constexpr std::size_t kMaxReplayQueries = 256;
constexpr std::size_t kClassRepeats = 4;
constexpr std::uint32_t kNetBatch = 64;

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double S(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Delta(double after, double before) { return after - before; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<aim::Event> ReplayEvents(const LayerContext& ctx) {
  const std::size_t n_in = ctx.inputs->num_events();
  const std::size_t n = std::min<std::size_t>(
      kMaxReplayEvents, std::max<std::uint64_t>(
                            1, ctx.load->stream_events_submitted));
  std::vector<aim::Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    aim::BinaryReader r(&ctx.inputs->events[(i % n_in) * kEventSize],
                        kEventSize);
    events.push_back(aim::Event::Deserialize(&r));
  }
  return events;
}

/// A private store holding the bulk-loaded profile of every entity the
/// replayed events touch.
std::unique_ptr<aim::DeltaMainStore> MakeReplayStore(
    const LayerContext& ctx, const std::vector<aim::Event>& events) {
  std::unordered_set<aim::EntityId> touched;
  for (const aim::Event& e : events) touched.insert(e.caller);
  std::vector<aim::EntityId> ids(touched.begin(), touched.end());
  std::sort(ids.begin(), ids.end());
  aim::DeltaMainStore::Options opts;
  opts.max_records = ids.size() + 1024;
  auto store =
      std::make_unique<aim::DeltaMainStore>(ctx.world->schema.get(), opts);
  std::vector<std::uint8_t> row(ctx.world->schema->record_size());
  for (aim::EntityId e : ids) {
    std::fill(row.begin(), row.end(), 0);
    aim::PopulateEntityProfile(*ctx.world->schema, ctx.world->dims, e,
                               ctx.entities, row.data());
    AIM_CHECK(store->BulkInsert(e, row.data()).ok());
  }
  return store;
}

aim::SystemAttrs SysAttrs(const aim::Schema& schema) {
  aim::SystemAttrs sys;
  sys.entity_id = schema.FindAttribute("entity_id");
  sys.last_event_ts = schema.FindAttribute("last_event_ts");
  sys.preferred_number = schema.FindAttribute("preferred_number");
  return sys;
}

/// Events between two merges in the live window (>= 1).
std::size_t EventsPerCycle(const LayerContext& ctx) {
  const double cycles =
      Delta(ctx.obs_after.scan_cycles, ctx.obs_before.scan_cycles);
  const double events = static_cast<double>(ctx.load->events_submitted);
  return static_cast<std::size_t>(std::max(1.0, Ratio(events, cycles)));
}

void ServerMetrics(const LayerContext& ctx, Report* out) {
  const ObsSnapshot& a = ctx.obs_after;
  const ObsSnapshot& b = ctx.obs_before;
  out->Add("server.esp_batch_events_mean",
           Ratio(Delta(a.esp_batch_events, b.esp_batch_events),
                 Delta(a.esp_batches, b.esp_batches)),
           "events");
  out->Add("server.rta_batch_queries_mean",
           Ratio(Delta(a.rta_batch_queries, b.rta_batch_queries),
                 Delta(a.rta_batches, b.rta_batches)),
           "queries");
  out->Add("server.scan_cycles_per_s",
           Ratio(Delta(a.scan_cycles, b.scan_cycles), a.t_s - b.t_s), "1/s");
  const double node_ms = Ratio(Delta(a.rta_reply_us, b.rta_reply_us),
                               Delta(a.rta_replies, b.rta_replies)) /
                         1e3;
  out->Add("server.rta_node_ms_mean", node_ms, "ms");
  out->Add("server.merge_records_per_cycle",
           Ratio(Delta(a.records_merged, b.records_merged),
                 Delta(a.merges, b.merges)),
           "records");
  if (a.writevs > b.writevs) {
    out->Add("net.frames_per_writev",
             Ratio(Delta(a.writev_frames, b.writev_frames),
                   Delta(a.writevs, b.writevs)),
             "frames");
  }
  const LoadResult& l = *ctx.load;
  const Samples client =
      (l.t_rta_ms.size() > 0 ? l.t_rta_ms : l.probe_rta_ms).All();
  out->Add("net.query_overhead_ms", client.Mean() - node_ms, "ms");
  out->Add("workload.gen_us_per_event", l.gen_event_us.Mean(), "us",
           l.gen_event_us.size());
  out->Add("workload.gen_us_per_query", l.gen_query_us.Mean(), "us",
           l.gen_query_us.size());
  if (l.lag_ms.size() > 0) {
    out->Add("workload.generator_lag_ms", l.lag_ms.Mean(), "ms",
             l.lag_ms.size());
  }
}

/// ESP and storage replays on private stores.
bool EspStorageReplays(const LayerContext& ctx, Report* out,
                       std::string* why) {
  const World& w = *ctx.world;
  const aim::Schema& schema = *w.schema;
  Tracer* tr = ctx.tracer;
  const std::vector<aim::Event> events = ReplayEvents(ctx);
  const std::size_t per_cycle = EventsPerCycle(ctx);
  const std::uint16_t entity_attr = schema.FindAttribute("entity_id");
  const aim::SystemAttrs sys = SysAttrs(schema);
  const std::string dir = ctx.tmp_dir + "/layers";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/ckpt");
  const std::string ckpt_dir = dir + "/ckpt";
  const std::string log_path = dir + "/events.log";

  // Pass A: EspEngine::ProcessBatch as the node runs it, with a delta swap
  // and merge every `per_cycle` events, every batch appended and synced to
  // an event log, a full checkpoint first and an incremental one halfway.
  {
    auto store = MakeReplayStore(ctx, events);
    aim::EspEngine::Options eopts;
    aim::EspEngine engine(w.schema.get(), store.get(), &w.rules, sys, eopts);
    aim::EventLog log;
    if (!log.Open(log_path).ok()) {
      *why = "event log open failed";
      return false;
    }
    std::int64_t t0 = MonotonicNanos();
    aim::StatusOr<aim::checkpoint::ChainTip> full =
        aim::checkpoint::WriteChained(store.get(), entity_attr, ckpt_dir, 0,
                                      /*force_full=*/true);
    tr->End("storage.checkpoint::WriteChained(full)", t0);
    const std::int64_t full_ns = MonotonicNanos() - t0;
    if (!full.ok()) {
      *why = "full checkpoint: " + full.status().ToString();
      return false;
    }
    const aim::StatusOr<std::uint64_t> full_bytes = aim::fs::FileSize(
        aim::checkpoint::ChainFileName(ckpt_dir, full->epoch));
    if (!full_bytes.ok()) {
      *why = "checkpoint file missing";
      return false;
    }
    const double full_mb =
        static_cast<double>(*full_bytes) / (1024.0 * 1024.0);

    aim::EspEngine::BatchResult result;
    std::int64_t process_ns = 0, append_ns = 0, sync_ns = 0, merge_ns = 0,
                 incr_ns = 0;
    std::uint64_t batches = 0, merges = 0, merged_records = 0;
    std::size_t since_merge = 0;
    bool incr_done = false;
    std::vector<std::uint8_t> payload;
    auto merge = [&] {
      const std::int64_t m0 = MonotonicNanos();
      store->SwitchDeltas();
      merged_records += store->MergeStep();
      tr->End("storage.SwitchDeltas+MergeStep", m0);
      merge_ns += MonotonicNanos() - m0;
      ++merges;
      since_merge = 0;
    };
    for (std::size_t i = 0; i < events.size(); i += kEspBatch) {
      const std::size_t n = std::min(kEspBatch, events.size() - i);
      std::int64_t s0 = MonotonicNanos();
      engine.ProcessBatch(std::span<const aim::Event>(&events[i], n), &result);
      tr->End("esp.EspEngine::ProcessBatch", s0);
      process_ns += MonotonicNanos() - s0;

      aim::BinaryWriter writer(std::move(payload));
      aim::EncodeEventBatchHeader(static_cast<std::uint32_t>(n), kEventSize,
                                  &writer);
      for (std::size_t k = i; k < i + n; ++k) events[k].Serialize(&writer);
      s0 = MonotonicNanos();
      aim::StatusOr<aim::EventLog::Lsn> lsn = log.Append(writer.buffer());
      tr->End("storage.EventLog::Append", s0);
      append_ns += MonotonicNanos() - s0;
      payload = writer.TakeBuffer();
      if (!lsn.ok()) {
        *why = "log append failed";
        return false;
      }
      s0 = MonotonicNanos();
      const aim::Status synced = log.Sync(*lsn);
      tr->End("storage.EventLog::Sync", s0);
      sync_ns += MonotonicNanos() - s0;
      if (!synced.ok()) {
        *why = "log sync failed";
        return false;
      }
      ++batches;
      since_merge += n;
      if (since_merge >= per_cycle) merge();
      if (!incr_done && i + n >= events.size() / 2) {
        if (since_merge > 0) merge();
        s0 = MonotonicNanos();
        aim::StatusOr<aim::checkpoint::ChainTip> incr =
            aim::checkpoint::WriteChained(store.get(), entity_attr, ckpt_dir,
                                          log.end_lsn());
        tr->End("storage.checkpoint::WriteChained(incremental)", s0);
        incr_ns = MonotonicNanos() - s0;
        if (!incr.ok()) {
          *why = "incremental checkpoint: " + incr.status().ToString();
          return false;
        }
        incr_done = true;
      }
    }
    if (since_merge > 0) merge();
    const double log_bytes = static_cast<double>(log.end_lsn());
    (void)log.Close();
    const aim::EspEngine::Stats st = engine.stats();

    out->Add("esp.process_us_per_event",
             Us(process_ns) / static_cast<double>(events.size()), "us",
             events.size());
    out->Add("esp.rules_fired_per_event",
             Ratio(static_cast<double>(st.rules_fired),
                   static_cast<double>(st.events_processed)),
             "count");
    out->Add("storage.merge_ms_per_cycle",
             Ms(merge_ns) / static_cast<double>(merges), "ms", merges);
    out->Add("storage.merge_us_per_record",
             Us(merge_ns) / static_cast<double>(std::max<std::uint64_t>(
                                1, merged_records)),
             "us", merged_records);
    out->Add("storage.log_append_us_per_batch",
             Us(append_ns) / static_cast<double>(batches), "us", batches);
    out->Add("storage.log_sync_ms", Ms(sync_ns) / static_cast<double>(batches),
             "ms", batches);
    out->Add("storage.log_bytes_per_event",
             log_bytes / static_cast<double>(events.size()), "bytes");
    out->Add("storage.checkpoint_full_s", S(full_ns), "s");
    out->Add("storage.checkpoint_incr_s", S(incr_ns), "s");
    out->Add("storage.checkpoint_mb", full_mb, "MB");
  }

  // Recovery phases over what pass A left on disk: read + crc of the log,
  // restore of the checkpoint chain, replay of the log tail.
  {
    std::int64_t t0 = MonotonicNanos();
    aim::StatusOr<aim::EventLog::ReplayStats> read = aim::EventLog::Replay(
        log_path, 0, [](aim::EventLog::Lsn, std::span<const std::uint8_t>) {});
    tr->End("storage.EventLog::Replay(no-op)", t0);
    const std::int64_t read_ns = MonotonicNanos() - t0;
    if (!read.ok()) {
      *why = "log read failed";
      return false;
    }
    aim::DeltaMainStore::Options opts;
    opts.max_records = events.size() + 1024;
    aim::DeltaMainStore store(w.schema.get(), opts);
    t0 = MonotonicNanos();
    aim::StatusOr<aim::checkpoint::ChainTip> tip =
        aim::checkpoint::RecoverChain(ckpt_dir, &store);
    tr->End("storage.checkpoint::RecoverChain", t0);
    const std::int64_t restore_ns = MonotonicNanos() - t0;
    if (!tip.ok()) {
      *why = "RecoverChain: " + tip.status().ToString();
      return false;
    }
    aim::EspEngine::Options eopts;
    aim::EspEngine engine(w.schema.get(), &store, &w.rules, sys, eopts);
    aim::EspEngine::BatchResult result;
    std::vector<aim::Event> batch;
    std::uint64_t replayed = 0;
    bool decode_ok = true;
    t0 = MonotonicNanos();
    aim::StatusOr<aim::EventLog::ReplayStats> replay = aim::EventLog::Replay(
        log_path, tip->log_lsn,
        [&](aim::EventLog::Lsn, std::span<const std::uint8_t> payload) {
          aim::LogPayloadView view;
          if (!aim::DecodeLogPayload(payload, &view).ok()) {
            decode_ok = false;
            return;
          }
          batch.clear();
          for (std::uint32_t k = 0; k < view.event_count; ++k) {
            aim::BinaryReader r(view.events.data() + k * view.event_size,
                                view.event_size);
            batch.push_back(aim::Event::Deserialize(&r));
          }
          engine.ProcessBatch(std::span<const aim::Event>(batch), &result);
          replayed += batch.size();
        });
    tr->End("storage.EventLog::Replay(apply)", t0);
    const std::int64_t replay_ns = MonotonicNanos() - t0;
    if (!replay.ok() || !decode_ok) {
      *why = "log replay failed";
      return false;
    }
    out->Add("storage.log_read_s", S(read_ns), "s");
    out->Add("storage.restore_s", S(restore_ns), "s");
    out->Add("storage.replay_s", S(replay_ns), "s");
    out->Add("storage.replay_us_per_event",
             Us(replay_ns) /
                 static_cast<double>(std::max<std::uint64_t>(1, replayed)),
             "us", replayed);
  }
  std::filesystem::remove_all(dir);

  // Pass B: the single-row transaction split into its module calls.
  {
    auto store = MakeReplayStore(ctx, events);
    const aim::UpdateProgram program(schema, sys.preferred_number);
    const aim::RuleEvaluator evaluator(&w.rules);
    std::vector<std::uint8_t> row(schema.record_size());
    std::vector<std::uint32_t> matched;
    std::int64_t update_ns = 0, rules_ns = 0, delta_ns = 0;
    std::size_t since_merge = 0;
    for (const aim::Event& e : events) {
      const std::int64_t t0 = MonotonicNanos();
      aim::Version version = 0;
      const aim::Status got = store->Get(e.caller, row.data(), &version);
      const std::int64_t t1 = MonotonicNanos();
      program.Apply(e, row.data());
      const std::int64_t t2 = MonotonicNanos();
      evaluator.Evaluate(e, aim::ConstRecordView(&schema, row.data()),
                         &matched);
      const std::int64_t t3 = MonotonicNanos();
      const aim::Status put = store->Put(e.caller, row.data(), version);
      const std::int64_t t4 = MonotonicNanos();
      if (!got.ok() || !put.ok()) {
        *why = "replay Get/Put failed";
        return false;
      }
      delta_ns += (t1 - t0) + (t4 - t3);
      update_ns += t2 - t1;
      rules_ns += t3 - t2;
      tr->Record("esp.DeltaMainStore::Get", t0, t1 - t0);
      tr->Record("esp.UpdateProgram::Apply", t1, t2 - t1);
      tr->Record("esp.RuleEvaluator::Evaluate", t2, t3 - t2);
      tr->Record("esp.DeltaMainStore::Put", t3, t4 - t3);
      if (++since_merge >= per_cycle) {
        store->SwitchDeltas();
        store->MergeStep();
        since_merge = 0;
      }
    }
    const double n = static_cast<double>(events.size());
    out->Add("esp.update_us_per_event", Us(update_ns) / n, "us",
             events.size());
    out->Add("esp.rules_us_per_event", Us(rules_ns) / n, "us", events.size());
    out->Add("esp.delta_put_us_per_event", Us(delta_ns) / n, "us",
             events.size());
  }
  return true;
}

/// Scan, compile, merge and codec replays over the stopped node's mains.
bool RtaReplays(const LayerContext& ctx, Report* out, std::string* why) {
  const World& w = *ctx.world;
  Tracer* tr = ctx.tracer;
  const aim::StorageNode& node = *ctx.node;
  const std::uint32_t parts = node.options().num_partitions;
  const std::vector<aim::Query>& all = ctx.inputs->query_objects;
  const std::size_t nq = std::min(kMaxReplayQueries, all.size());
  std::uint64_t rows = 0;
  for (std::uint32_t p = 0; p < parts; ++p) {
    rows += node.partition(p).main().num_records();
  }

  // The node is stopped: nothing mutates its stores, and ScanStep only reads.
  std::vector<aim::SharedScan> scans;
  for (std::uint32_t p = 0; p < parts; ++p) {
    scans.emplace_back(const_cast<aim::DeltaMainStore*>(&node.partition(p)));
  }
  std::int64_t compile_ns = 0;
  auto compile = [&](const aim::Query& q) {
    const std::int64_t t0 = MonotonicNanos();
    aim::StatusOr<aim::CompiledQuery> cq =
        aim::CompiledQuery::Compile(q, w.schema.get(), &w.dims.catalog);
    tr->End("rta.CompiledQuery::Compile", t0);
    compile_ns += MonotonicNanos() - t0;
    return cq;
  };

  std::int64_t scan_ns = 0, merge_ns = 0, codec_ns = 0;
  std::uint64_t batches = 0, merged = 0;
  for (std::size_t b = 0; b + 8 <= nq; b += 8) {
    // partials[p][i]: partition p's partial for query b+i.
    std::vector<std::vector<aim::PartialResult>> partials(parts);
    for (std::uint32_t p = 0; p < parts; ++p) {
      std::vector<aim::CompiledQuery> batch;
      for (std::size_t i = b; i < b + 8; ++i) {
        aim::StatusOr<aim::CompiledQuery> cq = compile(all[i]);
        if (!cq.ok()) {
          *why = "compile failed: " + cq.status().ToString();
          return false;
        }
        batch.push_back(std::move(cq).value());
      }
      const std::int64_t t0 = MonotonicNanos();
      scans[p].ScanStep(batch);
      tr->End("rta.SharedScan::ScanStep(8)", t0, b / 8 + 1);
      scan_ns += MonotonicNanos() - t0;
      for (aim::CompiledQuery& cq : batch) {
        partials[p].push_back(cq.TakePartial());
      }
    }
    ++batches;
    for (std::size_t i = 0; i < 8; ++i) {
      const aim::Query& q = all[b + i];
      std::int64_t t0 = MonotonicNanos();
      aim::PartialResult m = std::move(partials[0][i]);
      for (std::uint32_t p = 1; p < parts; ++p) m.MergeFrom(partials[p][i], q);
      // Codec round trip of what crosses the wire per query: the query out,
      // the node's merged partial back.
      const std::int64_t c0 = MonotonicNanos();
      aim::BinaryWriter qw;
      q.Serialize(&qw);
      aim::BinaryReader qr(qw.buffer());
      aim::StatusOr<aim::Query> q2 = aim::Query::Deserialize(&qr);
      aim::BinaryWriter pw;
      m.Serialize(&pw);
      aim::BinaryReader pr(pw.buffer());
      aim::StatusOr<aim::PartialResult> m2 =
          aim::PartialResult::Deserialize(&pr);
      const std::int64_t c1 = MonotonicNanos();
      tr->Record("rta.Query+PartialResult codec", c0, c1 - c0);
      codec_ns += c1 - c0;
      if (!q2.ok() || !m2.ok()) {
        *why = "codec round trip failed";
        return false;
      }
      const std::int64_t f0 = MonotonicNanos();
      aim::QueryResult res =
          aim::FinalizeResult(q, &w.dims.catalog, std::move(m2).value());
      const std::int64_t f1 = MonotonicNanos();
      tr->Record("rta.PartialResult::MergeFrom+FinalizeResult", t0,
                 (c0 - t0) + (f1 - f0));
      merge_ns += (c0 - t0) + (f1 - f0);
      ++merged;
    }
  }
  out->Add("rta.compile_us_per_query",
           Us(compile_ns) / static_cast<double>(merged * parts), "us",
           merged * parts);
  out->Add("rta.scan_ms_per_batch", Ms(scan_ns) / static_cast<double>(batches),
           "ms", batches);
  out->Add("rta.partial_merge_us_per_query",
           Us(merge_ns) / static_cast<double>(merged), "us", merged);
  out->Add("rta.query_codec_us", Us(codec_ns) / static_cast<double>(merged),
           "us", merged);

  // Each class scanned alone: ns per row per query.
  for (int cls = 1; cls <= 7; ++cls) {
    std::int64_t ns = 0;
    std::uint64_t scans_done = 0;
    for (std::size_t i = 0; i < all.size() && scans_done < kClassRepeats;
         ++i) {
      if (ctx.inputs->query_class[i] != cls) continue;
      for (std::uint32_t p = 0; p < parts; ++p) {
        aim::StatusOr<aim::CompiledQuery> cq = compile(all[i]);
        if (!cq.ok()) {
          *why = "compile failed";
          return false;
        }
        std::vector<aim::CompiledQuery> one;
        one.push_back(std::move(cq).value());
        const std::int64_t t0 = MonotonicNanos();
        scans[p].ScanStep(one);
        tr->End("rta.SharedScan::ScanStep(1)", t0, static_cast<std::uint64_t>(cls));
        ns += MonotonicNanos() - t0;
      }
      ++scans_done;
    }
    out->Add("rta.scan_ns_per_row.q" + std::to_string(cls),
             static_cast<double>(ns) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, scans_done * rows)),
             "ns", scans_done);
  }

  // Kernel throughput at the dispatched tier over partition 0's main.
  const aim::ColumnMap& main = node.partition(0).main();
  const aim::Schema& schema = *w.schema;
  const std::uint16_t filter_attr =
      schema.FindAttribute("number_of_calls_this_week");
  const std::uint16_t agg_attr =
      schema.FindAttribute("total_duration_this_week");
  const aim::ValueType filter_type = schema.attribute(filter_attr).type;
  const aim::ValueType agg_type = schema.attribute(agg_attr).type;
  aim::ScanScratch scratch;
  std::uint8_t* mask = scratch.MaskFor(main.bucket_size());
  std::int64_t filter_ns = 0, agg_ns = 0;
  std::uint64_t values = 0;
  aim::simd::AggAccum acc;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint32_t b = 0; b < main.num_buckets(); ++b) {
      const aim::ColumnMap::BucketRef bucket = main.bucket(b);
      std::int64_t t0 = MonotonicNanos();
      aim::simd::FilterColumn(filter_type, bucket.Column(main, filter_attr),
                              bucket.count, aim::CmpOp::kGt,
                              aim::Value::Zero(filter_type), mask, false);
      const std::int64_t t1 = MonotonicNanos();
      aim::simd::MaskedAggregate(agg_type, bucket.Column(main, agg_attr), mask,
                                 bucket.count, &acc);
      const std::int64_t t2 = MonotonicNanos();
      tr->Record("rta.simd::FilterColumn", t0, t1 - t0);
      tr->Record("rta.simd::MaskedAggregate", t1, t2 - t1);
      filter_ns += t1 - t0;
      agg_ns += t2 - t1;
      values += bucket.count;
    }
  }
  const double nv = static_cast<double>(std::max<std::uint64_t>(1, values));
  out->Add("rta.simd_filter_ns_per_value", static_cast<double>(filter_ns) / nv,
           "ns", values);
  out->Add("rta.simd_aggregate_ns_per_value", static_cast<double>(agg_ns) / nv,
           "ns", values);
  return true;
}

/// Accepts every event and completes it at once; serves nothing else.
/// Behind a TcpServer it lets the replay count the bytes a TcpClient puts
/// on the wire without a node.
class SinkChannel : public aim::NodeChannel {
 public:
  explicit SinkChannel(std::uint32_t record_size)
      : record_size_(record_size) {}
  NodeInfo info() const override {
    NodeInfo i;
    i.record_size = record_size_;
    i.features = kFeatureEventBatch;
    return i;
  }
  bool SubmitEvent(std::vector<std::uint8_t>,
                   aim::EventCompletion* completion) override {
    if (completion != nullptr) {
      completion->complete_nanos = MonotonicNanos();
      completion->done.store(true, std::memory_order_release);
    }
    return true;
  }
  bool SubmitQuery(std::vector<std::uint8_t>,
                   std::function<void(std::vector<std::uint8_t>&&)>) override {
    return false;
  }
  bool SubmitRecordRequest(aim::RecordRequest) override { return false; }

 private:
  std::uint32_t record_size_;
};

/// Wire bytes per event: the workload's recorded event batches, same shapes
/// and completions, replayed through a TcpClient into a TcpServer over a
/// SinkChannel, divided by the bytes the server received.
bool WireBytesPerEvent(const LayerContext& ctx, double* out,
                       std::string* why) {
  SinkChannel sink(ctx.world->schema->record_size());
  aim::MetricsRegistry registry;
  aim::net::TcpServer::Options sopts;
  sopts.metrics = &registry;
  aim::net::TcpServer server(&sink, sopts);
  if (!server.Start().ok()) {
    *why = "replay server start failed";
    return false;
  }
  aim::net::TcpClient::Options copts;
  copts.port = server.port();
  copts.metrics = &registry;
  aim::net::TcpClient client(copts);
  const std::string addr = sopts.host + ":" + std::to_string(server.port());
  const aim::Counter* received = registry.GetCounter(
      "aim_net_bytes_received_total", {{"role", "server"}, {"addr", addr}});
  const aim::Counter* sent = registry.GetCounter(
      "aim_net_bytes_sent_total", {{"role", "client"}, {"peer", addr}});
  if (!client.Connect().ok()) {
    *why = "replay client connect failed";
    server.Stop();
    return false;
  }
  // The hello handshake is behind us; count only the events' bytes.
  const std::uint64_t received_before = received->Value();
  const std::uint64_t sent_before = sent->Value();
  auto received_all = [&] {
    return received->Value() - received_before >= sent->Value() - sent_before;
  };
  const std::size_t n_in = ctx.inputs->num_events();
  std::vector<std::unique_ptr<aim::EventCompletion>> completions;
  std::uint64_t events = 0;
  bool ok = true;
  for (const std::vector<bool>& shape : ctx.load->batch_shapes) {
    std::vector<aim::EventMessage> batch(shape.size());
    for (std::size_t i = 0; i < shape.size(); ++i) {
      const std::uint8_t* e = &ctx.inputs->events[(events % n_in) * kEventSize];
      batch[i].bytes.assign(e, e + kEventSize);
      if (shape[i]) {
        completions.push_back(std::make_unique<aim::EventCompletion>());
        batch[i].completion = completions.back().get();
      }
      ++events;
    }
    ok = client.SubmitEventBatch(std::move(batch)) == shape.size();
    if (!ok) break;
  }
  for (const auto& c : completions) {
    // The client fails a completion itself on timeout or disconnect.
    if (ok) ok = c->WaitFor(10'000) && c->status.ok();
  }
  const std::int64_t deadline = MonotonicNanos() + 10'000'000'000;
  while (ok && !received_all() && MonotonicNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ok = ok && received_all() && events > 0;
  *out = Ratio(static_cast<double>(received->Value() - received_before),
               static_cast<double>(events));
  client.Close();
  server.Stop();
  if (!ok) *why = "wire replay through TcpClient failed";
  return ok;
}

/// Frame codec replays over the workload's events in EVENT_BATCH frames.
bool NetReplays(const LayerContext& ctx, Report* out, std::string* why) {
  Tracer* tr = ctx.tracer;
  const std::size_t n_in = ctx.inputs->num_events();
  const std::size_t n_batches = std::max<std::size_t>(
      1, std::min<std::size_t>(kMaxReplayEvents, ctx.load->stream_events_submitted) /
             kNetBatch);
  std::int64_t enc_ns = 0, dec_ns = 0;
  std::vector<std::vector<std::uint8_t>> decoded;
  for (std::size_t b = 0; b < n_batches; ++b) {
    std::vector<aim::EventMessage> batch(kNetBatch);
    for (std::uint32_t i = 0; i < kNetBatch; ++i) {
      const std::uint8_t* e =
          &ctx.inputs->events[((b * kNetBatch + i) % n_in) * kEventSize];
      batch[i].bytes.assign(e, e + kEventSize);
    }
    std::int64_t t0 = MonotonicNanos();
    aim::BinaryWriter payload;
    aim::net::EncodeEventBatch(batch, &payload);
    const std::vector<std::uint8_t> frame = aim::net::BuildFrame(
        aim::net::FrameType::kEventBatch, aim::net::kFlagNoReply, 0,
        payload.buffer().data(), payload.size());
    std::int64_t t1 = MonotonicNanos();
    tr->Record("net.EncodeEventBatch+BuildFrame", t0, t1 - t0, b + 1);
    enc_ns += t1 - t0;

    t0 = MonotonicNanos();
    aim::net::FrameAssembler assembler;
    aim::net::FrameHeader header;
    std::vector<std::uint8_t> body;
    const bool ok = assembler.Push(frame.data(), frame.size()).ok() &&
                    assembler.Next(&header, &body);
    aim::BinaryReader reader(body);
    const bool decoded_ok =
        ok && aim::net::DecodeEventBatch(&reader, &decoded).ok();
    t1 = MonotonicNanos();
    tr->Record("net.FrameAssembler+DecodeEventBatch", t0, t1 - t0, b + 1);
    dec_ns += t1 - t0;
    if (!decoded_ok || decoded.size() != kNetBatch) {
      *why = "frame decode failed";
      return false;
    }
  }
  out->Add("net.frame_encode_us_per_batch",
           Us(enc_ns) / static_cast<double>(n_batches), "us", n_batches);
  out->Add("net.frame_decode_us_per_batch",
           Us(dec_ns) / static_cast<double>(n_batches), "us", n_batches);

  double bytes_per_event = 0;
  if (!WireBytesPerEvent(ctx, &bytes_per_event, why)) return false;
  out->Add("net.bytes_per_event", bytes_per_event, "bytes");
  return true;
}

}  // namespace

ObsSnapshot TakeObsSnapshot(const aim::StorageNode& node,
                            const std::string& server_addr) {
  aim::MetricsRegistry& reg = node.metrics();
  const aim::Labels labels = {{"node", "0"}};
  ObsSnapshot s;
  s.t_s = NowSeconds();
  const aim::HistogramSnapshot esp =
      reg.GetHistogram("aim_esp_batch_size", labels)->Snapshot();
  s.esp_batches = static_cast<double>(esp.count);
  s.esp_batch_events = esp.sum;
  const aim::HistogramSnapshot rta =
      reg.GetHistogram("aim_rta_batch_size_queries", labels)->Snapshot();
  s.rta_batches = static_cast<double>(rta.count);
  s.rta_batch_queries = rta.sum;
  const aim::HistogramSnapshot lat =
      reg.GetHistogram("aim_rta_query_latency_micros", labels)->Snapshot();
  s.rta_replies = static_cast<double>(lat.count);
  s.rta_reply_us = lat.sum;
  s.scan_cycles = static_cast<double>(
      reg.GetCounter("aim_rta_scan_cycles_total", labels)->Value());
  s.records_merged = static_cast<double>(
      reg.GetCounter("aim_store_records_merged_total", labels)->Value());
  const aim::HistogramSnapshot merge =
      reg.GetHistogram("aim_store_merge_duration_micros", labels)->Snapshot();
  s.merges = static_cast<double>(merge.count);
  if (!server_addr.empty()) {
    const aim::HistogramSnapshot wv =
        reg.GetHistogram("aim_net_frames_coalesced",
                         {{"role", "server"}, {"addr", server_addr}})
            ->Snapshot();
    s.writevs = static_cast<double>(wv.count);
    s.writev_frames = wv.sum;
  }
  return s;
}

bool RunLayerReplays(const LayerContext& ctx, Report* out, std::string* why) {
  ServerMetrics(ctx, out);
  return EspStorageReplays(ctx, out, why) && RtaReplays(ctx, out, why) &&
         NetReplays(ctx, out, why);
}

}  // namespace aimbench
