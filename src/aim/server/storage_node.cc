#include "aim/server/storage_node.h"

#include <chrono>
#include <cstdio>

#include "aim/common/clock.h"
#include "aim/common/hash.h"
#include "aim/common/logging.h"
#include "aim/common/thread_name.h"
#include "aim/storage/fs_util.h"
#include "aim/storage/recovery.h"

namespace aim {

StorageNode::StorageNode(const Schema* schema, const DimensionCatalog* dims,
                         const std::vector<Rule>* rules,
                         const Options& options)
    : schema_(schema), dims_(dims), rules_(rules), options_(options) {
  AIM_CHECK(options_.num_partitions > 0);
  AIM_CHECK(options_.num_esp_threads > 0);

  sys_attrs_.entity_id = schema_->FindAttribute("entity_id");
  sys_attrs_.last_event_ts = schema_->FindAttribute("last_event_ts");
  sys_attrs_.preferred_number = schema_->FindAttribute("preferred_number");

  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  const std::string node_label = std::to_string(options_.node_id);
  const Labels node_labels = {{"node", node_label}};
  esp_event_latency_ =
      metrics_->GetHistogram("aim_esp_event_latency_micros", node_labels);
  esp_batch_size_ =
      metrics_->GetHistogram("aim_esp_batch_size", node_labels);
  queries_processed_ =
      metrics_->GetCounter("aim_rta_queries_total", node_labels);
  rta_query_latency_ =
      metrics_->GetHistogram("aim_rta_query_latency_micros", node_labels);
  rta_batch_size_ =
      metrics_->GetHistogram("aim_rta_batch_size_queries", node_labels);
  rta_scan_duration_ =
      metrics_->GetHistogram("aim_rta_scan_duration_micros", node_labels);
  rta_queue_depth_ =
      metrics_->GetGauge("aim_rta_queue_depth", node_labels);
  scan_cycles_ = metrics_->GetCounter("aim_rta_scan_cycles_total", node_labels);
  records_merged_ =
      metrics_->GetCounter("aim_store_records_merged_total", node_labels);
  freshness_millis_ =
      metrics_->GetHistogram("aim_fresh_staleness_millis", node_labels);
  log_appends_ =
      metrics_->GetCounter("aim_log_appends_total", node_labels);
  log_bytes_ = metrics_->GetCounter("aim_log_bytes_total", node_labels);
  log_syncs_ = metrics_->GetCounter("aim_log_syncs_total", node_labels);
  log_sync_micros_ =
      metrics_->GetHistogram("aim_log_sync_micros", node_labels);
  checkpoints_written_ =
      metrics_->GetCounter("aim_checkpoints_total", node_labels);

  DeltaMainStore::Options store_opts;
  store_opts.bucket_size = options_.bucket_size;
  store_opts.max_records = options_.max_records_per_partition;
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    partitions_.push_back(
        std::make_unique<DeltaMainStore>(schema_, store_opts));

    const Labels part_labels = {{"node", node_label},
                                {"partition", std::to_string(p)}};
    tracers_.push_back(std::make_unique<FreshnessTracer>(freshness_millis_));
    DeltaMainStore::StoreMetrics sm;
    sm.records_merged = records_merged_;
    sm.merges = metrics_->GetCounter("aim_store_merges_total", part_labels);
    sm.merge_duration_micros =
        metrics_->GetHistogram("aim_store_merge_duration_micros", node_labels);
    sm.frozen_delta_records =
        metrics_->GetGauge("aim_store_frozen_delta_records", part_labels);
    sm.merge_epoch =
        metrics_->GetGauge("aim_store_merge_epoch", part_labels);
    sm.tracer = tracers_.back().get();
    partitions_.back()->AttachMetrics(sm);
  }

  // ESP thread p-mod-s ownership, engines bound per owned partition.
  for (std::uint32_t e = 0; e < options_.num_esp_threads; ++e) {
    auto state = std::make_unique<EspThreadState>();
    state->queue_depth = metrics_->GetGauge(
        "aim_esp_queue_depth", {{"node", node_label},
                                {"thread", std::to_string(e)}});
    for (std::uint32_t p = e; p < options_.num_partitions;
         p += options_.num_esp_threads) {
      state->owned_partitions.push_back(p);
      EspEngine::Options engine_opts = options_.esp;
      engine_opts.metrics = metrics_;
      engine_opts.metric_labels = {{"node", node_label},
                                   {"partition", std::to_string(p)}};
      state->engines.push_back(std::make_unique<EspEngine>(
          schema_, partitions_[p].get(), rules_, sys_attrs_, engine_opts));
    }
    esp_threads_.push_back(std::move(state));
  }

  if (durable()) {
    logs_.resize(options_.num_partitions);  // opened by Recover()
    for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
      batch_gates_.push_back(std::make_unique<SwapHandshake<>>());
    }
  }

  if (options_.scan_pool_threads > 0) {
    ScanPool::Options pool_opts;
    pool_opts.num_threads = options_.scan_pool_threads;
    pool_opts.metrics = metrics_;
    pool_opts.node_label = node_label;
    scan_pool_ = std::make_unique<ScanPool>(pool_opts);
  }

  partials_.resize(options_.num_partitions);
  round_barrier_ = std::make_unique<std::barrier<>>(options_.num_partitions);
}

StorageNode::~StorageNode() {
  if (running()) Stop();
}

std::uint32_t StorageNode::PartitionOf(EntityId entity) const {
  return PartitionHash(entity, options_.node_id, options_.num_partitions);
}

Status StorageNode::BulkLoad(EntityId entity, const std::uint8_t* row) {
  AIM_CHECK_MSG(!running(), "BulkLoad only before Start()");
  return partitions_[PartitionOf(entity)]->BulkInsert(entity, row);
}

Status StorageNode::Start() {
  if (running()) return Status::InvalidArgument("already running");
  AIM_CHECK_MSG(!durable() || recovered_,
                "durability enabled: call Recover() before Start()");
  running_.store(true, std::memory_order_release);

  for (auto& state : esp_threads_) {
    for (std::uint32_t p : state->owned_partitions) {
      partitions_[p]->set_esp_attached(true);
      if (durable()) batch_gates_[p]->set_writer_attached(true);
    }
    EspThreadState* raw = state.get();
    state->thread = std::thread([this, raw] { EspLoop(raw); });
  }
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    rta_threads_.emplace_back([this, p] { RtaLoop(p); });
  }
  return Status::OK();
}

void StorageNode::Stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  query_queue_.Close();
  for (auto& state : esp_threads_) {
    state->queue.Close();
    state->record_queue.Close();
  }
  for (auto& state : esp_threads_) {
    if (state->thread.joinable()) state->thread.join();
  }
  for (std::thread& t : rta_threads_) {
    if (t.joinable()) t.join();
  }
  rta_threads_.clear();
}

bool StorageNode::SubmitEvent(std::vector<std::uint8_t> event_bytes,
                              EventCompletion* completion) {
  if (!running()) return false;
  // Peek the caller id to route to the owning ESP thread. The 64-byte wire
  // format starts with the caller id (see Event::Serialize).
  if (event_bytes.size() < kEventWireSize) return false;
  EntityId caller;
  std::memcpy(&caller, event_bytes.data(), sizeof(caller));
  const std::uint32_t p = PartitionOf(caller);
  const std::uint32_t e = p % options_.num_esp_threads;
  EventMessage msg;
  msg.bytes = std::move(event_bytes);
  msg.completion = completion;
  return esp_threads_[e]->queue.Push(std::move(msg));
}

std::size_t StorageNode::SubmitEventBatch(std::vector<EventMessage>&& batch) {
  if (!running()) return 0;
  const std::size_t n = batch.size();
  std::size_t i = 0;
  while (i < n) {
    if (batch[i].bytes.size() < kEventWireSize) break;
    EntityId caller;
    std::memcpy(&caller, batch[i].bytes.data(), sizeof(caller));
    const std::uint32_t e = PartitionOf(caller) % options_.num_esp_threads;
    // Extend the run while events keep routing to the same ESP thread, so
    // the whole run enters the queue under one lock acquisition.
    std::size_t j = i + 1;
    while (j < n && batch[j].bytes.size() >= kEventWireSize) {
      EntityId next;
      std::memcpy(&next, batch[j].bytes.data(), sizeof(next));
      if (PartitionOf(next) % options_.num_esp_threads != e) break;
      ++j;
    }
    const auto first = batch.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last = batch.begin() + static_cast<std::ptrdiff_t>(j);
    if (!esp_threads_[e]->queue.PushAll(std::make_move_iterator(first),
                                        std::make_move_iterator(last))) {
      break;  // queue closed by Stop: the remainder is rejected as a whole
    }
    i = j;
  }
  return i;
}

bool StorageNode::SubmitQuery(
    std::vector<std::uint8_t> query_bytes,
    std::function<void(std::vector<std::uint8_t>&&)> reply) {
  if (!running()) return false;
  QueryMessage msg;
  msg.bytes = std::move(query_bytes);
  msg.reply = std::move(reply);
  msg.enqueue_nanos = MonotonicNanos();
  return query_queue_.Push(std::move(msg));
}

bool StorageNode::SubmitRecordRequest(RecordRequest request) {
  if (!running()) return false;
  const std::uint32_t p = PartitionOf(request.entity);
  const std::uint32_t e = p % options_.num_esp_threads;
  return esp_threads_[e]->record_queue.Push(std::move(request));
}

// ---------------------------------------------------------------------------
// ESP service loop (paper Algorithm 7 around EspEngine::ProcessEvent, plus
// the Get/Put record service used by remote ESP tiers).
// ---------------------------------------------------------------------------

void StorageNode::ServeRecordRequest(RecordRequest& request) {
  const std::uint32_t p = PartitionOf(request.entity);
  DeltaMainStore* store = partitions_[p].get();
  switch (request.kind) {
    case RecordRequest::Kind::kGet: {
      std::vector<std::uint8_t> row(schema_->record_size());
      Version version = 0;
      Status st = store->Get(request.entity, row.data(), &version);
      if (!st.ok()) row.clear();
      if (request.reply) request.reply(st, std::move(row), version);
      return;
    }
    case RecordRequest::Kind::kPut: {
      Status st = request.row.size() == schema_->record_size()
                      ? store->Put(request.entity, request.row.data(),
                                   request.expected_version)
                      : Status::InvalidArgument("bad record size");
      if (st.ok()) {
        LogRecordOp(p, LogPayloadView::Kind::kRecordPut, request);
      }
      if (request.reply) {
        request.reply(st, {}, request.expected_version + 1);
      }
      return;
    }
    case RecordRequest::Kind::kInsert: {
      Status st = request.row.size() == schema_->record_size()
                      ? store->Insert(request.entity, request.row.data())
                      : Status::InvalidArgument("bad record size");
      if (st.ok()) {
        LogRecordOp(p, LogPayloadView::Kind::kRecordInsert, request);
      }
      if (request.reply) request.reply(st, {}, 1);
      return;
    }
  }
}

// Makes one successful record-service mutation durable before its reply is
// sent (the record tier's ack-after-fsync point). Only successes are
// logged, so a replayed op is expected to succeed again. Record ops are
// synchronous round trips and rare relative to events, so each one syncs
// immediately rather than joining the event group commit.
void StorageNode::LogRecordOp(std::uint32_t p, LogPayloadView::Kind kind,
                              const RecordRequest& request) {
  if (!durable()) return;
  BinaryWriter writer;
  EncodeRecordOpPayload(kind, request.entity, request.expected_version,
                        std::span<const std::uint8_t>(request.row), &writer);
  StatusOr<EventLog::Lsn> lsn = logs_[p]->Append(writer.buffer());
  AIM_CHECK_MSG(lsn.ok(), "event log append failed");
  log_appends_->Add();
  log_bytes_->Add(writer.size());
  Stopwatch sync_timer;
  AIM_CHECK_MSG(logs_[p]->Sync(lsn.value()).ok(), "event log fsync failed");
  log_syncs_->Add();
  log_sync_micros_->Record(sync_timer.ElapsedMicros());
}

void StorageNode::EspLoop(EspThreadState* state) {
  SetCurrentThreadName(
      "aim-esp-", state->owned_partitions.empty()
                      ? 0u
                      : state->owned_partitions[0] % options_.num_esp_threads);
  // Persistent per-loop buffers: drained messages, decoded events and the
  // batch result are reused across wakeups so the steady state allocates
  // nothing per iteration.
  std::vector<EventMessage> events;
  std::vector<RecordRequest> records;
  std::vector<Event> decoded;
  std::vector<std::size_t> engine_of;  // engine index, parallel to decoded
  // Stable per-engine index lists + the contiguous run fed to ProcessBatch.
  std::vector<std::vector<std::size_t>> by_engine(state->engines.size());
  std::vector<Event> run_events;
  EspEngine::BatchResult batch_result;
  std::vector<std::uint8_t> log_scratch;  // reused log payload buffer
  state->pending_sync_lsn.assign(state->engines.size(), 0);
  state->last_flush_nanos = MonotonicNanos();
  std::uint64_t handled = 0;
  const std::size_t max_batch =
      options_.max_event_batch > 0 ? options_.max_event_batch : 1;
  const std::size_t s = options_.num_esp_threads;
  const std::size_t thread_id =
      state->owned_partitions.empty() ? 0 : state->owned_partitions[0] % s;

  while (true) {
    // Algorithm 7 line 3-5: acknowledge pending delta switches on every
    // owned partition before (and between) batches. The batch gate is
    // acknowledged here too — this loop top is the one point where every
    // drained event is both applied and appended, so a checkpoint cut
    // taken inside the gate's window matches the log offset it records.
    for (std::size_t i = 0; i < state->owned_partitions.size(); ++i) {
      partitions_[state->owned_partitions[i]]->EspCheckpoint();
      if (durable()) {
        batch_gates_[state->owned_partitions[i]]->WriterCheckpoint();
      }
    }

    // Record service first (remote ESP tiers are latency-sensitive: they
    // block synchronously on Get/Put round trips).
    records.clear();
    if (state->record_queue.DrainInto(&records) > 0) {
      for (RecordRequest& req : records) ServeRecordRequest(req);
      continue;
    }

    events.clear();
    const std::size_t n = state->queue.DrainInto(&events, max_batch);
    if (n == 0) {
      // Nothing to coalesce with: flush deferred acks before idling (or
      // exiting) so the group-commit interval only adds latency under
      // load, where the next wakeup is imminent anyway.
      if (durable()) FlushPendingAcks(state);
      if (!running_.load(std::memory_order_acquire) &&
          state->queue.size() == 0 && state->record_queue.size() == 0) {
        break;
      }
      state->queue_depth->Set(0);
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.esp_idle_micros));
      continue;
    }
    esp_batch_size_->Record(static_cast<double>(n));
    // Queue-depth sampling is periodic, not per batch: size() takes the
    // queue mutex, which would be an extra lock acquisition per wakeup.
    handled += n;
    if ((handled & 1023) < n) {
      state->queue_depth->Set(static_cast<std::int64_t>(state->queue.size()));
    }

    // Decode up front so the batch loop can group contiguous same-engine
    // runs and feed them to ProcessBatch (which prefetches ahead within
    // the run — docs/DESIGN.md, "Ingest batching & prefetching").
    decoded.clear();
    engine_of.clear();
    for (std::size_t i = 0; i < n; ++i) {
      BinaryReader reader(events[i].bytes);
      decoded.push_back(Event::Deserialize(&reader));
      const std::uint32_t p = PartitionOf(decoded.back().caller);
      AIM_CHECK_MSG(p % s == thread_id, "event routed to wrong ESP thread");
      // Thread t owns partitions {t, t+s, t+2s, ...} in order, so the
      // engine bound to partition p sits at index (p - t) / s.
      engine_of.push_back((p - thread_id) / s);
    }

    // Stable-group by engine: an entity's partition (hence engine) is
    // fixed, so per-entity order is preserved, and engines own disjoint
    // partitions, so reordering across engines cannot change any outcome.
    // Grouping turns a drained batch into maximal ProcessBatch runs even
    // when traffic interleaves this thread's partitions.
    for (std::vector<std::size_t>& idxs : by_engine) idxs.clear();
    for (std::size_t i = 0; i < n; ++i) {
      by_engine[engine_of[i]].push_back(i);
    }

    for (std::size_t e = 0; e < by_engine.size(); ++e) {
      const std::vector<std::size_t>& idxs = by_engine[e];
      if (idxs.empty()) continue;
      run_events.clear();
      for (std::size_t idx : idxs) run_events.push_back(decoded[idx]);

      // Per-event latency (t_ESP's in-process component): deserialize-to-
      // processed, attributed evenly across the run. Counter updates
      // happen inside the engine.
      Stopwatch run_timer;
      state->engines[e]->ProcessBatch(
          std::span<const Event>(run_events.data(), run_events.size()),
          &batch_result);
      const double per_event_micros =
          run_timer.ElapsedMicros() / static_cast<double>(idxs.size());

      if (durable()) {
        // One log record per ProcessBatch run, built from the original
        // wire buffers (apply-then-append: the log only ever contains
        // applied batches, and by the next loop top — where checkpoints
        // cut — applied and appended coincide). Acks wait for the fsync.
        BinaryWriter writer(std::move(log_scratch));
        EncodeEventBatchHeader(static_cast<std::uint32_t>(idxs.size()),
                               kEventWireSize, &writer);
        for (std::size_t idx : idxs) {
          writer.PutBytes(events[idx].bytes.data(), kEventWireSize);
        }
        const std::uint32_t part = state->owned_partitions[e];
        StatusOr<EventLog::Lsn> lsn = logs_[part]->Append(writer.buffer());
        AIM_CHECK_MSG(lsn.ok(), "event log append failed");
        state->pending_sync_lsn[e] = lsn.value();
        log_appends_->Add();
        log_bytes_->Add(writer.size());
        log_scratch = writer.TakeBuffer();
      }

      const bool defer_acks = durable();
      const std::int64_t complete_nanos =
          defer_acks ? 0 : MonotonicNanos();
      for (std::size_t k = 0; k < idxs.size(); ++k) {
        esp_event_latency_->Record(per_event_micros);
        EventMessage& msg = events[idxs[k]];
        if (msg.completion != nullptr) {
          msg.completion->status = batch_result.statuses[k];
          msg.completion->fired_rules = batch_result.fired[k];
          if (defer_acks) {
            // done (and complete_nanos) are set by FlushPendingAcks once
            // the covering fsync lands — ack-after-fsync.
            state->pending_acks.push_back(msg.completion);
          } else {
            msg.completion->complete_nanos = complete_nanos;
            msg.completion->Complete();
          }
        }
        event_buffers_.Release(std::move(msg.bytes));
      }
    }

    // Group commit: sync (and ack) now unless the interval says more
    // appends may still pile onto this fsync.
    if (durable()) {
      const std::int64_t interval_nanos =
          options_.durability.group_commit_micros * 1000;
      if (interval_nanos <= 0 ||
          MonotonicNanos() - state->last_flush_nanos >= interval_nanos) {
        FlushPendingAcks(state);
      }
    }
  }

  // Detach from the handshakes so in-flight delta switches (and checkpoint
  // cuts) can proceed, and fail any record requests that raced with
  // shutdown. Deferred acks were flushed on the idle pass that observed
  // shutdown, but flush again for safety: an ack must never be lost.
  if (durable()) FlushPendingAcks(state);
  for (std::uint32_t p : state->owned_partitions) {
    partitions_[p]->set_esp_attached(false);
    if (durable()) batch_gates_[p]->set_writer_attached(false);
  }
  records.clear();
  state->record_queue.DrainInto(&records);
  for (RecordRequest& req : records) {
    if (req.reply) req.reply(Status::Shutdown(), {}, 0);
  }
}

// ---------------------------------------------------------------------------
// Durability: group-commit flush, recovery, checkpoints (docs/DURABILITY.md).
// ---------------------------------------------------------------------------

void StorageNode::FlushPendingAcks(EspThreadState* state) {
  bool any = false;
  for (EventLog::Lsn lsn : state->pending_sync_lsn) any |= lsn != 0;
  if (!any && state->pending_acks.empty()) return;
  if (any) {
    Stopwatch sync_timer;
    for (std::size_t e = 0; e < state->pending_sync_lsn.size(); ++e) {
      const EventLog::Lsn upto = state->pending_sync_lsn[e];
      if (upto == 0) continue;
      const std::uint32_t p = state->owned_partitions[e];
      AIM_CHECK_MSG(logs_[p]->Sync(upto).ok(), "event log fsync failed");
      state->pending_sync_lsn[e] = 0;
      log_syncs_->Add();
    }
    log_sync_micros_->Record(sync_timer.ElapsedMicros());
  }
  const std::int64_t now = MonotonicNanos();
  for (EventCompletion* completion : state->pending_acks) {
    completion->complete_nanos = now;
    completion->Complete();
  }
  state->pending_acks.clear();
  state->last_flush_nanos = now;
}

std::string StorageNode::PartitionDir(std::uint32_t p) const {
  return options_.durability.dir + "/p" + std::to_string(p);
}

StatusOr<StorageNode::RecoveryStats> StorageNode::Recover() {
  AIM_CHECK_MSG(durable(), "Recover() requires Options::durability.dir");
  AIM_CHECK_MSG(!running(), "Recover() only before Start()");
  AIM_CHECK_MSG(!recovered_, "Recover() called twice");

  Status st = fs::EnsureDir(options_.durability.dir);
  if (!st.ok()) return st;

  RecoveryStats stats;
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    const std::string dir = PartitionDir(p);
    st = fs::EnsureDir(dir);
    if (!st.ok()) return st;
    // A crash can orphan a checkpoint temporary; sweep before anything
    // else so a stale .tmp never survives into (or past) this run.
    stats.tmp_files_swept += fs::RemoveStaleTmpFiles(dir);

    std::uint64_t replay_from = 0;  // whole log when no checkpoint restores
    StatusOr<checkpoint::ChainTip> tip =
        checkpoint::RecoverChain(dir, partitions_[p].get());
    if (tip.ok()) {
      stats.cold_start = false;
      stats.checkpoints_applied += tip->files_applied;
      stats.records_restored += tip->records_restored;
      replay_from = tip->log_lsn;
    } else if (!tip.status().IsNotFound()) {
      return tip.status();
    }

    // Open (truncating any torn tail) before replaying, so replay sees
    // exactly the prefix future appends will extend.
    logs_[p] = std::make_unique<EventLog>();
    const std::string log_path = dir + "/events.log";
    StatusOr<EventLog::OpenStats> opened = logs_[p]->Open(log_path);
    if (!opened.ok()) return opened.status();
    if (opened->records > 0) stats.cold_start = false;
    ReplayPartitionLog(p, replay_from, &stats);
  }
  recovered_ = true;
  return stats;
}

void StorageNode::ReplayPartitionLog(std::uint32_t p, std::uint64_t from,
                                     RecoveryStats* stats) {
  // Replay through the partition's own engine: the log holds one record
  // per ProcessBatch run, appended in apply order by the single ESP
  // writer, so re-running records in log order reproduces the exact
  // original computation (rule evaluations included).
  const std::uint32_t thread_id = p % options_.num_esp_threads;
  EspEngine* engine =
      esp_threads_[thread_id]
          ->engines[(p - thread_id) / options_.num_esp_threads]
          .get();
  DeltaMainStore* store = partitions_[p].get();
  std::vector<Event> batch;
  EspEngine::BatchResult result;
  StatusOr<EventLog::ReplayStats> replayed = EventLog::Replay(
      PartitionDir(p) + "/events.log", from,
      [&](EventLog::Lsn, std::span<const std::uint8_t> payload) {
        LogPayloadView view;
        if (!DecodeLogPayload(payload, &view).ok()) {
          std::fprintf(stderr,
                       "aim: skipping undecodable log record (partition %u)\n",
                       p);
          return;
        }
        switch (view.kind) {
          case LogPayloadView::Kind::kEventBatch: {
            if (view.event_size != kEventWireSize) {
              std::fprintf(stderr,
                           "aim: skipping log batch with foreign event size "
                           "%u (partition %u)\n",
                           view.event_size, p);
              return;
            }
            batch.clear();
            for (std::uint32_t i = 0; i < view.event_count; ++i) {
              BinaryReader reader(
                  view.events.data() +
                      static_cast<std::size_t>(i) * kEventWireSize,
                  kEventWireSize);
              batch.push_back(Event::Deserialize(&reader));
            }
            engine->ProcessBatch(
                std::span<const Event>(batch.data(), batch.size()), &result);
            ++stats->batches_replayed;
            stats->events_replayed += view.event_count;
            break;
          }
          case LogPayloadView::Kind::kRecordPut:
          case LogPayloadView::Kind::kRecordInsert: {
            // Only successful ops were logged, so failure here means the
            // state diverged (e.g. a mid-chain checkpoint already holds
            // the op) — warn, do not abort recovery.
            Status op =
                view.row.size() == schema_->record_size()
                    ? (view.kind == LogPayloadView::Kind::kRecordPut
                           ? store->Put(view.entity, view.row.data(),
                                        view.expected_version)
                           : store->Insert(view.entity, view.row.data()))
                    : Status::InvalidArgument("bad record size");
            if (!op.ok()) {
              std::fprintf(
                  stderr,
                  "aim: log record op replay failed (partition %u): %s\n", p,
                  op.ToString().c_str());
            }
            ++stats->record_ops_replayed;
            break;
          }
        }
      });
  AIM_CHECK_MSG(replayed.ok(), "event log replay failed");
}

Status StorageNode::CheckpointNow() {
  AIM_CHECK_MSG(durable(), "CheckpointNow() requires durability");
  AIM_CHECK_MSG(!running(), "CheckpointNow() only with the threads stopped; "
                            "use RequestCheckpoint() on a live node");
  AIM_CHECK_MSG(recovered_, "CheckpointNow() only after Recover()");
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    StatusOr<checkpoint::ChainTip> tip = checkpoint::WriteChained(
        partitions_[p].get(), sys_attrs_.entity_id, PartitionDir(p),
        logs_[p]->end_lsn());
    if (!tip.ok()) return tip.status();
    checkpoints_written_->Add();
    checkpoints_completed_.fetch_add(1, std::memory_order_release);
  }
  return Status::OK();
}

void StorageNode::RequestCheckpoint() {
  // Release pairs with the acquire in RtaLoop: a thread that observes the
  // new sequence also observes everything the requester did before asking.
  checkpoint_seq_.fetch_add(1, std::memory_order_release);
}

void StorageNode::WritePartitionCheckpoint(std::uint32_t partition_id) {
  DeltaMainStore* store = partitions_[partition_id].get();
  // Serialize inside the batch gate's window (ESP parked at a loop top:
  // applied state == log prefix, and end_lsn is exactly that prefix), but
  // commit — the fsync — outside it, so disk latency never extends the
  // writer's park.
  StatusOr<checkpoint::PendingCheckpoint> pending =
      Status::Internal("checkpoint not prepared");
  batch_gates_[partition_id]->RunExclusive([&] {
    pending = checkpoint::PrepareChained(*store, sys_attrs_.entity_id,
                                         PartitionDir(partition_id),
                                         logs_[partition_id]->end_lsn());
  });
  Status st = pending.ok() ? checkpoint::CommitChained(*pending, store)
                           : pending.status();
  if (!st.ok()) {
    // Failure leaves the chain where it was: the epoch did not advance, so
    // the next request retries the same cut. Nothing to roll back.
    std::fprintf(stderr, "aim: checkpoint failed (partition %u): %s\n",
                 partition_id, st.ToString().c_str());
    return;
  }
  checkpoints_written_->Add();
  checkpoints_completed_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// RTA scan loop (paper Figure 6 + Algorithm 5, coordinated across the
// node's partitions).
// ---------------------------------------------------------------------------

void StorageNode::FillBatch() {
  batch_.clear();
  batch_queries_.clear();
  stop_round_ = false;

  // Wait briefly for work so that idle cycles still merge periodically.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.scan_poll_micros);
  while (batch_.empty()) {
    std::optional<QueryMessage> msg = query_queue_.TryPop();
    if (msg.has_value()) {
      batch_.push_back(std::move(*msg));
      break;
    }
    if (!running_.load(std::memory_order_acquire)) {
      stop_round_ = true;
      return;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Drain up to the batch cap (shared scan batching, §4.7).
  while (batch_.size() < options_.max_query_batch) {
    std::optional<QueryMessage> msg = query_queue_.TryPop();
    if (!msg.has_value()) break;
    batch_.push_back(std::move(*msg));
  }

  for (QueryMessage& msg : batch_) {
    BinaryReader reader(msg.bytes);
    StatusOr<Query> q = Query::Deserialize(&reader);
    // Malformed queries still occupy a batch slot so reply order holds; the
    // coordinator replies with an empty partial for them.
    batch_queries_.push_back(q.ok() ? std::move(q).value() : Query{});
  }
}

void StorageNode::MergeAndReply() {
  for (std::size_t qi = 0; qi < batch_.size(); ++qi) {
    PartialResult merged = std::move(partials_[0][qi]);
    for (std::uint32_t p = 1; p < options_.num_partitions; ++p) {
      merged.MergeFrom(partials_[p][qi], batch_queries_[qi]);
    }
    BinaryWriter writer;
    merged.Serialize(&writer);
    if (batch_[qi].reply) batch_[qi].reply(writer.TakeBuffer());
    queries_processed_->Add();
    // Queue wait + scan + merge, stamped against the submit time — this is
    // the node-side component of t_RTA.
    rta_query_latency_->Record(
        static_cast<double>(MonotonicNanos() - batch_[qi].enqueue_nanos) /
        1000.0);
  }
}

void StorageNode::RtaLoop(std::uint32_t partition_id) {
  SetCurrentThreadName("aim-rta-", partition_id);
  DeltaMainStore* store = partitions_[partition_id].get();
  SharedScan scan(store);
  std::uint64_t checkpoint_done_seq = 0;

  while (true) {
    if (partition_id == 0) FillBatch();
    round_barrier_->arrive_and_wait();  // batch published
    if (stop_round_) break;
    if (partition_id == 0 && !batch_.empty()) {
      rta_batch_size_->Record(static_cast<double>(batch_.size()));
    }

    // Compile and scan this partition for the whole batch (Algorithm 5:
    // bucket-major, query-minor).
    std::vector<CompiledQuery> compiled;
    compiled.reserve(batch_queries_.size());
    std::vector<std::size_t> compiled_for;  // batch index per compiled entry
    for (std::size_t qi = 0; qi < batch_queries_.size(); ++qi) {
      StatusOr<CompiledQuery> cq =
          CompiledQuery::Compile(batch_queries_[qi], schema_, dims_);
      if (cq.ok()) {
        compiled.push_back(std::move(cq).value());
        compiled_for.push_back(qi);
      }
    }
    partials_[partition_id].assign(batch_queries_.size(), PartialResult{});
    if (!compiled.empty()) {
      Stopwatch scan_timer;
      if (scan_pool_ != nullptr) {
        // Task-queue model: this thread coordinates — the scan step is
        // decomposed into bucket-range morsels executed cooperatively with
        // the pool workers, and the bucket-level partials are merged here.
        // Only the read-only scan is shared; the merge step below stays
        // with this thread (it mutates the main).
        ScanPool::ScanOptions scan_opts;
        scan_opts.morsel_buckets = options_.scan_morsel_buckets;
        std::vector<PartialResult> merged;
        scan_pool_->ScanPartition(store->main(), compiled, scan_opts,
                                  &merged);
        for (std::size_t ci = 0; ci < compiled.size(); ++ci) {
          partials_[partition_id][compiled_for[ci]] = std::move(merged[ci]);
        }
      } else {
        scan.ScanStep(compiled);
        for (std::size_t ci = 0; ci < compiled.size(); ++ci) {
          partials_[partition_id][compiled_for[ci]] =
              compiled[ci].TakePartial();
        }
      }
      rta_scan_duration_->Record(scan_timer.ElapsedMicros());
    }

    round_barrier_->arrive_and_wait();  // partials ready
    if (partition_id == 0) MergeAndReply();

    // Merge step: fold the delta into the main before the next scan. The
    // store's attached StoreMetrics count the merged records and stamp the
    // t_fresh publication point; nothing to add here.
    if (store->delta_size() > 0) {
      scan.MergeStep();
    }

    // Checkpoint service: each partition's RTA thread writes its own
    // partition's checkpoint here — after the merge, so no merge is in
    // flight and the dirty-bucket stamps are settled for this cut.
    if (durable()) {
      // Acquire pairs with the release in RequestCheckpoint.
      const std::uint64_t want =
          checkpoint_seq_.load(std::memory_order_acquire);
      if (want != checkpoint_done_seq) {
        WritePartitionCheckpoint(partition_id);
        checkpoint_done_seq = want;
      }
    }

    if (partition_id == 0) {
      scan_cycles_->Add();
      rta_queue_depth_->Set(static_cast<std::int64_t>(query_queue_.size()));
    }
  }

  // Drain pending replies on shutdown (coordinator only).
  if (partition_id == 0) {
    for (QueryMessage& msg : batch_) {
      if (msg.reply) msg.reply({});
    }
    std::optional<QueryMessage> msg;
    while ((msg = query_queue_.TryPop()).has_value()) {
      if (msg->reply) msg->reply({});
    }
  }
}

StorageNode::NodeStats StorageNode::stats() const {
  NodeStats s;
  // Each Counter::Value() is an exact atomic read; the aggregate across
  // counters is snapshot-on-read (fields may be mutually torn, which is
  // fine for monitoring — the old hand-rolled atomics had the same window).
  for (const auto& state : esp_threads_) {
    for (const auto& engine : state->engines) {
      s.events_processed += engine->metric_events()->Value();
      s.txn_conflicts += engine->metric_txn_conflicts()->Value();
      s.rules_fired += engine->metric_rules_fired()->Value();
    }
  }
  s.queries_processed = queries_processed_->Value();
  s.scan_cycles = scan_cycles_->Value();
  s.records_merged = records_merged_->Value();
  return s;
}

KpiMonitor StorageNode::MakeKpiMonitor(std::uint64_t entities,
                                       const KpiTargets& targets) const {
  KpiMonitor::Inputs inputs;
  inputs.entities = entities;
  CollectMonitorInputs(&inputs);
  return KpiMonitor(inputs, targets);
}

void StorageNode::CollectMonitorInputs(KpiMonitor::Inputs* inputs) const {
  for (const auto& state : esp_threads_) {
    for (const auto& engine : state->engines) {
      inputs->events.push_back(engine->metric_events());
    }
  }
  inputs->esp_latency_micros.push_back(esp_event_latency_);
  inputs->queries.push_back(queries_processed_);
  inputs->rta_latency_micros.push_back(rta_query_latency_);
  inputs->freshness_millis.push_back(freshness_millis_);
}

std::uint64_t StorageNode::total_records() const {
  std::uint64_t n = 0;
  for (const auto& p : partitions_) {
    n += p->main_records();
  }
  return n;
}

}  // namespace aim
