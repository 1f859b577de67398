// Per-layer metrics of a traced run: differenced obs-registry snapshots of
// the live window (counts and sums only), plus standalone single-thread
// replays of the workload's own recorded events and queries through each
// module's public calls.

#ifndef AIMBENCH_LAYERS_H_
#define AIMBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "aim/server/storage_node.h"
#include "bench.h"
#include "generator.h"

namespace aimbench {

/// Counts and sums of the node's registry at one instant.
struct ObsSnapshot {
  double t_s = 0;
  double esp_batches = 0, esp_batch_events = 0;
  double rta_batches = 0, rta_batch_queries = 0;
  double rta_replies = 0, rta_reply_us = 0;
  double scan_cycles = 0;
  double merges = 0, records_merged = 0;
  double writevs = 0, writev_frames = 0;  // TCP server only
};

/// `server_addr` is the TcpServer's "host:port" label, empty in-process.
ObsSnapshot TakeObsSnapshot(const aim::StorageNode& node,
                            const std::string& server_addr);

struct LayerContext {
  const World* world = nullptr;
  const LoadInputs* inputs = nullptr;
  const LoadResult* load = nullptr;
  ObsSnapshot obs_before, obs_after;
  // A stopped node whose partition mains the scan replays read.
  const aim::StorageNode* node = nullptr;
  std::uint64_t entities = 0;
  std::string tmp_dir;
  Tracer* tracer = nullptr;
};

/// Adds every per-layer metric to `out`. Returns false (with `why`) if a
/// module call failed.
bool RunLayerReplays(const LayerContext& ctx, Report* out, std::string* why);

}  // namespace aimbench

#endif  // AIMBENCH_LAYERS_H_
