// Output checks, run after the timed window and never timed: query answers
// against the row-wise oracle (baselines/row_query) over the node's rows as
// read back through the channel, per-entity call counts against the
// generator's own stream, and recovered rows against the acknowledged
// pre-crash rows.

#ifndef AIMBENCH_CHECKS_H_
#define AIMBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aim/net/node_channel.h"
#include "aim/rta/partial_result.h"
#include "aim/rta/query.h"
#include "aim/rta/simd.h"
#include "bench.h"

namespace aimbench {

/// Submits `query` and waits for the finalized answer.
bool QuerySync(aim::NodeChannel* channel, const World& world,
               const aim::Query& query, aim::QueryResult* out,
               std::string* why);

/// Polls SELECT SUM(number_of_calls_this_month) until it reads `expected`:
/// every acknowledged event has then been merged into the main and is
/// visible to scans.
bool WaitPublished(aim::NodeChannel* channel, const World& world,
                   double expected, std::string* why);

/// Reads the rows of entities 1..last through the channel's record service
/// (pipelined Gets) and hands each to `fn` as it arrives.
bool ReadRows(aim::NodeChannel* channel, const World& world,
              std::uint64_t last,
              const std::function<void(aim::EntityId, const std::uint8_t*)>& fn,
              std::string* why);

/// Relative error bound of a float column's sum at a dispatch tier. The
/// vector tiers add a float column in float32 lanes within each bucket, then
/// reduce the lanes and widen to double; the scalar tier adds in double.
/// Each lane adds at most bucket_size / lanes values and the reduction adds
/// log2(lanes) more, each rounding by at most 2^-24 of a partial sum no
/// larger than the total (every float indicator is a non-negative duration
/// or cost aggregate).
double FloatSumTolerance(aim::simd::SimdLevel level, std::uint32_t bucket_size);

/// Compares the row's number_of_calls_this_month with `expected`.
bool CallsMatch(const World& world, aim::EntityId e, const std::uint8_t* row,
                std::uint32_t expected, std::string* why);

/// Answer equality: group keys, counts, integer sums, MIN/MAX and top-k
/// values exactly; float sums within `float_tol` plus `double_tol` relative,
/// double sums within `double_tol`.
bool SameResult(const aim::Query& query, const aim::Schema& schema,
                const aim::QueryResult& got, const aim::QueryResult& want,
                double float_tol, double double_tol, std::string* why);

struct CheckSummary {
  std::uint64_t queries_checked = 0;
  std::uint64_t rows_checked = 0;
};

/// The full live-workload check: each check query answered at the active
/// dispatch tier and at the scalar tier against RowQueryRun over the rows
/// read back, top-k entities against their own rows, and per-entity call
/// counts. `expected_calls[e]` is the number of events the generator sent
/// for entity e (index 0 unused); `bucket_size` is the node's.
bool CheckLiveOutputs(aim::NodeChannel* channel, const World& world,
                      std::uint32_t bucket_size, std::uint64_t last_entity,
                      std::vector<std::uint32_t> expected_calls,
                      const std::vector<aim::Query>& check_queries,
                      Args::Inject inject, CheckSummary* summary,
                      std::string* why);

}  // namespace aimbench

#endif  // AIMBENCH_CHECKS_H_
