#include "checks.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "aim/baselines/row_query.h"
#include "aim/common/binary_io.h"
#include "aim/net/message.h"
#include "aim/rta/simd.h"
#include "aim/schema/record.h"

namespace aimbench {
namespace {

constexpr auto kTimeout = std::chrono::seconds(30);

/// One-shot rendezvous between a reply callback and the checking thread.
template <typename T>
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  T value{};

  void Set(T v) {
    {
      std::lock_guard<std::mutex> lock(mu);
      value = std::move(v);
      done = true;
    }
    cv.notify_one();
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, kTimeout, [&] { return done; });
  }
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool QuerySync(aim::NodeChannel* channel, const World& world,
               const aim::Query& query, aim::QueryResult* out,
               std::string* why) {
  aim::BinaryWriter w;
  query.Serialize(&w);
  auto waiter = std::make_shared<Waiter<std::vector<std::uint8_t>>>();
  if (!channel->SubmitQuery(w.TakeBuffer(),
                            [waiter](std::vector<std::uint8_t>&& bytes) {
                              waiter->Set(std::move(bytes));
                            })) {
    *why = "query not accepted";
    return false;
  }
  if (!waiter->Wait()) {
    *why = "query reply timed out";
    return false;
  }
  std::lock_guard<std::mutex> lock(waiter->mu);
  if (waiter->value.empty()) {
    *why = "empty query reply";
    return false;
  }
  aim::BinaryReader reader(waiter->value);
  aim::StatusOr<aim::PartialResult> partial =
      aim::PartialResult::Deserialize(&reader);
  if (!partial.ok()) {
    *why = "undecodable query reply";
    return false;
  }
  *out = aim::FinalizeResult(query, &world.dims.catalog,
                             std::move(partial).value());
  if (!out->status.ok()) {
    *why = "query failed: " + out->status.ToString();
    return false;
  }
  return true;
}

bool WaitPublished(aim::NodeChannel* channel, const World& world,
                   double expected, std::string* why) {
  const aim::Query q =
      *aim::QueryBuilder(world.schema.get())
           .Select(aim::AggOp::kSum, "number_of_calls_this_month")
           .Build();
  const auto deadline = std::chrono::steady_clock::now() + kTimeout;
  double seen = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    aim::QueryResult result;
    if (!QuerySync(channel, world, q, &result, why)) return false;
    seen = result.rows.empty() ? -1 : result.rows[0].values[0];
    if (seen == expected) return true;
    if (seen > expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *why = "published call total " + Num(seen) + ", expected " + Num(expected);
  return false;
}

bool ReadRows(aim::NodeChannel* channel, const World& world,
              std::uint64_t last,
              const std::function<void(aim::EntityId, const std::uint8_t*)>& fn,
              std::string* why) {
  struct Got {
    aim::EntityId entity;
    aim::Status status;
    std::vector<std::uint8_t> row;
  };
  struct Box {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Got> got;
  };
  auto box = std::make_shared<Box>();
  constexpr std::uint64_t kWindow = 256;
  const std::uint32_t record_size = world.schema->record_size();
  std::uint64_t next = 1;
  std::uint64_t outstanding = 0;
  std::vector<Got> batch;
  while (next <= last || outstanding > 0) {
    while (next <= last && outstanding < kWindow) {
      aim::RecordRequest req;
      req.kind = aim::RecordRequest::Kind::kGet;
      req.entity = next;
      const aim::EntityId e = next;
      req.reply = [box, e](aim::Status st, std::vector<std::uint8_t>&& row,
                           aim::Version) {
        {
          std::lock_guard<std::mutex> lock(box->mu);
          box->got.push_back({e, std::move(st), std::move(row)});
        }
        box->cv.notify_one();
      };
      if (!channel->SubmitRecordRequest(std::move(req))) {
        *why = "record request not accepted";
        return false;
      }
      ++next;
      ++outstanding;
    }
    {
      std::unique_lock<std::mutex> lock(box->mu);
      if (!box->cv.wait_for(lock, kTimeout,
                            [&] { return !box->got.empty(); })) {
        *why = "record reply timed out";
        return false;
      }
      batch.clear();
      batch.swap(box->got);
    }
    for (Got& g : batch) {
      --outstanding;
      if (!g.status.ok() || g.row.size() != record_size) {
        *why = "Get(" + std::to_string(g.entity) +
               ") failed: " + g.status.ToString();
        return false;
      }
      fn(g.entity, g.row.data());
    }
  }
  return true;
}

double FloatSumTolerance(aim::simd::SimdLevel level,
                         std::uint32_t bucket_size) {
  if (level == aim::simd::SimdLevel::kScalar) return 0;
  const double lanes = level == aim::simd::SimdLevel::kAvx512 ? 16 : 8;
  return (bucket_size / lanes + std::log2(lanes)) * std::ldexp(1.0, -24);
}

namespace {

/// Relative error the node's value of an aggregate over `attr` may carry:
/// none for integer columns (summed exactly), `float_tol` plus the double
/// bound for float columns, the double bound for double columns.
double SumTolerance(const aim::Schema& schema, std::uint16_t attr,
                    double float_tol, double double_tol) {
  switch (schema.attribute(attr).type) {
    case aim::ValueType::kFloat:
      return float_tol + double_tol;
    case aim::ValueType::kDouble:
      return double_tol;
    default:
      return 0;
  }
}

double ItemTolerance(const aim::Schema& schema, const aim::SelectItem& item,
                     double float_tol, double double_tol) {
  // COUNT, MIN and MAX involve no rounding.
  if (item.op != aim::AggOp::kSum && item.op != aim::AggOp::kAvg) return 0;
  double tol = SumTolerance(schema, item.attr, float_tol, double_tol);
  // A ratio's relative error is at most the sum of its terms' (first order).
  if (item.is_sum_ratio) {
    tol += SumTolerance(schema, item.den_attr, float_tol, double_tol);
  }
  return tol;
}

bool Within(double got, double want, double rel_tol) {
  if (std::isnan(got) || std::isnan(want)) {
    return std::isnan(got) && std::isnan(want);
  }
  if (got == want) return true;
  return std::fabs(got - want) <= rel_tol * std::fabs(want);
}

}  // namespace

bool CallsMatch(const World& world, aim::EntityId e, const std::uint8_t* row,
                std::uint32_t expected, std::string* why) {
  const std::uint16_t calls_attr =
      world.schema->FindAttribute("number_of_calls_this_month");
  const double calls = aim::ConstRecordView(world.schema.get(), row)
                           .Get(calls_attr)
                           .AsDouble();
  if (calls == static_cast<double>(expected)) return true;
  *why = "entity " + std::to_string(e) + " number_of_calls_this_month " +
         Num(calls) + ", generator sent " + std::to_string(expected);
  return false;
}

bool SameResult(const aim::Query& query, const aim::Schema& schema,
                const aim::QueryResult& got, const aim::QueryResult& want,
                double float_tol, double double_tol, std::string* why) {
  const std::string tag = "query " + std::to_string(query.id) + ": ";
  if (got.rows.size() != want.rows.size()) {
    *why = tag + std::to_string(got.rows.size()) + " rows, oracle " +
           std::to_string(want.rows.size());
    return false;
  }
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    const aim::QueryResult::Row& a = got.rows[i];
    const aim::QueryResult::Row& b = want.rows[i];
    if (a.group_key != b.group_key || a.values.size() != b.values.size() ||
        a.values.size() != query.select.size()) {
      *why = tag + "row " + std::to_string(i) + " group differs";
      return false;
    }
    for (std::size_t v = 0; v < a.values.size(); ++v) {
      const double tol =
          ItemTolerance(schema, query.select[v], float_tol, double_tol);
      if (!Within(a.values[v], b.values[v], tol)) {
        *why = tag + "row " + std::to_string(i) + " value " +
               Num(a.values[v]) + ", oracle " + Num(b.values[v]) +
               " (relative tolerance " + Num(tol) + ")";
        return false;
      }
    }
  }
  if (got.topk.size() != want.topk.size()) {
    *why = tag + "top-k target count differs";
    return false;
  }
  // Top-k values are single column values or one double division, as in the
  // oracle: they compare exactly. Entities may differ where values tie;
  // CheckTopKEntities checks each returned entity against its own row.
  for (std::size_t t = 0; t < got.topk.size(); ++t) {
    if (got.topk[t].size() != want.topk[t].size()) {
      *why = tag + "top-k list length differs";
      return false;
    }
    for (std::size_t i = 0; i < got.topk[t].size(); ++i) {
      if (!Within(got.topk[t][i].value, want.topk[t][i].value, 0)) {
        *why = tag + "top-k value " + Num(got.topk[t][i].value) +
               ", oracle " + Num(want.topk[t][i].value);
        return false;
      }
    }
  }
  return true;
}

namespace {

/// Every entity a top-k answer returns is distinct within its list,
/// satisfies the query's predicate and carries the reported value in its
/// own row.
bool CheckTopKEntities(
    const aim::Query& query, const aim::Schema& schema,
    const aim::QueryResult& got, const aim::RowQueryRun& oracle,
    const std::unordered_map<aim::EntityId, std::vector<std::uint8_t>>& rows,
    std::string* why) {
  const std::string tag = "query " + std::to_string(query.id) + ": ";
  for (std::size_t t = 0; t < got.topk.size(); ++t) {
    const aim::TopKTarget& target = query.topk[t];
    std::unordered_set<aim::EntityId> seen;
    for (const aim::TopKEntry& entry : got.topk[t]) {
      auto it = rows.find(entry.entity);
      if (it == rows.end() || !seen.insert(entry.entity).second) {
        *why = tag + "top-k entity " + std::to_string(entry.entity) +
               " is not a distinct stored entity";
        return false;
      }
      const aim::ConstRecordView row(&schema, it->second.data());
      double v = row.Get(target.attr).AsDouble();
      if (target.den_attr != aim::kInvalidAttr) {
        v /= row.Get(target.den_attr).AsDouble();
      }
      if (!oracle.Matches(it->second.data()) || v != entry.value) {
        *why = tag + "top-k entity " + std::to_string(entry.entity) +
               " reported " + Num(entry.value) + ", its row gives " +
               Num(v) + (oracle.Matches(it->second.data())
                             ? ""
                             : " and fails the predicate");
        return false;
      }
    }
  }
  return true;
}

/// Answers to every check query at the dispatch tier in effect.
bool AnswerAll(aim::NodeChannel* channel, const World& world,
               const std::vector<aim::Query>& queries,
               std::vector<aim::QueryResult>* answers, std::string* why) {
  answers->assign(queries.size(), {});
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!QuerySync(channel, world, queries[i], &(*answers)[i], why)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool CheckLiveOutputs(aim::NodeChannel* channel, const World& world,
                      std::uint32_t bucket_size, std::uint64_t last_entity,
                      std::vector<std::uint32_t> expected_calls,
                      const std::vector<aim::Query>& check_queries,
                      Args::Inject inject, CheckSummary* summary,
                      std::string* why) {
  if (inject == Args::Inject::kCalls) expected_calls[1] += 1;
  const aim::Schema& schema = *world.schema;

  // Each check query is answered twice: at the tier the timed window ran,
  // whose float sums carry float32 rounding, and at the scalar tier, which
  // sums in double like the oracle, so that one row too many or too few
  // shows however many rows the answer covers.
  const aim::simd::SimdLevel active = aim::simd::ActiveLevel();
  std::vector<aim::QueryResult> active_answers, scalar_answers;
  if (!AnswerAll(channel, world, check_queries, &active_answers, why)) {
    return false;
  }
  aim::simd::SetLevel(aim::simd::SimdLevel::kScalar);
  const bool scalar_ok =
      AnswerAll(channel, world, check_queries, &scalar_answers, why);
  aim::simd::SetLevel(active);
  if (!scalar_ok) return false;

  std::vector<aim::RowQueryRun> oracles(check_queries.size());
  std::unordered_map<aim::EntityId, std::vector<std::uint8_t>> topk_rows;
  for (std::size_t i = 0; i < check_queries.size(); ++i) {
    aim::Status st = aim::RowQueryRun::Compile(
        check_queries[i], world.schema.get(), &world.dims.catalog,
        &oracles[i]);
    if (!st.ok()) {
      *why = "oracle compile: " + st.ToString();
      return false;
    }
    for (const aim::QueryResult* a : {&active_answers[i], &scalar_answers[i]}) {
      for (const auto& list : a->topk) {
        for (const aim::TopKEntry& entry : list) topk_rows[entry.entity];
      }
    }
  }
  // kOracle leaves each oracle's first matching row out.
  std::vector<bool> skip_first(check_queries.size(),
                               inject == Args::Inject::kOracle);

  bool counts_ok = true;
  std::string count_why;
  const bool read_ok = ReadRows(
      channel, world, last_entity,
      [&](aim::EntityId e, const std::uint8_t* row) {
        ++summary->rows_checked;
        for (std::size_t i = 0; i < oracles.size(); ++i) {
          if (!oracles[i].Matches(row)) continue;
          if (skip_first[i]) {
            skip_first[i] = false;
            continue;
          }
          oracles[i].Accumulate(row);
        }
        auto it = topk_rows.find(e);
        if (it != topk_rows.end()) {
          it->second.assign(row, row + schema.record_size());
        }
        if (counts_ok) {
          counts_ok = CallsMatch(world, e, row, expected_calls[e], &count_why);
        }
      },
      why);
  if (!read_ok) return false;
  if (!counts_ok) {
    *why = count_why;
    return false;
  }
  std::erase_if(topk_rows, [](const auto& kv) { return kv.second.empty(); });

  // Both the node and the oracle add at most `rows` values in double.
  const double double_tol =
      2.0 * static_cast<double>(summary->rows_checked) * std::ldexp(1.0, -53);
  const double float_tol = FloatSumTolerance(active, bucket_size);
  for (std::size_t i = 0; i < check_queries.size(); ++i) {
    const aim::Query& q = check_queries[i];
    const aim::QueryResult want = oracles[i].Finish();
    std::string tier_why;
    if (!SameResult(q, schema, active_answers[i], want, float_tol, double_tol,
                    &tier_why) ||
        !CheckTopKEntities(q, schema, active_answers[i], oracles[i],
                           topk_rows, &tier_why)) {
      *why = std::string(aim::simd::SimdLevelName(active)) + " tier, " +
             tier_why;
      return false;
    }
    if (!SameResult(q, schema, scalar_answers[i], want, 0, double_tol,
                    &tier_why) ||
        !CheckTopKEntities(q, schema, scalar_answers[i], oracles[i],
                           topk_rows, &tier_why)) {
      *why = "scalar tier, " + tier_why;
      return false;
    }
    summary->queries_checked += 2;
  }
  return true;
}

}  // namespace aimbench
