// Loopback TCP stress: many submitter threads drive events, queries and
// record Get/Puts through one TcpClient against a TcpServer + StorageNode,
// while the client's single receiver thread dispatches all replies.
// Validates the transport's exactly-once completion contract under
// contention — every accepted request completes exactly once (reply,
// deadline or disconnect), no completion is lost and none fires twice —
// also while event replies written from the node's ESP thread race client
// disconnects, server stops and a node stop.

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aim/esp/event.h"
#include "aim/net/frame.h"
#include "aim/net/tcp_client.h"
#include "aim/net/tcp_server.h"
#include "aim/server/local_node_channel.h"
#include "aim/server/storage_node.h"
#include "aim/workload/benchmark_schema.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/dimension_data.h"
#include "aim/workload/query_workload.h"
#include "stress_util.h"

namespace aim {
namespace {

constexpr std::uint64_t kEntities = 512;

class NetStressTest : public ::testing::Test {
 protected:
  NetStressTest() : schema_(MakeCompactSchema()), dims_(MakeBenchmarkDims()) {}

  void StartCluster() {
    StorageNode::Options opts;
    opts.num_partitions = 2;
    opts.bucket_size = 64;
    opts.max_records_per_partition = 1 << 14;
    opts.scan_poll_micros = 200;
    opts.metrics = &metrics_;
    node_ = std::make_unique<StorageNode>(schema_.get(), &dims_.catalog,
                                          &rules_, opts);
    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    for (EntityId e = 1; e <= kEntities; ++e) {
      std::fill(row.begin(), row.end(), 0);
      PopulateEntityProfile(*schema_, dims_, e, kEntities, row.data());
      ASSERT_TRUE(node_->BulkLoad(e, row.data()).ok());
    }
    ASSERT_TRUE(node_->Start().ok());
    channel_ = std::make_unique<LocalNodeChannel>(node_.get());

    net::TcpServer::Options sopts;
    sopts.metrics = &metrics_;
    server_ = std::make_unique<net::TcpServer>(channel_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());

    net::TcpClient::Options copts;
    copts.port = server_->port();
    copts.request_timeout_millis = 30'000;
    copts.metrics = &metrics_;
    client_ = std::make_unique<net::TcpClient>(copts);
    ASSERT_TRUE(client_->Connect().ok());
  }

  void TearDown() override {
    if (client_ != nullptr) client_->Close();
    if (server_ != nullptr) server_->Stop();
    if (node_ != nullptr) node_->Stop();
  }

  std::vector<std::uint8_t> Wire(EntityId caller, Timestamp ts) {
    Event event;
    event.caller = caller;
    event.callee = caller + 1;
    event.timestamp = ts;
    event.duration = 30;
    event.cost = 0.5f;
    BinaryWriter w;
    event.Serialize(&w);
    return w.TakeBuffer();
  }

  std::unique_ptr<Schema> schema_;
  BenchmarkDims dims_;
  std::vector<Rule> rules_;
  MetricsRegistry metrics_;
  std::unique_ptr<StorageNode> node_;
  std::unique_ptr<LocalNodeChannel> channel_;
  std::unique_ptr<net::TcpServer> server_;
  std::unique_ptr<net::TcpClient> client_;
};

TEST_F(NetStressTest, MixedTrafficCompletesExactlyOnce) {
  StartCluster();

  const std::uint64_t events_per_thread = stress::Scaled(400);
  const std::uint64_t queries_per_thread = stress::Scaled(40);
  const std::uint64_t records_per_thread = stress::Scaled(100);
  constexpr int kEventThreads = 4;
  constexpr int kQueryThreads = 2;
  constexpr int kRecordThreads = 2;

  std::atomic<std::uint64_t> event_completions{0};
  std::atomic<std::uint64_t> event_failures{0};
  std::atomic<std::uint64_t> query_replies{0};
  std::atomic<std::uint64_t> empty_query_replies{0};
  std::atomic<std::uint64_t> record_replies{0};
  std::atomic<std::uint64_t> record_errors{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kEventThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < events_per_thread; ++i) {
        const EntityId caller = 1 + ((t * events_per_thread + i) % kEntities);
        EventCompletion completion;
        if (!client_->SubmitEvent(
                Wire(caller, static_cast<Timestamp>(i * 10)), &completion)) {
          continue;  // not accepted => completion must never fire
        }
        // The transport guarantees a bounded completion; 60s of slack on a
        // 30s request deadline means a false return is a lost completion,
        // not a slow machine.
        ASSERT_TRUE(completion.WaitFor(60'000));
        if (completion.status.ok()) {
          event_completions.fetch_add(1, std::memory_order_relaxed);
        } else {
          event_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryWorkload workload(schema_.get(), &dims_,
                             static_cast<std::uint64_t>(1000 + t));
      // Q6 needs the full schema's window attributes; the compact schema
      // serves the rest (same set the cluster driver uses).
      constexpr int kQnums[] = {1, 2, 3, 4, 5, 7};
      for (std::uint64_t i = 0; i < queries_per_thread; ++i) {
        BinaryWriter w;
        workload.Make(kQnums[i % 6]).Serialize(&w);
        std::atomic<bool> done{false};
        if (!client_->SubmitQuery(
                w.TakeBuffer(), [&](std::vector<std::uint8_t>&& bytes) {
                  if (bytes.empty()) {
                    empty_query_replies.fetch_add(1,
                                                  std::memory_order_relaxed);
                  } else {
                    query_replies.fetch_add(1, std::memory_order_relaxed);
                  }
                  done.store(true, std::memory_order_release);
                })) {
          continue;
        }
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(60);
        while (!done.load(std::memory_order_acquire)) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "query reply lost";
          std::this_thread::yield();
        }
      }
    });
  }
  for (int t = 0; t < kRecordThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < records_per_thread; ++i) {
        RecordRequest request;
        request.kind = RecordRequest::Kind::kGet;
        request.entity = 1 + ((t * records_per_thread + i) % kEntities);
        std::atomic<bool> done{false};
        request.reply = [&](Status st, std::vector<std::uint8_t>&& row,
                            Version) {
          if (st.ok() && row.size() == schema_->record_size()) {
            record_replies.fetch_add(1, std::memory_order_relaxed);
          } else {
            record_errors.fetch_add(1, std::memory_order_relaxed);
          }
          done.store(true, std::memory_order_release);
        };
        if (!client_->SubmitRecordRequest(std::move(request))) continue;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(60);
        while (!done.load(std::memory_order_acquire)) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "record reply lost";
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Steady-state loopback: nothing disconnects, so every request must have
  // completed successfully and the node must have processed every event
  // whose completion reported OK.
  EXPECT_EQ(event_failures.load(), 0u);
  EXPECT_EQ(event_completions.load(),
            static_cast<std::uint64_t>(kEventThreads) * events_per_thread);
  EXPECT_EQ(empty_query_replies.load(), 0u);
  EXPECT_EQ(query_replies.load(),
            static_cast<std::uint64_t>(kQueryThreads) * queries_per_thread);
  EXPECT_EQ(record_errors.load(), 0u);
  EXPECT_EQ(record_replies.load(),
            static_cast<std::uint64_t>(kRecordThreads) * records_per_thread);
  EXPECT_GE(node_->stats().events_processed, event_completions.load());
}

TEST_F(NetStressTest, SubmittersRaceDisconnectWithoutLosingCompletions) {
  StartCluster();

  // Submitters race a server that stops and restarts on the same port.
  // Every accepted submit must still complete (ok or failed) — never hang,
  // never double-complete (the per-thread WaitFor + reuse of one stack slot
  // would corrupt on a double fire, which TSan flags).
  const std::uint64_t per_thread = stress::Scaled(300);
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> completed_ok{0};
  std::atomic<std::uint64_t> completed_failed{0};
  std::atomic<std::uint64_t> rejected{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        const EntityId caller = 1 + ((t * per_thread + i) % kEntities);
        EventCompletion completion;
        if (!client_->SubmitEvent(
                Wire(caller, static_cast<Timestamp>(i * 10)), &completion)) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        ASSERT_TRUE(completion.WaitFor(60'000)) << "completion lost";
        if (completion.status.ok()) {
          completed_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          completed_failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Bounce the server a few times while the submitters run.
  const std::uint16_t port = server_->port();
  for (int bounce = 0; bounce < 3; ++bounce) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server_->Stop();
    server_.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    net::TcpServer::Options sopts;
    sopts.port = port;
    sopts.metrics = &metrics_;
    server_ = std::make_unique<net::TcpServer>(channel_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
  }
  for (std::thread& th : threads) th.join();

  const std::uint64_t total =
      completed_ok.load() + completed_failed.load() + rejected.load();
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * per_thread);
  // The bounces are brief; the bulk of the traffic must get through.
  EXPECT_GT(completed_ok.load(), 0u);
}

TEST_F(NetStressTest, EventRepliesRaceDisconnectAndServerStop) {
  StartCluster();

  // Each submitter owns a TcpClient and sends 8-event batches (two of them
  // reply-wanted, so two kEvent frames per batch) plus a query every fourth
  // batch. A raw peer sends reply-wanted EVENT_BATCH frames, whose replies
  // are written by whichever ESP-thread completion comes last. Meanwhile
  // one client is closed, the server is stopped and restarted, and finally
  // the node stops with submits still arriving (partly accepted batches).
  // Every client completion counts its hook runs: accepted ones must run
  // exactly once, refused ones never. Under ASan, a reply ticket that is
  // never freed shows up as a leak at exit.

  // Submitters run until the chaos below is over; the cap only bounds the
  // memory of the completion slots.
  const std::uint64_t max_batches = stress::Scaled(20'000);
  constexpr int kThreads = 3;
  constexpr int kEventsPerBatch = 8;

  struct Slot {
    EventCompletion completion;
    std::atomic<int> runs{0};
    bool accepted = false;
  };
  std::vector<std::deque<Slot>> slots(kThreads);
  std::atomic<std::uint64_t> query_runs{0};
  std::atomic<std::uint64_t> queries_accepted{0};
  std::atomic<bool> stop_submitters{false};
  std::atomic<bool> stop_raw{false};

  const std::uint16_t port = server_->port();
  std::vector<std::unique_ptr<net::TcpClient>> clients;
  for (int t = 0; t < kThreads; ++t) {
    net::TcpClient::Options copts;
    copts.port = port;
    copts.request_timeout_millis = 30'000;
    copts.backoff_initial_millis = 1;
    copts.backoff_max_millis = 20;
    copts.metrics = &metrics_;
    clients.push_back(std::make_unique<net::TcpClient>(copts));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryWorkload workload(schema_.get(), &dims_,
                             static_cast<std::uint64_t>(2000 + t));
      for (std::uint64_t b = 0;
           b < max_batches && !stop_submitters.load(std::memory_order_acquire);
           ++b) {
        std::vector<EventMessage> batch(kEventsPerBatch);
        std::vector<Slot*> wanted;
        for (int i = 0; i < kEventsPerBatch; ++i) {
          const EntityId caller = 1 + ((b * kEventsPerBatch + i) % kEntities);
          batch[i].bytes = Wire(caller, static_cast<Timestamp>(b * 10 + i));
          if (i % 4 == 3) {
            Slot& slot = slots[t].emplace_back();
            slot.completion.on_complete = [&slot] {
              slot.runs.fetch_add(1, std::memory_order_relaxed);
            };
            batch[i].completion = &slot.completion;
            wanted.push_back(&slot);
          }
        }
        const std::size_t accepted =
            clients[t]->SubmitEventBatch(std::move(batch));
        // Events 3 and 7 carry the completions: accepted is a prefix.
        for (std::size_t w = 0; w < wanted.size(); ++w) {
          wanted[w]->accepted = 4 * w + 3 < accepted;
        }
        if (b % 4 == 0) {
          BinaryWriter w;
          workload.Make(1).Serialize(&w);
          if (clients[t]->SubmitQuery(
                  w.TakeBuffer(), [&](std::vector<std::uint8_t>&&) {
                    query_runs.fetch_add(1, std::memory_order_relaxed);
                  })) {
            queries_accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (Slot* slot : wanted) {
          if (slot->accepted) {
            ASSERT_TRUE(slot->completion.WaitFor(60'000)) << "lost";
          }
        }
        if (accepted < kEventsPerBatch) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  // Raw peer: reply-wanted EVENT_BATCH frames, reconnecting whenever the
  // server goes away. It only needs to survive; the checks are the
  // sanitizers'.
  threads.emplace_back([&] {
    std::uint64_t id = 1;
    while (!stop_raw.load(std::memory_order_acquire)) {
      StatusOr<net::Socket> sock = net::TcpConnect("127.0.0.1", port, 500);
      if (!sock.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      BinaryWriter hello;
      net::EncodeHello(&hello);
      std::vector<std::uint8_t> frame = net::BuildFrame(
          net::FrameType::kHello, 0, 0, hello.buffer().data(), hello.size());
      bool ok = net::SendAll(*sock, frame.data(), frame.size(), 1000).ok();
      while (ok && !stop_raw.load(std::memory_order_acquire)) {
        std::vector<EventMessage> batch(kEventsPerBatch);
        for (int i = 0; i < kEventsPerBatch; ++i) {
          batch[i].bytes = Wire(1 + (id * kEventsPerBatch + i) % kEntities,
                                static_cast<Timestamp>(id));
        }
        BinaryWriter payload;
        net::EncodeEventBatch(batch, &payload);
        frame = net::BuildFrame(net::FrameType::kEventBatch, 0, id++,
                                payload.buffer().data(), payload.size());
        ok = net::SendAll(*sock, frame.data(), frame.size(), 1000).ok();
        // Read whatever replies arrived (hello reply included); a dead
        // connection ends the inner loop.
        std::uint8_t buf[4096];
        StatusOr<std::size_t> got = net::RecvSome(*sock, buf, sizeof(buf), 5);
        if (!got.ok() && !got.status().IsDeadlineExceeded()) ok = false;
      }
    }
  });

  const auto pause = std::chrono::milliseconds(20 * stress::Scale());
  std::this_thread::sleep_for(pause);
  clients[0]->Close();  // its replies still in flight on the server
  for (int bounce = 0; bounce < 2; ++bounce) {
    std::this_thread::sleep_for(pause);
    server_->Stop();
    server_.reset();
    net::TcpServer::Options sopts;
    sopts.port = port;
    sopts.metrics = &metrics_;
    server_ = std::make_unique<net::TcpServer>(channel_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
  }
  std::this_thread::sleep_for(pause);
  node_->Stop();  // drains; later submits are refused or partly accepted
  std::this_thread::sleep_for(pause);
  stop_submitters.store(true, std::memory_order_release);
  for (std::size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  stop_raw.store(true, std::memory_order_release);
  threads.back().join();
  for (auto& client : clients) client->Close();
  server_->Stop();

  std::uint64_t accepted = 0;
  for (const std::deque<Slot>& per_thread : slots) {
    for (const Slot& slot : per_thread) {
      EXPECT_EQ(slot.runs.load(), slot.accepted ? 1 : 0);
      accepted += slot.accepted ? 1 : 0;
    }
  }
  EXPECT_EQ(query_runs.load(), queries_accepted.load());
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace aim
