// TcpTransport unit tests: the Transport contract (bind/unbind/send by
// Address) over real loopback sockets, the address registry, connection
// caching + reconnect, drop accounting, and the wall-clock timer facade.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "net/tcp_transport.h"

namespace roar::net {
namespace {

TEST(WallClockTest, TimersFireInOrderAndCancelWorks) {
  WallClock clock;
  std::vector<int> order;
  clock.schedule_after(0.0, [&] { order.push_back(1); });
  uint64_t cancelled = clock.schedule_after(0.0, [&] { order.push_back(2); });
  clock.schedule_after(0.0, [&] { order.push_back(3); });
  clock.cancel(cancelled);
  EXPECT_EQ(clock.fire_due(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(WallClockTest, FutureTimerNotDueYet) {
  WallClock clock;
  bool ran = false;
  clock.schedule_after(30.0, [&] { ran = true; });
  EXPECT_EQ(clock.fire_due(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(clock.next_timeout_us(100'000), 100'000);
  EXPECT_EQ(clock.pending(), 1u);
}

TEST(WallClockTest, DueTimerBoundsPollTimeout) {
  WallClock clock;
  clock.schedule_after(0.0, [] {});
  EXPECT_EQ(clock.next_timeout_us(100'000), 0);
}

// The wait has microsecond resolution: a timer 300 µs out must not make
// the reactor sleep out a whole millisecond.
TEST(WallClockTest, SubMillisecondTimerBoundsPollTimeout) {
  WallClock clock;
  clock.schedule_after(300e-6, [] {});
  int64_t wait_us = clock.next_timeout_us(100'000);
  EXPECT_GE(wait_us, 0);
  EXPECT_LE(wait_us, 300);
}

TEST(TcpTransportTest, SendByAddressAcrossTransports) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);

  std::vector<std::pair<Address, Bytes>> got_b;
  b.bind(20, [&](Address from, Payload payload) {
    got_b.emplace_back(from, payload.to_bytes());
  });
  Bytes reply_seen;
  a.bind(10,
         [&](Address, Payload payload) { reply_seen = payload.to_bytes(); });

  a.send(10, 20, {1, 2, 3});
  ASSERT_TRUE(driver.run_until([&] { return !got_b.empty(); }));
  EXPECT_EQ(got_b[0].first, 10u);
  EXPECT_EQ(got_b[0].second, (Bytes{1, 2, 3}));

  // Reply flows back by address, over b's own cached connection.
  b.send(20, 10, {9});
  ASSERT_TRUE(driver.run_until([&] { return !reply_seen.empty(); }));
  EXPECT_EQ(reply_seen, (Bytes{9}));

  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(a.bytes_sent(), 3u);
  EXPECT_EQ(b.messages_sent(), 1u);
  EXPECT_EQ(a.messages_dropped() + b.messages_dropped(), 0u);
  EXPECT_GT(a.wire_bytes_sent(), a.bytes_sent()) << "envelope overhead";
}

TEST(TcpTransportTest, TwoAddressesShareOneListener) {
  TcpDriver driver;
  TcpTransport control(driver), peer(driver);
  int frontend_got = 0, membership_got = 0;
  control.bind(1, [&](Address, Payload) { ++frontend_got; });
  control.bind(0, [&](Address, Payload) { ++membership_got; });
  peer.bind(100, [](Address, Payload) {});

  peer.send(100, 1, {1});
  peer.send(100, 0, {2});
  ASSERT_TRUE(
      driver.run_until([&] { return frontend_got && membership_got; }));
  EXPECT_EQ(frontend_got, 1);
  EXPECT_EQ(membership_got, 1);
}

TEST(TcpTransportTest, UnroutedAddressCountsAsDropped) {
  TcpDriver driver;
  TcpTransport a(driver);
  a.send(10, 77, {1, 2, 3, 4});
  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(a.messages_dropped(), 1u);
  EXPECT_EQ(a.bytes_dropped(), 4u);
}

TEST(TcpTransportTest, UnboundDestinationDropsAtReceiver) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  b.bind(20, [](Address, Payload) {});
  b.unbind(20);  // crashed process: route stays up, handler gone

  a.send(10, 20, {1, 2, 3});
  driver.run_until([&] { return b.messages_dropped() > 0; }, 2.0);
  EXPECT_EQ(b.messages_dropped(), 1u);
  EXPECT_EQ(b.bytes_dropped(), 3u);
  EXPECT_EQ(a.messages_dropped(), 0u);
}

TEST(TcpTransportTest, ReconnectsAfterConnectionLoss) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  int got = 0;
  b.bind(20, [&](Address, Payload) { ++got; });

  a.send(10, 20, {1});
  ASSERT_TRUE(driver.run_until([&] { return got == 1; }));

  // Kill every established connection under the transports' feet.
  std::vector<TcpConnection*> conns;
  for (const auto& [id, conn] : driver.reactor().connections()) {
    conns.push_back(conn.get());
  }
  for (auto* c : conns) c->close();
  driver.poll(0);  // reap + run close handlers

  a.send(10, 20, {2});
  ASSERT_TRUE(driver.run_until([&] { return got == 2; }))
      << "send after connection loss must transparently reconnect";
  EXPECT_EQ(a.reconnects(), 1u) << "cache miss after eviction is a reconnect";
}

TEST(TcpTransportTest, DestroyedEndpointBlackHolesFrames) {
  TcpDriver driver;
  TcpTransport a(driver);
  auto b = std::make_unique<TcpTransport>(driver);
  int got = 0;
  b->bind(20, [&](Address, Payload) { ++got; });
  a.send(10, 20, {1});
  ASSERT_TRUE(driver.run_until([&] { return got == 1; }));

  // "Process crash": destroying the transport must tear down its accepted
  // connections too — their handlers capture the dead object.
  b.reset();
  driver.poll(0);
  a.send(10, 20, {2});
  for (int i = 0; i < 20; ++i) driver.poll(1);
  EXPECT_EQ(got, 1) << "no frame may reach the destroyed endpoint";
}

TEST(TcpTransportTest, ManyMessagesManyEndpoints) {
  TcpDriver driver;
  constexpr int kPeers = 8, kEach = 50;
  TcpTransport hub(driver);
  int hub_got = 0;
  hub.bind(1, [&](Address, Payload) { ++hub_got; });

  std::vector<std::unique_ptr<TcpTransport>> peers;
  for (int i = 0; i < kPeers; ++i) {
    auto t = std::make_unique<TcpTransport>(driver);
    t->bind(100 + i, [](Address, Payload) {});
    peers.push_back(std::move(t));
  }
  for (int j = 0; j < kEach; ++j) {
    for (int i = 0; i < kPeers; ++i) {
      peers[i]->send(100 + i, 1, {static_cast<uint8_t>(j)});
    }
  }
  ASSERT_TRUE(
      driver.run_until([&] { return hub_got == kPeers * kEach; }, 10.0));
  // One cached connection per peer, not per message.
  EXPECT_LE(driver.reactor().connections().size(),
            2u * (kPeers + 1));
}

TEST(TcpTransportTest, ShardedDriverCrossShardTraffic) {
  // Endpoints pinned to different reactor shards talk over real sockets;
  // shard 1 runs its own loop thread, shard 0 is driven by this thread.
  TcpDriver driver(2);
  TcpTransport a(driver, 0), b(driver, 1);
  std::atomic<int> b_got{0};
  std::atomic<int> a_got{0};
  b.bind(20, [&](Address from, Payload payload) {
    // Echo so the test exercises both directions from the shard thread.
    Bytes back = payload.to_bytes();
    b_got.fetch_add(1);
    (void)from;
    b.send(20, 10, std::move(back));
  });
  a.bind(10, [&](Address, Payload) { a_got.fetch_add(1); });
  driver.start();

  constexpr int kMsgs = 64;
  for (int i = 0; i < kMsgs; ++i) {
    a.send(10, 20, {static_cast<uint8_t>(i), 7});
  }
  ASSERT_TRUE(driver.run_until([&] { return a_got.load() == kMsgs; }, 10.0));
  EXPECT_EQ(b_got.load(), kMsgs);
  driver.stop();
}

TEST(TcpTransportTest, RunOnExecutesOnShardThreadAndInline) {
  TcpDriver driver(2);
  driver.start();
  std::thread::id main_id = std::this_thread::get_id();
  std::thread::id shard1_id{};
  driver.run_on(1, [&] { shard1_id = std::this_thread::get_id(); });
  EXPECT_NE(shard1_id, main_id) << "shard 1 work must run on its loop thread";
  std::thread::id shard0_id{};
  driver.run_on(0, [&] { shard0_id = std::this_thread::get_id(); });
  EXPECT_EQ(shard0_id, main_id) << "shard 0 is caller-driven";
  driver.stop();
  // After stop() the shards are plain data again: run_on is inline.
  std::thread::id after_id{};
  driver.run_on(1, [&] { after_id = std::this_thread::get_id(); });
  EXPECT_EQ(after_id, main_id);
}

TEST(MailboxTest, PushDrainAcrossThreads) {
  Mailbox mail;
  std::atomic<int> ran{0};
  constexpr int kPer = 100;
  std::thread producer([&] {
    for (int i = 0; i < kPer; ++i) {
      mail.push([&ran] { ran.fetch_add(1); });
    }
  });
  for (int i = 0; i < kPer; ++i) {
    mail.push([&ran] { ran.fetch_add(1); });
  }
  producer.join();
  EXPECT_EQ(mail.pending(), 2u * kPer);
  std::vector<std::function<void()>> batch;
  EXPECT_EQ(mail.drain(batch), 2u * kPer);
  for (auto& fn : batch) fn();
  EXPECT_EQ(ran.load(), 2 * kPer);
  EXPECT_EQ(mail.pending(), 0u);
}

// `producers` threads each push `per_producer` closures numbered 0, 1, ...
// while this thread drains and runs them, as a shard loop does. Returns,
// per producer, how many closures ran after a later-numbered one.
std::vector<uint64_t> mailbox_order_inversions(int producers,
                                               int per_producer) {
  Mailbox mail;
  // Touched only by the closures, i.e. only on this (the consumer) thread.
  std::vector<int> last(producers, -1);
  std::vector<uint64_t> inversions(producers, 0);
  int64_t ran = 0;
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        mail.push([&, p, i] {
          if (i < last[p]) ++inversions[p];
          last[p] = i;
          ++ran;
        });
      }
    });
  }
  const int64_t total = static_cast<int64_t>(producers) * per_producer;
  // A lost closure fails the count check below instead of hanging.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<std::function<void()>> batch;
  while (ran < total && std::chrono::steady_clock::now() < deadline) {
    if (mail.drain(batch) == 0) std::this_thread::yield();
    for (auto& fn : batch) fn();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ran, total);
  EXPECT_EQ(mail.pending(), 0u);
  return inversions;
}

TEST(MailboxTest, OneProducerRunsInPushOrder) {
  EXPECT_EQ(mailbox_order_inversions(1, 200'000),
            (std::vector<uint64_t>{0}));
}

TEST(MailboxTest, EachOfTwoProducersRunsInItsPushOrder) {
  EXPECT_EQ(mailbox_order_inversions(2, 200'000),
            (std::vector<uint64_t>{0, 0}));
}

}  // namespace
}  // namespace roar::net
