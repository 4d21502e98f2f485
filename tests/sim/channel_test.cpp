#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/parallel_engine.hpp"

namespace wst::sim {
namespace {

TEST(Channel, DeliversAfterLatency) {
  ParallelEngine e;
  std::vector<std::pair<Time, int>> got;
  Channel<int> ch(e, ChannelConfig{.latency = 100, .perByte = 0, .credits = 0},
                  [&](int&& v) { got.emplace_back(e.now(), v); });
  ch.send(7, 0);
  e.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::pair<Time, int>{100, 7}));
}

TEST(Channel, PerByteCostAddsToLatency) {
  ParallelEngine e;
  Time arrival = 0;
  Channel<int> ch(e, ChannelConfig{.latency = 100, .perByte = 2, .credits = 0},
                  [&](int&&) { arrival = e.now(); });
  ch.send(1, 50);  // 100 + 2*50 = 200
  e.run();
  EXPECT_EQ(arrival, 200u);
}

TEST(Channel, NonOvertakingEvenWithDifferentSizes) {
  ParallelEngine e;
  std::vector<int> order;
  Channel<int> ch(e, ChannelConfig{.latency = 10, .perByte = 1, .credits = 0},
                  [&](int&& v) { order.push_back(v); });
  ch.send(1, 1000);  // would arrive at 1010
  ch.send(2, 0);     // naive arrival 10, clamped to 1010
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Channel, CountsTraffic) {
  ParallelEngine e;
  Channel<int> ch(e, ChannelConfig{}, [](int&&) {});
  ch.send(1, 10);
  ch.send(2, 20);
  EXPECT_EQ(ch.messagesSent(), 2u);
  EXPECT_EQ(ch.bytesSent(), 30u);
}

TEST(Channel, CreditsExhaustAndReturn) {
  ParallelEngine e;
  std::vector<int> got;
  Channel<int>* chp = nullptr;
  Channel<int> ch(e, ChannelConfig{.latency = 1, .perByte = 0, .credits = 2},
                  [&](int&& v) { got.push_back(v); });
  chp = &ch;
  EXPECT_TRUE(ch.hasCredit());
  ch.send(1, 0);
  ch.send(2, 0);
  EXPECT_FALSE(ch.hasCredit());

  int wokenWith = -1;
  ch.onceCredit([&] {
    wokenWith = 3;
    chp->send(3, 0);
  });
  e.run();
  EXPECT_EQ(got.size(), 2u);  // third message not sent yet

  ch.returnCredit();  // consumer finished processing one message
  EXPECT_EQ(wokenWith, 3);
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, CreditWaitersWakeInFifoOrder) {
  ParallelEngine e;
  Channel<int>* chp = nullptr;
  Channel<int> ch(e, ChannelConfig{.latency = 1, .perByte = 0, .credits = 1},
                  [](int&&) {});
  chp = &ch;
  ch.send(0, 0);
  std::vector<int> wakeOrder;
  // Each waiter consumes the credit it was woken for, as real producers do.
  ch.onceCredit([&] {
    wakeOrder.push_back(1);
    chp->send(1, 0);
  });
  ch.onceCredit([&] {
    wakeOrder.push_back(2);
    chp->send(2, 0);
  });
  ch.returnCredit();
  ch.returnCredit();
  EXPECT_EQ(wakeOrder, (std::vector<int>{1, 2}));
}

TEST(Channel, MovesPayload) {
  ParallelEngine e;
  std::string got;
  Channel<std::string> ch(e, ChannelConfig{},
                          [&](std::string&& s) { got = std::move(s); });
  ch.send(std::string(100, 'x'), 100);
  e.run();
  EXPECT_EQ(got.size(), 100u);
}

}  // namespace
}  // namespace wst::sim
