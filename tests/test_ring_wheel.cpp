// Unit tests: the core's flat hot-path containers — Ring (stable-position
// deque replacement) and EventWheel (bucket-ring event calendar).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/event_wheel.hpp"
#include "core/ring.hpp"

namespace dwarn {
namespace {

TEST(Ring, FifoAndLifoMixMatchesDeque) {
  Ring<int> ring(4);
  std::deque<int> ref;
  std::uint32_t x = 12345;
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return x;
  };
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t op = rnd() % 4;
    if (op < 2 || ref.empty()) {
      const int v = static_cast<int>(rnd());
      ring.push_back(v);
      ref.push_back(v);
    } else if (op == 2) {
      ring.pop_front();
      ref.pop_front();
    } else {
      ring.pop_back();
      ref.pop_back();
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front());
      ASSERT_EQ(ring.back(), ref.back());
    }
  }
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(ring[i], ref[i]);
}

TEST(Ring, PositionsAreStableAcrossGrowthAndPops) {
  Ring<int> ring(2);
  std::vector<std::uint64_t> pos;
  for (int i = 0; i < 100; ++i) {
    ring.push_back(i);
    pos.push_back(ring.pos_of_back());  // forces several growth steps
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.live(pos[i]));
    ASSERT_EQ(ring.at_pos(pos[i]), i);
  }
  for (int i = 0; i < 40; ++i) ring.pop_front();
  for (int i = 0; i < 40; ++i) EXPECT_FALSE(ring.live(pos[i]));
  for (int i = 40; i < 100; ++i) ASSERT_EQ(ring.at_pos(pos[i]), i);
  // pop_back hands the tail position to the next push (squash + refetch):
  // the position is live again but names the new occupant.
  ring.pop_back();
  EXPECT_FALSE(ring.live(pos[99]));
  ring.push_back(-1);
  ASSERT_TRUE(ring.live(pos[99]));
  EXPECT_EQ(ring.at_pos(pos[99]), -1);
}

struct TestEv {
  int seq;
};

TEST(Ring, EmplaceBackResetsTheRecycledSlotInPlace) {
  struct Slot {
    int a = 7;
    std::uint64_t b = 0;
  };
  Ring<Slot> ring(2);
  ring.push_back(Slot{1, 11});
  Slot& second = ring.push_back(Slot{2, 22});
  const std::uint64_t pos = ring.pos_of_back();
  ring.pop_back();  // squash: the next append reuses this position and slot
  Slot& again = ring.emplace_back();
  EXPECT_EQ(&again, &second);
  EXPECT_EQ(ring.pos_of_back(), pos);
  EXPECT_EQ(again.a, 7);  // the stale {2, 22} is gone
  EXPECT_EQ(again.b, 0u);
  for (int i = 0; i < 5; ++i) ring.emplace_back().a = 100 + i;  // grows twice
  ASSERT_EQ(ring.size(), 7u);
  EXPECT_EQ(ring.front().b, 11u);
  EXPECT_EQ(ring.back().a, 104);
  EXPECT_EQ(ring.at_pos(pos).a, 7);
}

TEST(EventWheel, FiresInMapCalendarOrder) {
  // Random schedule distances straddling the wheel span; the reference is
  // the old std::map<Cycle, vector> calendar.
  EventWheel<TestEv> wheel(64);
  std::map<Cycle, std::vector<TestEv>> ref;
  std::uint32_t x = 777;
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return x;
  };
  int seq = 0;
  for (Cycle now = 1; now <= 4000; ++now) {
    for (std::uint32_t n = rnd() % 3; n > 0; --n) {
      // Mostly short distances, occasionally far past the wheel span.
      const Cycle delta = (rnd() % 10 == 0) ? 200 + rnd() % 400 : 1 + rnd() % 40;
      const TestEv ev{seq++};
      wheel.schedule(now, now + delta, ev);
      ref[now + delta].push_back(ev);
    }
    std::vector<int> fired;
    wheel.drain(now, [&](const TestEv& ev) { fired.push_back(ev.seq); });
    std::vector<int> expect;
    if (const auto it = ref.find(now); it != ref.end()) {
      for (const TestEv& ev : it->second) expect.push_back(ev.seq);
      ref.erase(it);
    }
    ASSERT_EQ(fired, expect) << "cycle " << now;
  }
}

TEST(EventWheel, ReschedulesFromInsideDrain) {
  EventWheel<TestEv> wheel(8);
  wheel.schedule(0, 1, TestEv{1});
  std::vector<int> fired;
  for (Cycle now = 1; now <= 5; ++now) {
    wheel.drain(now, [&](const TestEv& ev) {
      fired.push_back(ev.seq);
      if (ev.seq < 3) wheel.schedule(now, now + 1, TestEv{ev.seq + 1});
    });
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace dwarn
