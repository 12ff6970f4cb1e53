#include "sim/watchdog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace dyntrace::sim {
namespace {

using Log = std::vector<std::pair<TimeNs, int>>;

struct Target {
  Engine* engine = nullptr;
  Log* log = nullptr;
  int id = 0;
};

void record(void* target) {
  const Target& t = *static_cast<Target*>(target);
  t.log->emplace_back(t.engine->now(), t.id);
}

TEST(Watchdog, ExpiryKeepsItsPlaceAmongEqualTimeEvents) {
  // Between the two watches, an event is scheduled for the same instant:
  // the expiries fire on either side of it, as timers scheduled at watch()
  // would.
  Engine e;
  Watchdog w(e);
  Log log;
  Target a{&e, &log, 1};
  Target b{&e, &log, 3};
  w.watch(10, &a, record);
  e.schedule_at(10, [&] { log.emplace_back(e.now(), 2); });
  w.watch(10, &b, record);
  e.run();
  EXPECT_EQ(log, (Log{{10, 1}, {10, 2}, {10, 3}}));
  EXPECT_EQ(w.entries(), 0u);
}

TEST(Watchdog, ARearmedTimerKeepsTheDueWaitsPlace) {
  // The timer is armed for wait 1; wait 1 resolves, so when the timer
  // fires it re-arms for wait 2, whose deadline an event scheduled after
  // it shares.  Wait 2 still fires first, as its own timer would have.
  Engine e;
  Watchdog w(e);
  Log log;
  Target first{&e, &log, 1};
  Target second{&e, &log, 2};
  const Watchdog::Ticket ticket = w.watch(10, &first, record);
  w.watch(20, &second, record);
  e.schedule_at(20, [&] { log.emplace_back(e.now(), 3); });
  w.resolve(ticket);
  e.run();
  EXPECT_EQ(log, (Log{{20, 2}, {20, 3}}));
}

TEST(Watchdog, ResolvedWaitsNeverFireAndCostNoCancelUntilTheLast) {
  Engine e;
  Watchdog w(e);
  Log log;
  Target targets[3] = {{&e, &log, 0}, {&e, &log, 1}, {&e, &log, 2}};
  const auto pushes = e.queue_pushes();
  const Watchdog::Ticket t0 = w.watch(100, &targets[0], record);
  const Watchdog::Ticket t1 = w.watch(101, &targets[1], record);
  w.watch(102, &targets[2], record);
  EXPECT_EQ(e.queue_pushes() - pushes, 1u);  // one armed timer for three waits
  w.resolve(t0);
  w.resolve(t1);
  w.resolve(t1);  // a second resolve is ignored
  EXPECT_EQ(e.queue_cancels(), 0u);
  e.run();
  // The timer armed for wait 0 fired at 100, found it resolved and re-armed
  // for wait 2.
  EXPECT_EQ(log, (Log{{102, 2}}));
  EXPECT_EQ(e.queue_cancels(), 0u);
}

TEST(Watchdog, AnIdleTimerFiresAsANoOpUnlessStoodDown) {
  // Resolving the last wait cancels nothing: the timer fires at its
  // deadline and does nothing.  Standing the watchdog down cancels it, so
  // the clock stops where the work did.
  for (const bool stand_down : {false, true}) {
    SCOPED_TRACE(stand_down);
    Engine e;
    Watchdog w(e);
    Log log;
    Target t{&e, &log, 0};
    const Watchdog::Ticket ticket = w.watch(1'000, &t, record);
    e.schedule_at(5, [&] {
      w.resolve(ticket);
      if (stand_down) w.stand_down();
    });
    e.run();
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(e.now(), stand_down ? 5 : 1'000);
    EXPECT_EQ(e.queue_cancels(), stand_down ? 1u : 0u);
    EXPECT_EQ(w.cancels(), e.queue_cancels());
  }
}

TEST(Watchdog, AnEarlierDeadlineWatchedLaterFiresFirst) {
  Engine e;
  Watchdog w(e);
  Log log;
  Target late{&e, &log, 1};
  Target early{&e, &log, 2};
  w.watch(100, &late, record);
  w.watch(50, &early, record);
  e.run();
  EXPECT_EQ(log, (Log{{50, 2}, {100, 1}}));
}

TEST(Watchdog, ResolvedEntriesAreCompactedBehindALongWait) {
  // One wait stays open while many short ones come and go: resolved
  // entries behind it are dropped once they outnumber the waiting ones.
  Engine e;
  Watchdog w(e);
  Log log;
  Target open{&e, &log, 0};
  Target shorts{&e, &log, 1};
  w.watch(1'000'000, &open, record);
  std::size_t max_entries = 0;
  for (TimeNs t = 1; t <= 100'000; ++t) {
    e.schedule_at(t, [&, t] {
      const Watchdog::Ticket ticket = w.watch(t + 500'000, &shorts, record);
      w.resolve(ticket);
      max_entries = std::max(max_entries, w.entries());
    });
  }
  e.run();
  EXPECT_LE(max_entries, 64u);
  EXPECT_EQ(log, (Log{{1'000'000, 0}}));
}

// Property: on random scripts of waits, early resolutions and plain events
// (equal timestamps included), a Watchdog fires every expiry at the time
// and in the order a timer per wait, scheduled at watch() and cancelled on
// resolve, does -- and the run ends at the same time.
class PerWaitTimers {
 public:
  explicit PerWaitTimers(Engine& e) : e_(e) {}
  void watch(int id, TimeNs at, Log& log) {
    timers_[id] = e_.schedule_at(at, [this, id, &log] {
      log.emplace_back(e_.now(), id);
      timers_.erase(id);
    });
  }
  void resolve(int id) {
    const auto it = timers_.find(id);
    if (it == timers_.end()) return;
    e_.cancel(it->second);
    timers_.erase(it);
  }

 private:
  Engine& e_;
  std::map<int, EventId> timers_;
};

class Watched {
 public:
  explicit Watched(Engine& e) : e_(e), w_(e) {}
  void watch(int id, TimeNs at, Log& log) {
    Target& t = targets_[id];
    t = Target{&e_, &log, id};
    tickets_[id] = w_.watch(at, &t, record);
  }
  void resolve(int id) {
    const auto it = tickets_.find(id);
    if (it != tickets_.end()) w_.resolve(it->second);
  }

 private:
  Engine& e_;
  Watchdog w_;
  std::map<int, Target> targets_;
  std::map<int, Watchdog::Ticket> tickets_;
};

template <typename Timeouts>
std::pair<Log, TimeNs> run_script(std::uint64_t seed) {
  Engine e;
  Timeouts timeouts(e);
  Log log;
  Rng rng(seed);
  int next_id = 0;
  std::vector<int> open;
  int ticks = 0;
  std::function<void()> tick = [&] {
    const std::uint64_t op = rng.next_below(4);
    if (op == 0 || open.empty()) {
      // Mostly one fixed length (deadlines arrive in order), sometimes a
      // shorter one that lands before earlier watches.
      const TimeNs length = rng.next_below(4) == 0 ? static_cast<TimeNs>(rng.next_below(101)) : 100;
      const int id = next_id++;
      timeouts.watch(id, e.now() + length, log);
      open.push_back(id);
    } else if (op == 1) {
      const std::size_t k = rng.next_below(open.size());
      timeouts.resolve(open[k]);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const int label = -1 - ticks;
      e.schedule_at(e.now() + static_cast<TimeNs>(rng.next_below(121)),
                    [&e, &log, label] { log.emplace_back(e.now(), label); });
    }
    if (++ticks < 4'000) e.schedule_at(e.now() + static_cast<TimeNs>(rng.next_below(4)), tick);
  };
  e.schedule_at(0, tick);
  e.run();
  return {log, e.now()};
}

TEST(Watchdog, FiresLikeATimerPerWait) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const auto reference = run_script<PerWaitTimers>(seed);
    const auto watched = run_script<Watched>(seed);
    EXPECT_EQ(watched.first, reference.first);
    EXPECT_EQ(watched.second, reference.second);
  }
}

}  // namespace
}  // namespace dyntrace::sim
