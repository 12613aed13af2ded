// Unit tests for sim/: clock, event engine ordering/determinism and
// cancellation (with a differential fuzz against a std::multimap model),
// cost model arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "pm/fault_plan.h"
#include "sim/env.h"

namespace papm::sim {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock c;
  EXPECT_EQ(c.now(), 0);
  c.advance(100);
  EXPECT_EQ(c.now(), 100);
  c.advance(0);
  c.advance(-5);  // negative charges are ignored
  EXPECT_EQ(c.now(), 100);
  c.jump_to(50);  // never moves backwards
  EXPECT_EQ(c.now(), 100);
  c.jump_to(200);
  EXPECT_EQ(c.now(), 200);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    fired++;
    if (fired < 5) e.schedule_in(10, chain);
  };
  e.schedule_in(10, chain);
  e.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 50);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { fired++; });
  e.schedule_at(100, [&] { fired++; });
  e.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastScheduleClampsToNow) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run_until_idle();
  SimTime fired_at = -1;
  e.schedule_at(10, [&] { fired_at = e.now(); });  // in the past
  e.run_until_idle();
  EXPECT_EQ(fired_at, 100);
}

TEST(Engine, ResetClearsEverything) {
  Engine e;
  e.schedule_at(10, [] {});
  e.reset();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.now(), 0);
}

TEST(EngineCancel, BeforeFire) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(10, [&] { fired++; });
  e.schedule_at(20, [&] { fired += 10; });
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_FALSE(e.cancel(id));  // already cancelled
  e.run_until_idle();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineCancel, AfterFireIsNoOp) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(10, [&] { fired++; });
  e.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(0));  // 0 is never an event
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineCancel, FromOwnCallbackIsNoOp) {
  Engine e;
  EventId self = 0;
  bool cancelled = true;
  int later = 0;
  self = e.schedule_at(10, [&] {
    cancelled = e.cancel(self);  // firing: no longer pending
    e.schedule_in(5, [&] { later++; });
  });
  e.run_until_idle();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(e.now(), 15);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineCancel, CallbackCancelsAnotherEvent) {
  Engine e;
  int fired = 0;
  const EventId victim = e.schedule_at(20, [&] { fired += 100; });
  e.schedule_at(10, [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.schedule_at(30, [&] { fired++; });
  e.run_until_idle();
  EXPECT_EQ(fired, 1);
}

TEST(EngineCancel, StaleIdAfterSlotReuse) {
  Engine e;
  int a = 0;
  int b = 0;
  const EventId ida = e.schedule_at(10, [&] { a++; });
  ASSERT_TRUE(e.cancel(ida));
  // The freed slot is the next one handed out.
  const EventId idb = e.schedule_at(10, [&] { b++; });
  EXPECT_NE(ida, idb);
  EXPECT_FALSE(e.cancel(ida));  // must not cancel the slot's new event
  EXPECT_EQ(e.pending(), 1u);
  e.run_until_idle();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  // Ids stay unique across reset() too.
  const EventId idc = e.schedule_at(10, [] {});
  e.reset();
  e.schedule_at(10, [] {});
  EXPECT_FALSE(e.cancel(idc));
  EXPECT_EQ(e.pending(), 1u);
}

// A cancelled timer's deadline never moves the clock: run_until_idle()
// stops at the last event that fired.
TEST(EngineCancel, IdleClockIgnoresCancelledDeadline) {
  Engine e;
  e.schedule_at(10, [] {});
  const EventId timer = e.schedule_at(1000, [] {});
  e.run_until(20);
  EXPECT_EQ(e.now(), 20);
  ASSERT_TRUE(e.cancel(timer));
  e.schedule_in(5, [] {});
  e.run_until_idle();
  EXPECT_EQ(e.now(), 25);
}

// Closures larger than the inline slot buffer spill to the heap: they
// must run, and be destroyed exactly once whether they fire, are
// cancelled, are dropped by reset() or die with the engine.
TEST(Engine, LargeClosuresRunAndAreFreed) {
  auto token = std::make_shared<int>(0);
  std::array<u64, 16> payload{};  // 128 bytes > Engine::kInlineBytes
  for (std::size_t i = 0; i < payload.size(); i++) payload[i] = i + 1;
  u64 sum = 0;
  {
    Engine e;
    auto big = [token, payload, &sum] {
      for (const u64 v : payload) sum += v;
    };
    static_assert(sizeof(big) > Engine::kInlineBytes);
    const long base = token.use_count();  // `token` and `big` itself
    e.schedule_at(10, big);
    const EventId c = e.schedule_at(20, big);
    e.schedule_at(30, big);
    EXPECT_EQ(token.use_count(), base + 3);
    EXPECT_TRUE(e.cancel(c));
    EXPECT_EQ(token.use_count(), base + 2);
    e.run_until(15);
    EXPECT_EQ(sum, 136u);
    EXPECT_EQ(token.use_count(), base + 1);
    e.reset();
    EXPECT_EQ(token.use_count(), base);
    e.schedule_at(5, big);
    EXPECT_EQ(token.use_count(), base + 1);
  }  // the engine dies with one closure pending
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sum, 136u);
}

// A callback that throws (a PowerFailure cutting a host mid-handler)
// unwinds out of step(); its slot is freed and pending() stays exact, and
// the engine keeps working.
TEST(Engine, ThrowingCallbackFreesItsSlot) {
  Engine e;
  auto token = std::make_shared<int>(0);
  int fired = 0;
  e.schedule_at(10, [token] { throw pm::PowerFailure(); });
  e.schedule_at(20, [&] { fired++; });
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_THROW(e.step(), pm::PowerFailure);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(token.use_count(), 1);  // the thrower's closure is gone
  EXPECT_EQ(e.now(), 10);
  e.schedule_at(15, [&] { fired += 10; });  // reuses the freed slot
  e.run_until_idle();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(e.pending(), 0u);
}

// Differential fuzz: random schedule / cancel / step / run_until / reset
// sequences against a std::multimap keyed by (time, schedule order). Some
// events schedule a child from their callback and some cancel an earlier
// event, so both sides see the same nested activity. Fired order, clock,
// pending count and every cancel() result must agree at each step.
TEST(EngineFuzz, MatchesMultimapModel) {
  for (u64 seed = 1; seed <= 4; seed++) {
    // What an event does when it fires, decided when it is scheduled.
    struct Plan {
      int tag;
      SimTime child_delay;  // < 0: no child
      int cancel_tag;       // < 0: cancels nothing
    };
    Rng rng(seed);
    Engine e;
    std::vector<int> fired_e;
    std::vector<int> fired_m;
    std::vector<EventId> ids;           // tag -> engine id
    std::vector<bool> model_live;       // tag -> still in the model
    std::multimap<std::pair<SimTime, u64>, Plan> model;
    std::map<int, decltype(model)::iterator> model_at;
    SimTime model_now = 0;
    u64 model_seq = 0;
    int next_tag = 0;

    const auto draw_plan = [&](int tag) {
      Plan p{tag, -1, -1};
      if (rng.next_below(4) == 0) {
        p.child_delay = static_cast<SimTime>(rng.next_below(300));
      }
      if (tag > 0 && rng.next_below(6) == 0) {
        p.cancel_tag = static_cast<int>(rng.next_below(tag));
      }
      return p;
    };
    // Engine side: the callback replays the plan and schedules children
    // whose plans were drawn in advance (so both sides share them).
    std::map<int, Plan> child_plans;  // parent tag -> child plan
    std::function<void(SimTime, Plan)> sched_e = [&](SimTime at, Plan p) {
      ids.resize(std::max<std::size_t>(ids.size(), p.tag + 1));
      ids[p.tag] = e.schedule_at(at, [&, p] {
        fired_e.push_back(p.tag);
        if (p.cancel_tag >= 0) (void)e.cancel(ids[p.cancel_tag]);
        if (p.child_delay >= 0) {
          sched_e(e.now() + p.child_delay, child_plans.at(p.tag));
        }
      });
    };
    const auto sched_m = [&](SimTime at, Plan p) {
      if (at < model_now) at = model_now;
      model_live.resize(std::max<std::size_t>(model_live.size(), p.tag + 1));
      model_live[p.tag] = true;
      model_at[p.tag] = model.emplace(std::pair{at, model_seq++}, p);
    };
    const auto cancel_m = [&](int tag) {
      if (tag >= static_cast<int>(model_live.size()) || !model_live[tag]) {
        return false;
      }
      model_live[tag] = false;
      model.erase(model_at.at(tag));
      model_at.erase(tag);
      return true;
    };
    const auto step_m = [&] {
      auto it = model.begin();
      const auto [key, p] = *it;
      model.erase(it);
      model_at.erase(p.tag);
      model_live[p.tag] = false;
      model_now = std::max(model_now, key.first);
      fired_m.push_back(p.tag);
      if (p.cancel_tag >= 0) (void)cancel_m(p.cancel_tag);
      if (p.child_delay >= 0) {
        sched_m(model_now + p.child_delay, child_plans.at(p.tag));
      }
    };
    const auto schedule = [&](SimTime at) {
      const Plan p = draw_plan(next_tag++);
      if (p.child_delay >= 0) {
        // The child's own plan (and its children's) are drawn now.
        int parent = p.tag;
        Plan child = draw_plan(next_tag++);
        child_plans[parent] = child;
        while (child.child_delay >= 0) {
          parent = child.tag;
          child = draw_plan(next_tag++);
          child_plans[parent] = child;
        }
      }
      sched_e(at, p);
      sched_m(at, p);
    };

    for (int op = 0; op < 5000; op++) {
      const u64 r = rng.next_below(100);
      if (r < 45) {
        // Mostly up to 50 ns in the past (clamped) to 2 us ahead; one in
        // ten up to 40 ms ahead, beyond two rotations of the engine's
        // calendar.
        schedule(rng.next_below(10) == 0
                     ? e.now() + static_cast<SimTime>(rng.next_below(40'000'000))
                     : e.now() - 50 + static_cast<SimTime>(rng.next_below(2050)));
      } else if (r < 60) {
        if (next_tag == 0) continue;
        const int tag = static_cast<int>(rng.next_below(next_tag));
        const bool model_has =
            tag < static_cast<int>(model_live.size()) && model_live[tag];
        const bool engine_had = tag < static_cast<int>(ids.size());
        const bool got = engine_had && e.cancel(ids[tag]);
        ASSERT_EQ(got, model_has) << "seed " << seed << " op " << op;
        if (model_has) (void)cancel_m(tag);
      } else if (r < 85) {
        const bool any = !model.empty();
        ASSERT_EQ(e.step(), any) << "seed " << seed << " op " << op;
        if (any) step_m();
      } else if (r < 99) {
        const SimTime deadline =
            e.now() + static_cast<SimTime>(rng.next_below(10) == 0
                                               ? rng.next_below(50'000'000)
                                               : rng.next_below(1500));
        e.run_until(deadline);
        while (!model.empty() && model.begin()->first.first <= deadline) {
          step_m();
        }
        model_now = std::max(model_now, deadline);
      } else {
        e.reset();
        model.clear();
        model_at.clear();
        std::fill(model_live.begin(), model_live.end(), false);
        model_now = 0;
      }
      ASSERT_EQ(fired_e, fired_m) << "seed " << seed << " op " << op;
      ASSERT_EQ(e.now(), model_now) << "seed " << seed << " op " << op;
      ASSERT_EQ(e.pending(), model.size()) << "seed " << seed << " op " << op;
    }
    e.run_until_idle();
    while (!model.empty()) step_m();
    EXPECT_EQ(fired_e, fired_m) << "seed " << seed;
    EXPECT_EQ(e.now(), model_now) << "seed " << seed;
    EXPECT_EQ(e.pending(), 0u);
  }
}

TEST(CostModel, PersistCostCountsLines) {
  CostModel m;
  // 1 KB = 16 lines: the Table 1 persistence row (1.94 us).
  EXPECT_EQ(m.persist_cost(1024), 16 * m.clwb_ns + m.sfence_ns);
  EXPECT_NEAR(static_cast<double>(m.persist_cost(1024)), 1940.0, 60.0);
  // A single byte still flushes a whole line.
  EXPECT_EQ(m.persist_cost(1), m.clwb_ns + m.sfence_ns);
  // Straddling is the caller's problem; 65 bytes = 2 lines.
  EXPECT_EQ(m.persist_cost(65), 2 * m.clwb_ns + m.sfence_ns);
}

TEST(CostModel, Crc32cCalibratedToTable1) {
  CostModel m;
  // Table 1: checksum of a 1 KB value costs 1.77 us.
  EXPECT_NEAR(static_cast<double>(m.crc32c_cost(1024)), 1770.0, 60.0);
}

TEST(CostModel, CopyCalibratedToTable1) {
  CostModel m;
  // Table 1: copying a 1 KB value costs 1.14 us.
  EXPECT_NEAR(static_cast<double>(m.copy_cost(1024)), 1140.0, 40.0);
}

TEST(CostModel, WireCostAt25Gbps) {
  CostModel m;
  // 25 Gbit/s = 0.32 ns/byte; 1500 B frame = 480 ns.
  EXPECT_NEAR(static_cast<double>(m.wire_cost(1500)), 480.0, 1.0);
}

TEST(CostModel, NetScaleAppliesToWire) {
  CostModel m;
  m.net_scale = 0.5;
  EXPECT_EQ(m.wire_cost(1000), m.scaled(static_cast<SimTime>(320)));
}

TEST(CostModel, HomaPresetIsFaster) {
  const CostModel tcp;
  const CostModel homa = CostModel::homa_like();
  EXPECT_LT(homa.client_stack_rx_ns, tcp.client_stack_rx_ns);
  EXPECT_LT(homa.server_stack_rx_ns, tcp.server_stack_rx_ns);
  // Storage-side constants must be untouched: the ablation isolates
  // networking.
  EXPECT_EQ(homa.clwb_ns, tcp.clwb_ns);
  EXPECT_EQ(homa.crc32c_ns_per_byte, tcp.crc32c_ns_per_byte);
}

TEST(Env, SharedClock) {
  Env env;
  env.clock().advance(42);
  EXPECT_EQ(env.now(), 42);
  EXPECT_EQ(env.engine.now(), 42);
}

}  // namespace
}  // namespace papm::sim
