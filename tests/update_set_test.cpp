/**
 * @file
 * End-event update sets (the table's update windows; see
 * vc/adaptive_clock.hpp and src/vc/README.md "End-event complexity").
 *
 * Two properties, plus an accounting check:
 *  1. Complexity guard — an end event's sweep visits O(|update set|)
 *     entries, not O(|table|): a cold transaction ending against a table
 *     of 10k+ touched variables must sweep a handful of entries (the
 *     counters expose the visit count), while the set_update_sets(false)
 *     full sweep visits everything.
 *  2. Fuzz parity — for every engine, verdicts (and spot-checked clock
 *     state) are bit-for-bit identical with update sets on and off, over
 *     the random-program corpus. The sets only *skip* entries whose gate
 *     provably cannot fire.
 *  3. memory_bytes() is populated once an engine has seen threads.
 */

#include <gtest/gtest.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "aerodrome/aerodrome_readopt.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace aero {
namespace {

/** 10k single-write transactions of thread 0 (one fresh var each), with
 *  one "cold" transaction of thread 1 — nothing ordered into it — split
 *  around them. */
Trace
cold_end_trace(uint32_t touched_vars)
{
    Trace t;
    const uint32_t half = touched_vars / 2;
    for (uint32_t x = 0; x < half; ++x) {
        t.begin(0);
        t.write(0, x);
        t.end(0);
    }
    t.begin(1);
    t.write(1, touched_vars);
    for (uint32_t x = half; x < touched_vars; ++x) {
        t.begin(0);
        t.write(0, x);
        t.end(0);
    }
    t.end(1);
    return t;
}

template <typename Engine>
void
expect_cold_end_sweep_is_small(bool update_sets, uint64_t touched_vars)
{
    Trace t = cold_end_trace(static_cast<uint32_t>(touched_vars));
    Engine engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_update_sets(update_sets);

    // Feed everything but the final end (thread 1's), then isolate the
    // entries swept by that one cold end event.
    for (size_t i = 0; i + 1 < t.size(); ++i)
        ASSERT_FALSE(engine.process(t[i], i));
    const uint64_t swept_before = engine.stats().end_swept_entries;
    ASSERT_FALSE(engine.process(t[t.size() - 1], t.size() - 1));
    const uint64_t swept = engine.stats().end_swept_entries - swept_before;

    if (update_sets) {
        // Thread 1's transaction wrote one variable; only entries its own
        // accesses (or clocks ordered after its begin — none here) fed
        // can be enrolled. The table itself holds >= touched_vars entries.
        EXPECT_LE(swept, 8u);
    } else {
        // The escape hatch restores the full-table sweep.
        EXPECT_GE(swept, touched_vars);
    }
}

TEST(UpdateSetComplexity, BasicColdEndSweepsSetNotTable)
{
    expect_cold_end_sweep_is_small<AeroDromeBasic>(true, 10000);
}

TEST(UpdateSetComplexity, ReadOptColdEndSweepsSetNotTable)
{
    expect_cold_end_sweep_is_small<AeroDromeReadOpt>(true, 10000);
}

TEST(UpdateSetComplexity, OptColdEndSweepsSetNotTable)
{
    expect_cold_end_sweep_is_small<AeroDromeOpt>(true, 10000);
}

TEST(UpdateSetComplexity, BasicFullSweepWithoutSets)
{
    expect_cold_end_sweep_is_small<AeroDromeBasic>(false, 10000);
}

TEST(UpdateSetComplexity, ReadOptFullSweepWithoutSets)
{
    expect_cold_end_sweep_is_small<AeroDromeReadOpt>(false, 10000);
}

TEST(UpdateSetComplexity, OptFullSweepWithoutSets)
{
    expect_cold_end_sweep_is_small<AeroDromeOpt>(false, 10000);
}

/** A warm end — the transaction that touched every variable — must still
 *  propagate into all of them through the set-driven sweep. */
TEST(UpdateSetComplexity, WarmEndStillSweepsItsOwnAccesses)
{
    const uint32_t vars = 1000;
    Trace t;
    t.begin(0);
    for (uint32_t x = 0; x < vars; ++x)
        t.write(0, x);
    t.end(0);

    AeroDromeReadOpt engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_update_sets(true);
    for (size_t i = 0; i < t.size(); ++i)
        ASSERT_FALSE(engine.process(t[i], i));
    EXPECT_GE(engine.stats().end_swept_entries, uint64_t{vars});
}

// --- Opt's skipped end is O(1) in the lock count ------------------------------

/** What one engine's counters moved by over a run of skipped ends. */
struct SkippedEndCost {
    uint64_t skipped = 0;
    uint64_t comparisons = 0;
    uint64_t joins = 0;
    uint64_t swept = 0;
    uint64_t gate_skipped = 0;
};

/** Thread 0 releases `locks` distinct locks once, then runs `ends`
 *  one-read transactions. Nothing is ordered into them, so every end
 *  skips propagation (hasIncomingEdge is false). */
SkippedEndCost
skipped_end_cost(uint32_t locks, uint32_t ends)
{
    AeroDromeOpt engine(1, 1, locks);
    size_t i = 0;
    for (LockId l = 0; l < locks; ++l) {
        EXPECT_FALSE(engine.process({0, l, Op::kAcquire}, i++));
        EXPECT_FALSE(engine.process({0, l, Op::kRelease}, i++));
    }
    const AeroDromeStats before = engine.stats();
    const uint64_t skipped_before = engine.opt_stats().gc_skipped_ends;
    for (uint32_t k = 0; k < ends; ++k) {
        EXPECT_FALSE(engine.process({0, 0, Op::kBegin}, i++));
        EXPECT_FALSE(engine.process({0, 0, Op::kRead}, i++));
        EXPECT_FALSE(engine.process({0, 0, Op::kEnd}, i++));
    }
    const AeroDromeStats& after = engine.stats();
    return {engine.opt_stats().gc_skipped_ends - skipped_before,
            after.comparisons - before.comparisons,
            after.joins - before.joins,
            after.end_swept_entries - before.end_swept_entries,
            after.end_gate_skipped - before.end_gate_skipped};
}

TEST(SkippedEndComplexity, OptSkippedEndCostIsIndependentOfLockCount)
{
    // A skipped end expires the thread's last-releaser facts by reissuing
    // one owner word, not by visiting every lock: every counter the ends
    // move is the same after 100k released locks as after one.
    const uint32_t ends = 1000;
    const SkippedEndCost one = skipped_end_cost(1, ends);
    const SkippedEndCost many = skipped_end_cost(100000, ends);
    EXPECT_EQ(one.skipped, ends);
    EXPECT_EQ(many.skipped, ends);
    EXPECT_EQ(one.comparisons, many.comparisons);
    EXPECT_EQ(one.joins, many.joins);
    EXPECT_EQ(one.swept, many.swept);
    EXPECT_EQ(one.gate_skipped, many.gate_skipped);
    EXPECT_LE(many.swept, uint64_t{8} * ends);
}

TEST(SkippedEndComplexity, OptAcquireAfterSkippedEndIsChecked)
{
    // Re-acquiring a lock the thread itself released last skips the
    // check, until one of the thread's ends skips propagation; from then
    // on the next acquire of each such lock is checked, and a new
    // release restores the skip.
    const LockId locks = 50;
    AeroDromeOpt engine(1, 1, locks);
    size_t i = 0;
    auto acquire_comparisons = [&](LockId l) {
        const uint64_t before = engine.stats().comparisons;
        EXPECT_FALSE(engine.process({0, l, Op::kAcquire}, i++));
        return engine.stats().comparisons - before;
    };
    for (LockId l = 0; l < locks; ++l) {
        EXPECT_EQ(acquire_comparisons(l), 1u) << "first acquire " << l;
        EXPECT_FALSE(engine.process({0, l, Op::kRelease}, i++));
        EXPECT_EQ(acquire_comparisons(l), 0u) << "own release " << l;
        EXPECT_FALSE(engine.process({0, l, Op::kRelease}, i++));
    }
    EXPECT_FALSE(engine.process({0, 0, Op::kBegin}, i++));
    EXPECT_FALSE(engine.process({0, 0, Op::kEnd}, i++));
    ASSERT_EQ(engine.opt_stats().gc_skipped_ends, 1u);
    for (LockId l = 0; l < locks; ++l) {
        EXPECT_EQ(acquire_comparisons(l), 1u) << "after skipped end " << l;
        EXPECT_FALSE(engine.process({0, l, Op::kRelease}, i++));
        EXPECT_EQ(acquire_comparisons(l), 0u) << "released again " << l;
    }
}

/** `idle` threads each make one unary read and then stay idle; thread 0
 *  opens a transaction that stays open; thread 1 reads a variable
 *  thread 0 wrote outside any transaction (so C_1 is impure) and then
 *  runs `ends` one-read transactions, none of which anything is ordered
 *  into. What thread 1's ends moved the counters by. */
SkippedEndCost
skipped_end_cost_with_idle_threads(uint32_t idle, uint32_t ends)
{
    const uint32_t threads = 2 + idle;
    AeroDromeOpt engine(threads, threads + 2, 0);
    size_t i = 0;
    for (ThreadId t = 2; t < threads; ++t)
        EXPECT_FALSE(engine.process({t, t + 2, Op::kRead}, i++));
    EXPECT_FALSE(engine.process({0, 0, Op::kWrite}, i++));
    EXPECT_FALSE(engine.process({1, 0, Op::kRead}, i++));
    EXPECT_FALSE(engine.process({0, 0, Op::kBegin}, i++));
    const AeroDromeStats before = engine.stats();
    const uint64_t skipped_before = engine.opt_stats().gc_skipped_ends;
    for (uint32_t k = 0; k < ends; ++k) {
        EXPECT_FALSE(engine.process({1, 0, Op::kBegin}, i++));
        EXPECT_FALSE(engine.process({1, 1, Op::kRead}, i++));
        EXPECT_FALSE(engine.process({1, 0, Op::kEnd}, i++));
    }
    const AeroDromeStats& after = engine.stats();
    return {engine.opt_stats().gc_skipped_ends - skipped_before,
            after.comparisons - before.comparisons,
            after.joins - before.joins,
            after.end_swept_entries - before.end_swept_entries,
            after.end_gate_skipped - before.end_gate_skipped};
}

TEST(SkippedEndComplexity, OptSkippedEndCostIsIndependentOfIdleThreads)
{
    // hasIncomingEdge walks the open transactions, not every thread row:
    // with one transaction open, every counter a skipped end of an
    // impure thread moves is the same beside 62 idle threads as beside
    // none.
    const uint32_t ends = 1000;
    const SkippedEndCost few = skipped_end_cost_with_idle_threads(0, ends);
    const SkippedEndCost many = skipped_end_cost_with_idle_threads(62, ends);
    EXPECT_EQ(few.skipped, ends);
    EXPECT_EQ(many.skipped, ends);
    EXPECT_EQ(few.comparisons, many.comparisons);
    EXPECT_EQ(few.joins, many.joins);
    EXPECT_EQ(few.swept, many.swept);
    EXPECT_EQ(few.gate_skipped, many.gate_skipped);
    EXPECT_LE(many.swept, uint64_t{2} * ends);
}

// --- Fuzz parity: update sets on vs off, all three engines ---------------

Trace
fuzz_trace(uint64_t seed)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = 4;
    opts.shared_vars = 6;
    opts.locks = 2;
    opts.txn_probability = 0.8;
    opts.steps_per_thread = 50;
    sim::Program prog = gen::make_random_program(opts);
    sim::SchedulerOptions sched;
    sched.seed = seed * 7919 + 13;
    sim::SimResult sim = sim::run_program(prog, sched);
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

template <typename Engine>
RunResult
run_with_sets(const Trace& t, bool on)
{
    Engine engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_update_sets(on);
    return run_checker(engine, t);
}

void
expect_same_verdict(const RunResult& a, const RunResult& b,
                    const char* what)
{
    ASSERT_EQ(a.violation, b.violation) << what;
    if (a.violation) {
        EXPECT_EQ(a.details->event_index, b.details->event_index) << what;
        EXPECT_EQ(a.details->thread, b.details->thread) << what;
    }
}

TEST(UpdateSetParity, FuzzOnOffAllEngines)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Trace t = fuzz_trace(seed);

        RunResult basic_on = run_with_sets<AeroDromeBasic>(t, true);
        RunResult basic_off = run_with_sets<AeroDromeBasic>(t, false);
        expect_same_verdict(basic_on, basic_off, "basic on/off");

        RunResult ro_on = run_with_sets<AeroDromeReadOpt>(t, true);
        RunResult ro_off = run_with_sets<AeroDromeReadOpt>(t, false);
        expect_same_verdict(ro_on, ro_off, "readopt on/off");

        RunResult opt_on = run_with_sets<AeroDromeOpt>(t, true);
        RunResult opt_off = run_with_sets<AeroDromeOpt>(t, false);
        expect_same_verdict(opt_on, opt_off, "opt on/off");

        // Algorithms 1 and 2 fire at the same event; the sets must not
        // perturb that cross-engine agreement either.
        expect_same_verdict(basic_on, ro_on, "basic vs readopt");

        // opt's lazy proxies may fire earlier, but its verdict presence
        // must match (Theorem 3 — the fuzz corpus closes every
        // transaction it opens).
        EXPECT_EQ(basic_on.violation, opt_on.violation) << "seed " << seed;
    }
}

/** Clock state, not just verdicts: the final W_x clocks of the basic
 *  engine must be identical on serializable traces. */
TEST(UpdateSetParity, FuzzFinalWriteClocksMatch)
{
    for (uint64_t seed = 100; seed < 120; ++seed) {
        Trace t = fuzz_trace(seed);
        AeroDromeBasic on(t.num_threads(), t.num_vars(), t.num_locks());
        on.set_update_sets(true);
        AeroDromeBasic off(t.num_threads(), t.num_vars(), t.num_locks());
        off.set_update_sets(false);
        RunResult r_on = run_checker(on, t);
        RunResult r_off = run_checker(off, t);
        expect_same_verdict(r_on, r_off, "basic on/off");
        if (r_on.violation)
            continue; // engines stop at the violation; state diverges
        for (uint32_t x = 0; x < t.num_vars(); ++x)
            EXPECT_EQ(on.write_clock_of(x), off.write_clock_of(x))
                << "seed " << seed << " var " << x;
        for (uint32_t u = 0; u < t.num_threads(); ++u)
            EXPECT_EQ(on.clock_of(u), off.clock_of(u))
                << "seed " << seed << " thread " << u;
    }
}

/** Memory accounting covers the clock state an engine builds. */
TEST(UpdateSetMemory, AccountingIsPopulated)
{
    Trace t = fuzz_trace(7);
    AeroDromeReadOpt engine(0, 0, 0);
    run_checker(engine, t);
    // The clock banks exist once threads were seen.
    EXPECT_GT(engine.memory_bytes(), 0u);
}

} // namespace
} // namespace aero
