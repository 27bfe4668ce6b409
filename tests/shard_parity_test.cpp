/**
 * @file
 * Shard-parity differential suite (see src/shard/README.md).
 *
 * Exact modes — lockstep (merge_epoch == 1) and, since the divergence
 * barriers landed, every epoch cadence (merge_epoch in {4, 64,
 * end-only}) — are bit-exact with the single-engine run: for every fuzz
 * seed, directed trace and adversarial cross-shard family, every
 * AeroDrome engine, shards in {2, 4, 8} (plus AERO_SHARDS when set),
 * merge epochs plus AERO_MERGE_EPOCH when set, and the epoch-adaptive
 * storage both on and off, the sharded verdict must match the
 * single-engine verdict *event for event*: same verdict, same violating
 * event index, same thread.
 *
 * The legacy periodic-only mode (divergence_barriers off) is sound but
 * its detection may lag a cross-shard cycle: the suite asserts the
 * soundness direction on the whole corpus (a serializable baseline
 * stays serializable sharded; a sharded violation implies a baseline
 * violation at or before it), including the adversarial families built
 * to defeat it, and that the suspect-window confirmation replay only
 * ever moves a verdict *toward* the exact one.
 *
 * Determinism: these runs use the inline driver, whose semantics are
 * identical to the threaded pipeline (enforced by shard_test); a
 * threaded spot check runs on a small subset here.
 *
 * Reclamation (on by default; set_gc(false) is the reference path) must
 * be verdict-invisible: a corpus pass runs gc-on engines (sweep forced
 * every transaction end) single and sharded against the gc-off
 * baseline. Every other test here runs the engines' default, gc on.
 *
 * The transport block size (ShardOptions::batch_size) is pure plumbing
 * and must be verdict-invariant: a dedicated sweep holds the threaded
 * pipeline to bit-exactness at batch {1, 7, 64, 256}, and the
 * worker-failure matrix re-runs its kill/stall contract at batch {1, 64}
 * so recovery mid-block is covered too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "aerodrome/aerodrome_readopt.hpp"
#include "aerodrome/aerodrome_tuned.hpp"
#include "analysis/runner.hpp"
#include "gen/adversarial.hpp"
#include "gen/patterns.hpp"
#include "gen/random_program.hpp"
#include "shard/sharded_runner.hpp"
#include "sim/scheduler.hpp"
#include "support/fault.hpp"
#include "trace/builder.hpp"

namespace aero {
namespace {

Trace
fuzz_trace(uint64_t seed, uint32_t threads, uint32_t vars, uint32_t locks,
           double txnp)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = threads;
    opts.shared_vars = vars;
    opts.locks = locks;
    opts.txn_probability = txnp;
    opts.steps_per_thread = 50;
    sim::Program prog = gen::make_random_program(opts);
    sim::SchedulerOptions sched;
    sched.seed = seed * 7919 + 13;
    sim::SimResult sim = sim::run_program(prog, sched);
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

template <typename Engine>
EngineFactory
factory(bool epochs)
{
    return [epochs] {
        auto engine = std::make_unique<Engine>(0, 0, 0);
        engine->set_epochs(epochs);
        return engine;
    };
}

template <typename Engine>
RunResult
baseline(const Trace& t, bool epochs)
{
    Engine engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_epochs(epochs);
    return run_checker(engine, t);
}

/** Factory with the sweep hook at every transaction end, so sweeps
 *  actually interleave with the merge cadence instead of waiting for
 *  table growth. */
template <typename Engine>
EngineFactory
gc_factory(bool epochs)
{
    return [epochs] {
        auto engine = std::make_unique<Engine>(0, 0, 0);
        engine->set_epochs(epochs);
        engine->set_gc_sweep_every(1);
        return engine;
    };
}

std::vector<uint32_t>
shard_counts()
{
    std::vector<uint32_t> counts = {2, 4, 8};
    if (const char* env = std::getenv("AERO_SHARDS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n >= 2 && n <= 64 &&
            std::find(counts.begin(), counts.end(),
                      static_cast<uint32_t>(n)) == counts.end())
            counts.push_back(static_cast<uint32_t>(n));
    }
    return counts;
}

/** The exact epoch cadences under test: the checked defaults plus the
 *  AERO_MERGE_EPOCH CI sweep value, plus barrier-only mode. */
std::vector<uint64_t>
exact_merge_epochs()
{
    std::vector<uint64_t> epochs = {4, 64, ShardOptions::kMergeEndOnly};
    if (const char* env = std::getenv("AERO_MERGE_EPOCH")) {
        long n = std::strtol(env, nullptr, 10);
        if (n >= 2 &&
            std::find(epochs.begin(), epochs.end(),
                      static_cast<uint64_t>(n)) == epochs.end())
            epochs.push_back(static_cast<uint64_t>(n));
    }
    return epochs;
}

/** Any sharded configuration must reproduce the single-engine verdict
 *  event for event. */
template <typename Engine>
void
expect_exact(const Trace& t, ShardPolicy policy, uint64_t merge_epoch,
             bool epochs, const RunResult& expected)
{
    for (uint32_t shards : shard_counts()) {
        ShardOptions opts;
        opts.shards = shards;
        opts.merge_epoch = merge_epoch;
        opts.policy = policy;
        ShardRunResult r = run_sharded_inline(factory<Engine>(epochs), t,
                                              opts);
        SCOPED_TRACE(::testing::Message()
                     << "engine=" << Engine(0, 0, 0).name()
                     << " shards=" << shards
                     << " merge_epoch=" << merge_epoch
                     << " epochs=" << epochs);
        ASSERT_EQ(r.result.violation, expected.violation);
        EXPECT_EQ(r.suspects, 0u) << "exact mode demoted a verdict";
        if (expected.violation) {
            EXPECT_EQ(r.result.details->event_index,
                      expected.details->event_index);
            EXPECT_EQ(r.result.details->thread, expected.details->thread);
            EXPECT_EQ(r.result.events_processed,
                      expected.events_processed);
        }
    }
}

/** Exactness of every epoch cadence (divergence barriers on). */
template <typename Engine>
void
expect_epoch_mode_exact(const Trace& t, ShardPolicy policy)
{
    for (bool epochs : {true, false}) {
        RunResult expected = baseline<Engine>(t, epochs);
        for (uint64_t merge_epoch : exact_merge_epochs())
            expect_exact<Engine>(t, policy, merge_epoch, epochs, expected);
    }
}

/** Lockstep sharded run must equal the single-engine run exactly. */
template <typename Engine>
void
expect_lockstep_exact(const Trace& t, ShardPolicy policy)
{
    for (bool epochs : {true, false}) {
        RunResult expected = baseline<Engine>(t, epochs);
        for (uint32_t shards : shard_counts()) {
            ShardOptions opts;
            opts.shards = shards;
            opts.merge_epoch = 1;
            opts.policy = policy;
            ShardRunResult r =
                run_sharded_inline(factory<Engine>(epochs), t, opts);
            SCOPED_TRACE(::testing::Message()
                         << "engine=" << Engine(0, 0, 0).name()
                         << " shards=" << shards << " epochs=" << epochs);
            ASSERT_EQ(r.result.violation, expected.violation);
            if (expected.violation) {
                EXPECT_EQ(r.result.details->event_index,
                          expected.details->event_index);
                EXPECT_EQ(r.result.details->thread,
                          expected.details->thread);
                EXPECT_EQ(r.result.events_processed,
                          expected.events_processed);
            }
        }
    }
}

/**
 * The legacy periodic-only mode (divergence barriers off) must never
 * fabricate a violation, and any violation it reports — whether the raw
 * shard suspect or its replay-confirmed refinement — must be at-or-after
 * the single-engine detection. Run with and without the confirmation
 * replay; the replay may only move a verdict toward the exact one.
 */
template <typename Engine>
void
expect_legacy_epoch_mode_sound(const Trace& t, ShardPolicy policy)
{
    for (bool epochs : {true, false}) {
        RunResult expected = baseline<Engine>(t, epochs);
        for (uint32_t shards : shard_counts()) {
            for (uint64_t merge_epoch : {uint64_t{4}, uint64_t{64},
                                         uint64_t{1024}}) {
                ShardOptions opts;
                opts.shards = shards;
                opts.merge_epoch = merge_epoch;
                opts.policy = policy;
                opts.divergence_barriers = false;
                opts.confirm_replay = false;
                ShardRunResult raw =
                    run_sharded_inline(factory<Engine>(epochs), t, opts);
                opts.confirm_replay = true;
                ShardRunResult confirmed =
                    run_sharded_inline(factory<Engine>(epochs), t, opts);
                SCOPED_TRACE(::testing::Message()
                             << "engine=" << Engine(0, 0, 0).name()
                             << " shards=" << shards
                             << " merge_epoch=" << merge_epoch
                             << " epochs=" << epochs);
                for (const ShardRunResult* r : {&raw, &confirmed}) {
                    if (!expected.violation) {
                        EXPECT_FALSE(r->result.violation)
                            << "sharded run fabricated a violation";
                    } else if (r->result.violation) {
                        EXPECT_GE(r->result.details->event_index,
                                  expected.details->event_index)
                            << "sharded run fired before the exact engine";
                    }
                }
                if (confirmed.result.violation) {
                    ASSERT_TRUE(raw.result.violation);
                    EXPECT_EQ(confirmed.suspects, 1u);
                    EXPECT_EQ(confirmed.replay_confirmed +
                                  confirmed.replay_refined +
                                  confirmed.replay_upheld,
                              confirmed.replays);
                    // The replay only ever refines toward the baseline.
                    EXPECT_LE(confirmed.result.details->event_index,
                              raw.result.details->event_index);
                    EXPECT_GE(confirmed.result.details->event_index,
                              expected.details->event_index);
                }
            }
        }
    }
}

struct ParityParams {
    uint64_t seed;
    uint32_t threads;
    uint32_t vars;
    uint32_t locks;
    double txn_probability;
};

void
PrintTo(const ParityParams& p, std::ostream* os)
{
    *os << "seed=" << p.seed << " threads=" << p.threads
        << " vars=" << p.vars << " locks=" << p.locks
        << " txnp=" << p.txn_probability;
}

class ShardParity : public ::testing::TestWithParam<ParityParams> {};

TEST_P(ShardParity, LockstepMatchesSingleEngineEventForEvent)
{
    const ParityParams& p = GetParam();
    Trace t = fuzz_trace(p.seed, p.threads, p.vars, p.locks,
                         p.txn_probability);
    expect_lockstep_exact<AeroDromeBasic>(t, &hash_shard_policy);
    expect_lockstep_exact<AeroDromeReadOpt>(t, &hash_shard_policy);
    expect_lockstep_exact<AeroDromeOpt>(t, &hash_shard_policy);
    expect_lockstep_exact<AeroDromeTuned>(t, &hash_shard_policy);
}

TEST_P(ShardParity, EpochModeMatchesSingleEngineEventForEvent)
{
    const ParityParams& p = GetParam();
    Trace t = fuzz_trace(p.seed, p.threads, p.vars, p.locks,
                         p.txn_probability);
    expect_epoch_mode_exact<AeroDromeBasic>(t, &hash_shard_policy);
    expect_epoch_mode_exact<AeroDromeReadOpt>(t, &hash_shard_policy);
    expect_epoch_mode_exact<AeroDromeOpt>(t, &hash_shard_policy);
    expect_epoch_mode_exact<AeroDromeTuned>(t, &hash_shard_policy);
}

/** One engine over `t`, epochs on: gc off (the reference path), or gc
 *  on with a sweep at every transaction end. */
template <typename Engine>
RunResult
single_run(const Trace& t, bool gc)
{
    Engine e(t.num_threads(), t.num_vars(), t.num_locks());
    e.set_epochs(true);
    e.set_gc(gc);
    if (gc)
        e.set_gc_sweep_every(1);
    return run_checker(e, t);
}

TEST_P(ShardParity, GcOnReproducesTheGcOffVerdict)
{
    const ParityParams& p = GetParam();
    Trace t = fuzz_trace(p.seed, p.threads, p.vars, p.locks,
                         p.txn_probability);
    // Reclamation must be invisible to verdicts: with sweeps forced at
    // every transaction end, both the single-engine and the sharded
    // runs must reproduce that engine's own gc-off verdict event for
    // event (engines may legitimately flag different events, so each
    // is held to its own baseline).
    auto check = [&](const RunResult& r, const RunResult& expected,
                     const char* what) {
        SCOPED_TRACE(what);
        ASSERT_EQ(r.violation, expected.violation);
        if (expected.violation) {
            EXPECT_EQ(r.details->event_index,
                      expected.details->event_index);
            EXPECT_EQ(r.details->thread, expected.details->thread);
        }
    };

    const RunResult opt_off = single_run<AeroDromeOpt>(t, false);
    check(single_run<AeroDromeOpt>(t, true), opt_off,
          "single-engine opt gc on");
    check(single_run<AeroDromeBasic>(t, true),
          single_run<AeroDromeBasic>(t, false), "single-engine basic gc on");
    const RunResult tuned_off = single_run<AeroDromeTuned>(t, false);
    check(single_run<AeroDromeTuned>(t, true), tuned_off,
          "single-engine tuned gc on");

    for (uint32_t shards : {2u, 4u}) {
        ShardOptions opts;
        opts.shards = shards;
        opts.merge_epoch = 4;
        ShardRunResult r =
            run_sharded_inline(gc_factory<AeroDromeOpt>(true), t, opts);
        SCOPED_TRACE(::testing::Message() << "shards=" << shards);
        check(r.result, opt_off, "sharded opt gc on");
        EXPECT_EQ(r.suspects, 0u);
        ShardRunResult rt =
            run_sharded_inline(gc_factory<AeroDromeTuned>(true), t, opts);
        check(rt.result, tuned_off, "sharded tuned gc on");
    }
}

TEST_P(ShardParity, LegacyEpochModeIsSoundOnTheCorpus)
{
    const ParityParams& p = GetParam();
    Trace t = fuzz_trace(p.seed, p.threads, p.vars, p.locks,
                         p.txn_probability);
    expect_legacy_epoch_mode_sound<AeroDromeOpt>(t, &hash_shard_policy);
    expect_legacy_epoch_mode_sound<AeroDromeReadOpt>(t,
                                                     &hash_shard_policy);
}

std::vector<ParityParams>
make_params()
{
    std::vector<ParityParams> out;
    uint64_t seed = 9000;
    for (uint32_t threads : {2u, 4u, 8u}) {
        for (uint32_t vars : {2u, 6u, 24u}) {
            for (double txnp : {0.3, 0.8}) {
                out.push_back({seed++, threads, vars, 1 + threads / 2,
                               txnp});
            }
        }
    }
    // A few var-heavy shapes (mostly cross-shard variable traffic).
    for (uint64_t s = 9100; s < 9110; ++s)
        out.push_back({s, 4, 16, 1, 0.9});
    return out;
}

INSTANTIATE_TEST_SUITE_P(FuzzCorpus, ShardParity,
                         ::testing::ValuesIn(make_params()));

// --- Directed cross-shard-cycle traces --------------------------------------
//
// With modulo placement and two shards, x(var 0) lives on shard 0 and
// y(var 1) on shard 1, so these traces force the violating cycle's edges
// through both shards and stress the frontier merge.

/** t1: [w(x) ... r(y)] vs t2: [r(x) w(y)] — the closing read of y sees
 *  t1's own transaction through a chain that crossed shards. */
Trace
cross_shard_cycle()
{
    TraceBuilder b;
    b.begin("t1").write("t1", "x");   // 0,1
    b.begin("t2").read("t2", "x");    // 2,3  edge t1 -> t2 (shard 0)
    b.write("t2", "y");               // 4    W_y := C_t2   (shard 1)
    b.read("t1", "y");                // 5    closes the cycle
    b.end("t1").end("t2");
    return b.take();
}

/** Same cycle, but the t1 -> t2 edge is carried by a lock handoff:
 *  t1 releases l *inside* its open transaction, so the (replicated)
 *  release publishes t1's in-transaction clock to L_l in every shard
 *  and t2's acquire picks it up everywhere — no variable, and hence no
 *  frontier merge, is needed to transport that edge. */
Trace
cross_shard_lock_cycle()
{
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.acquire("t1", "l").release("t1", "l");
    b.acquire("t2", "l");
    b.begin("t2").write("t2", "y");
    b.read("t1", "y");
    b.end("t1").end("t2");
    return b.take();
}

/** Serializable cross-shard ping-pong: ordered handoffs only. */
Trace
cross_shard_serializable()
{
    TraceBuilder b;
    for (int round = 0; round < 8; ++round) {
        b.begin("t1").write("t1", "x").write("t1", "y").end("t1");
        b.begin("t2").read("t2", "x").read("t2", "y").end("t2");
    }
    return b.take();
}

/** Three-shard cycle: t1 -> t2 via x (shard 0), t2 -> t3 via y (shard
 *  1), t3 -> t1 via z (shard 2). */
Trace
three_shard_cycle()
{
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.begin("t2").read("t2", "x").write("t2", "y");
    b.begin("t3").read("t3", "y").write("t3", "z");
    b.read("t1", "z");
    b.end("t1").end("t2").end("t3");
    return b.take();
}

TEST(ShardParityDirected, CrossShardCyclesAreExactInLockstep)
{
    for (const Trace& t : {cross_shard_cycle(), cross_shard_lock_cycle(),
                           three_shard_cycle(), cross_shard_serializable()}) {
        expect_lockstep_exact<AeroDromeBasic>(t, &modulo_shard_policy);
        expect_lockstep_exact<AeroDromeReadOpt>(t, &modulo_shard_policy);
        expect_lockstep_exact<AeroDromeOpt>(t, &modulo_shard_policy);
        expect_lockstep_exact<AeroDromeTuned>(t, &modulo_shard_policy);
    }
}

TEST(ShardParityDirected, MergeBeforeTheCarrierWriteRestoresExactness)
{
    // In cross_shard_cycle() the cross-shard hop is: t2 learns the
    // t1-ordering at event 3 (shard 0) and publishes W_y at event 4
    // (shard 1). A merge at global index 4 sits exactly between the two
    // hops, so merge_epoch == 4 must reproduce the single-engine verdict
    // index for index; merge_epoch == 2 (boundary at 2 and 4) likewise.
    Trace t = cross_shard_cycle();
    RunResult expected = baseline<AeroDromeOpt>(t, true);
    ASSERT_TRUE(expected.violation);
    ASSERT_EQ(expected.details->event_index, 5u);

    for (uint64_t merge_epoch : {uint64_t{2}, uint64_t{4}}) {
        ShardOptions opts;
        opts.shards = 2;
        opts.merge_epoch = merge_epoch;
        opts.policy = &modulo_shard_policy;
        ShardRunResult r =
            run_sharded_inline(factory<AeroDromeOpt>(true), t, opts);
        ASSERT_TRUE(r.result.violation)
            << "merge_epoch=" << merge_epoch;
        EXPECT_EQ(r.result.details->event_index,
                  expected.details->event_index);
        EXPECT_EQ(r.result.details->thread, expected.details->thread);
    }
}

TEST(ShardParityDirected, LockCarriedCycleSurvivesAnyMergeCadence)
{
    // The carrier edge travels through replicated lock events, so every
    // shard sees it without any frontier merge at all: verdict and index
    // must match the single engine even with merging disabled.
    Trace t = cross_shard_lock_cycle();
    RunResult expected = baseline<AeroDromeOpt>(t, true);
    ASSERT_TRUE(expected.violation);

    for (uint64_t merge_epoch : {uint64_t{0}, uint64_t{16}}) {
        ShardOptions opts;
        opts.shards = 2;
        opts.merge_epoch = merge_epoch;
        opts.policy = &modulo_shard_policy;
        ShardRunResult r =
            run_sharded_inline(factory<AeroDromeOpt>(true), t, opts);
        ASSERT_TRUE(r.result.violation);
        EXPECT_EQ(r.result.details->event_index,
                  expected.details->event_index);
    }
}

// --- Adversarial cross-shard families (gen/adversarial.hpp) -----------------
//
// Parameterized traces built to defeat naive epoch merging: transitive
// chains hopping between shard-owned variables inside one merge window
// while the carrier transactions are still open. Exact epoch mode must
// reproduce the single-engine verdict on every one of them; the legacy
// periodic-only mode must stay sound (these are exactly its blind spots).

std::vector<gen::CrossShardAdversaryOptions>
adversarial_corpus()
{
    std::vector<gen::CrossShardAdversaryOptions> out;
    for (uint32_t hops : {1u, 2u, 3u, 7u}) {
        for (uint32_t offset : {0u, 1u, 2u, 3u, 5u}) {
            for (bool open_carriers : {true, false}) {
                gen::CrossShardAdversaryOptions o;
                o.hops = hops;
                o.offset = offset;
                o.open_carriers = open_carriers;
                out.push_back(o);
                o.close_by_write = true;
                out.push_back(o);
            }
        }
    }
    // Targeted variants on the core open-carrier shape.
    for (uint32_t hops : {2u, 3u}) {
        gen::CrossShardAdversaryOptions o;
        o.hops = hops;
        o.retouch = true; // late detection point for lagging modes
        out.push_back(o);
        o.retouch = false;
        o.lock_carrier = true; // replicated carrier: no merge needed
        out.push_back(o);
        o.lock_carrier = false;
        o.same_shard = true; // control: single-shard chain
        out.push_back(o);
        o.same_shard = false;
        o.serializable = true; // control: no cycle anywhere
        out.push_back(o);
    }
    return out;
}

TEST(ShardParityAdversarial, ExactEpochModeMatchesSingleEngine)
{
    for (const auto& params : adversarial_corpus()) {
        Trace t = gen::make_cross_shard_adversary(params);
        SCOPED_TRACE(::testing::Message()
                     << "hops=" << params.hops << " offset=" << params.offset
                     << " open=" << params.open_carriers
                     << " write=" << params.close_by_write
                     << " lock=" << params.lock_carrier
                     << " retouch=" << params.retouch
                     << " same_shard=" << params.same_shard
                     << " serializable=" << params.serializable);
        expect_epoch_mode_exact<AeroDromeBasic>(t, &modulo_shard_policy);
        expect_epoch_mode_exact<AeroDromeReadOpt>(t, &modulo_shard_policy);
        expect_epoch_mode_exact<AeroDromeOpt>(t, &modulo_shard_policy);
        expect_epoch_mode_exact<AeroDromeTuned>(t, &modulo_shard_policy);
        // Lockstep agrees too, and the two exact modes agree with each
        // other by transitivity.
        expect_lockstep_exact<AeroDromeOpt>(t, &modulo_shard_policy);
    }
}

TEST(ShardParityAdversarial, LegacyEpochModeStaysSoundOnItsBlindSpots)
{
    for (const auto& params : adversarial_corpus()) {
        Trace t = gen::make_cross_shard_adversary(params);
        SCOPED_TRACE(::testing::Message()
                     << "hops=" << params.hops << " offset=" << params.offset
                     << " open=" << params.open_carriers);
        expect_legacy_epoch_mode_sound<AeroDromeOpt>(t,
                                                     &modulo_shard_policy);
        expect_legacy_epoch_mode_sound<AeroDromeTuned>(
            t, &modulo_shard_policy);
    }
}

TEST(ShardParityAdversarial, OpenCarrierChainDefeatsPeriodicOnlyMerging)
{
    // Document the gap the divergence barriers close: with open carriers
    // and one merge window covering the whole chain, the periodic-only
    // mode misses the violation outright, while exact epoch mode nails
    // the single-engine index. (This is the regression guard for the
    // motivation of the barriers — if periodic-only merging ever became
    // exact here, the barriers would be dead weight.)
    gen::CrossShardAdversaryOptions params;
    params.hops = 2;
    params.open_carriers = true;
    Trace t = gen::make_cross_shard_adversary(params);
    RunResult expected = baseline<AeroDromeOpt>(t, true);
    ASSERT_TRUE(expected.violation);

    ShardOptions opts;
    opts.shards = 2;
    opts.merge_epoch = 1024; // one window spans the entire trace
    opts.policy = &modulo_shard_policy;
    opts.divergence_barriers = false;
    ShardRunResult lagging =
        run_sharded_inline(factory<AeroDromeOpt>(true), t, opts);
    EXPECT_FALSE(lagging.result.violation)
        << "periodic-only merging unexpectedly caught the chain";

    opts.divergence_barriers = true;
    ShardRunResult exact =
        run_sharded_inline(factory<AeroDromeOpt>(true), t, opts);
    ASSERT_TRUE(exact.result.violation);
    EXPECT_EQ(exact.result.details->event_index,
              expected.details->event_index);
    EXPECT_EQ(exact.result.details->thread, expected.details->thread);
    EXPECT_GT(exact.barrier_merges, 0u);
}

TEST(ShardParityAdversarial, ThreadedExactEpochSpotCheck)
{
    // The inline driver carries the adversarial corpus; make sure the
    // real pipeline (queues, workers, barrier, planner) agrees on the
    // core shapes at several cadences.
    for (uint32_t hops : {2u, 3u}) {
        gen::CrossShardAdversaryOptions params;
        params.hops = hops;
        Trace t = gen::make_cross_shard_adversary(params);
        RunResult expected = baseline<AeroDromeTuned>(t, true);
        for (uint64_t merge_epoch :
             {uint64_t{4}, uint64_t{64}, ShardOptions::kMergeEndOnly}) {
            ShardOptions opts;
            opts.shards = 2;
            opts.merge_epoch = merge_epoch;
            opts.policy = &modulo_shard_policy;
            ShardRunResult r =
                run_sharded(factory<AeroDromeTuned>(true), t, opts);
            SCOPED_TRACE(::testing::Message()
                         << "hops=" << hops
                         << " merge_epoch=" << merge_epoch);
            ASSERT_EQ(r.result.violation, expected.violation);
            if (expected.violation) {
                EXPECT_EQ(r.result.details->event_index,
                          expected.details->event_index);
                EXPECT_EQ(r.result.details->thread,
                          expected.details->thread);
            }
        }
    }
}

// --- Batch-size invariance ---------------------------------------------------
//
// The block transport (src/shard/README.md, "Block transport") cuts
// runs at every planned merge point, so barrier placement — and with it
// the verdict — cannot depend on the block size. Hold the threaded
// pipeline to bit-exactness across batch sizes spanning degenerate
// (1, per-event), misaligned (7), and realistic (64, 256) blocks.

TEST(ShardParityBatch, ThreadedVerdictsAreBatchInvariant)
{
    std::vector<Trace> traces = {cross_shard_cycle(), three_shard_cycle(),
                                 cross_shard_serializable()};
    for (uint32_t hops : {2u, 3u}) {
        gen::CrossShardAdversaryOptions params;
        params.hops = hops;
        traces.push_back(gen::make_cross_shard_adversary(params));
    }
    for (uint64_t seed : {uint64_t{9000}, uint64_t{9104}})
        traces.push_back(fuzz_trace(seed, 4, 6, 2, 0.8));

    for (size_t ti = 0; ti < traces.size(); ++ti) {
        const Trace& t = traces[ti];
        RunResult expected = baseline<AeroDromeOpt>(t, true);
        for (uint32_t batch : {1u, 7u, 64u, 256u}) {
            for (uint64_t merge_epoch :
                 {uint64_t{4}, ShardOptions::kMergeEndOnly}) {
                ShardOptions opts;
                opts.shards = 2;
                opts.merge_epoch = merge_epoch;
                opts.policy = &modulo_shard_policy;
                opts.batch_size = batch;
                ShardRunResult r =
                    run_sharded(factory<AeroDromeOpt>(true), t, opts);
                SCOPED_TRACE(::testing::Message()
                             << "trace=" << ti << " batch=" << batch
                             << " merge_epoch=" << merge_epoch);
                EXPECT_EQ(r.batch, batch);
                ASSERT_EQ(r.result.violation, expected.violation);
                if (expected.violation) {
                    EXPECT_EQ(r.result.details->event_index,
                              expected.details->event_index);
                    EXPECT_EQ(r.result.details->thread,
                              expected.details->thread);
                }
            }
        }
    }
}

// --- Worker-failure parity matrix -------------------------------------------
//
// The recovery path (src/shard/README.md, "Failure model") promises: a
// worker killed or stalled at any point either recovers to the *exact*
// single-engine verdict (checkpoint + intact replay window) or completes
// with the degraded flag raised — and a reported violation is real
// either way. Sweep injected kill/stall across both shards and a spread
// of trigger offsets (death before any work, inside the first window,
// mid-stream) on a serializable and a violating trace, and hold every
// run to that contract against the single-engine oracle.

/** Long cross-shard ping-pong: ordered handoffs only, serializable. */
Trace
failure_matrix_serializable()
{
    TraceBuilder b;
    for (int round = 0; round < 60; ++round) {
        b.begin("t1").write("t1", "x").write("t1", "y").end("t1");
        b.begin("t2").read("t2", "x").read("t2", "y").end("t2");
    }
    return b.take();
}

/** Same ping-pong, then a cross-shard cycle closes late: the violation
 *  sits past every trigger offset, so a recovered lane must still carry
 *  the clocks that expose it. */
Trace
failure_matrix_violating()
{
    TraceBuilder b;
    for (int round = 0; round < 40; ++round) {
        b.begin("t1").write("t1", "x").write("t1", "y").end("t1");
        b.begin("t2").read("t2", "x").read("t2", "y").end("t2");
    }
    b.begin("t1").write("t1", "x");
    b.begin("t2").read("t2", "x").write("t2", "y");
    b.read("t1", "y");
    b.end("t1").end("t2");
    return b.take();
}

/** RAII disarm so a failing assertion cannot leak an armed plan into
 *  the next test. */
struct ArmedPlan {
    explicit ArmedPlan(const FaultPlan& plan)
    {
        FaultInjector::instance().arm(plan);
    }
    ~ArmedPlan() { FaultInjector::instance().disarm(); }
};

TEST(ShardWorkerFailure, KillAndStallMatrixMatchesOracleOrDegrades)
{
    struct Workload {
        const char* name;
        Trace trace;
    };
    const Workload workloads[] = {
        {"serializable", failure_matrix_serializable()},
        {"violating", failure_matrix_violating()},
    };
    for (const Workload& wl : workloads) {
        RunResult expected = baseline<AeroDromeOpt>(wl.trace, true);
        for (FaultKind kind :
             {FaultKind::kWorkerKill, FaultKind::kWorkerStall}) {
            for (uint32_t shard : {0u, 1u}) {
                for (uint64_t trigger : {uint64_t{0}, uint64_t{1},
                                         uint64_t{5}, uint64_t{13}}) {
                    SCOPED_TRACE(::testing::Message()
                                 << wl.name << " kind="
                                 << fault_kind_name(kind)
                                 << " shard=" << shard
                                 << " trigger=" << trigger);
                    FaultPlan plan;
                    plan.site = FaultSite::kWorker;
                    plan.kind = kind;
                    plan.trigger = trigger;
                    plan.shard = shard;
                    plan.duration = 2000; // stall cap >> watchdog
                    ArmedPlan armed(plan);

                    ShardOptions opts;
                    opts.shards = 2;
                    opts.merge_epoch = 4;
                    opts.policy = &modulo_shard_policy;
                    opts.queue_capacity = 64;
                    opts.watchdog_ms = 150;
                    ShardRunResult r =
                        run_sharded(factory<AeroDromeOpt>(true), wl.trace,
                                    opts);
                    ASSERT_GE(r.recoveries, 1u)
                        << "the injected failure never tripped recovery";
                    if (!r.result.degraded) {
                        // Exact recovery: the full single-engine verdict,
                        // index for index.
                        ASSERT_EQ(r.result.violation, expected.violation);
                        if (expected.violation) {
                            EXPECT_EQ(r.result.details->event_index,
                                      expected.details->event_index);
                            EXPECT_EQ(r.result.details->thread,
                                      expected.details->thread);
                        }
                    } else if (r.result.violation) {
                        // Degraded completions keep soundness: a reported
                        // violation is real, so the oracle must violate
                        // at or before it.
                        ASSERT_TRUE(expected.violation);
                        EXPECT_GE(r.result.details->event_index,
                                  expected.details->event_index);
                    }
                }
            }
        }
    }
}

TEST(ShardWorkerFailure, KillAndStallMatrixHoldsUnderBatchedTransport)
{
    // Same contract as the matrix above, re-run with the block transport
    // engaged: batch 1 (every event its own block) and batch 64 (a whole
    // ring's worth staged per publish, so a kill mid-block forces the
    // reader's redeliver-floor path). Recovery must still land on the
    // exact oracle verdict or finish degraded-but-sound.
    struct Workload {
        const char* name;
        Trace trace;
    };
    const Workload workloads[] = {
        {"serializable", failure_matrix_serializable()},
        {"violating", failure_matrix_violating()},
    };
    for (const Workload& wl : workloads) {
        RunResult expected = baseline<AeroDromeOpt>(wl.trace, true);
        for (FaultKind kind :
             {FaultKind::kWorkerKill, FaultKind::kWorkerStall}) {
            for (uint32_t batch : {1u, 64u}) {
                for (uint64_t trigger : {uint64_t{0}, uint64_t{5}}) {
                    SCOPED_TRACE(::testing::Message()
                                 << wl.name << " kind="
                                 << fault_kind_name(kind)
                                 << " batch=" << batch
                                 << " trigger=" << trigger);
                    FaultPlan plan;
                    plan.site = FaultSite::kWorker;
                    plan.kind = kind;
                    plan.trigger = trigger;
                    plan.shard = 1;
                    plan.duration = 2000; // stall cap >> watchdog
                    ArmedPlan armed(plan);

                    ShardOptions opts;
                    opts.shards = 2;
                    opts.merge_epoch = 4;
                    opts.policy = &modulo_shard_policy;
                    opts.queue_capacity = 64;
                    opts.watchdog_ms = 150;
                    opts.batch_size = batch;
                    ShardRunResult r =
                        run_sharded(factory<AeroDromeOpt>(true), wl.trace,
                                    opts);
                    ASSERT_GE(r.recoveries, 1u)
                        << "the injected failure never tripped recovery";
                    if (!r.result.degraded) {
                        ASSERT_EQ(r.result.violation, expected.violation);
                        if (expected.violation) {
                            EXPECT_EQ(r.result.details->event_index,
                                      expected.details->event_index);
                            EXPECT_EQ(r.result.details->thread,
                                      expected.details->thread);
                        }
                    } else if (r.result.violation) {
                        ASSERT_TRUE(expected.violation);
                        EXPECT_GE(r.result.details->event_index,
                                  expected.details->event_index);
                    }
                }
            }
        }
    }
}

TEST(ShardWorkerFailure, DelayBelowTheDeadlineStaysExact)
{
    // A worker that hiccups but keeps heartbeating must not be evicted:
    // no recovery, no degradation, bit-exact verdict.
    Trace t = failure_matrix_violating();
    RunResult expected = baseline<AeroDromeOpt>(t, true);
    ASSERT_TRUE(expected.violation);

    FaultPlan plan;
    plan.site = FaultSite::kWorker;
    plan.kind = FaultKind::kWorkerDelay;
    plan.trigger = 9;
    plan.duration = 30; // well under the 500ms deadline
    ArmedPlan armed(plan);

    ShardOptions opts;
    opts.shards = 2;
    opts.merge_epoch = 4;
    opts.policy = &modulo_shard_policy;
    opts.queue_capacity = 64;
    opts.watchdog_ms = 500;
    ShardRunResult r = run_sharded(factory<AeroDromeOpt>(true), t, opts);
    EXPECT_EQ(r.recoveries, 0u);
    EXPECT_FALSE(r.result.degraded);
    ASSERT_TRUE(r.result.violation);
    EXPECT_EQ(r.result.details->event_index, expected.details->event_index);
    EXPECT_EQ(r.result.details->thread, expected.details->thread);
}

TEST(ShardWorkerFailure, KillBeforeAnyMergeRecoversExactly)
{
    // With merging disabled there is never a checkpoint to lose: the
    // replacement engine replays the shard's stream from the beginning,
    // so even a death on the very first item recovers without giving up
    // exactness (degraded must stay false).
    Trace t = failure_matrix_serializable();

    FaultPlan plan;
    plan.site = FaultSite::kWorker;
    plan.kind = FaultKind::kWorkerKill;
    plan.trigger = 0;
    plan.shard = 1;
    ArmedPlan armed(plan);

    ShardOptions opts;
    opts.shards = 2;
    opts.merge_epoch = 0;
    opts.confirm_replay = false;
    opts.policy = &modulo_shard_policy;
    opts.queue_capacity = 64;
    opts.watchdog_ms = 150;
    ShardRunResult r = run_sharded(factory<AeroDromeOpt>(true), t, opts);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_FALSE(r.result.degraded)
        << "reason: " << r.result.degraded_reason;
    EXPECT_FALSE(r.result.violation);
    EXPECT_EQ(r.result.status(), RunStatus::kOk);
}

TEST(ShardParityDirected, ThreadedLockstepSpotCheck)
{
    // The inline driver carries the corpus; make sure the real pipeline
    // (queues, workers, merge barrier) agrees on the directed traces.
    for (const Trace& t : {cross_shard_cycle(), three_shard_cycle(),
                           cross_shard_serializable()}) {
        RunResult expected = baseline<AeroDromeOpt>(t, true);
        ShardOptions opts;
        opts.shards = 2;
        opts.merge_epoch = 1;
        opts.policy = &modulo_shard_policy;
        ShardRunResult r = run_sharded(factory<AeroDromeOpt>(true), t,
                                       opts);
        ASSERT_EQ(r.result.violation, expected.violation);
        if (expected.violation) {
            EXPECT_EQ(r.result.details->event_index,
                      expected.details->event_index);
            EXPECT_EQ(r.result.details->thread, expected.details->thread);
        }
    }
}

} // namespace
} // namespace aero
