/**
 * @file
 * Golden-verdict regression corpus.
 *
 * Locks the exact verdict (serializable / violation, violating index and
 * thread) of every engine — the three AeroDrome variants with the
 * epoch-adaptive storage on and off, plus the Velodrome baseline —
 * over a deterministic corpus: the fuzz-program seeds the differential
 * suites use and the adversarial carrier-chain families. Any future
 * engine change that silently shifts a verdict (a check reordered, a
 * gate loosened, a generator drifting) fails this test loudly with the
 * exact corpus line that moved.
 *
 * The expected file is checked in at tests/golden/verdicts.txt. To
 * regenerate after an *intentional* verdict change:
 *
 *     AERO_REGEN_GOLDEN=1 ./build/golden_verdicts_test
 *
 * then review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "aerodrome/aerodrome_readopt.hpp"
#include "analysis/runner.hpp"
#include "gen/adversarial.hpp"
#include "gen/patterns.hpp"
#include "gen/random_program.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "velodrome/velodrome.hpp"

#ifndef AERO_SOURCE_DIR
#define AERO_SOURCE_DIR "."
#endif

namespace aero {
namespace {

struct Workload {
    std::string name;
    Trace trace;
};

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

/** The corpus: same shapes the differential suites sweep, named so a
 *  golden mismatch identifies its input immediately. */
std::vector<Workload>
make_corpus()
{
    std::vector<Workload> out;
    uint64_t seed = 9000;
    for (uint32_t threads : {2u, 4u, 8u}) {
        for (uint32_t vars : {2u, 6u, 24u}) {
            for (double txnp : {0.3, 0.8}) {
                char name[64];
                std::snprintf(name, sizeof(name),
                              "fuzz(seed=%llu,thr=%u,vars=%u,txnp=%.1f)",
                              static_cast<unsigned long long>(seed),
                              threads, vars, txnp);
                out.push_back({name, fuzz_trace(seed, threads, vars,
                                                1 + threads / 2, txnp)});
                ++seed;
            }
        }
    }
    for (uint64_t s = 9100; s < 9110; ++s) {
        char name[64];
        std::snprintf(name, sizeof(name), "fuzz-varheavy(seed=%llu)",
                      static_cast<unsigned long long>(s));
        out.push_back({name, fuzz_trace(s, 4, 16, 1, 0.9)});
    }
    for (uint32_t hops : {1u, 2u, 3u}) {
        for (int variant = 0; variant < 4; ++variant) {
            gen::CarrierChainOptions o;
            o.hops = hops;
            o.open_carriers = (variant != 1);
            o.close_by_write = (variant == 2);
            o.serializable = (variant == 3);
            char name[64];
            std::snprintf(name, sizeof(name), "adversary(hops=%u,v=%d)",
                          hops, variant);
            out.push_back({name, gen::make_carrier_chain(o)});
        }
    }
    return out;
}

void
append_line(std::string& golden, const std::string& workload,
            const char* engine, int epochs, const RunResult& r)
{
    char line[160];
    if (r.violation) {
        std::snprintf(line, sizeof(line),
                      "%s %s epochs=%d verdict=x index=%zu thread=%u\n",
                      workload.c_str(), engine, epochs,
                      r.details->event_index, r.details->thread);
    } else {
        std::snprintf(line, sizeof(line),
                      "%s %s epochs=%d verdict=ok events=%llu\n",
                      workload.c_str(), engine, epochs,
                      static_cast<unsigned long long>(r.events_processed));
    }
    golden += line;
}

template <typename Engine>
void
run_engine(std::string& golden, const Workload& w, const char* name,
           bool epochs, bool gc)
{
    Engine engine(w.trace.num_threads(), w.trace.num_vars(),
                  w.trace.num_locks());
    engine.set_epochs(epochs);
    engine.set_gc(gc);
    if (gc)
        engine.set_gc_sweep_every(1);
    RunResult r = run_checker(engine, w.trace);
    append_line(golden, w.name, name, epochs ? 1 : 0, r);
}

/** The full corpus fixture; with gc on, reclamation sweeps run at every
 *  transaction end and the output must still be byte-identical. */
std::string
generate_golden(bool gc)
{
    std::string golden;
    golden += "# engine x corpus verdict fixture; regenerate with "
              "AERO_REGEN_GOLDEN=1 ./golden_verdicts_test\n";
    for (const Workload& w : make_corpus()) {
        for (bool epochs : {true, false}) {
            run_engine<AeroDromeBasic>(golden, w, "aerodrome-basic",
                                       epochs, gc);
            run_engine<AeroDromeReadOpt>(golden, w, "aerodrome-readopt",
                                         epochs, gc);
            run_engine<AeroDromeOpt>(golden, w, "aerodrome", epochs, gc);
        }
        Velodrome velo(w.trace.num_threads(), w.trace.num_vars(),
                       w.trace.num_locks());
        velo.set_gc(gc);
        append_line(golden, w.name, "velodrome", 0,
                    run_checker(velo, w.trace));
    }
    return golden;
}

void
expect_matches_fixture(const std::string& golden, bool allow_regen)
{
    const std::string path =
        std::string(AERO_SOURCE_DIR) + "/tests/golden/verdicts.txt";

    if (allow_regen && std::getenv("AERO_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << golden;
        GTEST_SKIP() << "regenerated " << path << " — review the diff";
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing fixture " << path
        << " (regenerate with AERO_REGEN_GOLDEN=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();

    if (expected == golden) {
        SUCCEED();
        return;
    }
    // Report the first diverging line, not a wall of text.
    std::istringstream a(expected), b(golden);
    std::string la, lb;
    size_t line = 0;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        ++line;
        if (!ga && !gb)
            break;
        ASSERT_TRUE(ga && gb) << "fixture length changed at line " << line;
        ASSERT_EQ(la, lb) << "verdict drifted at line " << line;
    }
    FAIL() << "fixture mismatch"; // unreachable: loop asserts first
}

TEST(GoldenVerdicts, CorpusVerdictsMatchTheCheckedInFixture)
{
    expect_matches_fixture(generate_golden(false), true);
}

TEST(GoldenVerdicts, GcOnReproducesTheFixtureByteForByte)
{
    // Reclamation must not move a single verdict, index, or thread on
    // the whole corpus — the gc-on regeneration hits the same fixture.
    // The gc-on pass never regenerates: the fixture is defined by the
    // gc-off run, and gc must reproduce it.
    expect_matches_fixture(generate_golden(true), false);
}

// --- Renaming invariance ------------------------------------------------------
//
// Conflict serializability does not depend on what variables are called,
// so every engine must give the same verdict, index, thread and reason on
// a trace and on any renaming of its variable ids. This is evidence that
// does not rest on engines agreeing with each other: it catches an engine
// whose state layout or iteration order leaks into what it reports.

/** `t` with every variable id x replaced by f(x). */
Trace
rename_vars(const Trace& t, const std::function<VarId(VarId)>& f)
{
    Trace out;
    out.reserve(t.size());
    for (Event e : t.events()) {
        if (e.op == Op::kRead || e.op == Op::kWrite)
            e.target = f(e.target);
        out.push(e);
    }
    return out;
}

template <typename Engine>
RunResult
run_default(const Trace& t)
{
    Engine engine(t.num_threads(), t.num_vars(), t.num_locks());
    return run_checker(engine, t);
}

void
expect_same_verdict(const RunResult& a, const RunResult& b,
                    const std::string& where)
{
    ASSERT_EQ(a.violation, b.violation) << where;
    EXPECT_EQ(a.events_processed, b.events_processed) << where;
    if (a.violation) {
        EXPECT_EQ(a.details->event_index, b.details->event_index) << where;
        EXPECT_EQ(a.details->thread, b.details->thread) << where;
        EXPECT_EQ(a.details->reason, b.details->reason) << where;
    }
}

/** Run Engine on the original and on each renaming; with
 *  `same_counters`, the engine's counters() must match too. */
template <typename Engine>
void
expect_renaming_invariant(const Workload& w,
                          const std::vector<Workload>& renamed,
                          const char* engine, bool same_counters)
{
    const RunResult base = run_default<Engine>(w.trace);
    for (const Workload& r : renamed) {
        const RunResult got = run_default<Engine>(r.trace);
        const std::string where = w.name + " " + r.name + " " + engine;
        expect_same_verdict(base, got, where);
        if (same_counters) {
            EXPECT_EQ(base.counters, got.counters) << where;
        }
    }
}

TEST(GoldenVerdicts, VerdictsAreInvariantUnderVariableRenaming)
{
    std::vector<Workload> inputs = make_corpus();
    gen::StarOptions star;
    star.producers = 3;
    star.consumers = 3;
    star.rounds = 40;
    for (bool ring : {false, true}) {
        star.violation_at_end = ring;
        inputs.push_back({ring ? "star(ring)" : "star",
                          gen::make_star(star)});
    }
    // Locks first touched between variables (philosopher p's second
    // fork comes after earlier plates): opt's one first-touch record
    // array must not leak lock placement into what it reports.
    for (bool ring : {false, true}) {
        Trace t = gen::make_philosophers(5, 6);
        if (ring)
            gen::append_ring(t, 3, 0, 5);
        inputs.push_back({ring ? "philosophers(ring)" : "philosophers",
                          std::move(t)});
    }

    Rng rng(0x5eedULL);
    size_t violations = 0;
    for (const Workload& w : inputs) {
        std::vector<VarId> perm(w.trace.num_vars());
        for (VarId x = 0; x < perm.size(); ++x)
            perm[x] = x;
        rng.shuffle(perm);
        const std::vector<Workload> renamed = {
            {"permuted", rename_vars(w.trace,
                                     [&](VarId x) { return perm[x]; })},
            {"sparse", rename_vars(w.trace, [](VarId x) {
                 return 4099 * x + 65536;
             })},
        };
        expect_renaming_invariant<AeroDromeBasic>(w, renamed,
                                                  "aerodrome-basic", false);
        expect_renaming_invariant<AeroDromeReadOpt>(
            w, renamed, "aerodrome-readopt", false);
        expect_renaming_invariant<AeroDromeOpt>(w, renamed, "aerodrome",
                                                true);
        expect_renaming_invariant<Velodrome>(w, renamed, "velodrome",
                                             false);
        violations += run_default<AeroDromeOpt>(w.trace).violation;
    }
    // The corpus must exercise both verdicts, or the check is vacuous.
    EXPECT_GT(violations, 0u);
    EXPECT_LT(violations, inputs.size());
}

} // namespace
} // namespace aero
