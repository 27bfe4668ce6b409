/**
 * @file
 * Tests for the streaming event sources and the streaming runner:
 * equivalence with the materialized path, incremental interning,
 * truncation handling, constant-memory verdicts, and the dimension hints
 * a streamed run forwards to reserve().
 */

#include <gtest/gtest.h>

#include <sstream>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "gen/random_program.hpp"
#include "sim/scheduler.hpp"
#include "support/assert.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/stream.hpp"
#include "trace/text_io.hpp"

namespace aero {
namespace {

Trace
sample_trace()
{
    TraceBuilder b;
    b.fork("t0", "t1");
    b.begin("t1").acquire("t1", "m").write("t1", "x");
    b.release("t1", "m").end("t1");
    b.begin("t0").read("t0", "x").end("t0");
    b.join("t0", "t1");
    return b.take();
}

/** A seeded random-program trace (4 threads, 6 vars, 2 locks). */
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

std::vector<Event>
drain(EventSource& src)
{
    std::vector<Event> out;
    Event e;
    while (src.next(e))
        out.push_back(e);
    return out;
}

TEST(TraceSource, YieldsAllEvents)
{
    Trace t = sample_trace();
    TraceSource src(t);
    auto events = drain(src);
    ASSERT_EQ(events.size(), t.size());
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i], t[i]);
    Event e;
    EXPECT_FALSE(src.next(e)); // stays exhausted
}

TEST(TextEventSource, MatchesBatchReader)
{
    Trace t = sample_trace();
    std::ostringstream os;
    write_text(os, t);

    std::istringstream is(os.str());
    TextEventSource src(is);
    auto events = drain(src);
    ASSERT_EQ(events.size(), t.size());
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i], t[i]) << "event " << i;
    // Name tables were built incrementally and agree with the original.
    uint32_t id;
    EXPECT_TRUE(src.threads().lookup("t1", id));
    EXPECT_TRUE(src.vars().lookup("x", id));
    EXPECT_TRUE(src.locks().lookup("m", id));
}

TEST(TextEventSource, SkipsCommentsAndRejectsGarbage)
{
    std::istringstream is("# c\n\nt0 w x\nt0 zap y\n");
    TextEventSource src(is);
    Event e;
    EXPECT_TRUE(src.next(e));
    EXPECT_EQ(e.op, Op::kWrite);
    EXPECT_THROW(src.next(e), FatalError);
}

TEST(BinaryEventSource, MatchesBatchReader)
{
    Trace t = gen::make_pipeline(3, 50);
    std::ostringstream os(std::ios::binary);
    write_binary(os, t);

    std::istringstream is(os.str(), std::ios::binary);
    BinaryEventSource src(is);
    EXPECT_EQ(src.expected_events(), t.size());
    EXPECT_EQ(src.num_threads(), t.num_threads());
    auto events = drain(src);
    ASSERT_EQ(events.size(), t.size());
    for (size_t i = 0; i < events.size(); ++i)
        ASSERT_EQ(events[i], t[i]);
}

TEST(BinaryEventSource, DetectsTruncation)
{
    Trace t = sample_trace();
    std::ostringstream os(std::ios::binary);
    write_binary(os, t);
    std::string data = os.str();
    data.resize(data.size() - 2);
    std::istringstream is(data, std::ios::binary);
    BinaryEventSource src(is);
    Event e;
    EXPECT_THROW({
        while (src.next(e)) {
        }
    }, FatalError);
}

TEST(StreamRunner, SameVerdictAsMaterialized)
{
    for (bool violation : {false, true}) {
        gen::StarOptions opts;
        opts.rounds = 200;
        opts.violation_at_end = violation;
        Trace t = gen::make_star(opts);

        AeroDromeOpt batch(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult rb = run_checker(batch, t);

        std::ostringstream os(std::ios::binary);
        write_binary(os, t);
        std::istringstream is(os.str(), std::ios::binary);
        BinaryEventSource src(is);
        AeroDromeOpt stream(0, 0, 0); // dimensions grow on demand
        RunResult rs = run_checker_stream(stream, src);

        EXPECT_EQ(rb.violation, rs.violation);
        EXPECT_EQ(rb.events_processed, rs.events_processed);
        if (violation) {
            EXPECT_EQ(rb.details->event_index, rs.details->event_index);
        }
    }
}

TEST(StreamRunner, OpenEventSourceByExtension)
{
    Trace t = sample_trace();
    write_binary_file("/tmp/aero_stream_test.trace.bin", t);
    write_text_file("/tmp/aero_stream_test.trace", t);
    for (const char* path :
         {"/tmp/aero_stream_test.trace.bin", "/tmp/aero_stream_test.trace"}) {
        std::unique_ptr<std::istream> storage;
        auto src = open_event_source(path, storage);
        auto events = drain(*src);
        ASSERT_EQ(events.size(), t.size()) << path;
    }
}

TEST(StreamRunner, MissingFileThrows)
{
    std::unique_ptr<std::istream> storage;
    EXPECT_THROW(open_event_source("/nonexistent/foo.trace", storage),
                 FatalError);
}

// --- Streamed reserve (metainfo dimensions) ---------------------------------

/** Probe checker recording what reserve() was called with. */
class ReserveProbe : public CheckerBase {
public:
    std::string_view name() const override { return "probe"; }
    bool process(const Event&, size_t) override { return false; }

    void
    reserve(uint32_t threads, uint32_t vars, uint32_t locks) override
    {
        reserved_threads = threads;
        reserved_vars = vars;
        reserved_locks = locks;
    }

    uint32_t reserved_threads = 0;
    uint32_t reserved_vars = 0;
    uint32_t reserved_locks = 0;
};

TEST(StreamReserve, BinarySourceForwardsHeaderDimensions)
{
    Trace t = fuzz_trace(51);
    std::stringstream buf;
    write_binary(buf, t);
    BinaryEventSource source(buf);

    ReserveProbe probe;
    RunResult r = run_checker_stream(probe, source);
    EXPECT_EQ(r.events_processed, t.size());
    EXPECT_EQ(probe.reserved_threads, t.num_threads());
    EXPECT_EQ(probe.reserved_vars, t.num_vars());
    EXPECT_EQ(probe.reserved_locks, t.num_locks());
}

TEST(StreamReserve, TraceSourceForwardsTraceDimensions)
{
    Trace t = fuzz_trace(52);
    TraceSource source(t);
    ReserveProbe probe;
    run_checker_stream(probe, source);
    EXPECT_EQ(probe.reserved_threads, t.num_threads());
    EXPECT_EQ(probe.reserved_vars, t.num_vars());
    EXPECT_EQ(probe.reserved_locks, t.num_locks());
}

TEST(StreamReserve, TextSourceHasNoUpfrontDimensions)
{
    std::stringstream text("t1 w x\nt2 r x\n");
    TextEventSource source(text);
    uint32_t a = 0, b = 0, c = 0;
    EXPECT_FALSE(source.dimensions(a, b, c));
}

} // namespace
} // namespace aero
