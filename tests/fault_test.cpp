/**
 * @file
 * Corruption drills (src/support/fault.hpp) through the readers users
 * run, and the runner's resource-cap and panic-context paths.
 *
 * Each drill corrupts a serialized image with corrupt_bytes and feeds it
 * to a real decoder: MappedBinaryEventSource over a file for binary
 * traces, TextEventSource for text. Every failure must end in a
 * structured RunStatus — never a hang, an abort, or a torn result.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "trace/binary_io.hpp"
#include "trace/mapped_reader.hpp"
#include "trace/stream.hpp"
#include "trace/text_io.hpp"

namespace aero {
namespace {

// --- corrupt_bytes helper ---------------------------------------------------

TEST(Fault, CorruptBytesIsDeterministicAndRespectsMinOffset)
{
    const std::string original(256, 'a');
    for (FaultKind kind :
         {FaultKind::kBitFlip, FaultKind::kTruncate, FaultKind::kGarbage}) {
        std::string a = original, b = original;
        const uint64_t off_a = corrupt_bytes(a, kind, /*seed=*/99,
                                             /*min_offset=*/16);
        const uint64_t off_b = corrupt_bytes(b, kind, 99, 16);
        EXPECT_EQ(off_a, off_b);
        EXPECT_EQ(a, b) << "same seed must corrupt identically";
        EXPECT_GE(off_a, 16u);
        EXPECT_LT(off_a, original.size());
        EXPECT_NE(a, original) << "corruption was a no-op";
        if (kind == FaultKind::kTruncate)
            EXPECT_EQ(a.size(), off_a);
        else
            EXPECT_EQ(a.size(), original.size());
    }
    // Different seeds land on different offsets at least sometimes.
    std::string c = original, d = original;
    const uint64_t oc = corrupt_bytes(c, FaultKind::kBitFlip, 1);
    const uint64_t od = corrupt_bytes(d, FaultKind::kBitFlip, 2);
    EXPECT_TRUE(oc != od || c != d);
}

TEST(Fault, CorruptBytesOnTooSmallImageIsANoOp)
{
    std::string tiny = "ab";
    const uint64_t off =
        corrupt_bytes(tiny, FaultKind::kGarbage, 5, /*min_offset=*/2);
    EXPECT_EQ(off, tiny.size());
    EXPECT_EQ(tiny, "ab");
}

// --- Corrupted images through the production readers ------------------------

TEST(Fault, TruncatedBinaryImageIsAStructuredStreamError)
{
    Trace t = gen::make_pipeline(4, 50);
    std::ostringstream blob;
    write_binary(blob, t);
    std::string image = blob.str();
    // Cut somewhere past the 28-byte header: mid-record or between
    // records, the promised event count is never reached.
    const uint64_t cut =
        corrupt_bytes(image, FaultKind::kTruncate, /*seed=*/40, 28);
    ASSERT_EQ(image.size(), cut);

    const std::string path = ::testing::TempDir() + "aero_fault_trunc_" +
                             std::to_string(::getpid()) + ".bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    RunResult r;
    {
        MappedBinaryEventSource src(path);
        AeroDromeOpt engine(0, 0, 0);
        r = run_checker_stream(engine, src);
    }
    std::remove(path.c_str());
    ASSERT_EQ(r.status(), RunStatus::kStreamError);
    EXPECT_EQ(r.stream_error->cause, StreamError::Cause::kTruncated);
    EXPECT_FALSE(r.stream_error->message.empty());
    EXPECT_LT(r.events_processed, t.size());
}

TEST(Fault, GarbledTextLineStopsStrictAndResyncsWhenAsked)
{
    Trace t = gen::make_pipeline(2, 20);
    std::ostringstream text;
    write_text(text, t);
    std::string image = text.str();
    // Garble line 11 (1-based) in place; the newlines around it stay.
    size_t line_start = 0;
    for (int line = 1; line < 11; ++line)
        line_start = image.find('\n', line_start) + 1;
    const size_t line_len = image.find('\n', line_start) - line_start;
    std::string line = image.substr(line_start, line_len);
    corrupt_bytes(line, FaultKind::kGarbage, /*seed=*/7);
    ASSERT_EQ(line.find('\n'), std::string::npos)
        << "the garbage must not split line 11";
    image.replace(line_start, line_len, line);

    // Strict: the corrupt line ends the run with a parse error naming it.
    {
        std::istringstream in(image);
        TextEventSource src(in);
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, src);
        ASSERT_EQ(r.status(), RunStatus::kStreamError);
        EXPECT_EQ(r.stream_error->cause, StreamError::Cause::kParse);
        EXPECT_EQ(r.stream_error->byte_offset, 11u) << "1-based line no.";
    }

    // Resync: the corrupt line is recorded and skipped; the run finishes
    // degraded, with the rest of the stream checked.
    {
        std::istringstream in(image);
        TextEventSource src(in);
        src.set_resync(true);
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, src);
        ASSERT_EQ(r.status(), RunStatus::kDegraded);
        EXPECT_EQ(r.stream_errors_recovered, 1u);
        ASSERT_EQ(src.recovered_errors().size(), 1u);
        EXPECT_EQ(src.recovered_errors()[0].byte_offset, 11u);
    }
}

// --- Memory cap ---------------------------------------------------------------

TEST(Fault, AllocCapBreachEndsTheRunAsInternalError)
{
    // RunBudget::max_memory_bytes, polled every check_interval events by
    // both runner loops: a cap under the engine's footprint stops the run
    // at the first poll; a cap above its final footprint never fires.
    Trace t = gen::make_pipeline(2, 200);
    RunBudget budget;
    budget.check_interval = 64;
    budget.max_memory_bytes = 1;
    auto expect_breach = [&t](const RunResult& r, const char* what) {
        ASSERT_EQ(r.status(), RunStatus::kInternalError) << what;
        EXPECT_NE(r.internal_error.find("memory cap breached"),
                  std::string::npos)
            << what << ": " << r.internal_error;
        EXPECT_LT(r.events_processed, t.size()) << what;
    };
    {
        AeroDromeOpt engine(t.num_threads(), t.num_vars(), t.num_locks());
        expect_breach(run_checker(engine, t, budget), "materialized");
    }
    {
        TraceSource src(t);
        AeroDromeOpt engine(0, 0, 0);
        expect_breach(run_checker_stream(engine, src, budget), "stream");
    }

    AeroDromeOpt sizing(t.num_threads(), t.num_vars(), t.num_locks());
    const RunResult full = run_checker(sizing, t);
    budget.max_memory_bytes = 4 * sizing.memory_bytes();
    AeroDromeOpt engine(t.num_threads(), t.num_vars(), t.num_locks());
    const RunResult r = run_checker(engine, t, budget);
    EXPECT_TRUE(r.internal_error.empty()) << r.internal_error;
    EXPECT_EQ(r.status(), full.status());
    EXPECT_EQ(r.events_processed, full.events_processed);
}

// --- Panic context ----------------------------------------------------------

TEST(Fault, PanicMessageNamesTheEventIndex)
{
    PanicHandler prev = set_panic_handler(&throwing_panic_handler);
    {
        PanicContextScope scope;
        scope.set_index(1234);
        try {
            panic(__FILE__, __LINE__, "drill");
            FAIL() << "panic returned";
        } catch (const InternalError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("while processing event 1234"),
                      std::string::npos)
                << msg;
        }
    }
    // Outside any scope the message carries no position suffix.
    try {
        panic(__FILE__, __LINE__, "drill");
        FAIL() << "panic returned";
    } catch (const InternalError& e) {
        EXPECT_EQ(std::string(e.what()).find("while processing"),
                  std::string::npos);
    }
    set_panic_handler(prev);
}

} // namespace
} // namespace aero
