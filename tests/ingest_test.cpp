/**
 * @file
 * Block ingestion: the batched decoders must be observably identical to
 * the per-event reference reader.
 *
 * PR 7 made corrupt input a first-class outcome with an exact contract
 * (StreamError cause + event index + absolute byte offset, strict and
 * resync modes); the block readers re-implement decode for speed, so
 * this suite pins them to the reference byte-for-byte: every trace in a
 * fuzz corpus — clean, bit-flipped, truncated, garbled — must produce
 * the same events, the same terminal error, and the same recovered-error
 * list through BinaryEventSource::next_n and MappedBinaryEventSource
 * (mmap and buffered windows) at block sizes {1, 7, 256, 4096} as
 * through BinaryEventSource::next() one event at a time.
 *
 * The buffered window is also crossed at its 256 KiB refill edges, with
 * records and corruptions straddling them.
 *
 * Also here: the magic-sniffing format decision (extension only breaks
 * ties), piped input (open_event_source on a FIFO reads every byte once
 * and gives the file run's events and verdict), and the block runner's
 * budget-poll boundaries (a block larger than check_interval must not
 * blow past max_seconds).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "sim/scheduler.hpp"
#include "gen/patterns.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "trace/binary_io.hpp"
#include "trace/mapped_reader.hpp"
#include "trace/stream.hpp"
#include "trace/text_io.hpp"

namespace aero {
namespace {

/** One small well-formed trace per seed, shape-varied like the
 *  robustness fuzz corpus. */
Trace
corpus_trace(uint64_t seed)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = 2 + seed % 4;
    opts.shared_vars = 3 + seed % 5;
    opts.locks = 1 + seed % 2;
    opts.steps_per_thread = 30;
    sim::SimResult sim = sim::run_program(gen::make_random_program(opts));
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

/** Synthetic trace whose ids need multi-byte varints, so the batched
 *  kernel's clean-span boundaries (LEB128 continuation bits) are
 *  exercised, not just the all-1-byte fast path. ~14 bytes per round. */
Trace
wide_id_trace(uint32_t rounds = 120)
{
    Trace t;
    for (uint32_t i = 0; i < rounds; ++i) {
        const ThreadId tid = (i * 37) % 200;       // 2-byte tids past 127
        const uint32_t var = (i * 991) % 20000;    // up to 3-byte vars
        t.begin(tid);
        t.write(tid, var);
        t.read(tid, var / 2);
        t.end(tid);
    }
    return t;
}

FaultKind
fuzz_kind(uint64_t seed)
{
    switch (seed % 3) {
      case 0:
        return FaultKind::kBitFlip;
      case 1:
        return FaultKind::kTruncate;
      default:
        return FaultKind::kGarbage;
    }
}

/** Everything observable about one full drain of a source. */
struct DrainResult {
    std::vector<Event> events;
    bool threw = false;
    StreamError error; // valid when threw
    std::vector<StreamError> recovered;
    uint64_t recovered_total = 0;
};

void
capture_tail(EventSource& src, DrainResult& out)
{
    out.recovered = src.recovered_errors();
    out.recovered_total = src.recovered_error_count();
}

/** Reference: the per-event reader, one next() at a time. */
DrainResult
drain_reference(const std::string& image, bool resync)
{
    DrainResult out;
    std::istringstream in(image, std::ios::binary);
    try {
        BinaryEventSource src(in);
        src.set_resync(resync);
        Event e;
        while (src.next(e))
            out.events.push_back(e);
        capture_tail(src, out);
    } catch (const StreamCorruption& ex) {
        out.threw = true;
        out.error = ex.error();
    }
    return out;
}

/** Candidate: drain any source via next_n at a given block size. The
 *  strict-mode contract defers a mid-block error to the following call,
 *  so the loop keeps pulling until 0 or a throw. */
DrainResult
drain_batched(EventSource& src, bool resync, size_t block)
{
    DrainResult out;
    src.set_resync(resync);
    std::vector<Event> buf(block);
    try {
        for (;;) {
            const size_t got = src.next_n(buf.data(), block);
            if (got == 0)
                break;
            out.events.insert(out.events.end(), buf.begin(),
                              buf.begin() + static_cast<long>(got));
        }
        capture_tail(src, out);
    } catch (const StreamCorruption& ex) {
        out.threw = true;
        out.error = ex.error();
    }
    return out;
}

void
expect_same_error(const StreamError& a, const StreamError& b,
                  const std::string& what)
{
    EXPECT_EQ(a.cause, b.cause) << what;
    EXPECT_EQ(a.event_index, b.event_index) << what;
    EXPECT_EQ(a.byte_offset, b.byte_offset) << what;
    EXPECT_EQ(a.message, b.message) << what;
}

void
expect_same_drain(const DrainResult& ref, const DrainResult& got,
                  const std::string& what)
{
    ASSERT_EQ(ref.threw, got.threw) << what;
    if (ref.threw)
        expect_same_error(ref.error, got.error, what + " [terminal]");
    ASSERT_EQ(ref.events.size(), got.events.size()) << what;
    for (size_t i = 0; i < ref.events.size(); ++i)
        ASSERT_TRUE(ref.events[i] == got.events[i])
            << what << " event " << i;
    EXPECT_EQ(ref.recovered_total, got.recovered_total) << what;
    ASSERT_EQ(ref.recovered.size(), got.recovered.size()) << what;
    for (size_t i = 0; i < ref.recovered.size(); ++i)
        expect_same_error(ref.recovered[i], got.recovered[i],
                          what + " [recovered " + std::to_string(i) + "]");
}

/** RAII temp file holding a binary image (for the mmap path). */
struct TempImage {
    std::string path;
    explicit TempImage(const std::string& image, const char* tag)
    {
        path = ::testing::TempDir() + "aero_ingest_" + tag + "_" +
               std::to_string(::getpid()) + ".bin";
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    ~TempImage() { std::remove(path.c_str()); }
};

/** A named FIFO in the test temp dir, fed `bytes` by a writer thread once
 *  a reader opens it. The destructor unblocks and drains a writer the
 *  test never read to the end, so a failing test cannot hang. */
struct FifoFeeder {
    std::string path;
    std::atomic<bool> done{false};
    std::thread writer; // last: it uses the members above

    FifoFeeder(const FifoFeeder&) = delete;
    FifoFeeder& operator=(const FifoFeeder&) = delete;

    FifoFeeder(const std::string& bytes, const char* tag)
    {
        // A reader that stops early (a violation ends the run) must not
        // kill the test with SIGPIPE; the writer sees EPIPE and stops.
        std::signal(SIGPIPE, SIG_IGN);
        path = ::testing::TempDir() + "aero_fifo_" + tag + "_" +
               std::to_string(::getpid());
        ::unlink(path.c_str());
        if (::mkfifo(path.c_str(), 0600) != 0)
            ADD_FAILURE() << "mkfifo " << path;
        writer = std::thread([this, bytes] {
            const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
            for (size_t off = 0; fd >= 0 && off < bytes.size();) {
                const ssize_t n =
                    ::write(fd, bytes.data() + off, bytes.size() - off);
                if (n <= 0)
                    break;
                off += static_cast<size_t>(n);
            }
            if (fd >= 0)
                ::close(fd);
            done = true;
        });
    }

    ~FifoFeeder()
    {
        const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
        char sink[4096];
        while (!done) {
            if (fd >= 0 && ::read(fd, sink, sizeof(sink)) < 0)
                std::this_thread::yield();
        }
        writer.join();
        if (fd >= 0)
            ::close(fd);
        ::unlink(path.c_str());
    }
};

constexpr size_t kBlocks[] = {1, 7, 256, 4096};

/** The full cross-check of one image: reference next() vs next_n on the
 *  per-event reader and both MappedBinaryEventSource windows, at every
 *  block size, in both modes. Sources whose header is rejected must all
 *  reject with the identical error. */
void
cross_check_image(const std::string& image, const std::string& tag)
{
    TempImage file(image, "xchk");
    for (bool resync : {false, true}) {
        const DrainResult ref = drain_reference(image, resync);
        for (size_t block : kBlocks) {
            const std::string what =
                tag + (resync ? " resync" : " strict") + " block " +
                std::to_string(block);
            {
                std::istringstream in(image, std::ios::binary);
                DrainResult got;
                try {
                    BinaryEventSource src(in);
                    got = drain_batched(src, resync, block);
                } catch (const StreamCorruption& ex) {
                    got.threw = true;
                    got.error = ex.error();
                }
                expect_same_drain(ref, got, what + " [binary.next_n]");
            }
            {
                std::istringstream in(image, std::ios::binary);
                DrainResult got;
                try {
                    MappedBinaryEventSource src(in);
                    EXPECT_FALSE(src.is_mapped());
                    got = drain_batched(src, resync, block);
                } catch (const StreamCorruption& ex) {
                    got.threw = true;
                    got.error = ex.error();
                }
                expect_same_drain(ref, got, what + " [buffered]");
            }
            {
                DrainResult got;
                try {
                    MappedBinaryEventSource src(file.path);
                    got = drain_batched(src, resync, block);
                } catch (const StreamCorruption& ex) {
                    got.threw = true;
                    got.error = ex.error();
                }
                expect_same_drain(ref, got, what + " [mmap]");
            }
        }
        // The batched reader's own next() must match too (block of 1
        // through the block kernel).
        {
            std::istringstream in(image, std::ios::binary);
            DrainResult got;
            try {
                MappedBinaryEventSource src(in);
                src.set_resync(resync);
                Event e;
                while (src.next(e))
                    got.events.push_back(e);
                capture_tail(src, got);
            } catch (const StreamCorruption& ex) {
                got.threw = true;
                got.error = ex.error();
            }
            expect_same_drain(ref, got,
                              tag + (resync ? " resync" : " strict") +
                                  " [mapped.next]");
        }
    }
}

std::string
serialize(const Trace& t)
{
    std::ostringstream blob;
    write_binary(blob, t);
    return blob.str();
}

class BatchedDecodeParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedDecodeParity, CleanAndCorruptImagesMatchReference)
{
    const uint64_t seed = GetParam();
    const std::string clean = serialize(corpus_trace(seed));
    cross_check_image(clean, "clean");

    // Record-level damage (pinned past the header) in every byte-fault
    // flavor, plus an unpinned variant that may hit the header: all
    // readers must reject or recover identically.
    for (uint64_t variant = 0; variant < 4; ++variant) {
        std::string image = clean;
        const uint64_t min_offset = variant < 3 ? 28 : 0;
        corrupt_bytes(image, fuzz_kind(seed + variant),
                      (seed + variant) * 2654435761u, min_offset);
        cross_check_image(image,
                          "corrupt v" + std::to_string(variant));
    }

    // A torn tail (mid-record truncation) is the double-error case:
    // one gap error inside the record, one terminal short-count error.
    if (clean.size() > 30) {
        std::string torn = clean.substr(0, clean.size() - 1);
        cross_check_image(torn, "torn-tail");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedDecodeParity,
                         ::testing::Range<uint64_t>(8600, 8624));

TEST(BatchedDecodeParity, WideIdsCrossCleanSpanBoundaries)
{
    const std::string clean = serialize(wide_id_trace());
    cross_check_image(clean, "wide-ids");
    for (uint64_t v = 0; v < 3; ++v) {
        std::string image = clean;
        corrupt_bytes(image, fuzz_kind(v), 0x51ed2701u + v, 28);
        cross_check_image(image, "wide-ids corrupt v" + std::to_string(v));
    }
}

TEST(BatchedDecodeParity, WindowRefillEdgesWithStraddlingCorruption)
{
    // The buffered window reads kReadChunk (256 KiB) at a time and
    // compacts the undecoded tail of a record cut by the window's end to
    // the front before the next read, so the first refill edge sits at
    // absolute byte 256 KiB and the second within a record of 512 KiB.
    // A > 2 x 256 KiB wide-id image puts multi-byte records across both.
    constexpr size_t kChunk = 256 * 1024;
    const std::string clean = serialize(wide_id_trace(44000));
    ASSERT_GT(clean.size(), 2 * kChunk + 64);
    cross_check_image(clean, "refill clean");

    // Damage a few bytes either side of each edge, one fault flavor per
    // site: a continuation bit set (a varint runs on), a run of 0xff
    // (bad opcode, then overlong varints), and a cut (a torn record at,
    // or just past, the window end).
    int site = 0;
    for (size_t edge : {kChunk, 2 * kChunk}) {
        for (long delta : {-3L, -1L, 1L, 4L}) {
            const size_t at = static_cast<size_t>(
                static_cast<long>(edge) + delta);
            std::string image = clean;
            switch (site++ % 3) {
              case 0:
                image[at] = static_cast<char>(image[at] | 0x80);
                break;
              case 1:
                image.replace(at, 6, 6, static_cast<char>(0xff));
                break;
              default:
                image.resize(at);
                break;
            }
            cross_check_image(image, "refill edge " +
                                         std::to_string(edge) + "+" +
                                         std::to_string(delta));
        }
    }
}

TEST(BatchedDecodeParity, NonRegularFileReadsThroughBufferedWindow)
{
    // A FIFO cannot be mapped: the same reader takes its buffered window
    // over the one opened descriptor and decodes identically.
    const std::string image = serialize(corpus_trace(8777));
    FifoFeeder fifo(image, "buffered");
    MappedBinaryEventSource src(fifo.path);
    EXPECT_FALSE(src.is_mapped());
    EXPECT_STREQ(src.source_kind(), "binary-buffered");
    DrainResult got = drain_batched(src, false, 256);
    DrainResult ref = drain_reference(image, false);
    expect_same_drain(ref, got, "fifo");
}

TEST(BatchedDecodeParity, CheckerVerdictMatchesMaterialized)
{
    // End to end: a file-backed mapped run and the materialized run must
    // agree on verdict and event count (golden corpora run through this
    // same path via run_checker_stream).
    for (uint64_t seed : {8801ull, 8802ull, 8803ull}) {
        Trace t = corpus_trace(seed);
        TempImage file(serialize(t), "verdict");
        AeroDromeOpt a(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult want = run_checker(a, t);
        MappedBinaryEventSource src(file.path);
        AeroDromeOpt b(0, 0, 0);
        RunResult got = run_checker_stream(b, src);
        EXPECT_EQ(want.violation, got.violation) << seed;
        EXPECT_EQ(want.events_processed, got.events_processed) << seed;
    }
}

// --- Format sniffing ---------------------------------------------------------

TEST(FormatSniffing, MagicBeatsExtension)
{
    // A binary image under a text-looking name must still be binary.
    const std::string image = serialize(corpus_trace(8900));
    std::string path = ::testing::TempDir() + "aero_sniff_bin.trace";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    EXPECT_TRUE(trace_is_binary(path));
    std::remove(path.c_str());
}

TEST(FormatSniffing, BinExtensionWithoutMagicIsRejected)
{
    std::string path = ::testing::TempDir() + "aero_sniff_text.bin";
    {
        std::ofstream f(path, std::ios::trunc);
        f << "t0 begin\nt0 w x\nt0 end\n";
    }
    try {
        trace_is_binary(path);
        FAIL() << "contradictory extension was not rejected";
    } catch (const StreamCorruption& e) {
        EXPECT_EQ(e.error().cause, StreamError::Cause::kBadHeader);
        EXPECT_NE(e.error().message.find("magic"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(FormatSniffing, ShortFileFallsBackToExtension)
{
    for (const char* name : {"aero_sniff_short.bin", "aero_sniff_short"}) {
        std::string path = ::testing::TempDir() + name;
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << "abc"; // too short to sniff the 8-byte magic
        }
        const bool want_bin = std::string(name).size() > 4 &&
                              std::string(name).rfind(".bin") ==
                                  std::string(name).size() - 4;
        EXPECT_EQ(trace_is_binary(path), want_bin) << name;
        std::remove(path.c_str());
    }
}

TEST(FormatSniffing, OpenEventSourcePicksBlockReaderForBinary)
{
    const std::string image = serialize(corpus_trace(8901));
    std::string path = ::testing::TempDir() + "aero_sniff_open.bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    std::unique_ptr<std::istream> storage;
    auto src = open_event_source(path, storage);
    EXPECT_STREQ(src->source_kind(), "binary-mmap");
    std::remove(path.c_str());
}

TEST(FormatSniffing, UnreadableInputIsAnErrorNotAnEmptyTrace)
{
    // A directory opens but cannot be read: that must not pass for an
    // empty text trace (which would check clean).
    std::unique_ptr<std::istream> storage;
    EXPECT_THROW(open_event_source(::testing::TempDir(), storage),
                 FatalError);
}

// --- Piped input ---------------------------------------------------------------

/** Everything the checker-facing side sees of one open_event_source. */
struct PipedRun {
    std::vector<Event> events;
    std::string kind;
    RunStatus status = RunStatus::kOk;
    uint64_t processed = 0;
    size_t violation_index = 0;
};

PipedRun
drain_and_check(const std::string& path, const std::string& image,
                bool fifo)
{
    PipedRun out;
    {
        std::optional<FifoFeeder> feeder;
        if (fifo)
            feeder.emplace(image, "drain");
        std::unique_ptr<std::istream> storage;
        auto src = open_event_source(fifo ? feeder->path : path, storage);
        out.kind = src->source_kind();
        DrainResult d = drain_batched(*src, false, 4096);
        EXPECT_FALSE(d.threw) << d.error.message;
        out.events = std::move(d.events);
    }
    std::optional<FifoFeeder> feeder;
    if (fifo)
        feeder.emplace(image, "check");
    std::unique_ptr<std::istream> storage;
    auto src = open_event_source(fifo ? feeder->path : path, storage);
    AeroDromeOpt engine(0, 0, 0);
    const RunResult r = run_checker_stream(engine, *src);
    out.status = r.status();
    out.processed = r.events_processed;
    if (r.details)
        out.violation_index = r.details->event_index;
    return out;
}

void
expect_fifo_matches_file(const std::string& image, const char* name,
                         const char* fifo_kind)
{
    const std::string path = ::testing::TempDir() + name;
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    const PipedRun file = drain_and_check(path, image, false);
    const PipedRun piped = drain_and_check(path, image, true);
    std::remove(path.c_str());

    EXPECT_EQ(piped.kind, fifo_kind) << name;
    ASSERT_EQ(file.events.size(), piped.events.size()) << name;
    for (size_t i = 0; i < file.events.size(); ++i)
        ASSERT_TRUE(file.events[i] == piped.events[i]) << name << " " << i;
    EXPECT_EQ(file.status, piped.status) << name;
    EXPECT_EQ(file.processed, piped.processed) << name;
    EXPECT_EQ(file.violation_index, piped.violation_index) << name;
}

TEST(PipedInput, FifoTextTraceMatchesFileRun)
{
    // A violating text trace: the sniff must not eat its first line.
    Trace t = gen::make_pipeline(2, 50);
    t.begin(0);
    t.write(0, 0);
    t.write(1, 0);
    t.write(0, 0);
    t.end(0);
    std::ostringstream text;
    write_text(text, t);
    expect_fifo_matches_file(text.str(), "aero_piped.trace", "text");

    std::unique_ptr<std::istream> storage;
    AeroDromeOpt engine(0, 0, 0);
    FifoFeeder feeder(text.str(), "verdict");
    auto src = open_event_source(feeder.path, storage);
    EXPECT_EQ(run_checker_stream(engine, *src).status(),
              RunStatus::kViolation);
}

TEST(PipedInput, FifoBinaryTraceMatchesFileRun)
{
    // Several window refills' worth of records through the pipe.
    expect_fifo_matches_file(serialize(wide_id_trace(40000)),
                             "aero_piped.bin", "binary-buffered");
}

/** A FIFO whose writer sends `bytes` and then keeps the pipe open until
 *  release() — or until a watchdog gives up and closes it, so a reader
 *  that waits for the end of input still finishes and the test reports
 *  the wait instead of hanging. */
class HeldPipe {
public:
    HeldPipe(const HeldPipe&) = delete;
    HeldPipe& operator=(const HeldPipe&) = delete;

    HeldPipe(const std::string& bytes, const char* tag)
    {
        std::signal(SIGPIPE, SIG_IGN);
        path = ::testing::TempDir() + "aero_held_" + tag + "_" +
               std::to_string(::getpid());
        ::unlink(path.c_str());
        if (::mkfifo(path.c_str(), 0600) != 0)
            ADD_FAILURE() << "mkfifo " << path;
        writer_ = std::thread([this, bytes] {
            const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
            for (size_t off = 0; fd >= 0 && off < bytes.size();) {
                const ssize_t n =
                    ::write(fd, bytes.data() + off, bytes.size() - off);
                if (n <= 0)
                    break;
                off += static_cast<size_t>(n);
            }
            sent_ = true;
            std::unique_lock<std::mutex> lock(mu_);
            if (!cv_.wait_for(lock, std::chrono::seconds(10),
                              [this] { return released_; }))
                watchdog_fired_ = true;
            lock.unlock();
            if (fd >= 0)
                ::close(fd);
        });
    }

    /** Let the writer close its end. @return true iff the watchdog had
     *  to close it first (the reader waited for the end of input). */
    bool
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            released_ = true;
        }
        cv_.notify_all();
        if (writer_.joinable()) {
            // A reader that stopped early must not leave the writer
            // blocked in open() or write(): drain what is left.
            const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
            char sink[4096];
            while (!sent_) {
                if (fd < 0 || ::read(fd, sink, sizeof(sink)) <= 0)
                    std::this_thread::yield();
            }
            writer_.join();
            if (fd >= 0)
                ::close(fd);
        }
        return watchdog_fired_;
    }

    ~HeldPipe()
    {
        release();
        ::unlink(path.c_str());
    }

    std::string path;

private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool released_ = false;
    bool watchdog_fired_ = false;
    std::atomic<bool> sent_{false};
    std::thread writer_; // last: it uses the members above
};

TEST(PipedInput, OpenPipeBinaryTraceReturnsBeforeEndOfInput)
{
    // A writer that keeps the pipe open after the last record: the
    // header's event count, not the end of input, ends the run. Once
    // with a trace shorter than one read and once with several reads.
    Trace tiny;
    tiny.begin(0);
    tiny.write(0, 0);
    tiny.end(0);
    for (const Trace& t : {tiny, wide_id_trace(40000)}) {
        const std::string image = serialize(t);
        TempImage file(image, "held");
        AeroDromeOpt want_engine(0, 0, 0);
        MappedBinaryEventSource want_src(file.path);
        const RunResult want = run_checker_stream(want_engine, want_src);

        HeldPipe pipe(image, "bin");
        std::unique_ptr<std::istream> storage;
        auto src = open_event_source(pipe.path, storage);
        EXPECT_STREQ(src->source_kind(), "binary-buffered");
        AeroDromeOpt engine(0, 0, 0);
        const RunResult got = run_checker_stream(engine, *src);
        EXPECT_FALSE(pipe.release())
            << "the run waited for the writer to close the pipe";
        EXPECT_EQ(got.status(), want.status());
        EXPECT_EQ(got.events_processed, want.events_processed);
        EXPECT_EQ(got.events_processed, t.size());
    }
}

// --- Budget polls at block granularity ---------------------------------------

/** Never-ending benign stream: forces the time budget to be the only
 *  thing that can stop the run. */
class EndlessSource : public EventSource {
public:
    bool
    next(Event& out) override
    {
        out = Event{0, 0, (flip_ = !flip_) ? Op::kBegin : Op::kEnd};
        return true;
    }

private:
    bool flip_ = false;
};

TEST(BlockBudget, HugeBlockCannotBlowPastMaxSeconds)
{
    // Block (1M) >> check_interval (1000): the poll must fire at the
    // first boundary at-or-after each interval *inside* the block, so
    // the run stops on an interval boundary shortly after the deadline
    // instead of draining the whole block first (or never stopping).
    EndlessSource src;
    AeroDromeOpt engine(1, 1, 1);
    RunBudget budget;
    budget.max_seconds = 0.05;
    budget.check_interval = 1000;
    RunResult r = run_checker_stream(engine, src, budget, 1u << 20);
    EXPECT_TRUE(r.timed_out);
    EXPECT_GT(r.events_processed, 0u);
    EXPECT_EQ(r.events_processed % budget.check_interval, 0u)
        << "timeout did not land on a poll boundary";
}

TEST(BlockBudget, ExpiredBudgetStopsAtFirstBoundary)
{
    EndlessSource src;
    AeroDromeOpt engine(1, 1, 1);
    RunBudget budget;
    budget.max_seconds = 1e-9; // already expired at the first poll
    budget.check_interval = 1000;
    RunResult r = run_checker_stream(engine, src, budget, 1u << 20);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.events_processed, 0u);
}

TEST(BlockBudget, ResolveIngestBlockExplicitAndDefault)
{
    EXPECT_EQ(resolve_ingest_block(0), kDefaultIngestBlock);
    EXPECT_EQ(resolve_ingest_block(1), 1u);
    EXPECT_EQ(resolve_ingest_block(77), 77u);
    EXPECT_EQ(resolve_ingest_block(512), 512u);
    EXPECT_EQ(resolve_ingest_block(1u << 22), size_t{1} << 22);
}

} // namespace
} // namespace aero
