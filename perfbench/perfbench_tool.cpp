/**
 * @file
 * perfbench_tool — the in-process half of the repository benchmark.
 * perfbench/run.py drives it; it is not meant to be run by hand, but
 * every subcommand is self-contained and prints one JSON object:
 *
 *   perfbench_tool env
 *       build and machine facts recorded with every result
 *   perfbench_tool gen <workload> <size> <seed> <out.bin>
 *       write one workload as a binary trace and describe it
 *   perfbench_tool oracle <trace.bin>
 *       the offline serializability oracle's verdict (small traces only)
 *   perfbench_tool traced <trace.bin> <ok|violation> <events> <ring_first>
 *                         <seconds>
 *       per-layer metrics from direct calls into each layer
 *
 * Workloads (the sizes are chosen by run.py):
 *   independent  gen::make_independent(4 threads, size txns, 8 accesses)
 *   star         gen::make_star(3 producers, 3 consumers, size rounds,
 *                violation_at_end)
 *   churn        gen::RollingStreamSource (8 workers, churn_every 1024,
 *                drift_every 4096, 2048 vars, 8 stripe locks), first
 *                size events
 * The seed drives the rolling stream and a relabeling of thread and
 * variable ids in every workload; relabeling keeps each verdict.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <utility>
#include <vector>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "gen/rolling_stream.hpp"
#include "oracle/serializability_oracle.hpp"
#include "support/rng.hpp"
#include "trace/binary_io.hpp"
#include "trace/mapped_reader.hpp"
#include "trace/stream.hpp"
#include "velodrome/velodrome.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#endif

namespace {

using namespace aero;
using Clock = std::chrono::steady_clock;

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Escape a string for a JSON string literal. */
std::string
json_str(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

uint64_t
file_size(const std::string& path)
{
    struct stat st {};
    if (stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<uint64_t>(st.st_size);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// --- env --------------------------------------------------------------------

std::string
cpu_model()
{
#if defined(__x86_64__) && defined(__GNUC__)
    unsigned regs[12] = {};
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) &&
        eax >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s = brand;
        const size_t lo = s.find_first_not_of(' ');
        return lo == std::string::npos ? "unknown" : s.substr(lo);
    }
#endif
    return "unknown";
}

const char*
simd_kind()
{
#ifdef AERO_VC_X86_DISPATCH
    return vck::detail::kHaveAvx2 ? "avx2" : "scalar";
#else
    return "scalar";
#endif
}

const char*
compiler()
{
#if defined(__clang__)
    return "clang " __VERSION__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return __VERSION__;
#endif
}

int
cmd_env()
{
    std::printf("{\"hardware_concurrency\": %u, \"cpu_model\": %s, "
                "\"simd\": %s, \"compiler\": %s}\n",
                std::thread::hardware_concurrency(),
                json_str(cpu_model()).c_str(), json_str(simd_kind()).c_str(),
                json_str(compiler()).c_str());
    return 0;
}

// --- gen --------------------------------------------------------------------

/** Seeded permutation of thread and variable ids. Conflict
 *  serializability does not depend on names, so the verdict survives.
 *  Lock ids are left alone: there are at most a handful per workload. */
Trace
relabel(const Trace& in, uint64_t seed)
{
    Rng rng(seed ^ 0x5eedf00dULL);
    std::vector<uint32_t> tperm(in.num_threads()), vperm(in.num_vars());
    for (uint32_t i = 0; i < tperm.size(); ++i)
        tperm[i] = i;
    for (uint32_t i = 0; i < vperm.size(); ++i)
        vperm[i] = i;
    rng.shuffle(tperm);
    rng.shuffle(vperm);

    Trace out;
    out.reserve(in.size());
    for (Event e : in.events()) {
        e.tid = tperm[e.tid];
        if (op_targets_var(e.op))
            e.target = vperm[e.target];
        else if (e.op == Op::kFork || e.op == Op::kJoin)
            e.target = tperm[e.target];
        out.push(e);
    }
    return out;
}

int
cmd_gen(const std::string& workload, uint64_t size, uint64_t seed,
        const std::string& out_path)
{
    Trace trace;
    const char* expect = "ok";
    uint64_t ring_first = 0;
    if (workload == "independent") {
        trace = gen::make_independent(4, static_cast<uint32_t>(size), 8);
    } else if (workload == "star") {
        gen::StarOptions opts;
        opts.producers = 3;
        opts.consumers = 3;
        opts.rounds = static_cast<uint32_t>(size);
        // The ring is appended after the star phase, so the serializable
        // trace of the same shape is exactly the prefix before it.
        ring_first = gen::make_star(opts).size();
        opts.violation_at_end = true;
        trace = gen::make_star(opts);
        expect = "violation";
    } else if (workload == "churn") {
        gen::RollingStreamOptions opts;
        opts.workers = 8;
        opts.churn_every = 1024;
        opts.drift_every = 4096;
        opts.vars = 2048;
        opts.locks = 8;
        opts.max_events = size;
        opts.seed = seed;
        gen::RollingStreamSource src(opts);
        trace.reserve(size);
        Event e{};
        while (src.next(e))
            trace.push(e);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    trace = relabel(trace, seed);
    write_binary_file(out_path, trace);
    std::printf("{\"workload\": %s, \"seed\": %llu, \"events\": %zu, "
                "\"threads\": %u, \"vars\": %u, \"locks\": %u, "
                "\"expect\": %s, \"ring_first\": %llu, "
                "\"file_bytes\": %llu}\n",
                json_str(workload).c_str(),
                static_cast<unsigned long long>(seed), trace.size(),
                trace.num_threads(), trace.num_vars(), trace.num_locks(),
                json_str(expect).c_str(),
                static_cast<unsigned long long>(ring_first),
                static_cast<unsigned long long>(file_size(out_path)));
    return 0;
}

// --- oracle -----------------------------------------------------------------

int
cmd_oracle(const std::string& path)
{
    const Trace trace = read_binary_file(path);
    const OracleResult r = check_serializability(trace);
    std::printf("{\"serializable\": %s, \"events\": %zu}\n",
                r.serializable ? "true" : "false", trace.size());
    return 0;
}

// --- traced -----------------------------------------------------------------

/** What the workload's construction promises. */
struct Expect {
    bool violation = false;
    uint64_t events = 0;     ///< events in the file
    uint64_t ring_first = 0; ///< first event of the planted ring

    /** True when a run that consumed `consumed` events and reported
     *  `index` (if `violated`) matches the construction. */
    bool
    holds(bool violated, uint64_t consumed, uint64_t index) const
    {
        if (!violation)
            return !violated && consumed == events;
        return violated && index >= ring_first && index < events &&
               consumed == index + 1;
    }
};

constexpr size_t kKinds = kNumOps;
constexpr const char* kKindName[kKinds] = {
    "read", "write", "acquire", "release", "fork", "join", "begin", "end"};
/** The traced loop times one call in this many per event kind (the
 *  first, then every kSampleEvery-th), so rare kinds are sampled too. */
constexpr uint64_t kSampleEvery = 32;

/** Per-call cost of one steady_clock::now() pair, subtracted from every
 *  sampled process() time. */
double
timer_overhead_ns()
{
    std::vector<double> v(4001);
    for (double& d : v) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        d = std::chrono::duration<double, std::nano>(b - a).count();
    }
    return median(std::move(v));
}

void
reserve_like_runner(AtomicityChecker& c, const Trace& t)
{
    if (reserve_hint_sane(t.num_threads(), t.num_vars(), t.num_locks()))
        c.reserve(t.num_threads(), t.num_vars(), t.num_locks());
}

/** One pass of the default engine over the materialised trace with no
 *  instrumentation except four timestamps: the denominator of
 *  traced.overhead_frac and the source of the head/tail ratio. */
struct PlainPass {
    double wall_s = 0;
    double head_ns = 0; ///< ns/event over the first tenth
    double tail_ns = 0; ///< ns/event over the last tenth
    size_t memory_mid = 0, memory_end = 0;
    bool ok = false;
    StatList counters;
};

PlainPass
plain_pass(const Trace& trace, const Expect& expect)
{
    PlainPass p;
    AeroDromeOpt checker(0, 0, 0);
    reserve_like_runner(checker, trace);
    const std::vector<Event>& ev = trace.events();
    const size_t n = ev.size();
    const size_t cut[4] = {n / 10, n / 2, n - n / 10, n};
    size_t i = 0;
    bool violated = false;
    Clock::time_point at[5];
    at[0] = Clock::now();
    for (int s = 0; s < 4; ++s) {
        for (; !violated && i < cut[s]; ++i)
            violated = checker.process(ev[i], i);
        at[s + 1] = Clock::now();
        if (s == 1)
            p.memory_mid = checker.memory_bytes();
    }
    p.memory_end = checker.memory_bytes();
    p.wall_s = seconds_between(at[0], at[4]);
    const size_t head = cut[0], tail = i > cut[2] ? i - cut[2] : 0;
    p.head_ns = head ? seconds_between(at[0], at[1]) * 1e9 / head : 0;
    p.tail_ns = tail ? seconds_between(at[3], at[4]) * 1e9 / tail : 0;
    const size_t consumed = i;
    const size_t index = violated ? checker.violation()->event_index : 0;
    p.ok = expect.holds(violated, consumed, index);
    p.counters = checker.counters();
    return p;
}

/** The same pass with per-kind counts and sampled self time per
 *  process() call. */
struct TracedPass {
    double wall_s = 0;
    uint64_t count[kKinds] = {};
    double ns_per_call[kKinds] = {};
    bool ok = false;
};

TracedPass
traced_pass(const Trace& trace, const Expect& expect, double overhead_ns)
{
    TracedPass p;
    AeroDromeOpt checker(0, 0, 0);
    reserve_like_runner(checker, trace);
    const std::vector<Event>& ev = trace.events();
    double sampled_ns[kKinds] = {};
    uint64_t samples[kKinds] = {};
    size_t i = 0;
    bool violated = false;
    const auto start = Clock::now();
    for (; !violated && i < ev.size(); ++i) {
        const size_t k = static_cast<size_t>(ev[i].op);
        if (++p.count[k] % kSampleEvery == 1) {
            const auto a = Clock::now();
            violated = checker.process(ev[i], i);
            const auto b = Clock::now();
            sampled_ns[k] +=
                std::chrono::duration<double, std::nano>(b - a).count();
            ++samples[k];
        } else {
            violated = checker.process(ev[i], i);
        }
    }
    p.wall_s = seconds_between(start, Clock::now());
    for (size_t k = 0; k < kKinds; ++k) {
        if (samples[k])
            p.ns_per_call[k] = std::max(
                0.0, sampled_ns[k] / static_cast<double>(samples[k]) -
                         overhead_ns);
    }
    const size_t index = violated ? checker.violation()->event_index : 0;
    p.ok = expect.holds(violated, i, index);
    return p;
}

uint64_t
counter(const StatList& list, const char* name)
{
    for (const auto& [k, v] : list)
        if (k == name)
            return v;
    return 0;
}

int
cmd_traced(const std::string& path, const Expect& expect, double seconds)
{
    const double overhead_ns = timer_overhead_ns();
    const Trace trace = read_binary_file(path);
    const uint64_t fbytes = file_size(path);

    std::vector<double> open_s, decode_ns, stream_ns, inmem_ns, plain_wall,
        traced_wall, head_ns, tail_ns, velo_ns, velo_mem;
    std::vector<double> kind_ns[kKinds];
    PlainPass last_plain;
    TracedPass last_traced;
    StatList stream_counters;
    uint64_t attempted = 0, failed = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<Event> block(4096);

    do {
        // trace: open_event_source (sniff, mmap, header), then a pure
        // decode pass over the whole mapping with no checker.
        {
            std::unique_ptr<std::istream> storage;
            const auto a = Clock::now();
            auto src = open_event_source(path, storage);
            open_s.push_back(seconds_between(a, Clock::now()));
        }
        {
            MappedBinaryEventSource src(path);
            uint64_t n = 0;
            const auto a = Clock::now();
            for (size_t got; (got = src.next_n(block.data(), block.size()));)
                n += got;
            const double s = seconds_between(a, Clock::now());
            ++attempted;
            if (n != expect.events)
                ++failed;
            decode_ns.push_back(n ? s * 1e9 / static_cast<double>(n) : 0);
        }
        // analysis: the runner over the mapped file and over the
        // materialised trace.
        {
            std::unique_ptr<std::istream> storage;
            auto src = open_event_source(path, storage);
            AeroDromeOpt checker(0, 0, 0);
            const auto a = Clock::now();
            RunResult r = run_checker_stream(checker, *src);
            const double s = seconds_between(a, Clock::now());
            ++attempted;
            if (!expect.holds(r.violation, r.events_processed,
                              r.violation ? r.details->event_index : 0))
                ++failed;
            stream_ns.push_back(s * 1e9 /
                                static_cast<double>(r.events_processed));
            stream_counters = r.counters;
        }
        {
            AeroDromeOpt checker(0, 0, 0);
            const auto a = Clock::now();
            RunResult r = run_checker(checker, trace);
            const double s = seconds_between(a, Clock::now());
            ++attempted;
            if (!expect.holds(r.violation, r.events_processed,
                              r.violation ? r.details->event_index : 0))
                ++failed;
            inmem_ns.push_back(s * 1e9 /
                               static_cast<double>(r.events_processed));
        }
        // aerodrome: the untraced and traced engine passes.
        last_plain = plain_pass(trace, expect);
        last_traced = traced_pass(trace, expect, overhead_ns);
        attempted += 2;
        failed += !last_plain.ok + !last_traced.ok;
        plain_wall.push_back(last_plain.wall_s);
        traced_wall.push_back(last_traced.wall_s);
        head_ns.push_back(last_plain.head_ns);
        tail_ns.push_back(last_plain.tail_ns);
        for (size_t k = 0; k < kKinds; ++k)
            kind_ns[k].push_back(last_traced.ns_per_call[k]);
        // velodrome: the paper's baseline on the same trace, on the
        // serializable workloads (independent, churn) only. On star it is
        // superlinear (the paper's TO row), so it is not run there and
        // its metrics read 0.
        if (!expect.violation) {
            Velodrome checker(0, 0, 0);
            const auto a = Clock::now();
            RunResult r = run_checker(checker, trace);
            const double s = seconds_between(a, Clock::now());
            ++attempted;
            if (r.violation || r.events_processed != expect.events)
                ++failed;
            velo_ns.push_back(s * 1e9 /
                              static_cast<double>(r.events_processed));
            velo_mem.push_back(static_cast<double>(checker.memory_bytes()));
        }
    } while (Clock::now() < deadline);

    std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
    auto put = [&m](std::string name, double v, const char* unit) {
        m.emplace_back(std::move(name), std::make_pair(v, unit));
    };
    const double n_events = static_cast<double>(expect.events);
    put("trace.decode_ns_per_event", median(decode_ns), "ns");
    put("trace.open_s", median(open_s), "s");
    put("trace.bytes_per_event", static_cast<double>(fbytes) / n_events,
        "bytes");
    put("trace.file_bytes", static_cast<double>(fbytes), "bytes");
    put("analysis.stream_ns_per_event", median(stream_ns), "ns");
    put("analysis.inmem_ns_per_event", median(inmem_ns), "ns");
    put("analysis.slots_retired",
        static_cast<double>(counter(stream_counters, "slots_retired")),
        "count");
    put("analysis.slots_recycled",
        static_cast<double>(counter(stream_counters, "slots_recycled")),
        "count");
    for (size_t k = 0; k < kKinds; ++k) {
        put(std::string("aerodrome.") + kKindName[k] + ".ns",
            median(kind_ns[k]), "ns");
        put(std::string("aerodrome.") + kKindName[k] + ".count",
            static_cast<double>(last_traced.count[k]), "count");
    }
    const double head = median(head_ns);
    put("aerodrome.tail_head_ratio", head > 0 ? median(tail_ns) / head : 0,
        "ratio");
    put("aerodrome.memory_bytes_mid",
        static_cast<double>(last_plain.memory_mid), "bytes");
    put("aerodrome.memory_bytes_end",
        static_cast<double>(last_plain.memory_end), "bytes");
    for (const auto& [name, value] : last_plain.counters)
        put("aerodrome.counter." + name, static_cast<double>(value),
            "count");
    const StatList& c = last_plain.counters;
    const double fast = static_cast<double>(counter(c, "epoch_fast_ops"));
    const double vec = static_cast<double>(counter(c, "vector_ops"));
    put("vc.epoch_hit_ratio", fast + vec > 0 ? fast / (fast + vec) : 0,
        "ratio");
    for (const char* name :
         {"inflations", "gc_sweeps", "gc_reclaimed", "gc_live_entries"})
        put(std::string("vc.") + name,
            static_cast<double>(counter(c, name)), "count");
    const double velo = median(velo_ns);
    put("velodrome.inmem_ns_per_event", velo, "ns");
    put("velodrome.memory_bytes_end", median(velo_mem), "bytes");
    put("aerodrome_vs_velodrome", velo > 0 ? median(inmem_ns) / velo : 0,
        "ratio");
    put("traced.overhead_frac",
        median(traced_wall) / median(plain_wall) - 1.0, "ratio");

    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"rounds\": %zu, "
                "\"timer_overhead_ns\": %s, \"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), open_s.size(),
                json_num(overhead_ns).c_str());
    for (size_t i = 0; i < m.size(); ++i) {
        std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                    json_str(m[i].first).c_str(),
                    json_num(m[i].second.first).c_str(),
                    json_str(m[i].second.second).c_str());
    }
    std::printf("}}\n");
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_tool env\n"
                 "       perfbench_tool gen <workload> <size> <seed> "
                 "<out.bin>\n"
                 "       perfbench_tool oracle <trace.bin>\n"
                 "       perfbench_tool traced <trace.bin> <ok|violation> "
                 "<events> <ring_first> <seconds>\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> a(argv + 1, argv + argc);
    try {
        if (a.size() == 1 && a[0] == "env")
            return cmd_env();
        if (a.size() == 5 && a[0] == "gen")
            return cmd_gen(a[1], std::stoull(a[2]), std::stoull(a[3]), a[4]);
        if (a.size() == 2 && a[0] == "oracle")
            return cmd_oracle(a[1]);
        if (a.size() == 6 && a[0] == "traced") {
            Expect e;
            e.violation = a[2] == "violation";
            e.events = std::stoull(a[3]);
            e.ring_first = std::stoull(a[4]);
            return cmd_traced(a[1], e, std::stod(a[5]));
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench_tool: %s\n", ex.what());
        return 1;
    }
    return usage();
}
