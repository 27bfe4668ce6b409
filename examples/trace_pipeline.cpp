/**
 * @file
 * Trace-log generator, the first half of the paper's artifact workflow
 * (Appendix D): write one of the repository's workload models as an
 * execution log that the checker front end then reads.
 *
 * Usage:
 *   trace_pipeline gen <star|pipeline|ring|naive> <out.trace[.bin]>
 *       generate a workload and write it as a text (or, with .bin,
 *       binary) trace log.
 *
 * Example (aerocheck prints the verdict and, with --stats, the
 * engine statistics; run it once per engine to compare):
 *   $ ./trace_pipeline gen star /tmp/star.trace.bin
 *   $ ./aerocheck /tmp/star.trace.bin --stats
 *   $ ./aerocheck /tmp/star.trace.bin --engine velodrome --budget 5
 */

#include <cstdio>
#include <string>

#include "gen/patterns.hpp"
#include "support/assert.hpp"
#include "support/str.hpp"
#include "trace/binary_io.hpp"
#include "trace/text_io.hpp"

namespace {

using namespace aero;

bool
is_binary_path(const std::string& path)
{
    return path.size() > 4 &&
           path.compare(path.size() - 4, 4, ".bin") == 0;
}

int
cmd_gen(const std::string& kind, const std::string& path)
{
    Trace trace;
    if (kind == "star") {
        gen::StarOptions opts;
        opts.producers = 3;
        opts.consumers = 3;
        opts.rounds = 20000;
        trace = gen::make_star(opts);
    } else if (kind == "pipeline") {
        trace = gen::make_pipeline(4, 50000);
    } else if (kind == "ring") {
        trace = gen::make_ring(4);
    } else if (kind == "naive") {
        gen::NaiveSpecOptions opts;
        opts.threads = 6;
        opts.events_per_thread = 100000;
        opts.conflict_position = 0.9;
        trace = gen::make_naive_spec(opts);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", kind.c_str());
        return 2;
    }
    if (is_binary_path(path))
        write_binary_file(path, trace);
    else
        write_text_file(path, trace);
    std::printf("wrote %s events to %s\n",
                with_commas(trace.size()).c_str(), path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 4 || std::string(argv[1]) != "gen") {
        std::fprintf(stderr,
                     "usage: %s gen <star|pipeline|ring|naive> <out>\n",
                     argv[0]);
        return 2;
    }
    try {
        return cmd_gen(argv[2], argv[3]);
    } catch (const aero::FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
