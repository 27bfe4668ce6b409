#pragma once

/**
 * @file
 * Shared harness for the Table 1 / Table 2 reproduction binaries.
 *
 * For every benchmark model the harness:
 *   1. generates the model trace (scaled by --scale),
 *   2. computes MetaInfo (events/threads/locks/vars/transactions),
 *   3. runs Velodrome under a wall-clock budget (--budget seconds,
 *      reproducing the paper's 10-hour timeout at laptop scale),
 *   4. runs AeroDrome (the optimized engine, as in the paper's tool),
 *   5. prints the measured row next to the paper's reference numbers.
 *
 * Usage: bench_table1 [--scale S] [--budget SECONDS] [--filter NAME]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "gen/bench_models.hpp"
#include "support/str.hpp"
#include "trace/metainfo.hpp"
#include "velodrome/velodrome.hpp"

namespace aero::bench {

struct TableArgs {
    double scale = 1.0;
    double budget_seconds = 5.0;
    std::string filter;

    static TableArgs
    parse(int argc, char** argv)
    {
        TableArgs args;
        auto usage = [&](int code) {
            std::fprintf(code == 0 ? stdout : stderr,
                         "usage: %s [--scale S] [--budget SECONDS] "
                         "[--filter NAME]\n",
                         argv[0]);
            std::exit(code);
        };
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            const char* next = i + 1 < argc ? argv[i + 1] : "";
            if (a == "--scale") {
                ++i;
                if (!parse_seconds(next, args.scale) || args.scale <= 0)
                    usage(2);
            } else if (a == "--budget") {
                ++i;
                if (!parse_seconds(next, args.budget_seconds))
                    usage(2);
            } else if (a == "--filter") {
                ++i;
                args.filter = next;
            } else if (a == "--help") {
                usage(0);
            } else {
                usage(2);
            }
        }
        return args;
    }
};

inline void
run_table(const char* title, const std::vector<gen::BenchModel>& models,
          const TableArgs& args)
{
    std::printf("%s\n", title);
    std::printf("scale=%.3g, Velodrome budget=%.3gs (paper: 10h)\n\n",
                args.scale, args.budget_seconds);

    TextTable table;
    table.header({"Program", "Events", "Thr", "Lk", "Vars", "Txns",
                  "Atom?", "Velo(s)", "Aero(s)", "Speedup",
                  "|paper:", "Events", "Atom?", "Velo", "Aero", "Speedup"});

    for (const auto& m : models) {
        if (!args.filter.empty() && m.name.find(args.filter) ==
                                        std::string::npos) {
            continue;
        }
        Trace trace = gen::build_model_trace_scaled(m, args.scale);
        MetaInfo info = compute_metainfo(trace);

        RunBudget budget;
        budget.max_seconds = args.budget_seconds;

        Velodrome velo(trace.num_threads(), trace.num_vars(),
                       trace.num_locks());
        RunResult vr = run_checker(velo, trace, budget);

        AeroDromeOpt aero(trace.num_threads(), trace.num_vars(),
                          trace.num_locks());
        RunResult ar = run_checker(aero, trace, budget);

        // Speed-up of AeroDrome over Velodrome; when Velodrome timed out
        // the ratio is a lower bound (paper's "> N" rows).
        double ratio = ar.seconds > 0 ? vr.seconds / ar.seconds : 0;
        std::string speedup = format_speedup(ratio, vr.timed_out);

        table.row({
            m.name,
            with_commas(info.events),
            std::to_string(info.threads),
            std::to_string(info.locks),
            with_commas(info.vars),
            with_commas(info.transactions),
            ar.verdict(),
            vr.timed_out ? "TO" : format_duration(vr.seconds),
            format_duration(ar.seconds),
            speedup,
            "|",
            m.paper_events,
            m.paper_atomic,
            m.paper_velodrome,
            m.paper_aerodrome,
            m.paper_speedup,
        });
    }
    table.print(std::cout);
    std::printf(
        "\nShape check: 'Atom?' must match the paper column; speed-ups are\n"
        "expected to preserve the paper's *ordering* (TO rows >> 1, naive\n"
        "rows around 1), not its absolute values.\n");
}

} // namespace aero::bench
