/**
 * @file
 * aerocheck — command-line atomicity checker over trace logs.
 *
 * The "production" front end: pick an engine, stream a trace file in
 * constant memory, get a violation report with evidence and engine
 * statistics. Complements trace_pipeline (which demonstrates the
 * generate-then-analyze workflow) by exposing every engine and knob.
 *
 * Usage:
 *   aerocheck <trace[.bin]> [--engine NAME] [--budget SECONDS]
 *             [--shards N] [--merge-epoch K|end] [--no-merge-barriers]
 *             [--batch N] [--ingest-block N] [--pin] [--resync]
 *             [--watchdog MS] [--validate] [--stats] [--witness]
 *
 * The trace format is sniffed from the AEROTRC1 magic, not the file
 * extension (the ".bin" suffix only breaks ties for files too short to
 * sniff); a ".bin" file without the magic is rejected as corrupt rather
 * than mis-parsed as text.
 *
 *   --engine: aerodrome (default) | aerodrome-tuned | aerodrome-readopt |
 *             aerodrome-basic | velodrome | velodrome-pk
 *   --shards: check with N parallel engine shards (src/shard/README.md);
 *             defaults to the AERO_SHARDS env var, else 1 (single engine)
 *   --merge-epoch: periodic frontier-merge cadence for sharded runs
 *             (default: AERO_MERGE_EPOCH env, else 64). Every cadence is
 *             *exact* — the divergence barriers merge wherever a stale
 *             clock could otherwise be consulted — so K only bounds
 *             staleness latency. 1 = lockstep (a barrier per event),
 *             "end" = divergence barriers only, 0 = never merge (sound
 *             but detection may lag; implies --no-merge-barriers)
 *   --no-merge-barriers: legacy periodic-only merging; shard violations
 *             between merges are confirmed by suspect-window replay
 *   --batch:  sharded runs only — transport block size in events: the
 *             reader stages this many events per shard before publishing
 *             them into the ring as one block (default: AERO_BATCH env,
 *             else 256; 1 = per-event transport)
 *   --ingest-block: single-engine runs — events decoded per
 *             EventSource::next_n block in the check loop (default:
 *             AERO_INGEST_BLOCK env, else 4096); sharded runs decode in
 *             --batch sized blocks instead. Echoed by --stats
 *   --pin:    pin shard worker s to core s mod hardware_concurrency
 *             (Linux; no-op elsewhere or single-engine)
 *   --resync: skip corrupt records and keep checking (the verdict
 *             degrades to "no violation found", exit 5, when records
 *             were skipped) instead of stopping at the first one
 *   --watchdog: sharded runs only — evict a shard worker whose
 *             heartbeat freezes for MS milliseconds and recover it from
 *             the last merge checkpoint (src/shard/README.md, "Failure
 *             model"); 0 (default) disables recovery
 *   --validate: run the well-formedness validator first (loads the
 *               trace into memory)
 *   --stats: print engine-specific statistics after the run (per shard
 *            plus totals when sharded), with a reclamation line for the
 *            engines that reclaim: clock-entry GC and thread-slot
 *            recycling are always on, so memory tracks the live state
 *            on long streams with thread churn
 *   --witness: on a violation, reconstruct and print a witness cycle
 *              (one offending SCC of the transaction graph over the
 *              prefix up to the violating event; loads the trace)
 *
 * Exit code: 0 = serializable, 1 = violation, 2 = usage/input error,
 * 3 = budget exceeded, 4 = corrupt input stream (strict mode),
 * 5 = completed degraded (resync skips or worker recovery: a reported
 * violation would still be real, but "no violation" is not a proof),
 * 6 = internal error (contained panic / resource cap).
 *
 * Fault injection (robustness drills): AERO_FAULT_PLAN=site:kind:trigger
 * in the environment arms the process-wide FaultInjector before the run
 * (src/support/fault.hpp for the grammar).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "aerodrome/aerodrome_readopt.hpp"
#include "aerodrome/aerodrome_tuned.hpp"
#include "analysis/runner.hpp"
#include "oracle/serializability_oracle.hpp"
#include "shard/sharded_runner.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/str.hpp"
#include "trace/binary_io.hpp"
#include "trace/stream.hpp"
#include "trace/text_io.hpp"
#include "trace/validator.hpp"
#include "velodrome/velodrome.hpp"
#include "velodrome/velodrome_pk.hpp"

namespace {

using namespace aero;

struct Args {
    std::string path;
    std::string engine = "aerodrome";
    double budget = 0;
    uint32_t shards = 0; // 0: AERO_SHARDS env, else single engine
    /** UINT64_MAX - 1: unset (resolve AERO_MERGE_EPOCH env, else 64). */
    uint64_t merge_epoch = kMergeEpochUnset;
    bool merge_barriers = true;
    uint32_t batch = 0; // 0: AERO_BATCH env, else 256
    uint32_t ingest_block = 0; // 0: AERO_INGEST_BLOCK env, else 4096
    bool pin_workers = false;
    bool resync = false;
    uint32_t watchdog_ms = 0;
    bool validate_first = false;
    bool stats = false;
    bool witness = false;

    static constexpr uint64_t kMergeEpochUnset = UINT64_MAX - 1;
};

/** "end" = barriers only; otherwise a bounded decimal. */
bool
parse_merge_epoch(const char* s, uint64_t& out)
{
    if (std::strcmp(s, "end") == 0) {
        out = ShardOptions::kMergeEndOnly;
        return true;
    }
    char* end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (s[0] == '\0' || s[0] == '-' || !end || *end != '\0' ||
        v > (1ull << 30))
        return false;
    out = v;
    return true;
}

/** Reconstruct and print one witness cycle over the violating prefix. */
void
print_witness(const Trace& trace, size_t violation_index)
{
    Trace prefix;
    for (size_t i = 0; i <= violation_index && i < trace.size(); ++i)
        prefix.push(trace[i]);
    OracleOptions oopts;
    oopts.collect_txn_info = true;
    OracleResult oracle = check_serializability(prefix, oopts);
    if (oracle.serializable) {
        // Possible when the engine reports at an end event whose witness
        // needs the full <=E machinery; fall back to the full trace.
        std::printf("  (no cycle in the strict prefix; witness spans "
                    "later events)\n");
        return;
    }
    std::printf("  witness cycle (%zu transactions):\n",
                oracle.witness_scc.size());
    for (uint32_t node : oracle.witness_scc) {
        if (node >= oracle.txn_info.size())
            continue;
        const TxnInfo& info = oracle.txn_info[node];
        std::printf("    %s txn of thread %s: events [%zu..%zu]%s\n",
                    info.unary ? "unary" : "block",
                    trace.threads().name_of(info.thread, "t").c_str(),
                    info.first_event, info.last_event,
                    info.completed ? "" : " (still open)");
    }
}

/** Parse a decimal integer in [lo, hi]; false on garbage/out-of-range. */
bool
parse_bounded(const char* s, unsigned long lo, unsigned long hi,
              unsigned long& out)
{
    char* end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (s[0] == '\0' || s[0] == '-' || !end || *end != '\0' || v < lo ||
        v > hi)
        return false;
    out = v;
    return true;
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <trace[.bin]> [--engine NAME] [--budget S] "
                 "[--shards N] [--merge-epoch K|end] "
                 "[--no-merge-barriers] [--batch N] [--ingest-block N] "
                 "[--pin] [--resync] "
                 "[--watchdog MS] [--validate] [--stats] [--witness]\n"
                 "engines: aerodrome aerodrome-tuned aerodrome-readopt "
                 "aerodrome-basic velodrome velodrome-pk\n",
                 argv0);
    return 2;
}

std::unique_ptr<AtomicityChecker>
make_engine(const std::string& name)
{
    // Streamed input: dimensions are unknown up front; every engine
    // grows its state on demand.
    if (name == "aerodrome")
        return std::make_unique<AeroDromeOpt>(0, 0, 0);
    if (name == "aerodrome-tuned")
        return std::make_unique<AeroDromeTuned>(0, 0, 0);
    if (name == "aerodrome-readopt")
        return std::make_unique<AeroDromeReadOpt>(0, 0, 0);
    if (name == "aerodrome-basic")
        return std::make_unique<AeroDromeBasic>(0, 0, 0);
    if (name == "velodrome")
        return std::make_unique<Velodrome>(0, 0, 0);
    if (name == "velodrome-pk")
        return std::make_unique<VelodromePK>(0, 0, 0);
    return nullptr;
}

/** One-line reclamation summary pulled out of the counter list; silent
 *  when the engine has no reclamation counters at all. */
void
print_gc_block(const StatList& counters)
{
    auto get = [&counters](const char* key, uint64_t& out) {
        for (const auto& [k, v] : counters)
            if (k == key) {
                out = v;
                return true;
            }
        return false;
    };
    uint64_t sweeps = 0, skipped = 0, reclaimed = 0, rows = 0, live = 0,
             retired = 0, recycled = 0;
    if (!get("gc_sweeps", sweeps))
        return;
    get("gc_walks_skipped", skipped);
    get("gc_reclaimed", reclaimed);
    get("gc_rows_freed", rows);
    get("gc_live_entries", live);
    get("slots_retired", retired);
    get("slots_recycled", recycled);
    std::printf("  reclamation: %s sweeps (%s table walks skipped on a "
                "pinned frontier), %s entries reclaimed, %s rows freed, "
                "%s live entries after the last walk, %s thread slots "
                "retired (%s reissued)\n",
                with_commas(sweeps).c_str(), with_commas(skipped).c_str(),
                with_commas(reclaimed).c_str(), with_commas(rows).c_str(),
                with_commas(live).c_str(), with_commas(retired).c_str(),
                with_commas(recycled).c_str());
}

void
print_counters(const StatList& counters)
{
    if (counters.empty()) {
        std::printf("  (no statistics exposed by this engine)\n");
        return;
    }
    size_t width = 0;
    for (const auto& [name, value] : counters)
        width = std::max(width, name.size());
    for (const auto& [name, value] : counters) {
        std::printf("  %-*s %s\n", static_cast<int>(width + 1),
                    (name + ":").c_str(), with_commas(value).c_str());
    }
}

/** Per-shard breakdown plus the name-wise totals. */
void
print_shard_stats(const ShardRunResult& r)
{
    for (uint32_t s = 0; s < r.shard_counters.size(); ++s) {
        std::printf("  shard %u (%s events, %s bytes of state):\n", s,
                    with_commas(r.shard_events[s]).c_str(),
                    with_commas(r.shard_memory_bytes[s]).c_str());
        for (const auto& [name, value] : r.shard_counters[s]) {
            std::printf("    %-20s %s\n", (name + ":").c_str(),
                        with_commas(value).c_str());
        }
    }
    std::printf("  totals over %u shards (%s frontier merges, %s from "
                "divergence barriers):\n",
                r.shards, with_commas(r.frontier_merges).c_str(),
                with_commas(r.barrier_merges).c_str());
    print_counters(r.result.counters);
    const double avg_run =
        r.transport_runs ? static_cast<double>(r.transport_run_events) /
                               static_cast<double>(r.transport_runs)
                         : 0.0;
    std::printf("  transport: batch %u, %s blocks pushed (%s partial "
                "flushes), avg routed-run length %.1f\n",
                r.batch, with_commas(r.blocks_pushed).c_str(),
                with_commas(r.partial_flushes).c_str(), avg_run);
    if (r.suspects > 0) {
        std::printf("  suspect replay: %s suspects, %s replays "
                    "(%s confirmed, %s refined, %s upheld)\n",
                    with_commas(r.suspects).c_str(),
                    with_commas(r.replays).c_str(),
                    with_commas(r.replay_confirmed).c_str(),
                    with_commas(r.replay_refined).c_str(),
                    with_commas(r.replay_upheld).c_str());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--engine" && i + 1 < argc) {
            args.engine = argv[++i];
        } else if (a == "--budget" && i + 1 < argc) {
            args.budget = std::stod(argv[++i]);
        } else if (a == "--shards" && i + 1 < argc) {
            unsigned long v = 0;
            if (!parse_bounded(argv[++i], 1, ShardOptions::kMaxShards, v))
                return usage(argv[0]);
            args.shards = static_cast<uint32_t>(v);
        } else if (a == "--merge-epoch" && i + 1 < argc) {
            if (!parse_merge_epoch(argv[++i], args.merge_epoch))
                return usage(argv[0]);
        } else if (a == "--no-merge-barriers") {
            args.merge_barriers = false;
        } else if (a == "--batch" && i + 1 < argc) {
            unsigned long v = 0;
            if (!parse_bounded(argv[++i], 1, 65536, v))
                return usage(argv[0]);
            args.batch = static_cast<uint32_t>(v);
        } else if (a == "--ingest-block" && i + 1 < argc) {
            unsigned long v = 0;
            if (!parse_bounded(argv[++i], 1, 1ul << 22, v))
                return usage(argv[0]);
            args.ingest_block = static_cast<uint32_t>(v);
        } else if (a == "--pin") {
            args.pin_workers = true;
        } else if (a == "--resync") {
            args.resync = true;
        } else if (a == "--watchdog" && i + 1 < argc) {
            unsigned long v = 0;
            if (!parse_bounded(argv[++i], 0, 3600ul * 1000, v))
                return usage(argv[0]);
            args.watchdog_ms = static_cast<uint32_t>(v);
        } else if (a == "--validate") {
            args.validate_first = true;
        } else if (a == "--stats") {
            args.stats = true;
        } else if (a == "--witness") {
            args.witness = true;
        } else if (a == "--help") {
            return usage(argv[0]);
        } else if (args.path.empty()) {
            args.path = a;
        } else {
            return usage(argv[0]);
        }
    }
    if (args.path.empty())
        return usage(argv[0]);

    auto checker = make_engine(args.engine);
    if (!checker) {
        std::fprintf(stderr, "unknown engine '%s'\n", args.engine.c_str());
        return usage(argv[0]);
    }

    // Contain engine panics as a structured internal-error outcome (exit
    // 6 with context) instead of an abort, and arm any AERO_FAULT_PLAN
    // robustness drill requested by the environment.
    set_panic_handler(&throwing_panic_handler);
    FaultInjector::instance().arm_from_env();

    try {
        if (args.validate_first) {
            Trace t = trace_is_binary(args.path)
                          ? read_binary_file(args.path)
                          : read_text_file(args.path);
            auto v = validate(t);
            if (!v.ok) {
                std::fprintf(stderr,
                             "trace is ill-formed at event %zu: %s\n",
                             v.event_index, v.message.c_str());
                return 2;
            }
            std::printf("trace is well-formed (%s events)\n",
                        with_commas(t.size()).c_str());
        }

        std::unique_ptr<std::istream> storage;
        auto source = open_event_source(args.path, storage);
        source->set_resync(args.resync);

        RunBudget budget;
        budget.max_seconds = args.budget;

        uint32_t shards = args.shards;
        if (shards == 0) {
            // CI and batch scripts select sharding per process; garbage
            // or out-of-range values fall back to a single engine.
            unsigned long v = 0;
            const char* env = std::getenv("AERO_SHARDS");
            shards = (env && parse_bounded(env, 1, ShardOptions::kMaxShards,
                                           v))
                         ? static_cast<uint32_t>(v)
                         : 1;
        }

        RunResult r;
        std::optional<ShardRunResult> sharded;
        uint64_t merge_epoch = args.merge_epoch;
        if (merge_epoch == Args::kMergeEpochUnset) {
            merge_epoch = 64; // exact epoch mode: K only bounds staleness
            if (const char* env = std::getenv("AERO_MERGE_EPOCH")) {
                if (!parse_merge_epoch(env, merge_epoch))
                    merge_epoch = 64;
            }
        }

        if (shards > 1) {
            ShardOptions sopts;
            sopts.shards = shards;
            sopts.merge_epoch = merge_epoch;
            sopts.divergence_barriers = args.merge_barriers;
            sopts.batch_size = args.batch; // 0: AERO_BATCH env, else 256
            sopts.pin_workers = args.pin_workers;
            // The replay buffers one merge window of the stream; without
            // periodic merges that window is the whole input, which a
            // constant-memory CLI run must not hold.
            sopts.confirm_replay = merge_epoch >= 2 &&
                                   merge_epoch != ShardOptions::kMergeEndOnly;
            sopts.watchdog_ms = args.watchdog_ms;
            sopts.budget = budget;
            sharded = run_sharded(
                [&args] { return make_engine(args.engine); },
                *source, sopts);
            r = sharded->result;
        } else {
            r = run_checker_stream(*checker, *source, budget,
                                   args.ingest_block);
        }

        const RunStatus status = r.status();
        const char* verdict = "serializable";
        switch (status) {
          case RunStatus::kOk:
            break;
          case RunStatus::kViolation:
            verdict = "VIOLATION";
            break;
          case RunStatus::kTimeout:
            verdict = "BUDGET EXCEEDED";
            break;
          case RunStatus::kDegraded:
            verdict = "no violation found (DEGRADED)";
            break;
          case RunStatus::kStreamError:
            verdict = "ABORTED ON CORRUPT INPUT";
            break;
          case RunStatus::kInternalError:
            verdict = "INTERNAL ERROR";
            break;
        }
        std::printf("%s%s: %s after %s events in %s\n",
                    std::string(checker->name()).c_str(),
                    shards > 1
                        ? (" x" + std::to_string(shards) + " shards").c_str()
                        : "",
                    verdict, with_commas(r.events_processed).c_str(),
                    format_duration(r.seconds).c_str());
        if (r.stream_error) {
            std::printf("  input error [%s] at event %s, byte offset %s: "
                        "%s\n",
                        stream_error_cause_name(r.stream_error->cause),
                        with_commas(r.stream_error->event_index).c_str(),
                        with_commas(r.stream_error->byte_offset).c_str(),
                        r.stream_error->message.c_str());
        }
        if (r.stream_errors_recovered > 0) {
            std::printf("  resync: skipped %s corrupt record(s):\n",
                        with_commas(r.stream_errors_recovered).c_str());
            for (const StreamError& err : source->recovered_errors()) {
                std::printf("    [%s] event %s, byte offset %s: %s\n",
                            stream_error_cause_name(err.cause),
                            with_commas(err.event_index).c_str(),
                            with_commas(err.byte_offset).c_str(),
                            err.message.c_str());
            }
        }
        if (r.degraded)
            std::printf("  degraded: %s\n", r.degraded_reason.c_str());
        if (!r.internal_error.empty())
            std::printf("  internal error: %s\n", r.internal_error.c_str());
        if (sharded && (sharded->recoveries > 0 ||
                        sharded->shards_abandoned > 0)) {
            std::printf("  worker recovery: %s recoveries, %s shards "
                        "abandoned, %s events dropped\n",
                        with_commas(sharded->recoveries).c_str(),
                        with_commas(sharded->shards_abandoned).c_str(),
                        with_commas(sharded->events_dropped).c_str());
        }
        if (r.violation) {
            std::printf("  at event index %zu, thread id %u",
                        r.details->event_index, r.details->thread);
            if (shards > 1)
                std::printf(" (shard %u)", r.details->shard);
            std::printf(": %s\n", r.details->reason.c_str());
            if (args.witness) {
                Trace t = trace_is_binary(args.path)
                              ? read_binary_file(args.path)
                              : read_text_file(args.path);
                print_witness(t, r.details->event_index);
            }
        }
        if (args.stats) {
            // Sharded runs decode in transport-batch blocks (the decode
            // pipe); single-engine runs use the resolved ingest block.
            const size_t block = sharded
                                     ? sharded->batch
                                     : resolve_ingest_block(args.ingest_block);
            std::printf("  ingest: %s source, block %s\n",
                        source->source_kind(),
                        with_commas(block).c_str());
            if (sharded) {
                print_shard_stats(*sharded);
                print_gc_block(sharded->result.counters);
            } else {
                print_counters(checker->counters());
                print_gc_block(checker->counters());
            }
        }
        switch (status) {
          case RunStatus::kOk:
            return 0;
          case RunStatus::kViolation:
            return 1;
          case RunStatus::kTimeout:
            return 3;
          case RunStatus::kStreamError:
            return 4;
          case RunStatus::kDegraded:
            return 5;
          case RunStatus::kInternalError:
            return 6;
        }
        return 6; // unreachable
    } catch (const StreamCorruption& e) {
        // Corruption detected outside the runner loop (e.g. a bad binary
        // header rejected while opening the source).
        const StreamError& err = e.error();
        std::fprintf(stderr,
                     "corrupt input [%s] at event %llu, byte offset %llu: "
                     "%s\n",
                     stream_error_cause_name(err.cause),
                     static_cast<unsigned long long>(err.event_index),
                     static_cast<unsigned long long>(err.byte_offset),
                     err.message.c_str());
        return 4;
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
