#pragma once

/**
 * @file
 * The common streaming interface implemented by every atomicity checker in
 * this repository (AeroDrome variants, Velodrome, and adapters around the
 * offline oracle).
 *
 * Checkers are online: they see one event at a time, never the whole trace,
 * and halt at the first violation — matching the paper's setting where the
 * algorithm "exits" when a conflict-serializability violation is declared.
 */

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/event.hpp"
#include "vc/clock_bank.hpp"
#include "vc/vector_clock.hpp"

namespace aero {

/** Named statistic counters a checker exposes for reports. */
using StatList = std::vector<std::pair<std::string, uint64_t>>;

/** Evidence attached to a detected conflict-serializability violation. */
struct Violation {
    /** Index in the trace of the event at which the violation fired. */
    size_t event_index = 0;
    /** Thread whose active transaction the violation was charged to. */
    ThreadId thread = kNoThread;
    /** Which check fired (human-readable, e.g. "read saw write clock"). */
    std::string reason;
    /** Shard whose engine fired (0 for single-engine runs; see
     *  src/shard/). Assigned by the sharded runner's verdict join. */
    uint32_t shard = 0;
};

/**
 * A snapshot of the per-thread clocks C_t of one engine — the currency of
 * the sharded runner's frontier merge (src/shard/). Stored flat
 * (row-major, `threads` rows of `dim` components) so export/merge/adopt
 * are allocation-free streaming loops once the buffers are warm.
 */
struct ClockFrontier {
    uint32_t threads = 0;
    uint32_t dim = 0;
    std::vector<ClockValue> values; ///< threads * dim, row t at t * dim

    void
    reset(uint32_t t, uint32_t d)
    {
        threads = t;
        dim = d;
        values.assign(static_cast<size_t>(t) * d, 0);
    }

    ClockValue
    get(uint32_t t, uint32_t j) const
    {
        return (t < threads && j < dim)
                   ? values[static_cast<size_t>(t) * dim + j]
                   : 0;
    }

    void
    set(uint32_t t, uint32_t j, ClockValue v)
    {
        values[static_cast<size_t>(t) * dim + j] = v;
    }

    /** *this := *this |_| o, pointwise max, growing to cover both. */
    void
    join(const ClockFrontier& o)
    {
        if (o.threads > threads || o.dim > dim) {
            ClockFrontier grown;
            grown.reset(std::max(threads, o.threads), std::max(dim, o.dim));
            for (uint32_t t = 0; t < threads; ++t)
                for (uint32_t j = 0; j < dim; ++j)
                    grown.set(t, j, get(t, j));
            *this = std::move(grown);
        }
        if (o.threads == threads && o.dim == dim) {
            // Steady state of the sharded runner's merge: identical
            // layouts, so the join is one flat pointwise-max sweep over
            // the whole buffer (SIMD kernel, no per-row bounds checks).
            vck::join(values.data(), o.values.data(), o.values.size());
            return;
        }
        for (uint32_t t = 0; t < o.threads; ++t) {
            for (uint32_t j = 0; j < o.dim; ++j) {
                ClockValue v = o.get(t, j);
                size_t at = static_cast<size_t>(t) * dim + j;
                if (v > values[at])
                    values[at] = v;
            }
        }
    }
};

/**
 * A checkpoint of one engine's *per-thread* analysis context: the clocks
 * C_t, the begin clocks C_t^b, and the transaction nesting state — the
 * currency of the sharded runner's suspect-window confirmation replay
 * (src/shard/). Joining the seeds of every shard yields a sound
 * under-approximation of the single-engine per-thread context at a merge
 * barrier; reseeding a fresh engine from it lets the runner sequentially
 * re-check the event window since that barrier with the transaction
 * structure (depths, begin counters) intact. Per-variable and per-lock
 * clocks are deliberately absent: they are partitioned state, and a
 * missing (bottom) clock only ever makes the replay engine fire *less*,
 * never more — so a replay verdict is always real.
 */
struct EngineSeed {
    ClockFrontier clocks;       ///< C_t, one row per thread
    ClockFrontier begin_clocks; ///< C_t^b, one row per thread
    std::vector<uint32_t> txn_depth; ///< begin/end nesting per thread
    std::vector<uint64_t> txn_seq;   ///< transaction instance counters
    /** Slot-recycling state (engines running with gc on; see
     *  src/vc/README.md "Reclamation"). Rows of the clock frontiers are
     *  *slots* then, not external thread ids: slot_ext[s] is the external
     *  tid bound to slot s (kNoThread when free) and slot_free lists the
     *  free slots in allocation order. Slot maps are derived solely from
     *  replicated fork/join events, so every shard agrees on them. Empty
     *  when gc is off (rows are external tids, the pre-gc layout). */
    std::vector<ThreadId> slot_ext;
    std::vector<ThreadId> slot_free;

    /** *this := *this |_| o. Clock frontiers join pointwise; the
     *  transaction and slot state is derived from replicated events and
     *  therefore identical in every shard, so max / copy-the-larger is a
     *  checked copy. */
    void
    join(const EngineSeed& o)
    {
        clocks.join(o.clocks);
        begin_clocks.join(o.begin_clocks);
        if (o.txn_depth.size() > txn_depth.size())
            txn_depth.resize(o.txn_depth.size(), 0);
        for (size_t t = 0; t < o.txn_depth.size(); ++t)
            txn_depth[t] = std::max(txn_depth[t], o.txn_depth[t]);
        if (o.txn_seq.size() > txn_seq.size())
            txn_seq.resize(o.txn_seq.size(), 0);
        for (size_t t = 0; t < o.txn_seq.size(); ++t)
            txn_seq[t] = std::max(txn_seq[t], o.txn_seq[t]);
        if (o.slot_ext.size() > slot_ext.size())
            slot_ext = o.slot_ext;
        if (o.slot_free.size() > slot_free.size())
            slot_free = o.slot_free;
    }
};

/** Streaming conflict-serializability checker. */
class AtomicityChecker {
public:
    virtual ~AtomicityChecker() = default;

    /** Checker name for reports ("AeroDrome", "Velodrome", ...). */
    virtual std::string_view name() const = 0;

    /**
     * Process the next event of the trace.
     *
     * @param e the event
     * @param index its position in the trace (for violation reporting)
     * @return true if this event triggered a violation; the checker must
     *         not be fed further events afterwards.
     */
    virtual bool process(const Event& e, size_t index) = 0;

    /**
     * Optional capacity hint: the trace will mention at most this many
     * threads/variables/locks. Engines backed by contiguous arenas
     * (ClockBank) use it to size their storage once, up front, instead of
     * re-laying arenas out as ids appear mid-run. Ids beyond the hint
     * still work; this is purely a performance hint.
     */
    virtual void reserve(uint32_t /*threads*/, uint32_t /*vars*/,
                         uint32_t /*locks*/)
    {}

    /**
     * Named throughput counters (joins, comparisons, epoch hits,
     * inflations, ...) for the runner's report output. Engines override
     * this to surface their internal statistics; the default is empty.
     *
     * Engines back these with single-writer relaxed atomics
     * (support/counter.hpp), so counters() may be called from another
     * thread while the engine is still processing events.
     */
    virtual StatList counters() const { return {}; }

    /**
     * Approximate bytes of analysis state this engine holds (clock banks,
     * adaptive tables, bookkeeping vectors). Surfaced per shard through
     * ShardRunResult::shard_memory_bytes; 0 when the engine does not
     * account for itself.
     */
    virtual size_t memory_bytes() const { return 0; }

    /**
     * Toggle dead-state reclamation (clock-entry GC + thread-slot
     * recycling; src/vc/README.md "Reclamation") before the first event.
     * Every engine that reclaims does so by default; set_gc(false) is
     * the reference path the differential, golden and soak tests compare
     * against. Verdicts are bit-identical either way. Engines without a
     * reclamation path ignore the call.
     */
    virtual void set_gc(bool /*on*/) {}

    /**
     * Sharded-checking support (src/shard/README.md). An engine that
     * maintains per-thread clocks C_t can run as one shard of a
     * ShardedRunner: it must export its clock frontier and adopt a merged
     * frontier (a pointwise upper bound of every shard's C_t) between
     * events. Adoption must only *grow* clocks — it joins the merged
     * frontier in — and must invalidate any cached facts that assumed
     * C_t was unchanged (purity bits, same-epoch versions).
     *
     * Engines without per-thread clocks (the graph-based Velodrome
     * baseline) leave these unimplemented and cannot be sharded.
     */
    virtual bool supports_frontier() const { return false; }

    /**
     * True when the engine's conflict checks may consult another
     * thread's *live* clock instead of a published snapshot (the lazy
     * stale-write/stale-reader proxies of Algorithm 3). The sharded
     * runner's merge planner must then merge out every owned-access
     * clock growth of a transaction that spans shards (rule E5); eager
     * engines skip those barriers.
     */
    virtual bool uses_live_clock_proxies() const { return false; }

    /** Snapshot the per-thread clocks into `out` (resets it first). */
    virtual void
    export_frontier(ClockFrontier& out) const
    {
        out.reset(0, 0);
    }

    /** C_t := C_t |_| in[t] for every thread, creating threads the
     *  engine has not seen yet. */
    virtual void adopt_frontier(const ClockFrontier& in) { (void)in; }

    /**
     * Snapshot the per-thread analysis context (C_t, C_t^b, transaction
     * nesting) into `seed` — the replay-confirmation counterpart of
     * export_frontier. Engines that support_frontier() implement both.
     */
    virtual void
    export_seed(EngineSeed& seed) const
    {
        seed.clocks.reset(0, 0);
        seed.begin_clocks.reset(0, 0);
        seed.txn_depth.clear();
        seed.txn_seq.clear();
    }

    /**
     * Restore a (typically joined) per-thread context into a *fresh*
     * engine: grows thread state, joins the clock and begin-clock
     * frontiers in, and re-opens transactions at the recorded depths.
     * Like adopt_frontier, reseeding must invalidate any cached facts
     * that assumed the clocks were unchanged. Per-variable/per-lock
     * clocks start at bottom — sound for confirmation replay.
     */
    virtual void reseed(const EngineSeed& seed) { (void)seed; }

    /** True once a violation has been detected. */
    virtual bool has_violation() const = 0;

    /** Violation details, present iff has_violation(). */
    virtual const std::optional<Violation>& violation() const = 0;
};

/**
 * Shared base handling violation storage; subclasses call report() and
 * return its value from process().
 */
class CheckerBase : public AtomicityChecker {
public:
    bool has_violation() const override { return violation_.has_value(); }

    const std::optional<Violation>&
    violation() const override
    {
        return violation_;
    }

protected:
    /** Record a violation; returns true for convenient tail-return. */
    bool report(size_t index, ThreadId thread, std::string reason);

    std::optional<Violation> violation_;
};

} // namespace aero
