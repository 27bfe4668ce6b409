#pragma once

/**
 * @file
 * AeroDromeCore — the per-thread layer the paper's Algorithms 1-3 share.
 *
 * All three algorithms keep, for every thread t:
 *  - C_t, the timestamp of t's last event, and C_t^b, the timestamp of
 *    t's last outermost begin (ClockBanks c_ / cb_, one row per thread);
 *  - a purity bit c_pure_[t] iff C_t == bot[C_t(t)/t], which drives the
 *    O(1) fast paths, and a bit recv_[t] that every join into C_t sets
 *    when it may have raised a foreign component (cleared at t's
 *    outermost begin; Algorithm 3's hasIncomingEdge reads it).
 * and apply the same discipline to them: the outermost begin ticks C_t
 * and copies it into C_t^b; fork joins C_t into the child; join, acquire
 * and every access run checkAndGet(clk, t) — a violation iff t has an
 * active transaction whose begin is ordered before clk, otherwise
 * C_t := C_t |_| clk; and the outermost end pushes C_t into every peer
 * whose clock saw the begin. Timestamps obey the lightweight-timestamp
 * invariant — for an event e1 of thread t1, C_{e1} sqsubseteq C_{e2} iff
 * C_{e1}(t1) <= C_{e2}(t1) — so the shared checks compare one component;
 * Algorithm 1 (AeroDromeBasic) keeps its literal vector-form checks.
 *
 * The engines differ only in their per-variable and per-lock state and
 * in how an end sweeps it. That state lives in one AdaptiveClockTable
 * (tbl_, vc/adaptive_clock.hpp): an entry is a compact epoch until first
 * contention and a shared-arena row after. An end does not scan the
 * table: the outermost begin opens t's update window with gate cb_t(t),
 * every later table mutation whose source clock is ordered after that
 * begin enrolls its entry, and the end drains the window — O(|updated
 * since begin|), with set_update_sets(false) restoring the literal
 * full-table sweep (src/vc/README.md, "End-event complexity").
 *
 * Reclamation (src/vc/README.md, "Reclamation") is always on:
 * rows_of() translates each event's threads into recycled slots, and a
 * joined thread's slot is retired — its same-owner facts expire, its
 * clock continues one past every value it minted, its window closes —
 * and reissued to the next new thread. GcSweeper resets dead table
 * entries at outermost ends. set_gc(false) is the tests' reference path.
 *
 * An engine derives from this class, adds its per-variable state, its
 * access handlers and its end sweep, and grows and resets per-thread
 * fields of its own in grow_thread_rows() / retire_thread_row().
 */

#include <cstdint>
#include <vector>

#include "analysis/checker.hpp"
#include "analysis/thread_slots.hpp"
#include "analysis/txn_tracker.hpp"
#include "support/inline.hpp"
#include "trace/event.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/gc.hpp"

namespace aero {

/** Statistics for the evaluation harness. */
struct AeroDromeStats {
    /** Number of vector-clock join operations performed. */
    uint64_t joins = 0;
    /** Number of vector-clock ordering comparisons performed. */
    uint64_t comparisons = 0;
    /** Table entries visited by end-event sweeps: the update-window
     *  size when tracked, the whole table when not — the
     *  complexity-guard suite asserts this scales with the former. */
    uint64_t end_swept_entries = 0;
    /** Visited entries whose propagation gate was false (enrollment is an
     *  over-approximation; a full sweep skips most of the table). */
    uint64_t end_gate_skipped = 0;
    /** Variables a slot retirement visited (basic: the retiree's reader
     *  list; the others visit none), never the whole table — the gc
     *  suite's join-cost guard asserts this. */
    uint64_t retire_visited = 0;
};

/** The per-thread state and bookkeeping of every AeroDrome engine. */
class AeroDromeCore : public CheckerBase {
public:
    const AeroDromeStats& stats() const { return stats_; }

    /** Epoch-adaptive storage statistics (hits, inflations). */
    const AdaptiveClockStats& epoch_stats() const { return tbl_.stats(); }

    /** Toggle the epoch representation and its purity fast paths; call
     *  before the first event. Off reproduces the full-vector baseline. */
    void
    set_epochs(bool on)
    {
        epochs_ = on;
        tbl_.set_epochs_enabled(on);
    }

    /** Toggle end-event update windows; call before the first event.
     *  Off is the tests' full-table sweep reference path. */
    void set_update_sets(bool on) { tbl_.set_update_sets_enabled(on); }

    /** Reclamation (clock-entry GC + thread-slot recycling) is always
     *  on; set_gc(false) before the first event is the tests' reference
     *  path without it. */
    void set_gc(bool on) override { gc_ = on; }
    bool gc_enabled() const { return gc_; }

    /** Test hook: with gc on, run a full sweep every n outermost end
     *  events instead of waiting for the arena-growth trigger (0 restores
     *  the trigger). Makes parity fuzzing reclaim as aggressively as
     *  possible. */
    void set_gc_sweep_every(uint32_t n) { sweeper_.set_every(n); }

    uint64_t gc_sweeps() const { return sweeper_.sweeps(); }
    const ThreadSlotMap& thread_slots() const { return slots_; }

    StatList counters() const override { return counters_with({}); }

    size_t memory_bytes() const override;

protected:
    /** An engine's own per-thread fields, grown to n rows after the
     *  core's (rows are only ever added). */
    virtual void grow_thread_rows(size_t /*n*/) {}

    /** Reset an engine's own per-thread fields for row s, which is being
     *  retired for reissue. */
    virtual void retire_thread_row(uint32_t /*s*/) {}

    /** Purity of C_u as consumed by fast paths (gated by the toggle). */
    bool
    pure_of(ThreadId u) const
    {
        return epochs_ && c_pure_[u] != 0;
    }

    /** The rows an event acts on: its actor's and, for fork and join, its
     *  target's (every other target is a variable or lock id and passes
     *  through). Under gc rows are recycled slots. */
    struct Rows {
        ThreadId t;
        ThreadId target;
    };
    AERO_ALWAYS_INLINE Rows
    rows_of(const Event& e)
    {
        const bool thread_target = e.op == Op::kFork || e.op == Op::kJoin;
        if (!gc_) {
            ensure_thread(e.tid);
            if (thread_target)
                ensure_thread(e.target);
            return {e.tid, e.target};
        }
        const ThreadId t = slot_of(e.tid);
        return {t, thread_target ? slot_of(e.target) : e.target};
    }

    AERO_ALWAYS_INLINE void
    ensure_thread(ThreadId t)
    {
        if (t >= c_.rows())
            add_threads(size_t{t} + 1);
    }

    /** Grow every per-thread structure to n rows; C_u := bot[1/u] for
     *  each new row u. */
    void add_threads(size_t n);

    /** reserve()'s thread half. */
    void reserve_threads(uint32_t threads);

    /** Outermost begin of t: tick C_t, copy it into C_t^b and open t's
     *  update window. False (and nothing done) for a nested begin. */
    bool
    begin_txn(ThreadId t)
    {
        if (!txns_.on_begin(t))
            return false;
        c_[t].tick(t); // purity preserved: the own component grew
        cb_[t].assign(c_[t]);
        recv_[t] = 0;
        // The tick minted cb_t(t) fresh: no table entry satisfies the end
        // gate yet, so the window starts provably empty.
        tbl_.open_update_window(t, cb_[t].get(t));
        return true;
    }

    /** Fork of `target` by t: C_target := C_target |_| C_t. */
    void fork_thread(ThreadId t, ThreadId target);

    /** After t's join of `target` absorbed its clock: the joined thread
     *  is dead, so under gc its row is retired for reissue. */
    void
    joined(ThreadId t, ThreadId target)
    {
        if (gc_ && target != t)
            retire_slot(target);
    }

    /** After an outermost end that reported nothing: a clock-entry GC
     *  sweep if one is due. True iff its table walk ran. */
    bool
    gc_after_end()
    {
        return gc_ && sweeper_.maybe_sweep(tbl_, c_, slots_.bindings(), txns_);
    }

    /** C_t^b(t) <= comp: t's begin is ordered at or before a clock whose
     *  component t is `comp` (one-component form). */
    bool
    begin_before(ThreadId t, ClockValue comp) const
    {
        return cb_[t].get(t) <= comp;
    }

    /** C_t := C_t |_| table entry i, noting a raised foreign component. */
    AERO_ALWAYS_INLINE void
    absorb_entry(ThreadId t, size_t i)
    {
        if (tbl_.join_into(c_[t], i, t, c_pure_[t]))
            recv_[t] = 1;
    }

    /** C_t := C_t |_| clk, the clock of thread src (pure iff src_pure). */
    void
    absorb_clock(ThreadId t, ConstClockRef clk, ThreadId src, bool src_pure)
    {
        if (join_qualified(c_[t], t, c_pure_[t], clk, src, src_pure))
            recv_[t] = 1;
    }

    /** checkAndGet where both the check and the join use table entry
     *  `slot` (locks, W_x). */
    AERO_ALWAYS_INLINE bool
    check_and_get_entry(size_t slot, ThreadId t, size_t index,
                        const char* reason)
    {
        return check_and_get_entry2(slot, slot, t, index, reason);
    }

    /** checkAndGet checking `check_slot` but joining `join_slot` (the
     *  hR_x / R_x pair at writes). */
    AERO_ALWAYS_INLINE bool
    check_and_get_entry2(size_t check_slot, size_t join_slot, ThreadId t,
                         size_t index, const char* reason)
    {
        ++stats_.comparisons;
        // Bottom passes every check: an active t's begin component is
        // at least 1.
        if (!tbl_.is_bottom_epoch(check_slot) && txns_.active(t) &&
            begin_before(t, tbl_.get(check_slot, t)))
            return fail(index, t, reason);
        ++stats_.joins;
        absorb_entry(t, join_slot);
        return false;
    }

    /** checkAndGet against the clock of thread `src` (pure iff src_pure). */
    bool check_and_get_clock(ConstClockRef clk, ThreadId src, bool src_pure,
                             ThreadId t, size_t index, const char* reason);

    /** Outermost end of t, first half: checkAndGet(C_t, u) for every peer
     *  u whose clock saw t's begin. True iff a violation was declared. */
    bool propagate_to_peers(ThreadId t, size_t index);

    /** Report a violation charged to row t (out of line: the cold end of
     *  every inlined check). */
    bool fail(size_t index, ThreadId t, const char* reason);

    /** counters(): joins, comparisons, then `extra`, then the table,
     *  window, GC and slot counters every engine reports. */
    StatList counters_with(StatList extra) const;

    TxnTracker txns_;

    ClockBank c_;  // C_t, one row per thread
    ClockBank cb_; // C_t^begin, one row per thread

    /** The engine's per-variable and per-lock clocks, with the update
     *  windows its end sweep drains. */
    AdaptiveClockTable tbl_;

    /** c_pure_[t] iff C_t == bot[C_t(t)/t]; recv_[t] iff a join since
     *  t's outermost begin may have raised a foreign component of C_t.
     *  Both sound but conservative. */
    std::vector<uint8_t> c_pure_;
    std::vector<uint8_t> recv_;
    bool epochs_ = true;

    /** Dead-state reclamation (src/vc/README.md, "Reclamation"). With
     *  gc_ on, every per-thread row is a recycled *slot*. */
    bool gc_ = true;
    ThreadSlotMap slots_;
    /** Owner words for the engines' last-writer / last-releaser facts. */
    SlotTags tags_;
    GcSweeper sweeper_;

    AeroDromeStats stats_;

private:
    /** Row for external tid `ext` under gc (allocating reuse-first). */
    AERO_ALWAYS_INLINE uint32_t
    slot_of(ThreadId ext)
    {
        const uint32_t s = slots_.resolve(ext);
        ensure_thread(s);
        return s;
    }

    /** Retire the joined thread in row s: expire its same-owner facts,
     *  continue the clock one past every value it minted, and hand the
     *  row back for reissue. Refused (row leaks, stays live) if an
     *  ill-formed trace joins a thread mid-transaction. */
    void retire_slot(uint32_t s);
};

} // namespace aero
