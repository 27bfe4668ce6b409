#pragma once

/**
 * @file
 * AdaptiveClockTable — epoch-adaptive storage for a family of clocks that
 * are epochs (vc/epoch.hpp) in the uncontended common case and ClockBank
 * rows once contended.
 *
 * Every entry is one tagged 64-bit word:
 *
 *   bit 63 = 0:  the entry IS the vector bot[v/t], packed as an Epoch
 *                (value v in bits 0..31, thread t in bits 32..62);
 *   bit 63 = 1:  bits 0..62 index a row of the shared inflation arena
 *                (a ClockBank) holding the full vector.
 *
 * Promotion is one-way: the first operation whose result is not
 * epoch-shaped inflates the entry into a fresh arena row, and the entry
 * stays inflated for the rest of the run ("promote on first contention,
 * never demote"). Because only contended entries ever inflate, the arena
 * is a *combined bank region* holding exactly the slow-path rows of every
 * clock family an engine hands to one table (locks, W_x, R_x, hR_x,
 * R_{t,x}), which is what makes the end-event propagation sweep a single
 * streaming pass (see the engines' handle_end).
 *
 * Exactness. The table is a representation change, not an approximation:
 * after every operation, the abstract vector an entry denotes equals the
 * one the full-vector code path would have computed, so engine verdicts
 * are bit-for-bit independent of the epochs on/off toggle (enforced by
 * the differential suite). The O(1) fast paths rely on callers passing a
 * *purity* bit for source clocks — "this clock equals bot[c[t]/t]" — that
 * must be sound (may be conservatively false, never wrongly true).
 *
 * Toggle: entries behave as always-inflated when epochs are disabled
 * (set_epochs_enabled(false), the tests' full-vector reference path),
 * which is the PR 1 ClockBank representation plus one indirection.
 */

#include <cassert>
#include <cstdint>
#include <vector>

#include "trace/event.hpp"
#include "vc/clock_bank.hpp"
#include "vc/epoch.hpp"
#include "vc/gc.hpp"

namespace aero {

/** Counters for the evaluation harness and the runner's report. */
struct AdaptiveClockStats {
    /** Operations resolved in O(1): the entry stayed (or was read as) an
     *  epoch, or a pure source reduced the update to one component of an
     *  inflated row. The "fast path carried it" count. */
    uint64_t epoch_fast = 0;
    /** O(dim) operations on inflated entries (the bank slow path). */
    uint64_t vector_ops = 0;
    /** Entries promoted epoch -> arena row. */
    uint64_t inflations = 0;
    /** Entries enrolled into a thread's update window (unique per
     *  (entry, open window); see open_update_window). */
    uint64_t upd_enrolled = 0;
    /** Dead entries reset to bottom by gc_reclaim (README,
     *  "Reclamation"). */
    uint64_t gc_reclaimed = 0;
    /** Arena rows returned to the row free-list by gc_reclaim. */
    uint64_t gc_rows_freed = 0;
};

/**
 * Join `src` (the clock of thread `src_thread`, pure iff `src_pure`) into
 * `dst` (the clock of thread `dst_thread`), maintaining dst's purity flag.
 * This is the engines' C_t := C_t |_| clk step with the O(1) pure-source
 * fast path. Returns false only if no component of dst other than
 * dst_thread changed (conservative: a vector join returns true).
 */
inline bool
join_qualified(ClockRef dst, ThreadId dst_thread, uint8_t& dst_pure,
               ConstClockRef src, ThreadId src_thread, bool src_pure)
{
    if (src_pure) {
        // src == bot[v/src_thread]: a one-component join.
        ClockValue v = src.get(src_thread);
        if (v > dst.get(src_thread)) {
            dst.set(src_thread, v);
            if (src_thread != dst_thread) {
                dst_pure = 0;
                return true;
            }
        }
        return false;
    }
    if (dst.data() == src.data())
        return false; // self-join is the identity
    if (dst_pure && src.is_bottom())
        return false; // joining bottom preserves purity
    dst.join(src);
    dst_pure = 0; // conservative: src may have foreign components
    return true;
}

/** A family of epoch-adaptive clocks sharing one inflation arena. */
class AdaptiveClockTable {
public:
    /** Toggle the epoch representation (call before feeding events; with
     *  epochs off every entry inflates on first mutation). */
    void set_epochs_enabled(bool on) { epochs_ = on; }
    bool epochs_enabled() const { return epochs_; }

    size_t size() const { return entries_.size(); }
    size_t dim() const { return arena_.dim(); }

    /** Append one bottom entry; returns its index. Callers relying on
     *  consecutive indices (the engines' per-variable W/R/hR triples)
     *  must use this, never add_entry_reusable. */
    uint32_t
    add_entry()
    {
        entries_.push_back(0);
        return static_cast<uint32_t>(entries_.size() - 1);
    }

    /** Reserve capacity for n entries (no entry is added). */
    void reserve_entries(size_t n) { entries_.reserve(n); }

    /** Like add_entry, but prefers indices returned by gc_recycle_index
     *  (the retired per-thread reader entries of the basic engine), so a
     *  churning thread population reuses entry words instead of growing
     *  the table forever. */
    uint32_t
    add_entry_reusable()
    {
        if (!free_entries_.empty()) {
            uint32_t i = free_entries_.back();
            free_entries_.pop_back();
            return i;
        }
        return add_entry();
    }

    /** Grow the arena clock dimension (threads seen; engines keep all
     *  their banks and tables at one shared dimension). */
    void ensure_dim(size_t d) { arena_.ensure_dim(d); }

    // --- Per-thread update windows (Algorithm 3's update sets, lifted to
    // --- table entries) -----------------------------------------------------
    //
    // A window tracks, for one thread t with an active transaction, every
    // entry whose end-event gate `cb_t(t) <= entry(t)` can possibly fire.
    // The gate value cb_t(t) is minted fresh by the tick at t's outermost
    // begin, so no entry can satisfy the gate when the window opens; an
    // entry can only come to satisfy it through a later assign/join whose
    // *source clock* already carries component t at or above the gate —
    // which is exactly when the mutators below enroll the entry. Window
    // sweeps at end events may therefore visit only the enrolled entries
    // instead of the whole table; enrollment is an over-approximation
    // (assign can lower a component again), so sweeps still apply the
    // real gate. Gate values are frozen for the life of a transaction:
    // cb_t changes only at t's own outermost begin, which reopens the
    // window.

    /** Toggle update-set tracking (default on; call before feeding
     *  events). Off = every window untracked = full-table end sweeps, the
     *  tests' reference path. */
    void set_update_sets_enabled(bool on) { upd_sets_ = on; }
    bool update_sets_enabled() const { return upd_sets_; }

    /**
     * Open thread t's window with gate `gate` (= cb_t(t) right after the
     * outermost begin), clearing any previous enrollment. A zero gate —
     * impossible on well-formed state — leaves the window untracked.
     */
    void
    open_update_window(ThreadId t, ClockValue gate)
    {
        if (!upd_sets_)
            return;
        if (t >= upd_.size()) {
            upd_.resize(t + 1);
            upd_gate_.resize(t + 1, 0);
            upd_tracked_.resize(t + 1, 0);
        }
        if (upd_tracked_[t])
            close_update_window(t); // an end that reported left it open
        if (gate == 0)
            return;
        upd_tracked_[t] = 1;
        upd_gate_[t] = gate;
        open_windows_.push_back(t);
    }

    /** Stop enrolling into t's window but keep its entries readable —
     *  called at the top of an end sweep so the sweep's own joins no
     *  longer append to the list being iterated. */
    void
    seal_update_window(ThreadId t)
    {
        if (t < upd_gate_.size() && upd_gate_[t] != 0) {
            upd_gate_[t] = 0;
            for (size_t k = 0; k < open_windows_.size(); ++k) {
                if (open_windows_[k] == t) {
                    open_windows_[k] = open_windows_.back();
                    open_windows_.pop_back();
                    break;
                }
            }
        }
    }

    /**
     * t's end sweep: seal t's window (so joins made by `visit` enroll
     * only into other threads' windows), call visit(i) once per enrolled
     * entry — every entry of the table when the window is untracked —
     * and close it.
     */
    template <class Visit>
    void
    drain_update_window(ThreadId t, Visit&& visit)
    {
        seal_update_window(t);
        if (!update_window_tracked(t)) { // sealed and empty already
            for (uint32_t i = 0; i < size(); ++i)
                visit(i);
            return;
        }
        UpdWindow& w = upd_[t];
        for (uint32_t i : w.list) {
            w.member[i >> 6] = 0;
            visit(i);
        }
        w.list.clear();
        upd_tracked_[t] = 0;
    }

    /** Drop t's window entirely (after its end sweep, or when t's slot
     *  is retired). */
    void
    close_update_window(ThreadId t)
    {
        if (t >= upd_.size())
            return;
        seal_update_window(t);
        UpdWindow& w = upd_[t];
        for (uint32_t i : w.list)
            w.member[i >> 6] = 0;
        w.list.clear();
        upd_tracked_[t] = 0;
    }

    /** Enroll entry i into t's window directly, if it is open. For an
     *  engine whose lazy accesses defer the mutation that would enroll
     *  the entry (AeroDromeOpt's stale reads and writes), so that t's
     *  end sweep still visits the entries those accesses left pending. */
    void
    enroll_update_entry(ThreadId t, uint32_t i)
    {
        if (t < upd_gate_.size() && upd_gate_[t] != 0)
            enroll_into(t, i);
    }

    /** True iff t's end sweep visits only update_entries(t). */
    bool
    update_window_tracked(ThreadId t) const
    {
        return upd_sets_ && t < upd_.size() && upd_tracked_[t] != 0;
    }

    /** The threads whose window is open (every thread with an active
     *  transaction whose end sweep has not begun). Unordered. */
    const std::vector<uint32_t>& open_windows() const { return open_windows_; }

    /** The entries enrolled in t's window (valid while sealed, until
     *  close_update_window). Unordered; duplicates never occur. Callers
     *  must check update_window_tracked(t) first. */
    const std::vector<uint32_t>&
    update_entries(ThreadId t) const
    {
        assert(update_window_tracked(t));
        return upd_[t].list;
    }

    /** True iff entry i is the bottom epoch (O(1); an inflated row that
     *  is all zero reports false). */
    bool is_bottom_epoch(size_t i) const { return entries_[i] == 0; }

    bool
    is_inflated(size_t i) const
    {
        return (entries_[i] & kInflatedTag) != 0;
    }

    /** The entry as an epoch; valid iff !is_inflated(i). */
    Epoch
    epoch_at(size_t i) const
    {
        assert(!is_inflated(i));
        return Epoch::from_bits(entries_[i]);
    }

    /** The entry's arena row; valid iff is_inflated(i). Invalidated by
     *  any operation that may inflate another entry. */
    ConstClockRef
    row_at(size_t i) const
    {
        assert(is_inflated(i));
        return arena_[entries_[i] & ~kInflatedTag];
    }

    /** Component t of entry i. O(1) for both representations. */
    ClockValue
    get(size_t i, size_t t) const
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return arena_[bits & ~kInflatedTag].get(t);
        return Epoch::from_bits(bits).get(t);
    }

    bool
    is_bottom(size_t i) const
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return arena_[bits & ~kInflatedTag].is_bottom();
        return Epoch::from_bits(bits).is_bottom();
    }

    /** entry_i := c, where c is thread t's clock (pure iff c_pure). */
    void
    assign(size_t i, ConstClockRef c, ThreadId t, bool c_pure)
    {
        if (!open_windows_.empty())
            enroll(i, c, t, c_pure, /*zero_t=*/false);
        if (epochs_ && c_pure && !is_inflated(i)) {
            entries_[i] = Epoch(c.get(t), t).bits();
            ++stats_.epoch_fast;
            return;
        }
        assign_slow(i, c, t, c_pure);
    }

    /** entry_i := entry_i |_| c. */
    void
    join(size_t i, ConstClockRef c, ThreadId t, bool c_pure)
    {
        if (!open_windows_.empty())
            enroll(i, c, t, c_pure, /*zero_t=*/false);
        uint64_t bits = entries_[i];
        if (c_pure) {
            ClockValue v = c.get(t);
            if (bits & kInflatedTag) {
                // One-component join into the existing row.
                ClockRef row = mut_row(bits);
                if (v > row.get(t))
                    row.set(t, v);
                ++stats_.epoch_fast;
                return;
            }
            Epoch e = Epoch::from_bits(bits);
            if (epochs_ && (e.is_bottom() || e.thread() == t)) {
                ClockValue cur = e.thread() == t ? e.value() : 0;
                entries_[i] = Epoch(v > cur ? v : cur, t).bits();
                ++stats_.epoch_fast;
                return;
            }
            if (v == 0) {
                ++stats_.epoch_fast;
                return; // joining bottom
            }
        }
        join_slow(i, c, t, c_pure);
    }

    /** entry_i := entry_i |_| c[0/t] (the hR_x update). A pure source is
     *  a complete no-op: bot[v/t] with component t zeroed is bottom. */
    void
    join_except(size_t i, ConstClockRef c, ThreadId t, bool c_pure)
    {
        if (!open_windows_.empty())
            enroll(i, c, t, c_pure, /*zero_t=*/true);
        if (c_pure) {
            ++stats_.epoch_fast;
            return;
        }
        join_except_slow(i, c, t);
    }

    /** dst := dst |_| entry_i, maintaining dst's purity flag (dst is the
     *  clock of dst_thread). The engines' C_t |_|= W_x / R_x step.
     *  Returns false only if no component of dst other than dst_thread
     *  changed (conservative: an inflated entry returns true). */
    bool
    join_into(ClockRef dst, size_t i, ThreadId dst_thread, uint8_t& dst_pure)
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return join_row_into(dst, bits, dst_pure);
        Epoch e = Epoch::from_bits(bits);
        if (e.is_bottom())
            return false; // joining bottom: no work, no accounting
        ++stats_.epoch_fast;
        if (e.value() > dst.get(e.thread())) {
            dst.set(e.thread(), e.value());
            if (e.thread() != dst_thread) {
                dst_pure = 0;
                return true;
            }
        }
        return false;
    }

    /**
     * a sqsubseteq entry_i, where a is the clock of a_thread (pure iff
     * a_pure). The full-vector comparison form used by the basic engine;
     * O(1) when either side is epoch-shaped.
     */
    bool
    vector_leq_entry(ConstClockRef a, size_t i, ThreadId a_thread,
                     bool a_pure) const
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return a.leq(arena_[bits & ~kInflatedTag]);
        Epoch e = Epoch::from_bits(bits);
        if (a_pure) {
            // bot[a_t/a_thread] sqsubseteq bot[v/u]: one component test.
            return a.get(a_thread) <= e.get(a_thread);
        }
        if (a.get(e.thread()) > e.value())
            return false;
        for (size_t j = 0; j < a.dim(); ++j) {
            if (j != e.thread() && a.get(j) != 0)
                return false;
        }
        return true;
    }

    /** Materialise entry i as a scalar VectorClock (tests, reports). */
    VectorClock
    to_vector_clock(size_t i) const
    {
        if (is_inflated(i))
            return row_at(i).to_vector_clock();
        return epoch_at(i).to_vector_clock();
    }

    // --- Reclamation (gc) ---------------------------------------------------
    //
    // The frontier argument is the live-thread minimum of vc/gc.hpp. An
    // entry strictly below it at every non-bottom component can never
    // fire a gate again and every live clock already strictly dominates
    // it (its future joins are no-ops), so resetting it to bottom is
    // invisible to verdicts — see src/vc/README.md, "Reclamation". This
    // is the one sanctioned exception to one-way promotion: a reclaimed
    // inflated entry demotes to the bottom *epoch* word and its arena row
    // joins a free-list that inflate() drains before growing the arena.

    /** True iff entry i can never fire a gate again under frontier f.
     *  Bottom epoch entries report false (nothing to reclaim); bottom
     *  arena rows report true (the row itself is reclaimable). */
    bool
    gc_dead(size_t i, const GcFrontier& f) const
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return f.dead_row(arena_[bits & ~kInflatedTag]);
        Epoch e = Epoch::from_bits(bits);
        return !e.is_bottom() && f.dead_component(e.thread(), e.value());
    }

    /** Reset dead entry i to bottom in place, returning its arena row
     *  (if any) to the row free-list. The caller must have established
     *  deadness via gc_dead. */
    void
    gc_reclaim(size_t i)
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag) {
            size_t r = bits & ~kInflatedTag;
            arena_[r].clear();
            free_rows_.push_back(r);
            ++stats_.gc_rows_freed;
        }
        entries_[i] = 0;
        ++stats_.gc_reclaimed;
    }

    /** Return (already-bottom) entry i's index to the entry free-list
     *  for a future add_entry_reusable. The caller must drop every
     *  reference to i first — the index will be handed out again. */
    void
    gc_recycle_index(uint32_t i)
    {
        assert(is_bottom(i));
        free_entries_.push_back(i);
    }

    /** Sweep the whole table against f, reclaiming every dead entry in
     *  place. Returns the number of live (non-bottom) entries left. */
    size_t
    gc_sweep(const GcFrontier& f)
    {
        size_t live = 0;
        const size_t n = entries_.size();
        for (size_t i = 0; i < n; ++i) {
            if (entries_[i] == 0)
                continue; // already bottom
            if (gc_dead(i, f))
                gc_reclaim(i);
            else
                ++live;
        }
        return live;
    }

    /** Arena rows currently backing inflated entries (total rows ever
     *  allocated minus the free-list) — the gc pressure signal. */
    size_t arena_rows_live() const { return arena_rows_ - free_rows_.size(); }
    /** Entry indices waiting for reuse via add_entry_reusable. */
    size_t free_entry_count() const { return free_entries_.size(); }

    const AdaptiveClockStats& stats() const { return stats_; }

    /** The inflation arena (tests, benchmarks). */
    const ClockBank& arena() const { return arena_; }
    size_t arena_rows() const { return arena_rows_; }

    /** Bytes held by the entry words, the inflation arena and the
     *  update-window bookkeeping (engine memory accounting). */
    size_t
    memory_bytes() const
    {
        size_t n = entries_.capacity() * sizeof(uint64_t) +
                   arena_.memory_bytes() +
                   upd_gate_.capacity() * sizeof(ClockValue) +
                   upd_tracked_.capacity() +
                   open_windows_.capacity() * sizeof(uint32_t) +
                   free_rows_.capacity() * sizeof(size_t) +
                   free_entries_.capacity() * sizeof(uint32_t);
        for (const UpdWindow& w : upd_) {
            n += sizeof(UpdWindow) + w.list.capacity() * sizeof(uint32_t) +
                 w.member.capacity() * sizeof(uint64_t);
        }
        return n;
    }

private:
    static constexpr uint64_t kInflatedTag = uint64_t{1} << 63;

    /** One thread's update window: enrolled entries as a list plus one
     *  membership bit per entry id (lazily sized) for O(1) dedup. */
    struct UpdWindow {
        std::vector<uint32_t> list;
        std::vector<uint64_t> member;
    };

    /**
     * Enroll entry i into the window of every thread u whose gate the
     * mutation `entry_i op= c` could make fireable: c's component u is at
     * or above u's gate. A pure source (c == bot[v/t]) carries only
     * component t, so only t's window needs the test; zero_t sources
     * (join_except, c[0/t]) contribute nothing through component t.
     */
    void
    enroll(size_t i, ConstClockRef c, ThreadId t, bool c_pure, bool zero_t)
    {
        if (c_pure) {
            if (!zero_t && t < upd_gate_.size()) {
                ClockValue g = upd_gate_[t];
                if (g != 0 && c.get(t) >= g)
                    enroll_into(t, static_cast<uint32_t>(i));
            }
            return;
        }
        for (uint32_t u : open_windows_) {
            if (zero_t && u == t)
                continue;
            if (c.get(u) >= upd_gate_[u])
                enroll_into(u, static_cast<uint32_t>(i));
        }
    }

    void
    enroll_into(ThreadId u, uint32_t i)
    {
        UpdWindow& w = upd_[u];
        const size_t word = i >> 6;
        const uint64_t bit = uint64_t{1} << (i & 63);
        if (word >= w.member.size())
            w.member.resize(word + 1, 0);
        if (!(w.member[word] & bit)) {
            w.member[word] |= bit;
            w.list.push_back(i);
            ++stats_.upd_enrolled;
        }
    }

    ClockRef
    mut_row(uint64_t bits)
    {
        return arena_[bits & ~kInflatedTag];
    }

    /** Promote entry i into a fresh (bottom) arena row; copies the old
     *  epoch's contents iff copy_contents. */
    ClockRef inflate(size_t i, bool copy_contents);

    /** join_into's inflated-entry half (`bits` names an arena row). */
    bool join_row_into(ClockRef dst, uint64_t bits, uint8_t& dst_pure);
    void assign_slow(size_t i, ConstClockRef c, ThreadId t, bool c_pure);
    void join_slow(size_t i, ConstClockRef c, ThreadId t, bool c_pure);
    void join_except_slow(size_t i, ConstClockRef c, ThreadId t);

    std::vector<uint64_t> entries_;
    ClockBank arena_;
    size_t arena_rows_ = 0;
    /** Arena rows freed by gc_reclaim, drained by inflate() before the
     *  arena grows; rows on the list are bottom. */
    std::vector<size_t> free_rows_;
    /** Entry indices freed by gc_recycle_index, drained by
     *  add_entry_reusable; entries on the list are bottom. */
    std::vector<uint32_t> free_entries_;
    bool epochs_ = true;
    bool upd_sets_ = true;
    /** Window per thread; upd_gate_[t] != 0 iff t's window is open (still
     *  enrolling); open_windows_ lists exactly those threads.
     *  upd_tracked_[t] != 0 from the window's open to its close. */
    std::vector<UpdWindow> upd_;
    std::vector<ClockValue> upd_gate_;
    std::vector<uint8_t> upd_tracked_;
    std::vector<uint32_t> open_windows_;
    AdaptiveClockStats stats_;
};

} // namespace aero
