#pragma once

/**
 * @file
 * AeroDrome, fully optimized — the paper's Algorithm 3 (Appendix C.2).
 *
 * Three optimizations over Algorithm 2:
 *
 * 1. Lazy clock updates ("Stale" sets). A variable repeatedly read (or
 *    written) by a thread inside one transaction does not update R_x/hR_x
 *    (resp. W_x) at every access. Instead the reader is recorded in the
 *    per-variable set staleReaders_x (resp. the flag staleWrite_x is set),
 *    and the flush happens at the next write to x or at transaction end.
 *    While a write is stale, conflict checks use the *live* clock of the
 *    writing thread: within one transaction that clock only adds orderings
 *    that hold at transaction granularity anyway, so verdicts are
 *    unaffected. Events *outside* transactions (unary transactions) are
 *    handled eagerly — their "transaction" completes immediately, so the
 *    live-clock proxy would be unsound for them.
 *
 * 2. Per-thread update sets. Algorithm 2 scans every variable at each end
 *    event. Here an end event sweeps only the entries enrolled in the
 *    ending thread's update window, the same table mechanism basic and
 *    readopt use (vc/adaptive_clock.hpp): a table mutation enrolls its
 *    entry into the window of every open transaction its source clock is
 *    ordered after, and a lazy access, which defers that mutation,
 *    enrolls its pending W_x or R_x entry into the accessing thread's own
 *    window, so an access costs O(1) whatever the thread count.
 *
 * 3. Garbage collection ("hasIncomingEdge"). A completed transaction that
 *    received no orderings from other threads since its begin (its clock is
 *    unchanged outside its own component) and whose forking transaction is
 *    no longer alive can never be part of a violating cycle — mirroring
 *    Velodrome's no-incoming-edge rule — so its end event skips the entire
 *    propagation phase and only settles its own lazy accesses. The test
 *    costs O(active transactions), whatever the thread count.
 *
 * All ordering tests use the one-component ("lightweight timestamp") form;
 * see aerodrome_readopt.hpp for why this is equivalent.
 *
 * Storage is epoch-adaptive (vc/adaptive_clock.hpp): L_l, W_x, R_x and
 * hR_x share one AdaptiveClockTable (a variable's W/R/hR are adjacent
 * entries), giving O(1) conflict checks and updates while the touched
 * state stays epoch-shaped, inflating into the shared arena on first
 * contention. Purity bits on C_t drive the fast paths.
 *
 * Per-variable and per-lock state is stored in first-touch order: a
 * variable's or lock's first access gives it the next dense record index
 * r and one 32-byte Record, and record r owns table entries 3r, 3r+1 and
 * 3r+2 (a variable's W_x / R_x / hR_x; a lock's L_l at 3r, the other two
 * never written). Entry i therefore belongs to record i / 3 in role
 * i % 3 whatever order locks and variables first appear in, which is
 * what lets an end sweep decode an entry in O(1) with no per-entry side
 * array. State used together sits together however scattered the ids
 * are, and an end event walks its window through records and table
 * entries laid out in first-touch order.
 */

#include <cstdint>
#include <iterator>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp" // for AeroDromeStats
#include "analysis/checker.hpp"
#include "analysis/thread_slots.hpp"
#include "analysis/txn_tracker.hpp"
#include "support/inline.hpp"
#include "trace/trace.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/gc.hpp"

namespace aero {

/** Extra statistics for the optimized engine. */
struct AeroDromeOptStats {
    /** End events whose propagation was skipped by hasIncomingEdge. */
    uint64_t gc_skipped_ends = 0;
    /** End events that ran the full propagation. */
    uint64_t propagated_ends = 0;
    /** Lazy read enrollments that avoided an eager clock join. */
    uint64_t lazy_reads = 0;
    /** Lazy write enrollments that avoided an eager clock copy. */
    uint64_t lazy_writes = 0;
};

/** AeroDrome, Algorithm 3 (lazy updates + update sets + GC). */
class AeroDromeOpt : public CheckerBase {
public:
    AeroDromeOpt(uint32_t num_threads, uint32_t num_vars,
                 uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome"; }

    bool process(const Event& e, size_t index) override;

    void reserve(uint32_t threads, uint32_t vars, uint32_t locks) override;

    const AeroDromeStats& stats() const { return stats_; }
    const AeroDromeOptStats& opt_stats() const { return opt_stats_; }

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

    /** Test hook: with gc on, sweep every n outermost ends (0 restores
     *  the arena-growth trigger). */
    void set_gc_sweep_every(uint32_t n) { sweeper_.set_every(n); }

    uint64_t gc_sweeps() const { return sweeper_.sweeps(); }
    const ThreadSlotMap& thread_slots() const { return slots_; }

    StatList counters() const override;

    size_t memory_bytes() const override;

private:
    /** Purity of C_u as consumed by fast paths (gated by the toggle). */
    bool
    pure_of(ThreadId u) const
    {
        return epochs_ && c_pure_[u] != 0;
    }

    /** External tid a violation at row t is charged to. */
    ThreadId
    rid(ThreadId t) const
    {
        if (!gc_)
            return t;
        ThreadId ext = slots_.ext_of(t);
        return ext == kNoThread ? t : ext;
    }

    /** Row for external tid `ext` under gc (allocating reuse-first). */
    AERO_ALWAYS_INLINE uint32_t
    slot_of(ThreadId ext)
    {
        bool fresh = false;
        uint32_t s = slots_.resolve(ext, fresh);
        ensure_thread(s);
        return s;
    }

    void retire_slot(uint32_t s);

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
        if (tbl_.join_into(c_[t], join_slot, t, c_pure_[t]))
            recv_[t] = 1;
        return false;
    }

    /** Report a violation charged to row t (out of line: the cold end of
     *  every inlined check). */
    bool fail(size_t index, ThreadId t, const char* reason);

    /** checkAndGet against the clock of thread `src` (pure iff src_pure). */
    bool check_and_get_clock(ConstClockRef clk, ThreadId src, bool src_pure,
                             ThreadId t, size_t index, const char* reason);

    bool
    begin_before(ThreadId t, ClockValue comp) const
    {
        return cb_[t].get(t) <= comp;
    }

    /** Algorithm 3's hasIncomingEdge(t), evaluated at t's end event. */
    bool has_incoming_edge(ThreadId t) const;

    /** The state of one touched variable x or lock l; record r owns
     *  table entries 3r (W_x or L_l), 3r+1 (R_x) and 3r+2 (hR_x). A lock
     *  record uses only `owner`: its stale_write stays 0 and its reader
     *  set empty, so an end sweep treats L_l exactly like a W_x with no
     *  pending write. Trivially copyable, so the record array relocates
     *  with a plain copy. */
    struct Record {
        /** Var: last writer of x, as an owner word of tags_. Lock: last
         *  releaser of l, as that thread's rel_owner_ word then; an
         *  acquire by a thread whose word still matches skips its
         *  check. */
        uint64_t owner;
        /** kNoSpill while staleReaders_x fits in `readers`; else the
         *  index of its list in spill_, which then holds the whole set
         *  (and stays x's for the rest of the run). */
        uint32_t spill;
        /** staleWrite_x: W_x lags behind the last write, whose timestamp
         *  is the live clock of the row `owner` names (within that
         *  thread's still-active transaction). */
        uint8_t stale_write;
        /** Live prefix of `readers` while spill == kNoSpill. */
        uint8_t n_readers;
        /** 1 iff this is a lock's record (entries 3r+1, 3r+2 unused). */
        uint8_t lock;
        /** staleReaders_x: threads whose last read of x is not yet in
         *  R_x, in insertion order. */
        ThreadId readers[3];
    };
    static_assert(sizeof(Record) == 32, "two records per cache line");
    static constexpr uint32_t kNoSpill = UINT32_MAX;
    static constexpr uint32_t kUntouched = UINT32_MAX;

    /** Record index of variable x / lock l, giving it a fresh record
     *  (and its three table entries) on first touch. */
    uint32_t
    var_index(VarId x)
    {
        if (x < var_idx_.size() && var_idx_[x] != kUntouched)
            return var_idx_[x];
        return touch(var_idx_, x, false);
    }
    uint32_t
    lock_index(LockId l)
    {
        if (l < lock_idx_.size() && lock_idx_[l] != kUntouched)
            return lock_idx_[l];
        return touch(lock_idx_, l, true);
    }
    uint32_t touch(std::vector<uint32_t>& idx, uint32_t id, bool lock);

    /** Record r's first table entry (W_x or L_l). */
    static size_t base_of(uint32_t r) { return size_t{3} * r; }

    /** staleReaders_x of record v as a [first, last) range. */
    ThreadId*
    readers_begin(Record& v)
    {
        return v.spill == kNoSpill ? v.readers : spill_[v.spill].data();
    }
    ThreadId*
    readers_end(Record& v)
    {
        return v.spill == kNoSpill ? v.readers + v.n_readers
                                   : spill_[v.spill].data() +
                                         spill_[v.spill].size();
    }

    AERO_ALWAYS_INLINE void
    add_stale_reader(Record& v, ThreadId t)
    {
        if (v.spill == kNoSpill) {
            for (uint8_t k = 0; k < v.n_readers; ++k) {
                if (v.readers[k] == t)
                    return;
            }
            if (v.n_readers < std::size(v.readers)) {
                v.readers[v.n_readers++] = t;
                return;
            }
        }
        add_stale_reader_spilled(v, t);
    }
    /** add_stale_reader once the set is (or is about to be) spilled. */
    void add_stale_reader_spilled(Record& v, ThreadId t);

    /** Remove t from staleReaders_x; false iff t was not in it. */
    AERO_ALWAYS_INLINE bool
    drop_stale_reader(Record& v, ThreadId t)
    {
        if (v.spill != kNoSpill)
            return drop_spilled_reader(v, t);
        for (uint8_t k = 0; k < v.n_readers; ++k) {
            if (v.readers[k] == t) {
                for (--v.n_readers; k < v.n_readers; ++k)
                    v.readers[k] = v.readers[k + 1];
                return true;
            }
        }
        return false;
    }
    bool drop_spilled_reader(Record& v, ThreadId t);

    /** Flush staleReaders_x of record r into R_x / hR_x (before a
     *  write's checks). */
    AERO_ALWAYS_INLINE void
    flush_stale_readers(uint32_t r)
    {
        Record& v = recs_[r];
        if (v.spill == kNoSpill && v.n_readers == 0)
            return; // nothing to flush (and no byte store to alias)
        const size_t base = base_of(r);
        for (ThreadId *u = readers_begin(v), *e = readers_end(v); u != e;
             ++u) {
            stats_.joins += 2;
            const bool pure = pure_of(*u);
            tbl_.join(base + 1, c_[*u], *u, pure);        // R_x
            tbl_.join_except(base + 2, c_[*u], *u, pure); // hR_x
        }
        if (v.spill != kNoSpill)
            spill_[v.spill].clear();
        v.n_readers = 0;
    }

    AERO_ALWAYS_INLINE void
    ensure_thread(ThreadId t)
    {
        if (t >= c_.rows())
            add_threads(size_t{t} + 1);
    }
    /** Grow every per-thread structure to n rows. */
    void add_threads(size_t n);
    void grow_dim(size_t n);

    bool handle_end(ThreadId t, size_t index);

    /** Visit every entry of t's update window once (every used entry of
     *  the table when t's window is untracked), then close the window.
     *  The window is sealed first, so joins made by `visit` enroll only
     *  into other threads' windows. */
    template <class Visit> void drain_update_window(ThreadId t, Visit visit);

    /** Propagating end: settle t's own stale accesses and join C_t into
     *  every window entry whose gate fires. */
    void sweep_update_window(ThreadId t);

    /** Skipped end: only settle t's own lazy W_x / R_x facts — no gate,
     *  no join. */
    void settle_own_stale(ThreadId t);

    TxnTracker txns_;

    ClockBank c_;  // one row per thread
    ClockBank cb_; // one row per thread

    /** L_l, W_x, R_x, hR_x — one adaptive table, three entries per
     *  record (see Record), appended at the record's first touch. */
    AdaptiveClockTable tbl_;

    /** VarId / LockId -> record index (kUntouched before first touch). */
    std::vector<uint32_t> var_idx_;
    std::vector<uint32_t> lock_idx_;
    /** One record per touched variable or lock, in first-touch order. */
    std::vector<Record> recs_;
    /** Stale-reader sets that outgrew their record's inline slots. */
    std::vector<std::vector<ThreadId>> spill_;

    /** c_pure_[t] != 0 iff C_t == bot[v/t]; sound but conservative. */
    std::vector<uint8_t> c_pure_;
    /** recv_[t] == 0 only if no component of C_t other than t grew since
     *  t's last outermost begin; sound but conservative (a vector join
     *  sets it whatever it changed). */
    std::vector<uint8_t> recv_;
    bool epochs_ = true;

    /** Release owner word per row, unique among all words ever issued:
     *  reissued when the row's end skips propagation and when the row is
     *  retired, so every lock fact the row left behind stops matching in
     *  O(1). */
    std::vector<uint64_t> rel_owner_;
    uint64_t next_rel_owner_ = 0;

    /** Fork bookkeeping for hasIncomingEdge's "parentTr is alive". */
    std::vector<ThreadId> parent_thread_;
    std::vector<uint64_t> parent_txn_seq_; // 0 = fork outside a transaction

    /** Dead-state reclamation (src/vc/README.md, "Reclamation"). */
    bool gc_ = true;
    ThreadSlotMap slots_;
    SlotTags tags_;
    GcSweeper sweeper_;

    AeroDromeStats stats_;
    AeroDromeOptStats opt_stats_;
};

} // namespace aero
