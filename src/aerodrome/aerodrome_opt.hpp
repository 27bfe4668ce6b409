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
 *    propagation phase.
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
 * Per-variable state is stored in first-touch order: a variable's first
 * access gives it the next dense index and one 32-byte VarState record
 * (its W/R/hR entries, last writer, stale-write flag and stale readers).
 * Variables used together sit together however scattered their ids are,
 * and an end event walks its window through records and table entries
 * laid out in the order the variables were first touched.
 */

#include <cstdint>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp" // for AeroDromeStats
#include "analysis/checker.hpp"
#include "analysis/thread_slots.hpp"
#include "analysis/txn_tracker.hpp"
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
    uint32_t
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
    bool check_and_get_entry(size_t slot, ThreadId t, size_t index,
                             const char* reason);

    /** checkAndGet checking `check_slot` but joining `join_slot` (the
     *  hR_x / R_x pair at writes). */
    bool check_and_get_entry2(size_t check_slot, size_t join_slot,
                              ThreadId t, size_t index, const char* reason);

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

    /** Per-variable state of the paper's Algorithm 3 for one touched
     *  variable x. Trivially copyable, so the record array relocates
     *  with a plain copy. */
    struct VarState {
        /** Last writer of x, as an owner word of tags_. */
        uint64_t last_w;
        /** W_x's table entry; R_x is base + 1, hR_x is base + 2. */
        uint32_t base;
        /** kNoSpill while staleReaders_x fits in `readers`; else the
         *  index of its list in spill_, which then holds the whole set
         *  (and stays x's for the rest of the run). */
        uint32_t spill;
        /** staleWrite_x: W_x lags behind the last write, whose timestamp
         *  is the live clock of the row last_w names (within that
         *  thread's still-active transaction). */
        uint8_t stale_write;
        /** Live prefix of `readers` while spill == kNoSpill. */
        uint8_t n_readers;
        /** staleReaders_x: threads whose last read of x is not yet in
         *  R_x, in insertion order. */
        ThreadId readers[3];
    };
    static_assert(sizeof(VarState) == 32, "two records per cache line");
    static constexpr uint32_t kNoSpill = UINT32_MAX;
    static constexpr uint32_t kUntouched = UINT32_MAX;

    /** Dense index of x, giving x a fresh record (and its three table
     *  entries) on first touch. */
    uint32_t
    var_index(VarId x)
    {
        if (x < var_idx_.size() && var_idx_[x] != kUntouched)
            return var_idx_[x];
        return touch_var(x);
    }
    uint32_t touch_var(VarId x);

    /** staleReaders_x of record v as a [first, last) range. */
    ThreadId*
    readers_begin(VarState& v)
    {
        return v.spill == kNoSpill ? v.readers : spill_[v.spill].data();
    }
    ThreadId*
    readers_end(VarState& v)
    {
        return v.spill == kNoSpill ? v.readers + v.n_readers
                                   : spill_[v.spill].data() +
                                         spill_[v.spill].size();
    }
    void add_stale_reader(VarState& v, ThreadId t);
    /** Remove t from staleReaders_x; false iff t was not in it. */
    bool drop_stale_reader(VarState& v, ThreadId t);

    /** Flush staleReaders_x into R_x / hR_x (before a write's checks). */
    void flush_stale_readers(VarState& v);

    void ensure_thread(ThreadId t);
    void ensure_lock(LockId l);
    void grow_dim(size_t n);

    bool handle_end(ThreadId t, size_t index);

    /** Sweep t's update window at its end: settle t's own stale accesses
     *  and, iff `propagate`, join C_t into every entry whose gate fires. */
    void sweep_update_window(ThreadId t, bool propagate);

    TxnTracker txns_;

    ClockBank c_;  // one row per thread
    ClockBank cb_; // one row per thread

    /** L_l, W_x, R_x, hR_x — one adaptive table; var x occupies entries
     *  vars_[var_idx_[x]].base + {0: W, 1: R, 2: hR}, allocated at x's
     *  first touch. Entries come only from ensure_lock (one) and
     *  touch_var (a triple), in increasing order, so the lock entries
     *  below an entry fix its variable and role. */
    AdaptiveClockTable tbl_;
    std::vector<uint32_t> lock_slot_; // LockId -> entry, increasing

    /** VarId -> dense index into vars_ (kUntouched before first touch). */
    std::vector<uint32_t> var_idx_;
    /** One record per touched variable, in first-touch order. */
    std::vector<VarState> vars_;
    /** Stale-reader sets that outgrew their record's inline slots. */
    std::vector<std::vector<ThreadId>> spill_;

    /** c_pure_[t] != 0 iff C_t == bot[v/t]; sound but conservative. */
    std::vector<uint8_t> c_pure_;
    bool epochs_ = true;

    /** Last releaser of l, as that thread's rel_owner_ word then. An
     *  acquire by a thread whose word still matches skips its check. */
    std::vector<uint64_t> last_rel_;
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
