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
 * 2. Per-thread update sets. An end event sweeps only the entries
 *    enrolled in the ending thread's update window (aerodrome_core.hpp);
 *    a lazy access, which defers the table mutation that would enroll
 *    its entry, enrolls its pending W_x or R_x entry into the accessing
 *    thread's own window, so an access costs O(1) whatever the thread
 *    count.
 *
 * 3. Garbage collection ("hasIncomingEdge"). A completed transaction that
 *    received no orderings from other threads since its begin (its clock is
 *    unchanged outside its own component) and whose forking transaction is
 *    no longer alive can never be part of a violating cycle — mirroring
 *    Velodrome's no-incoming-edge rule — so its end event skips the entire
 *    propagation phase and only settles its own lazy accesses. The test
 *    costs O(active transactions), whatever the thread count.
 *
 * L_l, W_x, R_x and hR_x are entries of the core's one table, and
 * per-variable and per-lock state is stored in first-touch order: a
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

#include "aerodrome/aerodrome_core.hpp"
#include "support/inline.hpp"
#include "trace/trace.hpp"

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
class AeroDromeOpt : public AeroDromeCore {
public:
    AeroDromeOpt(uint32_t num_threads, uint32_t num_vars,
                 uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome"; }

    bool process(const Event& e, size_t index) override;

    void reserve(uint32_t threads, uint32_t vars, uint32_t locks) override;

    const AeroDromeOptStats& opt_stats() const { return opt_stats_; }

    StatList counters() const override;

    size_t memory_bytes() const override;

private:
    void grow_thread_rows(size_t n) override;
    void retire_thread_row(uint32_t s) override;

    /** Algorithm 3's hasIncomingEdge(t), evaluated at t's end event. */
    bool has_incoming_edge(ThreadId t) const;

    /** The state of one touched variable x or lock l; record r owns
     *  table entries 3r (W_x or L_l), 3r+1 (R_x) and 3r+2 (hR_x). A lock
     *  record uses only `owner`: its stale_write stays 0 and its reader
     *  set empty, so an end sweep treats L_l exactly like a W_x with no
     *  pending write (and its never-written entries 3r+1 and 3r+2 as a
     *  bottom R_x / hR_x). Trivially copyable, so the record array
     *  relocates with a plain copy. */
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
        return touch(var_idx_, x);
    }
    uint32_t
    lock_index(LockId l)
    {
        if (l < lock_idx_.size() && lock_idx_[l] != kUntouched)
            return lock_idx_[l];
        return touch(lock_idx_, l);
    }
    uint32_t touch(std::vector<uint32_t>& idx, uint32_t id);

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

    bool handle_end(ThreadId t, size_t index);

    /** Propagating end: settle t's own stale accesses and join C_t into
     *  every window entry whose gate fires. */
    void sweep_update_window(ThreadId t);

    /** Skipped end: only settle t's own lazy W_x / R_x facts — no gate,
     *  no join. */
    void settle_own_stale(ThreadId t);

    /** VarId / LockId -> record index (kUntouched before first touch). */
    std::vector<uint32_t> var_idx_;
    std::vector<uint32_t> lock_idx_;
    /** One record per touched variable or lock, in first-touch order;
     *  its three table entries are appended at the first touch. */
    std::vector<Record> recs_;
    /** Stale-reader sets that outgrew their record's inline slots. */
    std::vector<std::vector<ThreadId>> spill_;

    /** Release owner word per row, unique among all words ever issued:
     *  reissued when the row's end skips propagation and when the row is
     *  retired, so every lock fact the row left behind stops matching in
     *  O(1). */
    std::vector<uint64_t> rel_owner_;
    uint64_t next_rel_owner_ = 0;

    /** Fork bookkeeping for hasIncomingEdge's "parentTr is alive". */
    std::vector<ThreadId> parent_thread_;
    std::vector<uint64_t> parent_txn_seq_; // 0 = fork outside a transaction

    AeroDromeOptStats opt_stats_;
};

} // namespace aero
