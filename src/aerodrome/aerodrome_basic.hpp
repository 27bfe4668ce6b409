#pragma once

/**
 * @file
 * AeroDrome, basic variant — a faithful implementation of the paper's
 * Algorithm 1.
 *
 * On top of the per-thread core (aerodrome_core.hpp) the algorithm
 * keeps:
 *  - L_l:  timestamp of the last release of lock l;
 *  - W_x:  timestamp of the last write to variable x;
 *  - R_{t,x}: timestamp of the last read of x by thread t;
 *  - lastRelThr_l / lastWThr_x: thread of the last release/write.
 *
 * This variant keeps O(|Thr| * Vars) read clocks — exactly the state
 * layout of Algorithm 1 — and checks with the literal vector comparison
 * C_t^b sqsubseteq clk (O(1) while C_t^b is pure, via cb_pure_). See
 * aerodrome_readopt.hpp and aerodrome_opt.hpp for the paper's optimized
 * versions (Algorithms 2 and 3).
 *
 * L_l, W_x and every R_{t,x} are entries of the core's one table.
 * Because Algorithm 1 applies the *same* gate-and-join to every lock,
 * write and read clock at an end event, the per-lock and per-variable
 * propagation loops fuse into a single homogeneous pass over the ending
 * thread's update window.
 */

#include <cstdint>
#include <vector>

#include "aerodrome/aerodrome_core.hpp"
#include "trace/trace.hpp"
#include "vc/vector_clock.hpp"

namespace aero {

/** AeroDrome, Algorithm 1 (basic). */
class AeroDromeBasic : public AeroDromeCore {
public:
    AeroDromeBasic(uint32_t num_threads, uint32_t num_vars,
                   uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome-basic"; }

    bool process(const Event& e, size_t index) override;

    void reserve(uint32_t threads, uint32_t vars, uint32_t locks) override;

    size_t memory_bytes() const override;

    /** Test hook: current clock of thread t (C_t). */
    VectorClock clock_of(ThreadId t) const
    {
        return c_[t].to_vector_clock();
    }

    /** Test hook: begin clock of thread t (C_t^b). */
    VectorClock begin_clock_of(ThreadId t) const
    {
        return cb_[t].to_vector_clock();
    }

    /** Test hook: last-write clock of variable x (W_x). */
    VectorClock write_clock_of(VarId x) const
    {
        if (x >= w_slot_.size() || w_slot_[x] == kNoSlot)
            return VectorClock(); // never accessed: still bottom
        return tbl_.to_vector_clock(w_slot_[x]);
    }

private:
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    void grow_thread_rows(size_t n) override;
    void retire_thread_row(uint32_t s) override;

    /** Purity of C_u^b as consumed by fast paths (gated by the epochs
     *  toggle). */
    bool
    begin_pure_of(ThreadId u) const
    {
        return epochs_ && cb_pure_[u] != 0;
    }

    /** After a sweep: orphans it reset to bottom can never gate again,
     *  so drop them from the writers' check lists and recycle their
     *  indices. */
    void recycle_dead_orphans();

    /**
     * The paper's checkAndGet(clk, t) against table entry `slot`, in
     * vector form: declare a violation if t has an active transaction
     * whose begin clock is ordered before the entry; otherwise
     * C_t := C_t |_| entry.
     * @return true iff a violation was declared.
     */
    bool check_and_get_vec_entry(size_t slot, ThreadId t, size_t index,
                                 const char* reason);

    /** Vector-form checkAndGet against the clock of thread `src` (pure
     *  iff src_pure). */
    bool check_and_get_vec_clock(ConstClockRef clk, ThreadId src,
                                 bool src_pure, ThreadId t, size_t index,
                                 const char* reason);

    /** Entry for R_{t,x}, materialized on t's first read of x. */
    uint32_t reader_slot(VarId x, ThreadId t);

    /** W_x's table entry, allocated on first access of x — untouched
     *  variables own no entries, so the fused end sweep scales with the
     *  variables actually seen. */
    uint32_t w_slot(VarId x);

    void ensure_var(VarId x);
    void ensure_lock(LockId l);

    bool handle_end(ThreadId t, size_t index);

    /** L_l, W_x and R_{t,x} are core table entries; Algorithm 1 treats
     *  them uniformly at end events, so the table needs no entry kinds. */
    std::vector<uint32_t> lock_slot_; // LockId -> entry
    std::vector<uint32_t> w_slot_;    // VarId -> entry
    /** r_slot_[x][t] -> entry of R_{t,x}, kNoSlot until t reads x
     *  (mirroring Algorithm 1's lazily-extended table). */
    std::vector<std::vector<uint32_t>> r_slot_;
    /** r_vars_[t]: the variables x whose R_{t,x} row t holds, so a
     *  retirement detaches them without walking every variable. */
    std::vector<std::vector<VarId>> r_vars_;
    /** Reader entries of retired slots that were still live (non-bottom)
     *  at retirement. They keep their Algorithm 1 role — every later
     *  write to x checks them — until a sweep proves them dead, which
     *  resets them to bottom and releases their indices for
     *  add_entry_reusable. Only populated under gc. */
    std::vector<std::vector<uint32_t>> orphan_r_;

    /** cb_pure_[t] iff C_t^b == bot[v/t]; sound but conservative. */
    std::vector<uint8_t> cb_pure_;

    /** Last releaser of l / last writer of x, as owner words of tags_. */
    std::vector<uint64_t> last_rel_;
    std::vector<uint64_t> last_w_;
};

} // namespace aero
