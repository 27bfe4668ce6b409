#include "aerodrome/aerodrome_core.hpp"

namespace aero {

void
AeroDromeCore::add_threads(size_t n)
{
    const size_t old = c_.rows();
    c_.ensure_dim(n);
    cb_.ensure_dim(n);
    tbl_.ensure_dim(n);
    c_.ensure_rows(n);
    cb_.ensure_rows(n);
    c_pure_.resize(n, 1);
    recv_.resize(n, 0);
    tags_.ensure(n);
    for (size_t u = old; u < n; ++u)
        c_[u].set(u, 1);
    txns_.ensure(static_cast<uint32_t>(n));
    grow_thread_rows(n);
}

void
AeroDromeCore::reserve_threads(uint32_t threads)
{
    // With gc on the hint counts *external* tids (possibly millions on a
    // churning stream) while rows are recycled slots sized by the live
    // thread count — pre-sizing would defeat the recycling.
    if (threads > 0 && !gc_)
        ensure_thread(threads - 1);
}

void
AeroDromeCore::fork_thread(ThreadId t, ThreadId target)
{
    ++stats_.joins;
    absorb_clock(target, c_[t], t, pure_of(t));
}

bool
AeroDromeCore::check_and_get_clock(ConstClockRef clk, ThreadId src,
                                   bool src_pure, ThreadId t, size_t index,
                                   const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, clk.get(t)))
        return fail(index, t, reason);
    ++stats_.joins;
    absorb_clock(t, clk, src, src_pure);
    return false;
}

bool
AeroDromeCore::propagate_to_peers(ThreadId t, size_t index)
{
    // Propagate the completed transaction's final timestamp C_t into every
    // clock ordered after its begin: this is what makes the timestamps
    // prefix-relative and lets later events observe paths through this
    // (now completed) transaction.
    ConstClockRef ct = c_[t];
    const ClockValue cbt_t = cb_[t].get(t);
    const bool ct_pure = pure_of(t);
    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (u == t)
            continue;
        ++stats_.comparisons;
        if (cbt_t <= c_[u].get(t) &&
            check_and_get_clock(ct, t, ct_pure, u, index,
                                "active peer ordered into completed "
                                "transaction"))
            return true;
    }
    return false;
}

bool
AeroDromeCore::fail(size_t index, ThreadId t, const char* reason)
{
    // Charge the violation to the external tid bound to row t.
    ThreadId ext = gc_ ? slots_.ext_of(t) : t;
    return report(index, ext == kNoThread ? t : ext, reason);
}

void
AeroDromeCore::retire_slot(uint32_t s)
{
    if (txns_.active(s))
        return; // ill-formed join mid-transaction: leak the row, stay safe
    // Expire the dead thread's last-writer and last-releaser facts: the
    // reissued thread must not inherit its check-skipping rights.
    tags_.retire(s);
    retire_thread_row(s);
    // Continue the clock one past every value the dead thread minted, so
    // reissued begin gates exceed every stale epoch still naming this row.
    const ClockValue v = c_[s].get(s);
    c_[s].clear();
    c_[s].set(s, v + 1);
    cb_[s].clear();
    c_pure_[s] = 1;
    tbl_.close_update_window(s);
    slots_.retire(s);
}

StatList
AeroDromeCore::counters_with(StatList extra) const
{
    const AdaptiveClockStats& es = tbl_.stats();
    StatList s = {{"joins", stats_.joins},
                  {"comparisons", stats_.comparisons}};
    s.insert(s.end(), extra.begin(), extra.end());
    s.insert(s.end(), {
                          {"epoch_fast_ops", es.epoch_fast},
                          {"vector_ops", es.vector_ops},
                          {"inflations", es.inflations},
                          {"upd_enrolled", es.upd_enrolled},
                          {"end_swept_entries", stats_.end_swept_entries},
                          {"end_gate_skipped", stats_.end_gate_skipped},
                          {"gc_reclaimed", es.gc_reclaimed},
                          {"gc_rows_freed", es.gc_rows_freed},
                          {"gc_sweeps", sweeper_.sweeps()},
                          {"gc_walks_skipped", sweeper_.walks_skipped()},
                          {"gc_live_entries", sweeper_.live_entries()},
                          {"slots_retired", slots_.retired()},
                          {"slots_recycled", slots_.recycled()},
                      });
    return s;
}

size_t
AeroDromeCore::memory_bytes() const
{
    return c_.memory_bytes() + cb_.memory_bytes() + tbl_.memory_bytes() +
           c_pure_.capacity() + recv_.capacity() + slots_.memory_bytes() +
           tags_.memory_bytes() + sweeper_.memory_bytes() +
           txns_.memory_bytes();
}

} // namespace aero
