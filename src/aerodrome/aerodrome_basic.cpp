#include "aerodrome/aerodrome_basic.hpp"

namespace aero {

AeroDromeBasic::AeroDromeBasic(uint32_t num_threads, uint32_t num_vars,
                               uint32_t num_locks)
{
    add_threads(num_threads);
    reserve(0, num_vars, num_locks);
}

void
AeroDromeBasic::reserve(uint32_t threads, uint32_t vars, uint32_t locks)
{
    reserve_threads(threads);
    if (vars > 0)
        ensure_var(vars - 1);
    if (locks > 0)
        ensure_lock(locks - 1);
}

void
AeroDromeBasic::grow_thread_rows(size_t n)
{
    cb_pure_.resize(n, 1);
    r_vars_.resize(n);
}

void
AeroDromeBasic::ensure_var(VarId x)
{
    // Only the per-variable bookkeeping is sized by id range; the table
    // entry is allocated by w_slot() on first access.
    while (x >= w_slot_.size()) {
        w_slot_.push_back(kNoSlot);
        r_slot_.emplace_back();
        orphan_r_.emplace_back();
        last_w_.push_back(SlotTags::kNone);
    }
}

uint32_t
AeroDromeBasic::w_slot(VarId x)
{
    if (w_slot_[x] == kNoSlot)
        w_slot_[x] = tbl_.add_entry();
    return w_slot_[x];
}

void
AeroDromeBasic::ensure_lock(LockId l)
{
    while (l >= lock_slot_.size()) {
        lock_slot_.push_back(tbl_.add_entry());
        last_rel_.push_back(SlotTags::kNone);
    }
}

uint32_t
AeroDromeBasic::reader_slot(VarId x, ThreadId t)
{
    auto& slots = r_slot_[x];
    if (t >= slots.size())
        slots.resize(t + 1, kNoSlot);
    if (slots[t] == kNoSlot) {
        slots[t] = tbl_.add_entry_reusable();
        r_vars_[t].push_back(x);
    }
    return slots[t];
}

bool
AeroDromeBasic::check_and_get_vec_entry(size_t slot, ThreadId t,
                                        size_t index, const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) &&
        tbl_.vector_leq_entry(cb_[t], slot, t, begin_pure_of(t)))
        return fail(index, t, reason);
    ++stats_.joins;
    absorb_entry(t, slot);
    return false;
}

bool
AeroDromeBasic::check_and_get_vec_clock(ConstClockRef clk, ThreadId src,
                                        bool src_pure, ThreadId t,
                                        size_t index, const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t)) {
        // C_t^b sqsubseteq clk; O(1) when the begin clock is pure.
        bool ordered = begin_pure_of(t) ? cb_[t].get(t) <= clk.get(t)
                                        : cb_[t].leq(clk);
        if (ordered)
            return fail(index, t, reason);
    }
    ++stats_.joins;
    absorb_clock(t, clk, src, src_pure);
    return false;
}

bool
AeroDromeBasic::handle_end(ThreadId t, size_t index)
{
    // Propagate the completed transaction's final timestamp C_t into every
    // clock that is ordered after its begin event (Algorithm 1, lines
    // 38-46): this is what makes the timestamps prefix-relative and lets
    // later events observe paths through this (now completed) transaction.
    ConstClockRef ct = c_[t];
    ConstClockRef cbt = cb_[t];
    const bool ct_pure = pure_of(t);
    const bool cbt_pure = begin_pure_of(t);

    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (u == t)
            continue;
        ++stats_.comparisons;
        bool ordered = cbt_pure ? cbt.get(t) <= c_[u].get(t)
                                : cbt.leq(c_[u]);
        if (ordered) {
            if (check_and_get_vec_clock(ct, t, ct_pure, u, index,
                                        "active peer ordered into "
                                        "completed transaction")) {
                return true;
            }
        }
    }

    // Fused propagation sweep: Algorithm 1 applies the same gate-and-join
    // to every L_l, W_x and R_{u,x}, and they all live in one adaptive
    // table, so the per-lock and per-variable loops collapse into one
    // homogeneous pass over t's update window.
    tbl_.drain_update_window(t, [&](size_t i) {
        ++stats_.comparisons;
        ++stats_.end_swept_entries;
        if (tbl_.vector_leq_entry(cbt, i, t, cbt_pure)) {
            ++stats_.joins;
            tbl_.join(i, ct, t, ct_pure);
        } else {
            ++stats_.end_gate_skipped;
        }
    });
    return false;
}

bool
AeroDromeBasic::process(const Event& e, size_t index)
{
    const auto [t, target] = rows_of(e);
    switch (e.op) {
      case Op::kBegin:
        if (begin_txn(t))
            cb_pure_[t] = c_pure_[t];
        return false;

      case Op::kEnd:
        if (txns_.on_end(t)) {
            if (handle_end(t, index))
                return true;
            if (gc_after_end())
                recycle_dead_orphans();
        }
        return false;

      case Op::kAcquire: {
        ensure_lock(target);
        if (last_rel_[target] != tags_[t]) {
            return check_and_get_vec_entry(
                lock_slot_[target], t, index,
                "acquire saw conflicting release");
        }
        return false;
      }

      case Op::kRelease:
        ensure_lock(target);
        tbl_.assign(lock_slot_[target], c_[t], t, pure_of(t));
        last_rel_[target] = tags_[t];
        return false;

      case Op::kFork:
        fork_thread(t, target);
        return false;

      case Op::kJoin:
        if (check_and_get_vec_clock(c_[target], target, pure_of(target), t,
                                    index, "join saw child's events")) {
            return true;
        }
        joined(t, target);
        return false;

      case Op::kRead: {
        ensure_var(target);
        if (last_w_[target] != tags_[t]) {
            if (check_and_get_vec_entry(w_slot(target), t, index,
                                        "read saw conflicting write")) {
                return true;
            }
        }
        uint32_t slot = reader_slot(target, t);
        tbl_.assign(slot, c_[t], t, pure_of(t));
        return false;
      }

      case Op::kWrite: {
        ensure_var(target);
        if (last_w_[target] != tags_[t]) {
            if (check_and_get_vec_entry(w_slot(target), t, index,
                                        "write saw conflicting write")) {
                return true;
            }
        }
        const auto& readers = r_slot_[target];
        for (ThreadId u = 0; u < readers.size(); ++u) {
            if (u == t || readers[u] == kNoSlot)
                continue;
            if (check_and_get_vec_entry(readers[u], t, index,
                                        "write saw conflicting read")) {
                return true;
            }
        }
        // Retired threads' R_{t,x} keep gating writes until proven dead;
        // the retiree can't be the writer, so no own-slot skip applies.
        for (uint32_t i : orphan_r_[target]) {
            if (check_and_get_vec_entry(i, t, index,
                                        "write saw conflicting read")) {
                return true;
            }
        }
        tbl_.assign(w_slot(target), c_[t], t, pure_of(t));
        last_w_[target] = tags_[t];
        return false;
      }
    }
    return false;
}

void
AeroDromeBasic::retire_thread_row(uint32_t s)
{
    // Detach the dead thread's R_{s,x} entries so the reissued thread
    // starts with none. A still-live entry becomes a per-var orphan —
    // writers keep checking it (Algorithm 1 checks every reader of x)
    // until a sweep proves it dead; an already-bottom one (reclaimed by
    // an earlier sweep) hands its index back immediately.
    stats_.retire_visited += r_vars_[s].size();
    for (VarId x : r_vars_[s]) {
        uint32_t& slot = r_slot_[x][s];
        if (tbl_.is_bottom(slot))
            tbl_.gc_recycle_index(slot);
        else
            orphan_r_[x].push_back(slot);
        slot = kNoSlot;
    }
    r_vars_[s].clear();
    cb_pure_[s] = 1;
}

void
AeroDromeBasic::recycle_dead_orphans()
{
    for (auto& orphans : orphan_r_) {
        size_t keep = 0;
        for (uint32_t i : orphans) {
            if (tbl_.is_bottom(i))
                tbl_.gc_recycle_index(i);
            else
                orphans[keep++] = i;
        }
        orphans.resize(keep);
    }
}

size_t
AeroDromeBasic::memory_bytes() const
{
    size_t n = AeroDromeCore::memory_bytes();
    n += (lock_slot_.capacity() + w_slot_.capacity()) * sizeof(uint32_t);
    for (const auto& slots : r_slot_)
        n += slots.capacity() * sizeof(uint32_t);
    for (const auto& orphans : orphan_r_)
        n += orphans.capacity() * sizeof(uint32_t);
    n += cb_pure_.capacity();
    for (const auto& vars : r_vars_)
        n += vars.capacity() * sizeof(VarId);
    n += (last_rel_.capacity() + last_w_.capacity()) * sizeof(uint64_t);
    return n;
}

} // namespace aero
