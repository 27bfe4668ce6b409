#include "aerodrome/aerodrome_readopt.hpp"

namespace aero {

AeroDromeReadOpt::AeroDromeReadOpt(uint32_t num_threads, uint32_t num_vars,
                                   uint32_t num_locks)
{
    add_threads(num_threads);
    reserve(0, num_vars, num_locks);
}

void
AeroDromeReadOpt::reserve(uint32_t threads, uint32_t vars, uint32_t locks)
{
    reserve_threads(threads);
    if (vars > 0)
        ensure_var(vars - 1);
    if (locks > 0)
        ensure_lock(locks - 1);
}

void
AeroDromeReadOpt::ensure_var(VarId x)
{
    // Only the per-variable bookkeeping is sized by id range; the three
    // table entries are allocated by var_slots() on first access.
    while (x >= var_base_.size()) {
        var_base_.push_back(kNoSlot);
        last_w_.push_back(SlotTags::kNone);
    }
}

size_t
AeroDromeReadOpt::var_slots(VarId x)
{
    if (var_base_[x] == kNoSlot) {
        var_base_[x] = add_entry(kWEntry);
        add_entry(kREntry);
        add_entry(kHREntry);
    }
    return var_base_[x];
}

void
AeroDromeReadOpt::ensure_lock(LockId l)
{
    while (l >= lock_slot_.size()) {
        lock_slot_.push_back(add_entry(kLockEntry));
        last_rel_.push_back(SlotTags::kNone);
    }
}

bool
AeroDromeReadOpt::handle_end(ThreadId t, size_t index)
{
    if (propagate_to_peers(t, index))
        return true;
    ConstClockRef ct = c_[t];
    const ClockValue cbt_t = cb_[t].get(t);
    const bool ct_pure = pure_of(t);

    // Fused propagation sweep: locks, W_x, R_x and hR_x all live in one
    // adaptive table, so the per-lock and per-variable loops of the
    // original algorithm collapse into a single pass — epoch entries are
    // one-word gates, inflated entries stream through the shared arena.
    // hR_x is driven by its R_x partner (the algorithm gates both updates
    // on R_x, which subsumes hR_x), so an enrolled hR entry is skipped.
    // Sweep order is immaterial (gates read only their own entry, joins
    // touch distinct entries).
    tbl_.drain_update_window(t, [&](size_t i) {
        ++stats_.end_swept_entries;
        switch (static_cast<EntryKind>(kinds_[i])) {
          case kLockEntry:
          case kWEntry:
            ++stats_.comparisons;
            if (cbt_t <= tbl_.get(i, t)) {
                ++stats_.joins;
                tbl_.join(i, ct, t, ct_pure);
            } else {
                ++stats_.end_gate_skipped;
            }
            break;
          case kREntry:
            ++stats_.comparisons;
            if (cbt_t <= tbl_.get(i, t)) {
                stats_.joins += 2;
                tbl_.join(i, ct, t, ct_pure);
                tbl_.join_except(i + 1, ct, t, ct_pure);
            } else {
                ++stats_.end_gate_skipped;
            }
            break;
          case kHREntry:
            ++stats_.end_gate_skipped;
            break; // handled with its R_x partner at i - 1
        }
    });
    return false;
}

bool
AeroDromeReadOpt::process(const Event& e, size_t index)
{
    const auto [t, target] = rows_of(e);
    switch (e.op) {
      case Op::kBegin:
        begin_txn(t);
        return false;

      case Op::kEnd:
        if (txns_.on_end(t)) {
            if (handle_end(t, index))
                return true;
            gc_after_end();
        }
        return false;

      case Op::kAcquire:
        ensure_lock(target);
        if (last_rel_[target] != tags_[t]) {
            return check_and_get_entry(lock_slot_[target], t, index,
                                       "acquire saw conflicting release");
        }
        return false;

      case Op::kRelease:
        ensure_lock(target);
        tbl_.assign(lock_slot_[target], c_[t], t, pure_of(t));
        last_rel_[target] = tags_[t];
        return false;

      case Op::kFork:
        fork_thread(t, target);
        return false;

      case Op::kJoin:
        if (check_and_get_clock(c_[target], target, pure_of(target), t,
                                index, "join saw child's events")) {
            return true;
        }
        joined(t, target);
        return false;

      case Op::kRead: {
        const VarId x = target;
        ensure_var(x);
        const size_t base = var_slots(x);
        if (last_w_[x] != tags_[t]) {
            if (check_and_get_entry(base, t, index,
                                    "read saw conflicting write")) {
                return true;
            }
        }
        stats_.joins += 2;
        const bool pure = pure_of(t);
        tbl_.join(base + 1, c_[t], t, pure);        // R_x
        tbl_.join_except(base + 2, c_[t], t, pure); // hR_x
        return false;
      }

      case Op::kWrite: {
        const VarId x = target;
        ensure_var(x);
        const size_t base = var_slots(x);
        if (last_w_[x] != tags_[t]) {
            if (check_and_get_entry(base, t, index,
                                    "write saw conflicting write")) {
                return true;
            }
        }
        if (check_and_get_entry2(base + 2, base + 1, t, index,
                                 "write saw conflicting read")) {
            return true;
        }
        tbl_.assign(base, c_[t], t, pure_of(t));
        last_w_[x] = tags_[t];
        return false;
      }
    }
    return false;
}

size_t
AeroDromeReadOpt::memory_bytes() const
{
    size_t n = AeroDromeCore::memory_bytes();
    n += (lock_slot_.capacity() + var_base_.capacity()) * sizeof(uint32_t);
    n += kinds_.capacity();
    n += (last_rel_.capacity() + last_w_.capacity()) * sizeof(uint64_t);
    return n;
}

} // namespace aero
