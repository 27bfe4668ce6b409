#include "aerodrome/aerodrome_opt.hpp"

#include <algorithm>

namespace aero {

AeroDromeOpt::AeroDromeOpt(uint32_t num_threads, uint32_t num_vars,
                           uint32_t num_locks)
    : txns_(num_threads)
{
    add_threads(num_threads);
    reserve(0, num_vars, num_locks);
}

void
AeroDromeOpt::reserve(uint32_t threads, uint32_t vars, uint32_t locks)
{
    // With gc on the hint counts external tids; rows are recycled slots.
    if (threads > 0 && !gc_)
        ensure_thread(threads - 1);
    // Variables and locks get their record and entries at first touch;
    // only the id maps are written here, the rest is capacity no page of
    // which is touched until a variable or lock claims it.
    if (vars > var_idx_.size())
        var_idx_.resize(vars, kUntouched);
    if (locks > lock_idx_.size())
        lock_idx_.resize(locks, kUntouched);
    const size_t recs = size_t{vars} + locks;
    recs_.reserve(recs);
    tbl_.reserve_entries(3 * recs);
}

void
AeroDromeOpt::grow_dim(size_t n)
{
    c_.ensure_dim(n);
    cb_.ensure_dim(n);
    tbl_.ensure_dim(n);
}

void
AeroDromeOpt::add_threads(size_t n)
{
    const size_t old = c_.rows();
    grow_dim(n);
    c_.ensure_rows(n);
    cb_.ensure_rows(n);
    c_pure_.resize(n, 1);
    recv_.resize(n, 0);
    tags_.ensure(n);
    parent_thread_.resize(n, kNoThread);
    parent_txn_seq_.resize(n, 0);
    rel_owner_.resize(n);
    for (size_t u = old; u < n; ++u) {
        c_[u].set(u, 1);
        rel_owner_[u] = next_rel_owner_++;
    }
    txns_.ensure(static_cast<uint32_t>(n));
}

uint32_t
AeroDromeOpt::touch(std::vector<uint32_t>& idx, uint32_t id, bool lock)
{
    if (id >= idx.size())
        idx.resize(size_t{id} + 1, kUntouched);
    const uint32_t r = static_cast<uint32_t>(recs_.size());
    tbl_.add_entry(); // W_x or L_l, at base_of(r)
    tbl_.add_entry(); // R_x
    tbl_.add_entry(); // hR_x
    recs_.push_back({SlotTags::kNone, kNoSpill, 0, 0, lock, {}});
    idx[id] = r;
    return r;
}

void
AeroDromeOpt::add_stale_reader_spilled(Record& v, ThreadId t)
{
    if (v.spill == kNoSpill) {
        // The inline slots are full and t is not among them.
        v.spill = static_cast<uint32_t>(spill_.size());
        spill_.emplace_back(v.readers, v.readers + v.n_readers);
        spill_.back().push_back(t);
        v.n_readers = 0;
        return;
    }
    auto& sr = spill_[v.spill];
    if (std::find(sr.begin(), sr.end(), t) == sr.end())
        sr.push_back(t);
}

bool
AeroDromeOpt::drop_spilled_reader(Record& v, ThreadId t)
{
    auto& sr = spill_[v.spill];
    auto it = std::find(sr.begin(), sr.end(), t);
    if (it == sr.end())
        return false;
    sr.erase(it);
    return true;
}

bool
AeroDromeOpt::fail(size_t index, ThreadId t, const char* reason)
{
    return report(index, rid(t), reason);
}

bool
AeroDromeOpt::check_and_get_clock(ConstClockRef clk, ThreadId src,
                                  bool src_pure, ThreadId t, size_t index,
                                  const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, clk.get(t)))
        return fail(index, t, reason);
    ++stats_.joins;
    if (join_qualified(c_[t], t, c_pure_[t], clk, src, src_pure))
        recv_[t] = 1;
    return false;
}

bool
AeroDromeOpt::has_incoming_edge(ThreadId t) const
{
    // "parentTr is alive": the transaction that forked this thread is still
    // active, so the fork edge into every transaction of this thread may
    // yet participate in a cycle.
    ThreadId p = parent_thread_[t];
    if (p != kNoThread && parent_txn_seq_[t] != 0 && txns_.active(p) &&
        txns_.seq(p) == parent_txn_seq_[t]) {
        return true;
    }
    // A pure C_t == bot[v/t] and the C_t^b below it have no foreign
    // component, so neither test below can fire.
    if (c_pure_[t])
        return false;
    // Did C_t grow beyond C_t^b in any foreign component, i.e. did this
    // transaction receive an ordering from elsewhere since begin? Only
    // a join that recv_ saw can have made it so.
    ConstClockRef cbt = cb_[t];
    if (recv_[t]) {
        ConstClockRef ct = c_[t];
        for (size_t u = 0; u < ct.dim(); ++u) {
            if (u != t && ct.get(u) != cbt.get(u))
                return true;
        }
    }
    // Transit-ancestry guard. The literal check above (the paper's
    // C_t^b[0/t] != C_t[0/t]) only sees orderings received *during* the
    // transaction, but skipping the propagation also drops orderings the
    // thread absorbed *before* the begin and that later readers would
    // inherit through this transaction's accesses (program-order transit:
    // P -> T -> future-reader). That transit chain can only close a cycle
    // through a transaction that was already active when T ended (a
    // completed transaction's incoming edges are final), and any such
    // candidate's begin clock is necessarily contained in C_t^b. So the
    // fast path stays sound-and-complete if we propagate whenever some
    // *other still-active* transaction's begin is visible in C_t^b.
    // Every active transaction has an open update window, so with the
    // windows on only those threads are walked.
    auto visible = [&](ThreadId u) {
        return u != t && txns_.active(u) && cb_[u].get(u) > 0 &&
               cb_[u].get(u) <= cbt.get(u);
    };
    if (tbl_.update_sets_enabled()) {
        for (ThreadId u : tbl_.open_windows()) {
            if (visible(u))
                return true;
        }
        return false;
    }
    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (visible(u))
            return true;
    }
    return false;
}

bool
AeroDromeOpt::handle_end(ThreadId t, size_t index)
{
    if (!has_incoming_edge(t)) {
        // Garbage-collected end: this transaction can never lie on a
        // cycle, so skip the propagation entirely and only tidy the lazy
        // bookkeeping (Algorithm 3, lines 75-86).
        ++opt_stats_.gc_skipped_ends;
        // Every lock t released so far must be checked again at t's next
        // acquire: a fresh release owner word stops them all matching at
        // once, instead of a walk over every lock.
        rel_owner_[t] = next_rel_owner_++;
        settle_own_stale(t);
        return false;
    }
    ++opt_stats_.propagated_ends;
    ConstClockRef ct = c_[t];
    const ClockValue cbt_t = cb_[t].get(t);
    const bool ct_pure = pure_of(t);
    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (u == t)
            continue;
        ++stats_.comparisons;
        if (cbt_t <= c_[u].get(t)) {
            if (check_and_get_clock(ct, t, ct_pure, u, index,
                                    "active peer ordered into "
                                    "completed transaction")) {
                return true;
            }
        }
    }
    sweep_update_window(t);
    return false;
}

template <class Visit>
void
AeroDromeOpt::drain_update_window(ThreadId t, Visit visit)
{
    if (tbl_.drain_update_window(t, visit))
        return;
    const uint32_t n = static_cast<uint32_t>(recs_.size());
    for (uint32_t r = 0; r < n; ++r) {
        const uint32_t i = static_cast<uint32_t>(base_of(r));
        visit(i);
        if (!recs_[r].lock) {
            visit(i + 1);
            visit(i + 2);
        }
    }
    tbl_.close_update_window(t);
}

void
AeroDromeOpt::sweep_update_window(ThreadId t)
{
    const uint64_t tag = tags_[t];
    ConstClockRef ct = c_[t];
    const ClockValue cbt_t = cb_[t].get(t);
    const bool ct_pure = pure_of(t);
    auto gate_fires = [&](size_t i) {
        ++stats_.comparisons;
        if (cbt_t <= tbl_.get(i, t))
            return true;
        ++stats_.end_gate_skipped;
        return false;
    };
    // The window holds every entry a mutation since t's begin could have
    // made gate-fireable, plus the W_x / R_x entries of t's own lazy
    // accesses, which mutate nothing until flushed.
    drain_update_window(t, [&](uint32_t i) {
        ++stats_.end_swept_entries;
        Record& v = recs_[i / 3];
        switch (i % 3) {
          case 0: { // W_x, or L_l (never a stale write)
            const bool own = v.stale_write && v.owner == tag;
            // Another thread's stale write supersedes: future accesses
            // check its live clock, which absorbed C_t in the peer loop.
            if (v.stale_write && !own)
                break;
            v.stale_write = 0; // our pending write lands now
            if (own || gate_fires(i)) {
                ++stats_.joins;
                tbl_.join(i, ct, t, ct_pure);
            }
            break;
          }
          case 1: // R_x, with its hR_x partner at i + 1
            if (drop_stale_reader(v, t) || gate_fires(i)) {
                stats_.joins += 2;
                tbl_.join(i, ct, t, ct_pure);
                tbl_.join_except(i + 1, ct, t, ct_pure);
            }
            break;
          default: // hR_x: updated with its R_x partner
            ++stats_.end_gate_skipped;
            break;
        }
    });
}

void
AeroDromeOpt::settle_own_stale(ThreadId t)
{
    // t's pending write never lands and its pending reads are dropped:
    // this transaction's accesses order nothing after it.
    const uint64_t tag = tags_[t];
    uint64_t swept = 0, hr = 0; // locals: the record stores alias stats_
    drain_update_window(t, [&](uint32_t i) {
        ++swept;
        Record& v = recs_[i / 3];
        switch (i % 3) {
          case 0:
            if (v.stale_write && v.owner == tag) {
                v.stale_write = 0;
                v.owner = SlotTags::kNone;
            }
            break;
          case 1:
            drop_stale_reader(v, t);
            break;
          default:
            ++hr;
            break;
        }
    });
    stats_.end_swept_entries += swept;
    stats_.end_gate_skipped += hr;
}

bool
AeroDromeOpt::process(const Event& e, size_t index)
{
    ThreadId t = e.tid;
    ThreadId target = e.target;
    if (gc_) {
        // Rows are recycled slots: translate the actor and, for the two
        // thread-target ops, the target through the slot map.
        t = slot_of(e.tid);
        if (e.op == Op::kFork || e.op == Op::kJoin)
            target = slot_of(e.target);
    } else {
        ensure_thread(t);
    }

    switch (e.op) {
      case Op::kBegin:
        if (txns_.on_begin(t)) {
            c_[t].tick(t); // purity preserved
            cb_[t].assign(c_[t]);
            recv_[t] = 0;
            tbl_.open_update_window(t, cb_[t].get(t));
        }
        return false;

      case Op::kEnd:
        if (txns_.on_end(t)) {
            if (handle_end(t, index))
                return true;
            if (gc_)
                sweeper_.maybe_sweep(tbl_, c_, slots_.bindings(), txns_);
        }
        return false;

      case Op::kAcquire: {
        const uint32_t r = lock_index(target);
        if (recs_[r].owner != rel_owner_[t]) {
            return check_and_get_entry(base_of(r), t, index,
                                       "acquire saw conflicting release");
        }
        return false;
      }

      case Op::kRelease: {
        const uint32_t r = lock_index(target);
        tbl_.assign(base_of(r), c_[t], t, pure_of(t));
        recs_[r].owner = rel_owner_[t];
        return false;
      }

      case Op::kFork:
        ensure_thread(target);
        ++stats_.joins;
        if (join_qualified(c_[target], target, c_pure_[target], c_[t], t,
                           pure_of(t)))
            recv_[target] = 1;
        parent_thread_[target] = t;
        parent_txn_seq_[target] = txns_.active(t) ? txns_.seq(t) : 0;
        return false;

      case Op::kJoin: {
        ensure_thread(target);
        if (check_and_get_clock(c_[target], target, pure_of(target), t,
                                index, "join saw child's events")) {
            return true;
        }
        if (gc_ && target != t)
            retire_slot(target);
        return false;
      }

      case Op::kRead: {
        const uint32_t r = var_index(target);
        Record& v = recs_[r];
        const size_t base = base_of(r);
        const uint64_t tag = tags_[t];
        if (v.owner != tag) {
            bool bad;
            if (v.stale_write) {
                ThreadId lw = SlotTags::row(v.owner);
                bad = check_and_get_clock(c_[lw], lw, pure_of(lw), t,
                                          index,
                                          "read saw conflicting write");
            } else {
                bad = check_and_get_entry(base, t, index,
                                          "read saw conflicting write");
            }
            if (bad)
                return true;
        }
        if (txns_.active(t)) {
            // Lazy: defer the R_x/hR_x update to the next write of x or to
            // our transaction end.
            add_stale_reader(v, t);
            tbl_.enroll_update_entry(t, static_cast<uint32_t>(base + 1));
            ++opt_stats_.lazy_reads;
        } else {
            // Unary read: its transaction completes now; flush eagerly so
            // the live-clock proxy is never applied to a finished
            // transaction.
            stats_.joins += 2;
            const bool pure = pure_of(t);
            tbl_.join(base + 1, c_[t], t, pure);
            tbl_.join_except(base + 2, c_[t], t, pure);
        }
        return false;
      }

      case Op::kWrite: {
        const uint32_t r = var_index(target);
        Record& v = recs_[r];
        const size_t base = base_of(r);
        const uint64_t tag = tags_[t];
        if (v.owner != tag) {
            bool bad;
            if (v.stale_write) {
                ThreadId lw = SlotTags::row(v.owner);
                bad = check_and_get_clock(c_[lw], lw, pure_of(lw), t,
                                          index,
                                          "write saw conflicting write");
            } else {
                bad = check_and_get_entry(base, t, index,
                                          "write saw conflicting write");
            }
            if (bad)
                return true;
        }
        flush_stale_readers(r);
        if (check_and_get_entry2(base + 2, base + 1, t, index,
                                 "write saw conflicting read")) {
            return true;
        }
        if (txns_.active(t)) {
            v.stale_write = 1;
            tbl_.enroll_update_entry(t, static_cast<uint32_t>(base));
            ++opt_stats_.lazy_writes;
        } else {
            v.stale_write = 0;
            tbl_.assign(base, c_[t], t, pure_of(t));
        }
        v.owner = tag;
        return false;
      }
    }
    return false;
}

void
AeroDromeOpt::retire_slot(uint32_t s)
{
    if (txns_.active(s))
        return; // ill-formed join mid-transaction: leak the row, stay safe
    // No lazy proxy stands in for c_[s] any more: s's stale accesses were
    // all made inside transactions, and each end settled its own (both
    // sweep modes), so the clock reset below cannot orphan one. The dead
    // thread's last-writer and last-releaser facts expire with its
    // incarnation.
    tags_.retire(s);
    rel_owner_[s] = next_rel_owner_++;
    parent_thread_[s] = kNoThread;
    parent_txn_seq_[s] = 0;
    const ClockValue v = c_[s].get(s);
    c_[s].clear();
    c_[s].set(s, v + 1);
    cb_[s].clear();
    c_pure_[s] = 1;
    tbl_.close_update_window(s);
    slots_.retire(s);
}

StatList
AeroDromeOpt::counters() const
{
    const AdaptiveClockStats& es = tbl_.stats();
    return {
        {"joins", stats_.joins},
        {"comparisons", stats_.comparisons},
        {"lazy_reads", opt_stats_.lazy_reads},
        {"lazy_writes", opt_stats_.lazy_writes},
        {"propagated_ends", opt_stats_.propagated_ends},
        {"gc_skipped_ends", opt_stats_.gc_skipped_ends},
        {"epoch_fast_ops", es.epoch_fast},
        {"vector_ops", es.vector_ops},
        {"inflations", es.inflations},
        {"gc_reclaimed", es.gc_reclaimed},
        {"gc_rows_freed", es.gc_rows_freed},
        {"gc_sweeps", sweeper_.sweeps()},
        {"gc_walks_skipped", sweeper_.walks_skipped()},
        {"gc_live_entries", sweeper_.live_entries()},
        {"slots_retired", slots_.retired()},
        {"slots_recycled", slots_.recycled()},
    };
}

size_t
AeroDromeOpt::memory_bytes() const
{
    size_t n = c_.memory_bytes() + cb_.memory_bytes() + tbl_.memory_bytes();
    n += (var_idx_.capacity() + lock_idx_.capacity()) * sizeof(uint32_t);
    n += recs_.capacity() * sizeof(Record);
    n += spill_.capacity() * sizeof(spill_[0]);
    for (const auto& sr : spill_)
        n += sr.capacity() * sizeof(ThreadId);
    n += c_pure_.capacity() + recv_.capacity();
    n += parent_thread_.capacity() * sizeof(ThreadId);
    n += (rel_owner_.capacity() +
          parent_txn_seq_.capacity()) *
         sizeof(uint64_t);
    n += slots_.memory_bytes() + tags_.memory_bytes() +
         sweeper_.memory_bytes() + txns_.memory_bytes();
    return n;
}

} // namespace aero
