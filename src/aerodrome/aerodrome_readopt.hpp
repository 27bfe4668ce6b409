#pragma once

/**
 * @file
 * AeroDrome with the read-clock reduction — the paper's Algorithm 2
 * (Section 4.3 / Appendix C.1).
 *
 * Algorithm 1 keeps a read clock R_{t,x} per (thread, variable) pair:
 * O(|Thr| * V) clocks. This variant replaces them with two clocks per
 * variable:
 *
 *   - R_x  = |_|_u R_{u,x}          (used to *update* C_t at writes)
 *   - hR_x = |_|_u R_{u,x}[0/u]     (used to *check* violations at writes)
 *
 * hR_x zeroes each reader's own component so a thread's own reads cannot
 * trigger a self-violation. Soundness of the single-clock check rests on
 * the paper's lightweight-timestamp invariant: for an event e1 of thread
 * t1, C_{e1} sqsubseteq C_{e2} holds iff C_{e1}(t1) <= C_{e2}(t1), so
 * comparisons against the begin clock C_t^b reduce to its component t —
 * and against a *join* of clocks that component-wise test is exactly
 * "exists u with C_t^b sqsubseteq R_{u,x}". For that reason every ordering
 * test in this variant uses the one-component form.
 *
 * L_l, W_x, R_x and hR_x are entries of the core's one table
 * (aerodrome_core.hpp); a variable occupies three adjacent entries (W,
 * R, hR), and the end-event propagation is a single fused pass over the
 * ending thread's update window, with an entry-kind byte per entry
 * telling the pass how to gate and join it.
 */

#include <cstdint>
#include <vector>

#include "aerodrome/aerodrome_core.hpp"
#include "trace/trace.hpp"

namespace aero {

/** AeroDrome, Algorithm 2 (read-clock reduction). */
class AeroDromeReadOpt : public AeroDromeCore {
public:
    AeroDromeReadOpt(uint32_t num_threads, uint32_t num_vars,
                     uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome-readopt"; }

    bool process(const Event& e, size_t index) override;

    void reserve(uint32_t threads, uint32_t vars, uint32_t locks) override;

    size_t memory_bytes() const override;

private:
    /** What a table entry stores; drives the fused end-event sweep. */
    enum EntryKind : uint8_t { kLockEntry, kWEntry, kREntry, kHREntry };

    uint32_t
    add_entry(EntryKind kind)
    {
        kinds_.push_back(kind);
        return tbl_.add_entry();
    }

    void ensure_var(VarId x);
    void ensure_lock(LockId l);

    /**
     * W/R/hR table entries of x, allocated on first access. Untouched
     * variables own no table entries, so the fused end sweep and the
     * engine's memory scale with the variables actually seen, not with
     * the id space.
     */
    size_t var_slots(VarId x);

    static constexpr uint32_t kNoSlot = UINT32_MAX;

    bool handle_end(ThreadId t, size_t index);

    /** var x occupies the adjacent table entries var_base_[x] + {0: W,
     *  1: R, 2: hR}. */
    std::vector<uint8_t> kinds_;     // EntryKind per table entry
    std::vector<uint32_t> lock_slot_; // LockId -> entry
    std::vector<uint32_t> var_base_;  // VarId -> W entry (R/hR adjacent)

    /** Last releaser of l / last writer of x, as owner words of tags_. */
    std::vector<uint64_t> last_rel_;
    std::vector<uint64_t> last_w_;
};

} // namespace aero
