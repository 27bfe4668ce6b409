#pragma once

/**
 * @file
 * Carrier-chain traces — directed inputs where an ordering reaches the
 * closing access only through a chain of intermediate transactions.
 *
 * The victim opens a transaction and writes v0; carrier thread i reads
 * v_{i-1} and writes v_i; the victim then touches v_hops, closing a
 * cycle through every carrier. When the carriers keep their transactions
 * open across the closing access, no end-event propagation can shortcut
 * the chain: the check must see the ordering carried hop by hop through
 * live transactions. The golden corpus runs every engine over these
 * families; the serializable variant is the control.
 */

#include <cstdint>

#include "trace/trace.hpp"

namespace aero::gen {

/** Parameters of one carrier-chain trace. */
struct CarrierChainOptions {
    /** Carrier threads between the victim's write and the closing
     *  access; the chain uses hops + 1 variables v0..v_hops. */
    uint32_t hops = 2;
    /** Carriers keep their transactions open until after the closing
     *  access (defeats end-event repair); otherwise each carrier ends
     *  immediately after its hop. */
    bool open_carriers = true;
    /** Close the cycle with a write (write-vs-read/write checks) instead
     *  of a read (read-vs-write check). */
    bool close_by_write = false;
    /** Break the cycle (victim's transaction ends before the chain):
     *  control family, serializable for every engine. */
    bool serializable = false;
};

/** Build the trace. Variables are interned in chain order (v0 first);
 *  the victim is thread 0 and carrier i is thread i. */
Trace make_carrier_chain(const CarrierChainOptions& opts);

} // namespace aero::gen
