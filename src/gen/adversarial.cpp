#include "gen/adversarial.hpp"

namespace aero::gen {

Trace
make_carrier_chain(const CarrierChainOptions& opts)
{
    const uint32_t hops = opts.hops ? opts.hops : 1;
    const ThreadId victim = 0;

    Trace t;
    // Pin the variable id space up front so every variant reports the
    // same dimensions.
    t.vars().ensure(hops + 1);

    // Victim opens its transaction and publishes into v0.
    t.begin(victim);
    t.write(victim, 0);
    if (opts.serializable)
        t.end(victim); // control: the cycle never closes

    // Carrier chain: thread i picks the ordering up from v_{i-1} and
    // republishes it into v_i.
    for (uint32_t i = 1; i <= hops; ++i) {
        const ThreadId c = i;
        t.begin(c);
        t.read(c, i - 1);
        t.write(c, i);
        if (!opts.open_carriers)
            t.end(c);
    }

    // The closing access: the victim's open transaction is ordered
    // before the last write it now observes.
    if (opts.serializable)
        t.begin(victim);
    if (opts.close_by_write)
        t.write(victim, hops);
    else
        t.read(victim, hops);

    // Unwind: carriers close, then the victim.
    if (opts.open_carriers) {
        for (uint32_t i = 1; i <= hops; ++i)
            t.end(i);
    }
    t.end(victim);
    return t;
}

} // namespace aero::gen
