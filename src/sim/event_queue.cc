#include "sim/event_queue.hh"

#include "check/contract.hh"

namespace coscale {

void
EventQueue::reset(int num_components)
{
    COSCALE_CHECK(num_components >= 0,
                  "negative component count %d", num_components);
    keys.assign(static_cast<std::size_t>(num_components), maxTick);
}

} // namespace coscale
