#include "cluster/node.hh"

#include <cmath>

#include "check/contract.hh"

namespace coscale {
namespace cluster {

const char *
nodePhaseName(NodePhase p)
{
    switch (p) {
      case NodePhase::Up:
        return "up";
      case NodePhase::Hung:
        return "hung";
      case NodePhase::Down:
        return "down";
      case NodePhase::Ramping:
        return "ramping";
    }
    return "?";
}

// No sink: the cluster layer owns tracing (nodes advance
// concurrently).
NodeSim::NodeSim(int node_id, const SystemConfig &cfg,
                 const std::vector<AppSpec> &apps,
                 const PolicyFactory &factory,
                 const fault::FaultPlan &faults)
    : nodeId(node_id), sys(cfg, apps), policy([&] {
          std::unique_ptr<Policy> p = factory();
          COSCALE_CHECK(p != nullptr,
                        "node %d: policy factory returned null", node_id);
          return p;
      }()),
      driver(sys, *policy, faults)
{
}

NodeEpochOutcome
NodeSim::advanceEpoch(double granted_cap_w)
{
    // Policies read their cap only when they decide, so the grant
    // can be pushed before the step.
    if (granted_cap_w > 0.0)
        policy->setPowerCap(granted_cap_w);
    EpochStep st = driver.step();
    const EnergyModel &em = driver.energyModel();

    NodeEpochOutcome out;
    out.grantW = granted_cap_w;

    // Epoch energy/power: time-weighted across the two windows.
    const PowerBreakdown &prof_pb = st.profiling.power;
    const PowerBreakdown &run_pb = st.running.power;
    double prof_secs = st.profiling.secs;
    double run_secs = st.running.secs;
    double secs = prof_secs + run_secs;
    out.energyJ = prof_pb.totalW() * prof_secs
                  + run_pb.totalW() * run_secs;
    out.avgPowerW = secs > 0.0 ? out.energyJ / secs : 0.0;
    out.cpuW = secs > 0.0 ? (prof_pb.cpuW * prof_secs
                             + run_pb.cpuW * run_secs)
                                / secs
                          : 0.0;
    out.memW = secs > 0.0 ? (prof_pb.memW * prof_secs
                             + run_pb.memW * run_secs)
                                / secs
                          : 0.0;

    // Model views for the allocator: what the policy thought it
    // applied, and the feasibility envelope on the *measured* epoch
    // profile (clean by construction — faults only touch the profile
    // the policy reads). Non-finite predictions (fault-poisoned
    // profile reached the decision) carry the previous envelope.
    const FreqConfig &granted = st.granted;
    double pred = em.systemPower(st.profile, granted);
    out.predictedW = std::isfinite(pred) ? pred : out.avgPowerW;
    int n = sys.numCores();
    FreqConfig all_max = FreqConfig::allMax(n);
    FreqConfig all_min;
    all_min.coreIdx.assign(static_cast<size_t>(n),
                           em.cores().size() - 1);
    all_min.memIdx = em.mem().size() - 1;
    double min_w = em.systemPower(st.obs.epochProfile, all_min);
    double max_w = em.systemPower(st.obs.epochProfile, all_max);
    if (std::isfinite(min_w))
        lastMinW = min_w;
    if (std::isfinite(max_w))
        lastMaxW = max_w;
    out.minW = lastMinW;
    out.maxW = lastMaxW;
    out.overCap = granted_cap_w > 0.0
                  && out.predictedW > granted_cap_w;

    std::uint64_t instrs = 0;
    for (std::uint64_t v : st.obs.instrs)
        instrs += v;
    out.instrs = instrs;
    lastInstrs = instrs;

    out.memIdx = granted.memIdx;
    double idx_sum = 0.0;
    for (int idx : granted.coreIdx)
        idx_sum += idx;
    out.avgCoreIdx = granted.coreIdx.empty()
                         ? 0.0
                         : idx_sum / static_cast<double>(
                               granted.coreIdx.size());

    // A completed epoch is the lifecycle's reference point: the last
    // grant actually received, the hold template for a future hang,
    // and a fresh telemetry report for the allocator.
    lastGrantW = granted_cap_w;
    lastOut = out;
    telemetryFresh = true;
    return out;
}

void
NodeSim::beginEpoch()
{
    if (phaseNow == NodePhase::Down) {
        downLeft -= 1;
        if (downLeft <= 0) {
            // Reboot: warm restart into the all-min configuration.
            // The workload state survives (warm reboot), but the
            // machine comes back at its power floor and ramps.
            const EnergyModel &em = driver.energyModel();
            FreqConfig low;
            low.coreIdx.assign(
                static_cast<size_t>(sys.numCores()),
                em.cores().size() - 1);
            low.memIdx = em.mem().size() - 1;
            sys.applyConfig(low);
            rampLeft = pendingRamp;
            phaseNow = rampLeft > 0 ? NodePhase::Ramping
                                    : NodePhase::Up;
        }
    } else if (phaseNow == NodePhase::Hung) {
        hangLeft -= 1;
        if (hangLeft <= 0)
            phaseNow = NodePhase::Up;
    } else if (phaseNow == NodePhase::Ramping) {
        rampLeft -= 1;
        if (rampLeft <= 0)
            phaseNow = NodePhase::Up;
    }
    if (blackoutLeft > 0)
        blackoutLeft -= 1;
}

void
NodeSim::crash(int down_epochs, int ramp_epochs)
{
    COSCALE_CHECK(down_epochs >= 1, "downtime must be >= 1 epoch");
    phaseNow = NodePhase::Down;
    downLeft = down_epochs;
    pendingRamp = ramp_epochs >= 0 ? ramp_epochs : 0;
    hangLeft = 0;
    blackoutLeft = 0;
    lastInstrs = 0;
    telemetryFresh = false;
    driver.discardPendingTransition();
}

void
NodeSim::hang(int epochs)
{
    COSCALE_CHECK(epochs >= 1, "hang must last >= 1 epoch");
    if (phaseNow != NodePhase::Up)
        return;
    phaseNow = NodePhase::Hung;
    hangLeft = epochs;
}

void
NodeSim::blackout(int epochs)
{
    COSCALE_CHECK(epochs >= 1, "blackout must last >= 1 epoch");
    if (epochs > blackoutLeft)
        blackoutLeft = epochs;
}

NodeEpochOutcome
NodeSim::holdEpoch()
{
    // Wedged: the machine neither advances nor obeys new grants, but
    // it is still powered — stuck drawing what it drew last epoch.
    // This is exactly why silent nodes get conservative reservations:
    // reclaiming a hung node's grant would double-spend its watts.
    NodeEpochOutcome out = lastOut;
    out.grantW = lastGrantW;
    out.instrs = 0;
    out.overCap = false;
    lastInstrs = 0;
    telemetryFresh = false;
    return out;
}

NodeEpochOutcome
NodeSim::downEpoch()
{
    lastInstrs = 0;
    telemetryFresh = false;
    return NodeEpochOutcome{};
}

std::vector<QueuedBatch>
NodeSim::drainQueue()
{
    std::vector<QueuedBatch> drained(queue.begin(), queue.end());
    queue.clear();
    return drained;
}

void
NodeSim::enqueueAged(std::uint64_t arrival_epoch,
                     std::uint64_t requests)
{
    if (requests == 0)
        return;
    QueuedBatch b;
    b.arrivalEpoch = arrival_epoch;
    b.remaining = requests;
    // The queue is nondecreasing in arrival epoch (normal enqueues
    // append the current epoch); keep it that way so FIFO latency
    // accounting stays exact for re-routed work.
    auto it = std::find_if(queue.begin(), queue.end(),
                           [arrival_epoch](const QueuedBatch &q) {
                               return q.arrivalEpoch > arrival_epoch;
                           });
    queue.insert(it, b);
}

void
NodeSim::enqueue(std::uint64_t requests, std::uint64_t epoch)
{
    if (requests == 0)
        return;
    QueuedBatch b;
    b.arrivalEpoch = epoch;
    b.remaining = requests;
    queue.push_back(b);
}

NodeServiceStats
NodeSim::serveQueue(std::uint64_t epoch, double epoch_secs,
                    double instr_per_request, double slo_secs)
{
    NodeServiceStats stats;
    COSCALE_CHECK(instr_per_request >= 1.0,
                  "instr_per_request must be >= 1");
    std::uint64_t capacity = static_cast<std::uint64_t>(
        static_cast<double>(lastInstrs) / instr_per_request);
    while (capacity > 0 && !queue.empty()) {
        QueuedBatch &b = queue.front();
        std::uint64_t served =
            b.remaining < capacity ? b.remaining : capacity;
        b.remaining -= served;
        capacity -= served;
        stats.completed += served;
        // Arrival epoch through serving epoch inclusive: a request
        // served the epoch it arrived still waited one epoch.
        double latency =
            static_cast<double>(epoch - b.arrivalEpoch + 1)
            * epoch_secs;
        stats.latencySecsSum += latency * static_cast<double>(served);
        if (latency > stats.maxLatencySecs)
            stats.maxLatencySecs = latency;
        if (latency > slo_secs)
            stats.sloViolations += served;
        if (b.remaining == 0)
            queue.pop_front();
    }
    return stats;
}

std::uint64_t
NodeSim::queuedRequests() const
{
    std::uint64_t total = 0;
    for (const QueuedBatch &b : queue)
        total += b.remaining;
    return total;
}

} // namespace cluster
} // namespace coscale
