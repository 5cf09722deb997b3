#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "check/contract.hh"
#include "cluster/allocator.hh"
#include "common/json.hh"
#include "exp/engine.hh"
#include "exp/policies.hh"
#include "workloads/spec_catalogue.hh"

namespace coscale {
namespace cluster {

namespace {

/**
 * Nodes run open-ended: the mix is a compute substrate for the
 * request stream, not a finite job, so the per-app budget is pushed
 * out of reach (phase lengths were already expanded from the real
 * budget before this override).
 */
constexpr std::uint64_t openEndedBudget = 1'000'000'000'000ULL;

/** Effectively-uncapped watts for policies built without a budget. */
constexpr double uncappedWatts = 1e9;

} // namespace

LbPolicy
parseLbPolicy(const std::string &name)
{
    if (name == "rr" || name == "round-robin" || name == "roundrobin")
        return LbPolicy::RoundRobin;
    if (name == "least-loaded" || name == "leastloaded" || name == "ll")
        return LbPolicy::LeastLoaded;
    if (name == "weighted" || name == "capacity"
        || name == "weighted-capacity") {
        return LbPolicy::WeightedCapacity;
    }
    throw std::invalid_argument(
        "unknown load-balancer policy '" + name
        + "'; valid names: rr, least-loaded, weighted");
}

const char *
lbPolicyName(LbPolicy lb)
{
    switch (lb) {
      case LbPolicy::RoundRobin:
        return "rr";
      case LbPolicy::LeastLoaded:
        return "least-loaded";
      case LbPolicy::WeightedCapacity:
        return "weighted";
    }
    return "?";
}

void
sizeAsNode(SystemConfig &c)
{
    // Node-sized memory system: one channel, one DIMM. The 16-core
    // server's four-channel background power would swamp a small
    // node's dynamic range and leave nothing for a cap to trade.
    c.geom.channels = 1;
    c.geom.dimmsPerChannel = 1;
    c.power.geom = c.geom;
    c.warmupEpochs = 0;
    // Fleet nodes keep the DVFS-only knob space: the LLC way
    // dimension is a single-server study, and small nodes (2 cores,
    // 16 ways) would otherwise open the partition gate under CI's
    // COSCALE_KNOB_LLC_WAYS=1 leg and break the cluster goldens.
    c.knobs.llcWays = false;
}

SystemConfig
makeNodeConfig(double scale, int cores)
{
    SystemConfig c = makeScaledConfig(scale);
    COSCALE_CHECK(cores >= 1 && cores <= c.numCores,
                  "node cores must be in [1, %d]", c.numCores);
    c.numCores = cores;
    c.power.numCores = cores;
    sizeAsNode(c);
    return c;
}

ClusterSim::ClusterSim(const ClusterConfig &cfg_in)
    : cfg(cfg_in),
      monitor(cfg_in.numNodes >= 1 ? cfg_in.numNodes : 1,
              cfg_in.churn.suspectAfter, cfg_in.churn.deadAfter),
      churnSeedVal(churnSeed(cfg_in.churn, cfg_in.seed))
{
    COSCALE_CHECK(cfg.numNodes >= 1, "cluster needs at least 1 node");
    COSCALE_CHECK(cfg.epochs >= 1, "cluster needs at least 1 epoch");
    if (cfg.churn.enabled()) {
        COSCALE_CHECK(cfg.churn.rebootEpochs >= 1,
                      "churn reboot downtime must be >= 1 epoch");
        COSCALE_CHECK(cfg.churn.rampEpochs >= 0,
                      "churn ramp must be >= 0 epochs");
        COSCALE_CHECK(cfg.churn.hangEpochs >= 1
                          && cfg.churn.blackoutEpochs >= 1,
                      "churn episode lengths must be >= 1 epoch");
    }

    const WorkloadMix &mix = mixByName(cfg.mix);
    std::vector<AppSpec> apps =
        expandMix(mix, cfg.node.numCores, cfg.node.instrBudget);

    double node_cap = cfg.budgetW > 0.0
                          ? cfg.budgetW / cfg.numNodes
                          : uncappedWatts;
    PolicyFactory factory = exp::requirePolicyFactory(
        cfg.policy, cfg.node.numCores, cfg.node.gamma, node_cap);

    nodes.reserve(static_cast<size_t>(cfg.numNodes));
    for (int i = 0; i < cfg.numNodes; ++i) {
        SystemConfig nc = cfg.node;
        std::uint64_t s = arrivalHash(
            cfg.seed, static_cast<std::uint64_t>(i),
            ArrivalStream::NodeSeed);
        nc.seed = s ? s : 1;
        nc.instrBudget = openEndedBudget;
        nodes.push_back(std::make_unique<NodeSim>(i, nc, apps,
                                                  factory,
                                                  cfg.faults));
    }
    if (cfg.budgetW > 0.0) {
        // Safe boot: a capped fleet starts all-min, so epoch 0 (which
        // profiles under the boot configuration) stays under any
        // feasible budget instead of opening flat-out at all-max.
        FreqConfig low = FreqConfig::allMin(cfg.node.numCores,
                                            cfg.node.coreLadder.size(),
                                            cfg.node.memLadder.size());
        for (std::unique_ptr<NodeSim> &nd : nodes)
            nd->presetConfig(low);
    }
    outcomes.assign(static_cast<size_t>(cfg.numNodes),
                    NodeEpochOutcome{});
}

void
ClusterSim::attachObs(TraceSink *sink_, MetricsRegistry *metrics_)
{
    sink = sink_;
    metrics = metrics_;
}

std::vector<std::uint64_t>
largestRemainderSplit(std::uint64_t total,
                      const std::vector<double> &weights,
                      std::uint64_t rotation, bool rotate_leftovers)
{
    size_t n = weights.size();
    std::vector<std::uint64_t> counts(n, 0);
    if (n == 0 || total == 0)
        return counts;

    std::vector<double> w(n, 0.0);
    double wsum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double v = weights[i];
        w[i] = std::isfinite(v) && v > 0.0 ? v : 0.0;
        wsum += w[i];
    }
    if (!(wsum > 0.0)) {
        w.assign(n, 1.0);
        wsum = static_cast<double>(n);
    }

    // Largest-remainder apportionment: exact integer split, biased
    // only by the fractional parts (deterministic tie-break by node
    // index; rotate_leftovers rotates the leftover start so small
    // streams do not always favour node 0).
    std::vector<double> frac(n, 0.0);
    std::uint64_t assigned = 0;
    for (size_t i = 0; i < n; ++i) {
        double share = static_cast<double>(total) * w[i] / wsum;
        double fl = std::floor(share);
        counts[i] = static_cast<std::uint64_t>(fl);
        frac[i] = share - fl;
        assigned += counts[i];
    }
    std::uint64_t leftover = total > assigned ? total - assigned : 0;
    if (rotate_leftovers) {
        size_t start = static_cast<size_t>(rotation % n);
        for (std::uint64_t k = 0; k < leftover; ++k)
            counts[(start + k) % n] += 1;
    } else {
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&frac](size_t a, size_t b) {
                             return frac[a] > frac[b];
                         });
        for (std::uint64_t k = 0; k < leftover; ++k)
            counts[order[static_cast<size_t>(k) % n]] += 1;
    }
    return counts;
}

std::vector<double>
ClusterSim::routeWeights() const
{
    size_t n = nodes.size();
    std::vector<double> w(n, 1.0);
    if (cfg.lb == LbPolicy::LeastLoaded) {
        for (size_t i = 0; i < n; ++i) {
            w[i] = 1.0
                   / (1.0
                      + static_cast<double>(
                          nodes[i]->queuedRequests()));
        }
    } else if (cfg.lb == LbPolicy::WeightedCapacity && epochNo > 0) {
        for (size_t i = 0; i < n; ++i)
            w[i] = static_cast<double>(outcomes[i].instrs);
    }
    if (cfg.churn.enabled()) {
        // Route only where the monitor believes requests can land:
        // alive and rejoining nodes. Suspects keep their queue but
        // get no new work; dead/down nodes get nothing.
        double masked = 0.0;
        for (size_t i = 0; i < n; ++i) {
            NodeHealth h = nodes[i]->health();
            if (h != NodeHealth::Alive && h != NodeHealth::Rejoining)
                w[i] = 0.0;
            masked += w[i];
        }
        if (!(masked > 0.0)) {
            // Weight starvation (e.g. weighted-capacity with zero
            // instrs among the survivors): equal split across the
            // routable set, never back to the dead.
            for (size_t i = 0; i < n; ++i) {
                NodeHealth h = nodes[i]->health();
                w[i] = h == NodeHealth::Alive
                               || h == NodeHealth::Rejoining
                           ? 1.0
                           : 0.0;
            }
        }
    }
    return w;
}

std::vector<std::uint64_t>
ClusterSim::route(std::uint64_t arrivals,
                  const std::vector<double> &w)
{
    size_t n = nodes.size();
    if (arrivals == 0)
        return std::vector<std::uint64_t>(n, 0);
    if (cfg.churn.enabled()) {
        double total = 0.0;
        for (double v : w)
            total += v;
        // No routable node at all: the caller parks the arrivals
        // rather than letting the fallback resurrect dead targets.
        if (!(total > 0.0))
            return std::vector<std::uint64_t>(n, 0);
    }
    return largestRemainderSplit(arrivals, w, epochNo,
                                 cfg.lb == LbPolicy::RoundRobin);
}

std::vector<double>
ClusterSim::computeGrants()
{
    size_t n = nodes.size();
    std::vector<double> grants(n, 0.0);
    if (cfg.budgetW <= 0.0)
        return grants; // uncapped: advanceEpoch(0) leaves caps alone

    if (epochNo == 0) {
        // No outcomes to size demands from yet: even split.
        double share = cfg.budgetW / static_cast<double>(n);
        grants.assign(n, share);
        return grants;
    }
    std::vector<NodePowerDemand> demands(n);
    for (size_t i = 0; i < n; ++i) {
        demands[i].minW = outcomes[i].minW;
        demands[i].maxW = outcomes[i].maxW;
        demands[i].demand =
            static_cast<double>(nodes[i]->queuedRequests());
        if (!cfg.churn.enabled())
            continue;
        const NodeSim &nd = *nodes[i];
        NodePhase p = nd.phase();
        NodeHealth h = nd.health();
        if (p == NodePhase::Down || h == NodeHealth::Dead) {
            // Physically off, or declared dead and therefore fenced
            // in applyChurn(): reclaim the grant entirely.
            demands[i].trust = NodeTrust::Dead;
        } else if (p == NodePhase::Hung || nd.blackoutActive()
                   || h == NodeHealth::Suspect
                   || (p == NodePhase::Up && !nd.telemetryOk())) {
            // Silent or untrustworthy but possibly still drawing:
            // reserve the last-known conservative envelope as both
            // floor and ceiling. A node with no completed epoch yet
            // has no envelope — reserve the epoch-0 even share, the
            // cap its policy was built with and cannot exceed.
            double r = nd.staleReserveW();
            if (!(r > 0.0))
                r = cfg.budgetW / static_cast<double>(n);
            demands[i].minW = r;
            demands[i].maxW = r;
            demands[i].demand = 0.0;
            demands[i].trust = NodeTrust::Stale;
        } else if (p == NodePhase::Ramping) {
            // Rebooting node ramps from all-min: pin its grant to the
            // power floor until the ramp finishes so the survivors
            // keep the headroom the crash freed up. No history (it
            // crashed before its first epoch completed) falls back
            // to the even share — all-min draw is surely below it.
            double f = nd.telemetryOk() ? outcomes[i].minW
                                        : nd.rebootFloorW();
            if (!(f > 0.0))
                f = cfg.budgetW / static_cast<double>(n);
            demands[i].minW = f;
            demands[i].maxW = f;
            demands[i].demand = 0.0;
        }
    }
    return fastcapAllocate(cfg.budgetW, demands);
}

void
ClusterSim::emitChurnEvent(Tick tick, std::uint64_t node,
                           const char *kind,
                           std::uint64_t spanEpochs)
{
    if (sink) {
        TraceEvent ev(tick, "cluster", "churn");
        ev.f("epoch", epochNo).f("node", node).f("kind", kind);
        if (spanEpochs > 0)
            ev.f("epochs", spanEpochs);
        sink->write(ev);
    }
    if (metrics) {
        metrics->counter(std::string("cluster.churn.") + kind).inc();
    }
}

void
ClusterSim::applyChurn(std::vector<QueuedBatch> &drained)
{
    const ChurnPlan &plan = cfg.churn;
    size_t n = nodes.size();
    Tick tick = static_cast<Tick>(epochNo) * cfg.node.epochLen;
    for (size_t i = 0; i < n; ++i) {
        NodeSim &nd = *nodes[i];
        std::uint64_t node = static_cast<std::uint64_t>(i);

        // Advance lifecycle clocks first: reboots complete, hangs
        // unwedge, ramps finish — all before this epoch's draws, so
        // an episode's length is exactly what the draw said.
        nd.beginEpoch();

        // New failure episodes only strike running nodes. Priority
        // crash > flap > hang > blackout: at most one phase-changing
        // episode begins per node per epoch (a blackout can overlap
        // any of them but is redundant with crash/flap downtime).
        if (nd.phase() == NodePhase::Up) {
            if (churnCrashAt(plan, churnSeedVal, epochNo, node)) {
                nd.crash(plan.rebootEpochs, plan.rampEpochs);
                churnSum.crashes += 1;
                emitChurnEvent(
                    tick, node, "crash",
                    static_cast<std::uint64_t>(plan.rebootEpochs));
            } else if (churnFlapAt(plan, churnSeedVal, epochNo,
                                   node)) {
                nd.crash(1, plan.rampEpochs);
                churnSum.flaps += 1;
                emitChurnEvent(tick, node, "flap", 1);
            } else {
                int hang_len = churnHangLenAt(plan, churnSeedVal,
                                              epochNo, node);
                if (hang_len > 0) {
                    nd.hang(hang_len);
                    churnSum.hangs += 1;
                    emitChurnEvent(
                        tick, node, "hang",
                        static_cast<std::uint64_t>(hang_len));
                } else {
                    int bo = churnBlackoutLenAt(plan, churnSeedVal,
                                                epochNo, node);
                    if (bo > 0) {
                        nd.blackout(bo);
                        churnSum.blackouts += 1;
                        emitChurnEvent(
                            tick, node, "blackout",
                            static_cast<std::uint64_t>(bo));
                    }
                }
            }
        }

        // Heartbeat deadline: a node answers iff it is running (a
        // ramping node is running). Telemetry blackouts silence the
        // *reports* but not the heartbeat — the monitor only
        // suspects what stops answering.
        bool heartbeat = nd.phase() == NodePhase::Up
                         || nd.phase() == NodePhase::Ramping;
        HealthMonitor::Verdict v = monitor.observe(
            static_cast<int>(i), heartbeat);
        if (v.justDied) {
            churnSum.deaths += 1;
            // Fence before reclaiming: the monitor cannot tell a
            // crash from a hang, and reclaiming a hung node's watts
            // would double-spend them. Forcing power-off makes the
            // zero-reservation safe (STONITH).
            if (nd.phase() == NodePhase::Up
                || nd.phase() == NodePhase::Hung) {
                nd.crash(plan.rebootEpochs, plan.rampEpochs);
                churnSum.fences += 1;
                emitChurnEvent(
                    tick, node, "fence",
                    static_cast<std::uint64_t>(plan.rebootEpochs));
            }
            emitChurnEvent(tick, node, "dead", 0);
            // Self-healing: the dead node's backlog drains to the
            // balancer for re-routing across the survivors.
            std::vector<QueuedBatch> q = nd.drainQueue();
            drained.insert(drained.end(), q.begin(), q.end());
        }
        if (v.justRejoined)
            emitChurnEvent(tick, node, "rejoin", 0);
        if (nd.phase() == NodePhase::Up
            && monitor.health(static_cast<int>(i))
                   == NodeHealth::Rejoining) {
            // Ramp done and still answering: full member again.
            monitor.markRampDone(static_cast<int>(i));
            churnSum.rejoins += 1;
            emitChurnEvent(tick, node, "alive", 0);
        }
        nd.setHealth(monitor.health(static_cast<int>(i)));
    }
}

std::uint64_t
ClusterSim::unroutedRequests() const
{
    std::uint64_t total = 0;
    for (const QueuedBatch &b : unrouted)
        total += b.remaining;
    return total;
}

ClusterEpochStats
ClusterSim::step()
{
    size_t n = nodes.size();
    const bool churned = cfg.churn.enabled();
    ClusterEpochStats st;
    st.epoch = epochNo;

    // Serial churn pre-phase: lifecycle clocks, new episodes,
    // heartbeat deadlines, fencing, queue drains — all before the
    // balancer and allocator look at the fleet, so this epoch's
    // routing and grants already see this epoch's failures.
    std::vector<QueuedBatch> drained;
    if (churned)
        applyChurn(drained);

    std::uint64_t arrivals = arrivalsInEpoch(
        cfg.arrival, epochNo, ticksToSeconds(cfg.node.epochLen));
    st.arrivals = arrivals;

    std::vector<double> w = routeWeights();
    double wsum = 0.0;
    for (double v : w)
        wsum += v;
    const bool routable = !churned || wsum > 0.0;

    // Self-healing: batches drained from dead nodes (plus anything
    // parked from earlier all-dead epochs) are re-routed across the
    // survivors with their original arrival epochs, so their latency
    // keeps accruing from the real arrival, not the re-route.
    if (routable) {
        while (!unrouted.empty()) {
            drained.push_back(unrouted.front());
            unrouted.pop_front();
        }
        for (const QueuedBatch &b : drained) {
            std::vector<std::uint64_t> split = largestRemainderSplit(
                b.remaining, w, epochNo,
                cfg.lb == LbPolicy::RoundRobin);
            for (size_t i = 0; i < n; ++i) {
                if (split[i])
                    nodes[i]->enqueue(b.arrivalEpoch, split[i]);
            }
            st.reroutedRequests += b.remaining;
            churnSum.reroutedRequests += b.remaining;
        }
    } else {
        for (const QueuedBatch &b : drained)
            unrouted.push_back(b);
    }

    std::vector<std::uint64_t> routed = route(arrivals, w);
    if (!routable && arrivals > 0) {
        QueuedBatch park;
        park.arrivalEpoch = epochNo;
        park.remaining = arrivals;
        unrouted.push_back(park);
    } else {
        for (size_t i = 0; i < n; ++i)
            nodes[i]->enqueue(epochNo, routed[i]);
    }

    std::vector<double> grants = computeGrants();

    double epoch_secs = ticksToSeconds(cfg.node.epochLen);
    std::vector<NodeServiceStats> svc(n);

    // The parallel quantum: each node epoch is a sealed deterministic
    // unit; outcomes land in pre-sized slots, so worker scheduling
    // cannot reorder anything observable. The per-node directive
    // (run / hold / sleep) was fixed by the serial pre-phase.
    exp::parallelFor(
        exp::resolveJobs(cfg.jobs), n, [&](std::size_t i) {
            switch (nodes[i]->phase()) {
              case NodePhase::Down:
                outcomes[i] = nodes[i]->downEpoch();
                svc[i] = NodeServiceStats{};
                break;
              case NodePhase::Hung:
                outcomes[i] = nodes[i]->holdEpoch();
                svc[i] = NodeServiceStats{};
                break;
              case NodePhase::Up:
              case NodePhase::Ramping:
                outcomes[i] = nodes[i]->advanceEpoch(grants[i]);
                svc[i] = nodes[i]->serveQueue(
                    epochNo, epoch_secs,
                    cfg.arrival.instrPerRequest,
                    cfg.arrival.sloSecs);
                break;
            }
        });

    // Serial aggregation and tracing, in node-index order.
    double latency_sum = 0.0;
    Tick tick = static_cast<Tick>(epochNo + 1) * cfg.node.epochLen;
    for (size_t i = 0; i < n; ++i) {
        const NodeEpochOutcome &o = outcomes[i];
        st.grantSumW += o.grantW;
        st.powerW += o.avgPowerW;
        st.completed += svc[i].completed;
        st.sloViolations += svc[i].sloViolations;
        st.queued += nodes[i]->queuedRequests();
        latency_sum += svc[i].latencySecsSum;
        if (svc[i].maxLatencySecs > st.maxLatencySecs)
            st.maxLatencySecs = svc[i].maxLatencySecs;
        if (churned) {
            switch (nodes[i]->phase()) {
              case NodePhase::Down:
                st.downNodes += 1;
                break;
              case NodePhase::Hung:
                st.hungNodes += 1;
                break;
              default:
                break;
            }
        }
        if (sink) {
            TraceEvent ev(tick, "cluster", "node");
            ev.f("epoch", st.epoch)
                .f("node", static_cast<std::uint64_t>(i))
                .f("grant_w", o.grantW)
                .f("power_w", o.avgPowerW)
                .f("pred_w", o.predictedW)
                .f("min_w", o.minW)
                .f("max_w", o.maxW)
                .f("instrs", o.instrs)
                .f("queue", nodes[i]->queuedRequests())
                .f("completed", svc[i].completed)
                .f("slo_viol", svc[i].sloViolations)
                .f("mem_idx", o.memIdx)
                .f("avg_core_idx", o.avgCoreIdx);
            if (churned) {
                ev.f("phase", nodePhaseName(nodes[i]->phase()))
                    .f("health",
                       nodeHealthName(nodes[i]->health()));
            }
            sink->write(ev);
        }
    }
    st.queued += unroutedRequests();
    st.meanLatencySecs =
        st.completed
            ? latency_sum / static_cast<double>(st.completed)
            : 0.0;
    st.capExceeded = cfg.budgetW > 0.0 && st.powerW > cfg.budgetW;
    if (churned) {
        st.suspectNodes = static_cast<std::uint64_t>(
            monitor.countWith(NodeHealth::Suspect));
        st.deadNodes = static_cast<std::uint64_t>(
            monitor.countWith(NodeHealth::Dead));
        churnSum.downNodeEpochs += st.downNodes;
        for (size_t i = 0; i < n; ++i) {
            if (nodes[i]->phase() != NodePhase::Up) {
                st.degraded = true;
                break;
            }
        }
    }

    if (sink) {
        TraceEvent ev(tick, "cluster", "epoch");
        ev.f("epoch", st.epoch)
            .f("arrivals", st.arrivals)
            .f("grant_sum_w", st.grantSumW)
            .f("power_w", st.powerW)
            .f("budget_w", cfg.budgetW)
            .f("completed", st.completed)
            .f("slo_violations", st.sloViolations)
            .f("queued", st.queued)
            .f("mean_latency_s", st.meanLatencySecs)
            .f("max_latency_s", st.maxLatencySecs)
            .f("cap_exceeded",
               static_cast<std::uint64_t>(st.capExceeded ? 1 : 0));
        if (churned) {
            ev.f("down_nodes", st.downNodes)
                .f("hung_nodes", st.hungNodes)
                .f("suspect_nodes", st.suspectNodes)
                .f("dead_nodes", st.deadNodes)
                .f("rerouted", st.reroutedRequests)
                .f("degraded",
                   static_cast<std::uint64_t>(st.degraded ? 1 : 0));
        }
        sink->write(ev);
    }
    if (metrics) {
        metrics->counter("cluster.epochs").inc();
        metrics->counter("cluster.arrivals").inc(st.arrivals);
        metrics->counter("cluster.completed").inc(st.completed);
        metrics->counter("cluster.slo_violations")
            .inc(st.sloViolations);
        if (st.capExceeded)
            metrics->counter("cluster.cap_violations").inc();
        metrics->accum("cluster.power_w").sample(st.powerW);
        metrics->accum("cluster.queued").sample(
            static_cast<double>(st.queued));
        if (churned) {
            metrics->counter("cluster.rerouted_requests")
                .inc(st.reroutedRequests);
            metrics->counter("cluster.node_epochs_down")
                .inc(st.downNodes);
        }
    }
    epochNo += 1;
    return st;
}

ClusterResult
ClusterSim::run()
{
    ClusterResult r;
    size_t n = nodes.size();
    r.epochs.reserve(static_cast<size_t>(cfg.epochs));
    for (int e = 0; e < cfg.epochs; ++e) {
        ClusterEpochStats st = step();
        r.totalArrivals += st.arrivals;
        r.totalCompleted += st.completed;
        r.totalSloViolations += st.sloViolations;
        if (st.powerW > r.worstPowerW)
            r.worstPowerW = st.powerW;
        if (st.capExceeded)
            r.capViolationEpochs += 1;
        r.nodeEpochsServing += static_cast<std::uint64_t>(n)
                               - st.downNodes - st.hungNodes;
        if (st.degraded)
            r.sloViolationsDegraded += st.sloViolations;
        else
            r.sloViolationsClean += st.sloViolations;
        r.epochs.push_back(st);
    }
    r.nodeEpochs = static_cast<std::uint64_t>(cfg.epochs)
                   * static_cast<std::uint64_t>(n);
    r.availability =
        r.nodeEpochs
            ? static_cast<double>(r.nodeEpochsServing)
                  / static_cast<double>(r.nodeEpochs)
            : 1.0;
    r.churn = churnSum;
    r.finalQueued += unroutedRequests();
    for (const std::unique_ptr<NodeSim> &nd : nodes) {
        r.finalQueued += nd->queuedRequests();
        r.totalEvents += nd->eventsDispatched();
        r.faults += nd->faultSummary();
    }
    return r;
}

void
writeClusterJsonReport(const ClusterConfig &cfg,
                       const ClusterResult &result, std::ostream &os)
{
    JsonWriter j(os);
    j.beginObject();
    j.field("nodes", cfg.numNodes);
    j.field("policy", cfg.policy);
    j.field("mix", cfg.mix);
    j.field("budget_w", cfg.budgetW);
    j.field("lb", lbPolicyName(cfg.lb));
    j.field("arrival", formatArrivalSpec(cfg.arrival));
    j.field("seed", cfg.seed);
    j.field("cluster_epochs",
            static_cast<std::uint64_t>(cfg.epochs));
    j.field("total_arrivals", result.totalArrivals);
    j.field("total_completed", result.totalCompleted);
    j.field("total_slo_violations", result.totalSloViolations);
    j.field("final_queued", result.finalQueued);
    j.field("worst_power_w", result.worstPowerW);
    j.field("cap_violation_epochs", result.capViolationEpochs);
    if (cfg.faults.enabled())
        result.faults.writeJson(j);
    if (cfg.churn.enabled()) {
        j.beginObject("churn");
        j.field("spec", formatChurnSpec(cfg.churn));
        j.field("crashes", result.churn.crashes);
        j.field("flaps", result.churn.flaps);
        j.field("hangs", result.churn.hangs);
        j.field("blackouts", result.churn.blackouts);
        j.field("deaths", result.churn.deaths);
        j.field("fences", result.churn.fences);
        j.field("rejoins", result.churn.rejoins);
        j.field("rerouted_requests", result.churn.reroutedRequests);
        j.field("down_node_epochs", result.churn.downNodeEpochs);
        j.field("node_epochs", result.nodeEpochs);
        j.field("node_epochs_serving", result.nodeEpochsServing);
        j.field("availability", result.availability);
        j.field("slo_violations_degraded",
                result.sloViolationsDegraded);
        j.field("slo_violations_clean", result.sloViolationsClean);
        j.endObject();
    }
    j.beginArray("epochs");
    for (const ClusterEpochStats &st : result.epochs) {
        j.beginObject();
        j.field("epoch", st.epoch);
        j.field("arrivals", st.arrivals);
        j.field("grant_sum_w", st.grantSumW);
        j.field("power_w", st.powerW);
        j.field("completed", st.completed);
        j.field("slo_violations", st.sloViolations);
        j.field("queued", st.queued);
        j.field("mean_latency_s", st.meanLatencySecs);
        j.field("max_latency_s", st.maxLatencySecs);
        j.field("cap_exceeded", st.capExceeded);
        if (cfg.churn.enabled()) {
            j.field("down_nodes", st.downNodes);
            j.field("hung_nodes", st.hungNodes);
            j.field("suspect_nodes", st.suspectNodes);
            j.field("dead_nodes", st.deadNodes);
            j.field("rerouted", st.reroutedRequests);
            j.field("degraded", st.degraded);
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

} // namespace cluster
} // namespace coscale
