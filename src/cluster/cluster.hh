/**
 * @file
 * Fleet-scale simulation: N independent Systems (cluster/node.hh), an
 * open-loop seeded request generator (cluster/arrival.hh), a load
 * balancer, and a cluster-level power-cap allocator
 * (cluster/allocator.hh) that re-divides a global budget across the
 * nodes every cluster epoch while each node optimizes under its
 * grant.
 *
 * Epoch structure: the cluster epoch is the synchronization quantum.
 * Each cluster epoch the cluster (serially, in this order) draws the
 * epoch's arrivals, routes them, computes the per-node grants, then
 * fans the N node epochs out over exp::parallelFor — each node is a
 * sealed deterministic unit, so serial and --jobs N execution produce
 * bit-identical results — and finally aggregates and traces the
 * outcomes in node-index order.
 *
 * Cap semantics: budgetW > 0 arms the allocator; grants are pushed
 * into each node's policy via Policy::setPowerCap before it decides.
 * Policies that ignore the cap (everything except fastcap/powercap)
 * still *receive* grants — the cluster measures how badly an
 * uncoordinated fleet overshoots, which is the point of the
 * comparison.
 */

#ifndef COSCALE_CLUSTER_CLUSTER_HH
#define COSCALE_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include <deque>

#include "cluster/arrival.hh"
#include "cluster/churn.hh"
#include "cluster/health.hh"
#include "cluster/node.hh"
#include "fault/fault_plan.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"

namespace coscale {
namespace cluster {

/** How the balancer spreads an epoch's arrivals across nodes. */
enum class LbPolicy
{
    RoundRobin,       //!< equal weights, rotating remainder
    LeastLoaded,      //!< weight 1 / (1 + queued requests)
    WeightedCapacity, //!< weight = last epoch's retired instructions
};

/** Parse "rr" / "least-loaded" / "weighted". Throws on unknown names. */
LbPolicy parseLbPolicy(const std::string &name);
const char *lbPolicyName(LbPolicy lb);

/**
 * Weighted largest-remainder apportionment: split @p total into
 * integer counts proportional to @p weights, exactly conserving the
 * total. Non-positive and non-finite weights contribute nothing
 * while any weight is positive; when no weight is positive the split
 * falls back to equal weights. Leftover units go to the largest
 * fractional parts (stable, index-ordered tie-break), or rotate from
 * index (@p rotation % n) when @p rotate_leftovers is set (the
 * RoundRobin balancer's anti-bias).
 *
 * Pure and deterministic; property-tested in tests/test_cluster.cc
 * (conservation, zero-weight nodes, all-equal weights,
 * single-survivor routing).
 */
std::vector<std::uint64_t> largestRemainderSplit(
    std::uint64_t total, const std::vector<double> &weights,
    std::uint64_t rotation, bool rotate_leftovers);

/**
 * Size @p c as a fleet node, keeping its core count: a one-channel,
 * one-DIMM memory system, warmup disabled (a warming node runs
 * all-max, which would blow through any grant at cluster epoch 0),
 * and the DVFS-only knob space. Every fleet front end sizes its nodes
 * through this.
 */
void sizeAsNode(SystemConfig &c);

/**
 * A node SystemConfig sized for fleet runs: makeScaledConfig(scale)
 * shrunk to @p cores cores, then sizeAsNode().
 */
SystemConfig makeNodeConfig(double scale = 0.05, int cores = 2);

struct ClusterConfig
{
    int numNodes = 8;

    /** Per-node machine; every node gets a distinct derived seed. */
    SystemConfig node = makeNodeConfig();

    /** Table 1 mix running on every node (the compute substrate). */
    std::string mix = "MID1";

    /** Per-node policy name (exp/policies.hh spelling). */
    std::string policy = "fastcap";

    /** Global power budget in watts; <= 0 disables capping. */
    double budgetW = 0.0;

    /** Cluster epochs to simulate. */
    int epochs = 12;

    ArrivalSpec arrival;
    LbPolicy lb = LbPolicy::WeightedCapacity;

    /** Cluster seed: arrivals, routing, and per-node seeds derive. */
    std::uint64_t seed = 1;

    /** Fault plan applied to every node (per-node fault seeds). */
    fault::FaultPlan faults;

    /**
     * Node churn plan (crashes, hangs, flaps, telemetry blackouts)
     * plus the health monitor's suspicion thresholds. A disabled
     * plan (the default) skips the failure domain entirely and the
     * run is bit-identical to a pre-churn cluster.
     */
    ChurnPlan churn;

    /** Worker threads for the node fan-out (resolveJobs semantics). */
    int jobs = 1;
};

/** One cluster epoch, aggregated over all nodes. */
struct ClusterEpochStats
{
    std::uint64_t epoch = 0;
    std::uint64_t arrivals = 0;
    double grantSumW = 0.0;  //!< what the allocator handed out
    double powerW = 0.0;     //!< measured, summed over nodes
    std::uint64_t completed = 0;
    std::uint64_t sloViolations = 0;
    std::uint64_t queued = 0; //!< backlog after serving
    double meanLatencySecs = 0.0;
    double maxLatencySecs = 0.0;
    bool capExceeded = false; //!< budget armed and powerW > budget

    // Failure-domain view of the epoch (all zero when churn is off).
    std::uint64_t downNodes = 0;    //!< physically down this epoch
    std::uint64_t hungNodes = 0;    //!< wedged this epoch
    std::uint64_t suspectNodes = 0; //!< monitor belief after deadline
    std::uint64_t deadNodes = 0;    //!< monitor belief after deadline
    std::uint64_t reroutedRequests = 0; //!< drained and re-routed
    bool degraded = false; //!< any node not Up this epoch
};

/** Whole-run aggregate. */
struct ClusterResult
{
    std::vector<ClusterEpochStats> epochs;
    double worstPowerW = 0.0;
    std::uint64_t capViolationEpochs = 0;
    std::uint64_t totalArrivals = 0;
    std::uint64_t totalCompleted = 0;
    std::uint64_t totalSloViolations = 0;
    std::uint64_t finalQueued = 0;
    std::uint64_t totalEvents = 0; //!< kernel events, all nodes
    fault::FaultSummary faults;    //!< summed over nodes

    // Failure-domain aggregates (zero / 1.0 when churn is off).
    ChurnSummary churn;
    std::uint64_t nodeEpochs = 0;        //!< nodes x epochs
    std::uint64_t nodeEpochsServing = 0; //!< phase Up or Ramping
    double availability = 1.0; //!< serving node-epochs / node-epochs

    /** SLO attribution: violations in degraded vs clean epochs. */
    std::uint64_t sloViolationsDegraded = 0;
    std::uint64_t sloViolationsClean = 0;
};

class ClusterSim
{
  public:
    explicit ClusterSim(const ClusterConfig &cfg);

    /** Attach trace/metrics sinks (null detaches). Serial emission. */
    void attachObs(TraceSink *sink, MetricsRegistry *metrics);

    /** Advance every node one epoch; returns the aggregate. */
    ClusterEpochStats step();

    /** Run cfg.epochs steps and aggregate. */
    ClusterResult run();

    const ClusterConfig &config() const { return cfg; }
    int numNodes() const { return static_cast<int>(nodes.size()); }
    const NodeSim &node(int i) const
    {
        return *nodes[static_cast<size_t>(i)];
    }
    const std::vector<NodeEpochOutcome> &lastOutcomes() const
    {
        return outcomes;
    }

    /** Requests parked while no node was routable (counts as queue). */
    std::uint64_t unroutedRequests() const;

  private:
    /**
     * The serial churn pre-phase for one epoch: advance lifecycle
     * clocks, draw new failure episodes, evaluate every heartbeat
     * deadline, fence and drain freshly-dead nodes (their batches
     * land in @p drained), and promote finished ramps.
     */
    void applyChurn(std::vector<QueuedBatch> &drained);

    /** Balancer weights for this epoch, churn-masked; all-zero means
     *  no routable node (the caller parks the work). */
    std::vector<double> routeWeights() const;

    std::vector<std::uint64_t> route(std::uint64_t arrivals,
                                     const std::vector<double> &w);
    std::vector<double> computeGrants();

    void emitChurnEvent(Tick tick, std::uint64_t node,
                        const char *kind, std::uint64_t spanEpochs);

    ClusterConfig cfg;
    std::vector<std::unique_ptr<NodeSim>> nodes;
    std::vector<NodeEpochOutcome> outcomes; //!< last epoch, per node
    std::uint64_t epochNo = 0;
    TraceSink *sink = nullptr;
    MetricsRegistry *metrics = nullptr;

    // Failure domain (inert when cfg.churn is disabled).
    HealthMonitor monitor;
    std::uint64_t churnSeedVal = 0;
    ChurnSummary churnSum;
    std::deque<QueuedBatch> unrouted; //!< parked: no routable node
};

/** Machine-readable run report (deterministic; epoch series + totals). */
void writeClusterJsonReport(const ClusterConfig &cfg,
                            const ClusterResult &result,
                            std::ostream &os);

} // namespace cluster
} // namespace coscale

#endif // COSCALE_CLUSTER_CLUSTER_HH
