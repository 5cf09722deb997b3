/**
 * @file
 * One node of the simulated cluster: a full System (cores, LLC, DRAM)
 * driven epoch-by-epoch under an externally granted power cap, plus
 * an open-loop request queue served by the instructions the node
 * actually retired.
 *
 * NodeSim::advanceEpoch takes one step of the single-machine
 * EpochDriver (sim/runner.hh) — the same rotation, fault seams,
 * decision, observation and auditors as run() — with two
 * cluster-specific twists: the granted cap is pushed into the policy
 * (Policy::setPowerCap) before the step, and the node runs open-ended
 * (the workload is a compute substrate, not a finite job), so there
 * is no completion handling.
 *
 * Determinism: a node owns every bit of its state (System, policy
 * instance, epoch driver) and advanceEpoch touches nothing shared,
 * so the cluster may advance nodes on any thread in any order and the
 * per-node outcomes are bit-identical. Trace emission is deliberately
 * left to the cluster layer, which serializes it in node-index order.
 */

#ifndef COSCALE_CLUSTER_NODE_HH
#define COSCALE_CLUSTER_NODE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cluster/health.hh"
#include "fault/fault_injector.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

namespace coscale {
namespace cluster {

/**
 * The node's physical condition, as churn actually leaves it —
 * distinct from NodeHealth, which is only the monitor's belief.
 */
enum class NodePhase
{
    Up,      //!< running normally under its grant
    Hung,    //!< wedged: powered (stuck at last power) but retiring
             //!< and serving nothing, heartbeats missed
    Down,    //!< crashed or fenced: zero power, zero service
    Ramping, //!< rebooted at all-min, warming up before full load
};

const char *nodePhaseName(NodePhase p);

/** One routed batch of requests, FIFO by arrival epoch. */
struct QueuedBatch
{
    std::uint64_t arrivalEpoch = 0;
    std::uint64_t remaining = 0;
};

/** What one epoch under a grant did, as the allocator and traces see it. */
struct NodeEpochOutcome
{
    /** The cap this epoch ran under (0 = uncapped). */
    double grantW = 0.0;

    /** Measured average power over the whole epoch (profiling included). */
    double avgPowerW = 0.0;
    double cpuW = 0.0;
    double memW = 0.0;

    /** Measured energy of the whole epoch, joules. */
    double energyJ = 0.0;

    /** Model-predicted power of the applied configuration. */
    double predictedW = 0.0;

    /**
     * Model-predicted power envelope of this node on this epoch's
     * measured profile: all-min and all-max configurations. The
     * allocator's feasibility bounds for the next grant round. When
     * the model output is non-finite (a fault-poisoned profile) the
     * previous finite values are carried.
     */
    double minW = 0.0;
    double maxW = 0.0;

    /** The policy predicted over its grant (grant > 0 only). */
    bool overCap = false;

    /** Instructions retired this epoch — the request-serving capacity. */
    std::uint64_t instrs = 0;

    /** Applied memory ladder index and mean core ladder index. */
    int memIdx = 0;
    double avgCoreIdx = 0.0;
};

/** Queue outcome of one epoch's request service. */
struct NodeServiceStats
{
    std::uint64_t completed = 0;
    std::uint64_t sloViolations = 0;
    double latencySecsSum = 0.0;
    double maxLatencySecs = 0.0;
};

class NodeSim
{
  public:
    /**
     * @param node_id position in the cluster (labels and traces)
     * @param cfg complete node configuration (cfg.seed must already
     *        be the per-node seed — the cluster derives one per node)
     * @param apps one AppSpec per core (the compute substrate)
     * @param factory fresh policy instance for this node
     * @param faults fault plan (disabled plan = clean node)
     */
    NodeSim(int node_id, const SystemConfig &cfg,
            const std::vector<AppSpec> &apps,
            const PolicyFactory &factory,
            const fault::FaultPlan &faults);

    /**
     * Run one epoch under @p granted_cap_w (0 = uncapped: the policy
     * keeps whatever cap it was built with untouched).
     */
    NodeEpochOutcome advanceEpoch(double granted_cap_w);

    /**
     * Force a configuration before the first epoch. Capped clusters
     * boot every node in the all-min state: epoch 0 profiles under
     * it, so even the first epoch cannot overshoot the budget the
     * way an all-max cold start would.
     */
    void presetConfig(const FreqConfig &c) { sys.applyConfig(c); }

    /**
     * Add @p requests that arrived at @p arrival_epoch (fresh arrivals,
     * or a batch drained from a dead node and re-routed here),
     * preserving FIFO-by-arrival order: the batch goes before the
     * first queued batch that arrived later.
     */
    void enqueue(std::uint64_t arrival_epoch, std::uint64_t requests);

    /**
     * Serve queued requests with the capacity the last advanceEpoch
     * earned: floor(instrs / instr_per_request) whole requests, FIFO.
     * A request's latency spans its arrival epoch through the serving
     * epoch inclusive, at @p epoch_secs per epoch.
     */
    NodeServiceStats serveQueue(std::uint64_t epoch, double epoch_secs,
                                double instr_per_request,
                                double slo_secs);

    std::uint64_t queuedRequests() const;

    // --- failure-domain lifecycle (driven serially by ClusterSim's
    // --- epoch pre-phase; see cluster.cc and DESIGN.md §12) ---

    NodePhase phase() const { return phaseNow; }
    NodeHealth health() const { return healthNow; }
    void setHealth(NodeHealth h) { healthNow = h; }

    /**
     * Advance the lifecycle clocks one epoch: a finished downtime
     * reboots into the all-min configuration (Ramping, or Up when the
     * ramp is zero), a finished hang resumes Up, a finished ramp
     * resumes Up, and an active blackout ticks down.
     */
    void beginEpoch();

    /**
     * Power loss (a drawn crash/flap, or a dead-verdict fence): down
     * for @p down_epochs, then reboot into all-min and ramp for
     * @p ramp_epochs. A transition the fault layer delayed is lost
     * with the power.
     */
    void crash(int down_epochs, int ramp_epochs);

    /** Wedge for @p epochs: powered but inert, heartbeats missed. */
    void hang(int epochs);

    /** Suppress telemetry toward the allocator for @p epochs. */
    void blackout(int epochs);

    bool blackoutActive() const { return blackoutLeft > 0; }

    /**
     * True when the allocator holds a trustworthy report of this
     * node's last epoch (false right after hangs and reboots until
     * the next normal epoch completes).
     */
    bool telemetryOk() const { return telemetryFresh; }

    /**
     * Conservative power reservation for a node whose telemetry is
     * stale or whose heartbeats are missing: the larger of the last
     * grant it is known to have received and the last all-max
     * envelope it reported. Budgeting a silent node at this level
     * keeps the global cap safe even if it is hung and still drawing.
     */
    double
    staleReserveW() const
    {
        return std::max(lastGrantW, lastMaxW);
    }

    /** Last-known all-min power: the warm-up grant after a reboot. */
    double rebootFloorW() const { return lastMinW; }

    /**
     * The epoch of a hung node: nothing advances, nothing retires,
     * but the machine is still powered and stuck drawing its last
     * measured power. Service capacity collapses to zero.
     */
    NodeEpochOutcome holdEpoch();

    /** The epoch of a crashed/fenced node: zero power, zero service. */
    NodeEpochOutcome downEpoch();

    /**
     * Hand the queue over for re-routing (dead-node drain). The
     * queue is left empty; batches keep their arrival epochs so
     * latency accounting survives the move.
     */
    std::vector<QueuedBatch> drainQueue();

    int id() const { return nodeId; }
    const System &system() const { return sys; }
    std::uint64_t eventsDispatched() const
    {
        return sys.eventsDispatched();
    }
    fault::FaultSummary faultSummary() const
    {
        const fault::FaultInjector *inj = driver.faults();
        return inj ? inj->summary() : fault::FaultSummary{};
    }

  private:
    int nodeId;
    System sys;
    std::unique_ptr<Policy> policy;
    EpochDriver driver;

    std::uint64_t lastInstrs = 0;
    double lastMinW = 0.0;
    double lastMaxW = 0.0;
    std::deque<QueuedBatch> queue;

    // Lifecycle state (mutated only in the cluster's serial phases
    // and by this node's own epoch — never shared across workers).
    NodePhase phaseNow = NodePhase::Up;
    NodeHealth healthNow = NodeHealth::Alive;
    int downLeft = 0;     //!< epochs of downtime remaining
    int hangLeft = 0;     //!< epochs of hang remaining
    int blackoutLeft = 0; //!< epochs of telemetry blackout remaining
    int rampLeft = 0;     //!< warm-up epochs remaining
    int pendingRamp = 0;  //!< ramp length to apply at reboot
    bool telemetryFresh = true;
    double lastGrantW = 0.0;
    NodeEpochOutcome lastOut; //!< the hold template for hung epochs
};

} // namespace cluster
} // namespace coscale

#endif // COSCALE_CLUSTER_NODE_HH
