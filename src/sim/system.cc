#include "sim/system.hh"

#include <algorithm>

#include <cstdlib>

#include "check/contract.hh"
#include "common/log.hh"
#include "model/knobs.hh"
#include "trace/synthetic.hh"

namespace coscale {

SystemConfig
makeScaledConfig(double scale)
{
    COSCALE_CHECK(scale > 0.0 && scale <= 1.0,
                  "time scale must be in (0, 1]");
   SystemConfig cfg;
   cfg.timeScale = scale;
   cfg.instrBudget =
       static_cast<std::uint64_t>(100e6 * scale + 0.5);
   cfg.epochLen = static_cast<Tick>(5.0 * tickPerMs * scale + 0.5);
   cfg.profileLen = static_cast<Tick>(300.0 * tickPerUs * scale + 0.5);
   cfg.coreTransitionTicks =
       static_cast<Tick>(30.0 * tickPerUs * scale + 0.5);
   // Scale the memory re-calibration penalty consistently with the
   // epoch length so transition overheads keep the paper's relative
   // cost (they are "negligible" against 5 ms epochs).
   cfg.timing.recalCycles = std::max(
       1, static_cast<int>(512.0 * scale + 0.5));
   cfg.timing.recalExtraNs = 28.0 * scale;

   cfg.power.geom = cfg.geom;
   cfg.power.timing = cfg.timing;
   cfg.power.numCores = cfg.numCores;

   // CI's non-default-backend leg steers every config built through
   // this funnel via the environment; unset (or empty) variables
   // leave the paper's backend untouched, and backend-pinned tests
   // re-apply their explicit selection afterwards.
   MemBackendSel sel = cfg.memBackend;
   bool overridden = false;
   // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; no setenv in the process
   if (const char *e = std::getenv("COSCALE_MEM_SCHED"); e && *e) {
       COSCALE_CHECK(parseMemSched(e, &sel.sched),
                     "bad COSCALE_MEM_SCHED '%s'", e);
       overridden = true;
   }
   // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; no setenv in the process
   if (const char *e = std::getenv("COSCALE_ROW_POLICY"); e && *e) {
       COSCALE_CHECK(parseRowPolicy(e, &sel.rowPolicy),
                     "bad COSCALE_ROW_POLICY '%s'", e);
       overridden = true;
   }
   // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; no setenv in the process
   if (const char *e = std::getenv("COSCALE_DRAM_STANDARD"); e && *e) {
       COSCALE_CHECK(parseDramStandard(e, &sel.standard),
                     "bad COSCALE_DRAM_STANDARD '%s'", e);
       overridden = true;
   }
   if (overridden)
       applyMemBackend(cfg, sel);
   // CI's knob-partition leg turns on the LLC way dimension the same
   // way; the System's own gate (ways >= 2 * cores) keeps it inert on
   // geometries with no room to partition, such as the default
   // 16-core/16-way server.
   // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; no setenv in the process
   if (const char *e = std::getenv("COSCALE_KNOB_LLC_WAYS");
       e && *e && *e != '0') {
       cfg.knobs.llcWays = true;
   }
   return cfg;
}

void
applyMemBackend(SystemConfig &cfg, const MemBackendSel &sel)
{
   cfg.memBackend = sel;
   const DramStandardInfo &info = dramStandardInfo(sel.standard);
   DramTimingParams timing = info.timing;
   // Rescale the recalibration penalty with the time scale, matching
   // makeScaledConfig()'s treatment of the DDR3 default.
   timing.recalCycles = std::max(
       1, static_cast<int>(info.timing.recalCycles * cfg.timeScale
                           + 0.5));
   timing.recalExtraNs = info.timing.recalExtraNs * cfg.timeScale;
   cfg.timing = timing;
   cfg.memLadder = standardMemLadder(sel.standard);
   cfg.power.timing = cfg.timing;
   cfg.power.mem.currents = info.currents;
   cfg.power.mem.fRef = info.busMax;
}

System::System(const SystemConfig &cfg_in, const std::vector<AppSpec> &apps)
   : cfg(cfg_in)
{
   int num_apps = static_cast<int>(apps.size());
   bool sched = cfg.schedQuantumEpochs > 0 && num_apps > cfg.numCores;
   if (sched) {
       COSCALE_CHECK(num_apps >= cfg.numCores,
                      "scheduling needs at least one app per core");
   } else {
       COSCALE_CHECK(num_apps == cfg.numCores,
                      "need one application per core (%d vs %d)",
                      num_apps, cfg.numCores);
   }

   coreCfg.ladder = cfg.coreLadder;
   coreCfg.transitionTicks = cfg.coreTransitionTicks;
   coreCfg.ooo = cfg.ooo;
   coreCfg.oooWindow = cfg.oooWindow;
   coreCfg.maxOutstanding = cfg.maxOutstanding;
   // Under scheduling, per-thread budgets are tracked by the System
   // through budget markers, not by the core itself.
   coreCfg.instrBudget = sched ? ~std::uint64_t(0) : cfg.instrBudget;

   cache = Llc(cfg.llc);
   // The way-partition dimension needs room to move under the QoS
   // floor; with fewer than two ways per core the gate stays closed
   // and the system is byte-identical to a knob-free build.
   if (cfg.knobs.llcWays && cfg.llc.ways >= 2 * cfg.numCores) {
       cache.setShadowTracking(cfg.numCores);
       // The even split is also the policies' performance reference
       // (KnobSpace::baselinePartition), so both layers share the
       // helper rather than each computing their own split.
       cache.setPartition(evenWaySplit(cfg.llc.ways, cfg.numCores));
   }

   MemCtrlConfig mcc;
   mcc.geom = cfg.geom;
   mcc.timing = cfg.timing;
   mcc.ladder = cfg.memLadder;
   mcc.writeHighWater = cfg.writeHighWater;
   mcc.writeLowWater = cfg.writeLowWater;
   mcc.respFixedNs = cfg.respFixedNs;
   mcc.backend = cfg.memBackend;
   mc = MemCtrl(mcc, 0);

   perf = PerfModel(cfg.timing, cfg.respFixedNs, cfg.llc.hitLatencyNs);

   PowerParams pp = cfg.power;
   pp.geom = cfg.geom;
   pp.timing = cfg.timing;
   pp.numCores = cfg.numCores;
   power = PowerModel(pp);

   coreVec.reserve(static_cast<size_t>(cfg.numCores));
   for (int i = 0; i < cfg.numCores; ++i) {
       TraceHandle trace(std::make_unique<SyntheticTraceSource>(
           apps[static_cast<size_t>(i)], i,
           cfg.seed * 7919 + static_cast<std::uint64_t>(i) * 104729));
       coreVec.emplace_back(i, &coreCfg, std::move(trace), 0);
       appOnCore.push_back(i);
       ticAtDispatch.push_back(0);
       if (sched)
           coreVec.back().setBudgetMarker(cfg.instrBudget);
   }
   eq.reset(1 + cfg.numCores);
   syncQueue();

   appInstrs.assign(static_cast<size_t>(num_apps), 0);
   appCompletion.assign(static_cast<size_t>(num_apps), maxTick);
   for (int a = cfg.numCores; a < num_apps; ++a) {
       ParkedApp p;
       p.app = a;
       p.trace = TraceHandle(std::make_unique<SyntheticTraceSource>(
           apps[static_cast<size_t>(a)], a,
           cfg.seed * 7919 + static_cast<std::uint64_t>(a) * 104729));
       parked.push_back(std::move(p));
   }
}

System::System(const System &other)
   : cfg(other.cfg), coreCfg(other.coreCfg), coreVec(other.coreVec),
     cache(other.cache), mc(other.mc), perf(other.perf),
     power(other.power), curTick(other.curTick),
     events(other.events),
     appOnCore(other.appOnCore), parked(other.parked),
     appInstrs(other.appInstrs), appCompletion(other.appCompletion),
     ticAtDispatch(other.ticAtDispatch), rotated(other.rotated),
     nextSwapCore(other.nextSwapCore)
{
   reseat();
}

System &
System::operator=(const System &other)
{
   if (this != &other) {
       cfg = other.cfg;
       coreCfg = other.coreCfg;
       coreVec = other.coreVec;
       cache = other.cache;
       mc = other.mc;
       perf = other.perf;
       power = other.power;
       curTick = other.curTick;
       events = other.events;
       appOnCore = other.appOnCore;
       parked = other.parked;
       appInstrs = other.appInstrs;
       appCompletion = other.appCompletion;
       ticAtDispatch = other.ticAtDispatch;
       rotated = other.rotated;
       nextSwapCore = other.nextSwapCore;
       reseat();
   }
   return *this;
}

void
System::reseat()
{
   for (auto &core : coreVec)
       core.reseatConfig(&coreCfg);
   // Queue membership is not copied; re-derive it from the cloned
   // components so the clone's keys reference the clone's state.
   eq.reset(1 + numCores());
   syncQueue();
}

void
System::syncQueue()
{
   rescheduleMc();
   for (int i = 0; i < numCores(); ++i)
       rescheduleCore(i);
}

void
System::forwardToMemory(Core &core, BlockAddr addr,
                        const LlcAccessResult &res)
{
   if (!res.hit) {
       std::uint64_t token = core.sendToMemory(curTick);
       MemReq req;
       req.addr = addr;
       req.kind = ReqKind::Read;
       req.core = core.id();
       req.arrival = curTick;
       req.token = token;
       mc.enqueue(req);
   }
   if (res.writeback) {
       MemReq wb;
       wb.addr = res.writebackAddr;
       wb.kind = ReqKind::Writeback;
       wb.arrival = curTick;
       mc.enqueue(wb);
   }
   if (res.prefetchIssued) {
       MemReq pf;
       pf.addr = res.prefetchAddr;
       pf.kind = ReqKind::Prefetch;
       pf.core = core.id();
       pf.arrival = curTick;
       mc.enqueue(pf);
   }
   if (res.prefetchWriteback) {
       MemReq wb;
       wb.addr = res.prefetchWritebackAddr;
       wb.kind = ReqKind::Writeback;
       wb.arrival = curTick;
       mc.enqueue(wb);
   }
   rescheduleMc();
}

void
System::run(Tick until)
{
   while (curTick < until) {
       // Scan–dispatch: the queue key (tick, rank) reproduces the old
       // polling scan's order exactly — the controller (rank 0) wins
       // ties against cores, and cores tie-break by index.
       int rank = eq.topRank();
       Tick best = eq.tickOf(rank);
       if (best >= until) {
           curTick = until;
           return;
       }
       // A candidate-selection switch in the memory scheduler (write
       // drain engaging, or the read queue running dry) can expose a
       // queued command whose timing floors all lie in the past; the
       // channel back-dates its issue to those floors.  Such events
       // are due immediately — the simulated clock never regresses.
       curTick = std::max(curTick, best);
       events += 1;
       if (rank == mcRank) {
           auto done = mc.step();
           rescheduleMc();
           if (done && done->kind == ReqKind::Read && done->core >= 0) {
               int c = done->core;
               coreVec[static_cast<size_t>(c)].memCompleted(
                   done->token, done->finishAt);
               rescheduleCore(c);
           }
           continue;
       }
       int i = rank - 1 - mcRank;
       Core &who = coreVec[static_cast<size_t>(i)];
       CoreEvent ev = who.step(curTick);
       if (ev.wantsLlc) {
           LlcAccessResult res = cache.access(ev.addr, ev.write, who.id());
           if (res.hit)
               who.completeHit(curTick, cache.hitLatency());
           // A hit reaches memory only through the next-line
           // prefetcher; a miss always does.
           if (!res.hit || res.prefetchIssued)
               forwardToMemory(who, ev.addr, res);
           // Inline hit return: the StallL2 step the queue would
           // dispatch at the wake tick touches only this core's
           // counters and trace, and nothing dispatched before it can
           // reach this core (a controller completion needs an
           // outstanding miss), so running it now is exact. At or
           // past `until` it must wait: the caller may snapshot,
           // retune or swap the core before the next run() call.
           if (res.hit && who.outstandingMisses() == 0
               && who.nextEventTick() < until) {
               events += 1;
               who.step(who.nextEventTick());
           }
       }
       // The record the core's trace generated ahead accesses the
       // LLC two compute gaps from now; start pulling its set into
       // the host cache already.
       if (who.computing())
           cache.prefetchSet(who.aheadAddr());
       rescheduleCore(i);
   }
}

bool
System::allAppsDone() const
{
   if (parked.empty() && !rotated) {
       for (const auto &core : coreVec) {
           if (!core.done())
               return false;
       }
       return true;
   }
   for (Tick t : appCompletionTicks()) {
       if (t == maxTick)
           return false;
   }
   return true;
}

Tick
System::lastCompletionTick() const
{
   Tick last = 0;
   for (Tick t : appCompletionTicks())
       last = std::max(last, t == maxTick ? Tick(0) : t);
   return last;
}

std::vector<Tick>
System::appCompletionTicks() const
{
   if (parked.empty() && !rotated) {
       std::vector<Tick> out;
       out.reserve(coreVec.size());
       for (const auto &core : coreVec)
           out.push_back(core.completionTick());
       return out;
   }
   // Scheduling mode: recorded completions, merged with any budget
   // markers that fired since the last harvest.
   std::vector<Tick> out = appCompletion;
   for (int i = 0; i < numCores(); ++i) {
       int app = appOnCore[static_cast<size_t>(i)];
       Tick marker = coreVec[static_cast<size_t>(i)].budgetMarkerTick();
       if (out[static_cast<size_t>(app)] == maxTick && marker != maxTick)
           out[static_cast<size_t>(app)] = marker;
   }
   return out;
}

void
System::harvestCore(int i)
{
   Core &core = coreVec[static_cast<size_t>(i)];
   int app = appOnCore[static_cast<size_t>(i)];
   std::uint64_t tic = core.counters().tic;
   appInstrs[static_cast<size_t>(app)] +=
       tic - ticAtDispatch[static_cast<size_t>(i)];
   ticAtDispatch[static_cast<size_t>(i)] = tic;
   Tick marker = core.budgetMarkerTick();
   if (appCompletion[static_cast<size_t>(app)] == maxTick
       && marker != maxTick) {
       appCompletion[static_cast<size_t>(app)] = marker;
   }
}

void
System::rotateApps()
{
   if (parked.empty())
       return;
   rotated = true;
   size_t swaps = parked.size();
   for (size_t j = 0; j < swaps; ++j) {
       int i = nextSwapCore;
       nextSwapCore = (nextSwapCore + 1) % numCores();
       harvestCore(i);

       ParkedApp incoming = std::move(parked.front());
       parked.erase(parked.begin());

       Core &core = coreVec[static_cast<size_t>(i)];
       TraceHandle outgoing = core.swapTrace(
           std::move(incoming.trace), curTick, cfg.contextSwitchTicks);

       ParkedApp out;
       out.app = appOnCore[static_cast<size_t>(i)];
       out.trace = std::move(outgoing);
       parked.push_back(std::move(out));

       appOnCore[static_cast<size_t>(i)] = incoming.app;
       ticAtDispatch[static_cast<size_t>(i)] = core.counters().tic;
       std::uint64_t done = appInstrs[static_cast<size_t>(incoming.app)];
       if (done < cfg.instrBudget) {
           core.setBudgetMarker(core.counters().tic
                                + (cfg.instrBudget - done));
       } else {
           core.setBudgetMarker(~std::uint64_t(0));
       }
       rescheduleCore(i);  // swapTrace restarted the core's clock
   }
}

void
System::applyConfig(const FreqConfig &fc)
{
   COSCALE_CHECK(static_cast<int>(fc.coreIdx.size()) == numCores(),
                  "decision size mismatch");
   for (int i = 0; i < numCores(); ++i) {
       coreVec[static_cast<size_t>(i)].setFrequencyIndex(
           fc.coreIdx[static_cast<size_t>(i)], curTick);
   }
   if (fc.chanIdx.empty()) {
       mc.setFrequency(ChannelSel::all(), fc.memIdx, curTick);
   } else {
       COSCALE_CHECK(static_cast<int>(fc.chanIdx.size())
                          == mc.numChannels(),
                      "per-channel decision size mismatch");
       for (int c = 0; c < mc.numChannels(); ++c) {
           mc.setFrequency(ChannelSel::one(c),
                           fc.chanIdx[static_cast<size_t>(c)], curTick);
       }
   }
   // Way-mask updates are a register write in CAT-style hardware:
   // no transition halt, resident lines migrate lazily on misses.
   if (!fc.wayIdx.empty()) {
       COSCALE_CHECK(static_cast<int>(fc.wayIdx.size()) == numCores(),
                      "way decision size mismatch");
       cache.setPartition(fc.wayIdx);
   }
   // Transition halts moved every component's next-event tick.
   syncQueue();
}

FreqConfig
System::currentConfig() const
{
   FreqConfig fc;
   fc.coreIdx.reserve(coreVec.size());
   for (const auto &core : coreVec)
       fc.coreIdx.push_back(core.frequencyIndex());
   fc.memIdx = mc.frequencyIndex();
   if (mc.perChannelFrequencies()) {
       for (int c = 0; c < mc.numChannels(); ++c)
           fc.chanIdx.push_back(mc.channelFrequencyIndex(c));
   }
   if (cache.partitionActive())
       fc.wayIdx = cache.partition();
   return fc;
}

CounterSnapshot
System::snapshot() const
{
   CounterSnapshot s;
   s.cores.reserve(coreVec.size());
   for (const auto &core : coreVec)
       s.cores.push_back(core.counters());
   s.mem = mc.totalCounters();
   for (int c = 0; c < mc.numChannels(); ++c)
       s.memChannels.push_back(mc.channelCounters(c));
   s.llc = cache.counters();
   if (cache.shadowTracking()) {
       s.llcWayHits = cache.shadowHits();
       s.llcShadowMiss = cache.shadowMisses();
   }
   s.tick = curTick;
   return s;
}

SystemProfile
System::makeProfile(const CounterSnapshot &since) const
{
   Tick elapsed = curTick - since.tick;
   COSCALE_CHECK(elapsed > 0, "empty profiling window");

   SystemProfile prof;
   prof.windowTicks = elapsed;
   prof.cores.reserve(coreVec.size());
   for (size_t i = 0; i < coreVec.size(); ++i) {
       CoreCounters delta = coreVec[i].counters() - since.cores[i];
       prof.cores.push_back(
           perf.coreProfile(delta, elapsed, coreVec[i].freq()));
       prof.profiledCoreIdx.push_back(coreVec[i].frequencyIndex());
   }
   ChannelCounters mem_delta = mc.totalCounters() - since.mem;
   prof.mem = perf.memProfile(mem_delta, elapsed, mc.busFreq(),
                              cfg.geom.channels, cfg.geom.totalRanks());
   prof.profiledMemIdx = mc.frequencyIndex();

   // Way-partition snapshot: the shadow monitors' partition-
   // independent miss curves, as per-instruction rates over the
   // window. Absent (waysTotal == 0) when partitioning is off, which
   // keeps the model on the legacy DVFS-only paths.
   if (cache.partitionActive() && cache.shadowTracking()
       && since.llcShadowMiss.size() == coreVec.size()) {
       prof.waysTotal = cfg.llc.ways;
       prof.wayFloor = cfg.knobs.wayFloor;
       prof.profiledWayIdx = cache.partition();
       const std::vector<std::uint64_t> &hits = cache.shadowHits();
       const std::vector<std::uint64_t> &miss = cache.shadowMisses();
       size_t ways = static_cast<size_t>(cfg.llc.ways);
       for (size_t i = 0; i < coreVec.size(); ++i) {
           std::uint64_t instrs =
               coreVec[i].counters().tic - since.cores[i].tic;
           if (instrs == 0)
               continue;  // empty curve; the model falls back to 1.0
           double inv = 1.0 / static_cast<double>(instrs);
           CoreProfile &c = prof.cores[i];
           c.wayHitsPerInstr.assign(ways, 0.0);
           for (size_t d = 0; d < ways; ++d) {
               c.wayHitsPerInstr[d] =
                   static_cast<double>(hits[i * ways + d]
                                       - since.llcWayHits[i * ways + d])
                   * inv;
           }
           c.shadowMissPerInstr =
               static_cast<double>(miss[i] - since.llcShadowMiss[i])
               * inv;
       }
   }

   // Per-channel profiles (MultiScale extension) and core homing.
   for (int c = 0; c < mc.numChannels(); ++c) {
       ChannelCounters d = mc.channelCounters(c)
                           - since.memChannels[static_cast<size_t>(c)];
       prof.channels.push_back(perf.memProfile(
           d, elapsed, mc.channelBusFreq(c), 1,
           cfg.geom.ranksPerChannel()));
   }
   if (cfg.geom.addrMap == AddrMap::RegionPerChannel) {
       for (size_t i = 0; i < prof.cores.size(); ++i) {
           prof.cores[i].homeChannel =
               static_cast<int>(i) % cfg.geom.channels;
       }
   }
   if (!parked.empty() || rotated)
       prof.appOnCore = appOnCore;
   return prof;
}

SystemProfile
System::oracleProfile(Tick horizon) const
{
   System clone(*this);
   clone.applyConfig(FreqConfig::allMax(clone.numCores()));
   // Skip the clone past the transition halts so the oracle window
   // reflects steady execution at maximum frequencies.
   Tick start = clone.now() + cfg.coreTransitionTicks;
   clone.run(start);
   CounterSnapshot s = clone.snapshot();
   clone.run(start + horizon);
   return clone.makeProfile(s);
}

PowerBreakdown
System::windowPower(const CounterSnapshot &since) const
{
   Tick elapsed = curTick - since.tick;
   COSCALE_CHECK(elapsed > 0, "empty power window");

   PowerBreakdown pb;
   for (size_t i = 0; i < coreVec.size(); ++i) {
       CoreCounters delta = coreVec[i].counters() - since.cores[i];
       int idx = coreVec[i].frequencyIndex();
       pb.cpuW += power.corePowerFromCounters(
           delta, elapsed, cfg.coreLadder.voltage(idx),
           cfg.coreLadder.freq(idx));
   }
   LlcCounters llc_delta = cache.counters() - since.llc;
   double llc_rate = static_cast<double>(llc_delta.accesses)
                     / ticksToSeconds(elapsed);
   pb.cpuW += power.l2Power(llc_rate);

   // Memory power is accounted per channel so per-channel DVFS
   // (MultiScale) is costed correctly; with uniform frequencies this
   // sums to the aggregate formulation.
   for (int c = 0; c < mc.numChannels(); ++c) {
       ChannelCounters d = mc.channelCounters(c)
                           - since.memChannels[static_cast<size_t>(c)];
       int idx = mc.channelFrequencyIndex(c);
       pb.memW += power.memChannelPowerFromCounters(
           d, elapsed, cfg.memLadder.voltage(idx),
           cfg.memLadder.freq(idx));
   }
   pb.otherW = power.otherPower();
   return pb;
}

std::vector<std::uint64_t>
System::instrsSince(const CounterSnapshot &since) const
{
   std::vector<std::uint64_t> out;
   out.reserve(coreVec.size());
   for (size_t i = 0; i < coreVec.size(); ++i)
       out.push_back(coreVec[i].counters().tic - since.cores[i].tic);
   return out;
}

} // namespace coscale
