/**
 * @file
 * trace_dump — inspect a CoScale binary trace file: header summary,
 * per-stream statistics (rates, mixes, address footprint), and
 * optionally the first N records. Also doubles as a generator: with
 * --make APP it records a fresh trace for a catalogue application.
 *
 * The arguments are traceDumpOptionTable() in src/exp/options.cc;
 * `trace_dump --help` prints them.
 */

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "common/log.hh"
#include "exp/options.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "workloads/spec_catalogue.hh"

using namespace coscale;

namespace {

void
summarize(const std::string &path, int show_records)
{
    std::shared_ptr<const std::vector<TraceRecord>> buf;
    try {
        buf = loadTraceFile(path);
    } catch (const TraceParseError &e) {
        fatal("%s", e.what());
    }
    const auto &recs = *buf;

    std::uint64_t instrs = 0, cycles = 0, writes = 0;
    std::uint64_t alu = 0, fpu = 0, br = 0, mem = 0;
    std::set<BlockAddr> unique;
    BlockAddr lo = ~BlockAddr(0), hi = 0;
    for (const auto &r : recs) {
        instrs += r.gapInstrs;
        cycles += r.gapCycles;
        writes += r.isWrite;
        alu += r.aluOps;
        fpu += r.fpuOps;
        br += r.branchOps;
        mem += r.memOps;
        if (unique.size() < 1'000'000)
            unique.insert(r.addr);
        lo = std::min(lo, r.addr);
        hi = std::max(hi, r.addr);
    }
    double n = static_cast<double>(recs.size());
    double di = static_cast<double>(instrs);

    std::printf("%s:\n", path.c_str());
    std::printf("  records            : %zu\n", recs.size());
    std::printf("  instructions       : %llu\n",
                static_cast<unsigned long long>(instrs));
    std::printf("  base CPI           : %.3f\n", cycles / di);
    std::printf("  LLC accesses / ki  : %.2f\n", 1000.0 * n / di);
    std::printf("  write fraction     : %.3f\n", writes / n);
    std::printf("  mix (alu/fpu/br/mem): %.2f / %.2f / %.2f / %.2f\n",
                alu / di, fpu / di, br / di, mem / di);
    std::printf("  unique blocks      : %zu%s\n", unique.size(),
                unique.size() >= 1'000'000 ? "+" : "");
    std::printf("  address span       : [%#llx, %#llx]\n",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));

    for (int i = 0; i < show_records && i < static_cast<int>(n); ++i) {
        const TraceRecord &r = recs[static_cast<size_t>(i)];
        std::printf("  [%4d] gap=%u instr / %u cyc  addr=%#llx %s\n",
                    i, r.gapInstrs, r.gapCycles,
                    static_cast<unsigned long long>(r.addr),
                    r.isWrite ? "W" : "R");
    }
}

void
makeTrace(const std::string &app_name, const std::string &out,
          std::uint64_t instructions)
{
    AppSpec spec = appByName(app_name);
    double weight = 0.0;
    for (const auto &p : spec.phases)
        weight += static_cast<double>(p.instructions);
    spec = scalePhaseLengths(spec,
                             static_cast<double>(instructions) / weight);

    SyntheticTraceSource src(spec, 0, 12345);
    TraceFileWriter writer(out);
    std::uint64_t done = 0;
    while (done < instructions) {
        TraceRecord r = src.next();
        done += r.gapInstrs;
        writer.append(r);
    }
    writer.close();
    std::printf("wrote %llu records (%llu instructions) of '%s' to %s\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                static_cast<unsigned long long>(done),
                app_name.c_str(), out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    exp::TraceDumpOptions opt;
    exp::OptionTable table = exp::traceDumpOptionTable(opt);
    exp::parseArgsOrExit(table, argc, argv);

    if (!opt.makeApp.empty()) {
        if (opt.out.empty())
            fatal("--make requires --out FILE");
        makeTrace(opt.makeApp, opt.out, opt.instructions);
        return 0;
    }
    if (opt.file.empty()) {
        std::printf("%s\navailable applications:\n",
                    exp::helpText(table).c_str());
        for (const auto &name : catalogueNames())
            std::printf("  %s\n", name.c_str());
        return 1;
    }
    summarize(opt.file, opt.records);
    return 0;
}
