/**
 * @file
 * The command-line surface of every front end as data. Each front
 * end's flags are one table of rows (name, target, help, range; the
 * target's type is the row's kind) and one loop, parseOptions(),
 * reads argv against it. Numbers go
 * through common/number_parse.hh: a token is consumed in full and
 * range-checked, so a bad one raises OptionParseError naming the flag
 * and the token, which each front end turns into its usage exit.
 * --help prints the table.
 *
 * The tables of coscale_sim, the figure/table harnesses
 * (BenchOptions), bench_cluster and trace_dump live here, so tests
 * can parse any documented invocation without running it; the small
 * examples write theirs inline. A table holds pointers into the
 * options it was built over, which must outlive it.
 *
 * The same rows, named by key, describe a "key=value,key=value" spec
 * (--arrival, --churn): parseSpec() stores each value as a flag's is
 * stored, and formatSpec() prints the rows back.
 */

#ifndef COSCALE_EXP_OPTIONS_HH
#define COSCALE_EXP_OPTIONS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "exp/bench_options.hh"
#include "fault/fault_plan.hh"

namespace coscale {
namespace exp {

/**
 * Structured command-line failure: a kind, the flag (or positional
 * name) it concerns, and the offending token.
 */
class OptionParseError : public std::runtime_error
{
  public:
    enum class Kind
    {
        UnknownFlag,  //!< not a flag here, or one positional too many
        MissingValue, //!< argv ends where the flag's value belongs
        BadNumber,    //!< not a number of the flag's kind
        OutOfRange,   //!< a number outside the flag's range
        BadValue,     //!< not one of the values the flag accepts
    };

    OptionParseError(Kind kind, std::string flag, std::string token,
                     const std::string &expected);

    Kind kind() const { return errKind; }
    const std::string &flag() const { return errFlag; }
    const std::string &token() const { return errToken; }

  private:
    Kind errKind;
    std::string errFlag;
    std::string errToken;
};

/**
 * Structured failure of a key=value spec: a kind, the offending token,
 * and its character offset into the spec, so front ends can point at
 * the exact mistake.
 */
class SpecParseError : public std::runtime_error
{
  public:
    enum class Kind
    {
        EmptySpec,    //!< the spec string is empty
        BadToken,     //!< token is not of the form key=value
        UnknownKey,   //!< key is not one of the rows
        BadValue,     //!< value is not of the key's kind
        OutOfRange,   //!< value parsed but lies outside the key's range
        DuplicateKey, //!< the same key appeared twice
    };

    SpecParseError(Kind kind, std::string token, std::size_t offset,
                   const std::string &expected);

    Kind kind() const { return errKind; }
    const std::string &token() const { return errToken; }
    std::size_t charOffset() const { return errOffset; }

  private:
    Kind errKind;
    std::string errToken;
    std::size_t errOffset;
};

/** The numbers a row accepts: lo to hi, each end open or closed. */
struct Range
{
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool loOpen = false;
    bool hiOpen = false;

    bool
    contains(double x) const
    {
        return (loOpen ? x > lo : x >= lo) && (hiOpen ? x < hi : x <= hi);
    }
};

/**
 * One row of an option table, written as an aggregate:
 *   {"--scale", "S", &o.scale, "time scale", scaleRange}
 * The target's type is the row's kind: a bool or an Action is a switch;
 * an int, uint64_t or double is an unsigned integer or a finite number
 * checked against the range; a string takes any text; a Setter takes
 * the values it accepts.
 */
struct Option
{
    /** Stores a value and returns true, or rejects it. */
    using Setter = std::function<bool(const std::string &)>;
    /** A switch's effect beyond setting one bool. */
    using Action = std::function<void()>;

    std::string name;    //!< "--scale"; no leading '-' = positional
    std::string metavar; //!< the value's placeholder in --help
    std::variant<bool *, Action, int *, std::uint64_t *, double *,
                 std::string *, Setter>
        target;
    std::string help;
    Range range{}; //!< numbers only
};

/** A front end's usage line plus its rows. */
struct OptionTable
{
    std::string usage; //!< e.g. "coscale_sim [options]"
    std::vector<Option> options;

    void add(Option row) { options.push_back(std::move(row)); }
};

/**
 * Read argv[1..argc) into the table's targets. Tokens starting with
 * '-' name flags; others fill the positional rows in order. Returns
 * false, storing nothing, when argv holds --help or -h. Throws
 * OptionParseError on any bad token and never exits.
 */
bool parseOptions(const OptionTable &table, int argc,
                  const char *const *argv);

/**
 * Read a "key=value,key=value" spec into @p rows, whose names are the
 * keys; each value is stored, number checks included, as
 * parseOptions() stores a flag's. Keys left out keep their targets'
 * values. Throws SpecParseError on an empty spec or an empty,
 * malformed, unknown, duplicate or bad token.
 */
void parseSpec(const std::vector<Option> &rows, const std::string &text);

/**
 * The spec parseSpec() reads back into @p rows' current values: every
 * row in order, numbers at %.17g.
 */
std::string formatSpec(const std::vector<Option> &rows);

/**
 * The --help text: the usage line and one line per row, showing each
 * number's range and each row's current (before parsing: default)
 * value.
 */
std::string helpText(const OptionTable &table);

/**
 * parseOptions() for a front end's main(): --help prints helpText()
 * and exits 0; an OptionParseError exits through fatal() (code 1).
 */
void parseArgsOrExit(const OptionTable &table, int argc,
                     const char *const *argv);

/**
 * coscale_sim's flags (examples/coscale_sim.cc): the harnesses' scale,
 * engine, observability and memory-backend flags, plus its own.
 */
struct SimOptions : BenchOptions
{
    std::string mix = "MID1";
    std::string policy = "coscale";
    double bound = 10.0;
    double cap = 120.0;
    int cores = 16;
    bool ooo = false;
    bool prefetch = false;
    bool regionMap = false;
    int freqSteps = 10;
    bool halfVoltage = false;
    double memPowerMult = 1.0;
    double otherFrac = 0.10;
    std::uint64_t seed = 1;
    std::string csvPath;
    std::string jsonPath;
    bool printEpochs = false;
    fault::FaultPlan faults;

    // Cluster mode (--nodes > 0).
    int nodes = 0;
    int nodeCores = 2;
    double powerCap = 0.0;
    int clusterEpochs = 12;
    std::string arrival;
    std::string lb = "weighted";
    std::string churn;
};

/** bench_cluster's flags (bench/bench_cluster.cc). */
struct ClusterBenchOptions
{
    int nodes = 64;
    int epochs = 8;
    double scale = 0.02;
    int nodeCores = 2;
    int jobs = 0;
    std::string mix = "MID1";
    std::string arrival;
    std::string churn;
    std::string csvOut = "bench_cluster.csv";
    std::string jsonOut = "BENCH_cluster.json";
    std::vector<double> fracs = {0.85, 0.7, 0.55};
};

/** trace_dump's arguments (examples/trace_dump.cc). */
struct TraceDumpOptions
{
    std::string file;
    std::string makeApp;
    std::string out;
    std::uint64_t instructions = 2'000'000;
    int records = 0;
};

OptionTable simOptionTable(SimOptions &o);
OptionTable benchOptionTable(BenchOptions &o);
OptionTable clusterBenchOptionTable(ClusterBenchOptions &o);
OptionTable traceDumpOptionTable(TraceDumpOptions &o);

/** The time-scale range every front end accepts: (0, 1]. */
inline constexpr Range scaleRange{0.0, 1.0, true};

} // namespace exp
} // namespace coscale

#endif // COSCALE_EXP_OPTIONS_HH
