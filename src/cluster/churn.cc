#include "cluster/churn.hh"

#include <vector>

namespace coscale {
namespace cluster {

namespace {

/** The --churn keys, one row each over @p p's fields. */
std::vector<exp::Option>
churnRows(ChurnPlan &p)
{
    constexpr exp::Range prob{0.0, 1.0};
    constexpr exp::Range epochs{1.0, 1e6};
    std::vector<exp::Option> rows;
    rows.push_back({"crash", "", &p.crashProb, "", prob});
    rows.push_back({"reboot", "", &p.rebootEpochs, "", epochs});
    rows.push_back({"ramp", "", &p.rampEpochs, "", {0.0, 1e6}});
    rows.push_back({"flap", "", &p.flapProb, "", prob});
    rows.push_back({"hang", "", &p.hangProb, "", prob});
    rows.push_back({"hangx", "", &p.hangEpochs, "", epochs});
    rows.push_back({"blackout", "", &p.blackoutProb, "", prob});
    rows.push_back({"blackoutx", "", &p.blackoutEpochs, "", epochs});
    rows.push_back({"suspect", "", &p.suspectAfter, "", epochs});
    rows.push_back({"dead", "", &p.deadAfter, "", epochs});
    rows.push_back({"seed", "", &p.seed, ""});
    return rows;
}

} // namespace

ChurnPlan
parseChurnSpec(const std::string &text)
{
    ChurnPlan plan;
    try {
        exp::parseSpec(churnRows(plan), text);
    } catch (const exp::SpecParseError &e) {
        throw ChurnParseError(e);
    }
    if (plan.deadAfter < plan.suspectAfter) {
        // Point at the dead= token, or at the start when dead is unset.
        std::size_t at = ("," + text).find(",dead=");
        bool set = at != std::string::npos;
        throw ChurnParseError(
            ChurnParseError::Kind::OutOfRange,
            set ? text.substr(at, text.find(',', at) - at) : "dead",
            set ? at : 0, "dead >= suspect");
    }
    return plan;
}

std::string
formatChurnSpec(const ChurnPlan &p)
{
    ChurnPlan copy = p;
    return exp::formatSpec(churnRows(copy));
}

bool
churnCrashAt(const ChurnPlan &p, std::uint64_t seed,
             std::uint64_t epoch, std::uint64_t node)
{
    if (p.crashProb <= 0.0)
        return false;
    return fault::faultUniform(seed, epoch,
                               fault::FaultStream::ChurnCrash, node)
           < p.crashProb;
}

bool
churnFlapAt(const ChurnPlan &p, std::uint64_t seed,
            std::uint64_t epoch, std::uint64_t node)
{
    if (p.flapProb <= 0.0)
        return false;
    return fault::faultUniform(seed, epoch,
                               fault::FaultStream::ChurnFlap, node)
           < p.flapProb;
}

int
churnHangLenAt(const ChurnPlan &p, std::uint64_t seed,
               std::uint64_t epoch, std::uint64_t node)
{
    if (p.hangProb <= 0.0)
        return 0;
    if (fault::faultUniform(seed, epoch,
                            fault::FaultStream::ChurnHang, node)
        >= p.hangProb) {
        return 0;
    }
    std::uint64_t span = static_cast<std::uint64_t>(p.hangEpochs);
    return 1
           + static_cast<int>(
               fault::faultHash(seed, epoch,
                                fault::FaultStream::ChurnHangLen, node)
               % (span > 0 ? span : 1));
}

int
churnBlackoutLenAt(const ChurnPlan &p, std::uint64_t seed,
                   std::uint64_t epoch, std::uint64_t node)
{
    if (p.blackoutProb <= 0.0)
        return 0;
    if (fault::faultUniform(seed, epoch,
                            fault::FaultStream::ChurnBlackout, node)
        >= p.blackoutProb) {
        return 0;
    }
    std::uint64_t span = static_cast<std::uint64_t>(p.blackoutEpochs);
    return 1
           + static_cast<int>(
               fault::faultHash(
                   seed, epoch,
                   fault::FaultStream::ChurnBlackoutLen, node)
               % (span > 0 ? span : 1));
}

} // namespace cluster
} // namespace coscale
