#include "cluster/churn.hh"

#include <sstream>

#include "common/number_parse.hh"

namespace coscale {
namespace cluster {

namespace {

const char *
kindName(ChurnParseError::Kind k)
{
    switch (k) {
      case ChurnParseError::Kind::EmptySpec:
        return "empty spec";
      case ChurnParseError::Kind::BadToken:
        return "bad token";
      case ChurnParseError::Kind::UnknownKey:
        return "unknown key";
      case ChurnParseError::Kind::BadValue:
        return "bad value";
      case ChurnParseError::Kind::OutOfRange:
        return "out of range";
      case ChurnParseError::Kind::DuplicateKey:
        return "duplicate key";
    }
    return "?";
}

std::string
describe(ChurnParseError::Kind kind, const std::string &token,
         std::size_t offset, const std::string &detail)
{
    std::ostringstream os;
    os << "churn spec: " << kindName(kind);
    if (!token.empty())
        os << " '" << token << "'";
    os << " at offset " << offset;
    if (!detail.empty())
        os << ": " << detail;
    os << " (expected key=value pairs: crash, reboot, ramp, flap, "
          "hang, hangx, blackout, blackoutx, suspect, dead, seed)";
    return os.str();
}

/** Parse a full-token double; throws BadValue on junk or non-finite. */
double
parseDouble(const std::string &token, const std::string &value,
            std::size_t offset)
{
    double v = 0.0;
    if (!coscale::parseDouble(value, &v)) {
        throw ChurnParseError(
            ChurnParseError::Kind::BadValue, token, offset,
            "'" + value + "' is not a finite number");
    }
    return v;
}

/** Parse a full-token unsigned integer (must start with a digit). */
std::uint64_t
parseU64(const std::string &token, const std::string &value,
         std::size_t offset)
{
    std::uint64_t v = 0;
    if (!coscale::parseU64(value, &v)) {
        throw ChurnParseError(
            ChurnParseError::Kind::BadValue, token, offset,
            "'" + value + "' is not an unsigned integer");
    }
    return v;
}

/** Parse a bounded int knob (epoch counts, thresholds). */
int
parseEpochs(const std::string &token, const std::string &value,
            std::size_t offset, int lo)
{
    std::uint64_t v = parseU64(token, value, offset);
    if (v < static_cast<std::uint64_t>(lo) || v > 1'000'000) {
        throw ChurnParseError(
            ChurnParseError::Kind::OutOfRange, token, offset,
            "must be in [" + std::to_string(lo) + ", 1000000]");
    }
    return static_cast<int>(v);
}

[[noreturn]] void
outOfRange(const std::string &token, std::size_t offset,
           const std::string &why)
{
    throw ChurnParseError(ChurnParseError::Kind::OutOfRange, token,
                          offset, why);
}

double
parseProb(const std::string &token, const std::string &value,
          std::size_t offset)
{
    double v = parseDouble(token, value, offset);
    if (v < 0.0 || v > 1.0)
        outOfRange(token, offset, "probability must be in [0, 1]");
    return v;
}

} // namespace

ChurnParseError::ChurnParseError(Kind kind, std::string token,
                                 std::size_t offset,
                                 const std::string &detail)
    : std::runtime_error(describe(kind, token, offset, detail)),
      errKind(kind), errToken(std::move(token)), errOffset(offset)
{
}

ChurnPlan
parseChurnSpec(const std::string &text)
{
    if (text.empty()) {
        throw ChurnParseError(ChurnParseError::Kind::EmptySpec, "", 0,
                              "");
    }
    ChurnPlan plan;
    // Bit k set once key k has been seen (duplicate detection).
    unsigned seen = 0;
    // The dead-vs-suspect cross check needs a token to point at.
    std::string dead_token;
    std::size_t dead_offset = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string token = text.substr(pos, comma - pos);
        std::size_t offset = pos;
        pos = comma + 1;

        std::size_t eq = token.find('=');
        if (token.empty() || eq == std::string::npos || eq == 0
            || eq + 1 == token.size()) {
            throw ChurnParseError(ChurnParseError::Kind::BadToken,
                                  token, offset, "expected key=value");
        }
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);

        struct Knob
        {
            const char *name = nullptr;
            unsigned bit = 0;
        };
        static const Knob knobs[] = {
            {"crash", 1u << 0},     {"reboot", 1u << 1},
            {"ramp", 1u << 2},      {"flap", 1u << 3},
            {"hang", 1u << 4},      {"hangx", 1u << 5},
            {"blackout", 1u << 6},  {"blackoutx", 1u << 7},
            {"suspect", 1u << 8},   {"dead", 1u << 9},
            {"seed", 1u << 10},
        };
        unsigned bit = 0;
        for (const Knob &k : knobs) {
            if (key == k.name) {
                bit = k.bit;
                break;
            }
        }
        if (bit == 0) {
            throw ChurnParseError(ChurnParseError::Kind::UnknownKey,
                                  token, offset, "");
        }
        if (seen & bit) {
            throw ChurnParseError(ChurnParseError::Kind::DuplicateKey,
                                  token, offset, "");
        }
        seen |= bit;

        if (key == "crash") {
            plan.crashProb = parseProb(token, value, offset);
        } else if (key == "reboot") {
            plan.rebootEpochs = parseEpochs(token, value, offset, 1);
        } else if (key == "ramp") {
            plan.rampEpochs = parseEpochs(token, value, offset, 0);
        } else if (key == "flap") {
            plan.flapProb = parseProb(token, value, offset);
        } else if (key == "hang") {
            plan.hangProb = parseProb(token, value, offset);
        } else if (key == "hangx") {
            plan.hangEpochs = parseEpochs(token, value, offset, 1);
        } else if (key == "blackout") {
            plan.blackoutProb = parseProb(token, value, offset);
        } else if (key == "blackoutx") {
            plan.blackoutEpochs = parseEpochs(token, value, offset, 1);
        } else if (key == "suspect") {
            plan.suspectAfter = parseEpochs(token, value, offset, 1);
        } else if (key == "dead") {
            plan.deadAfter = parseEpochs(token, value, offset, 1);
            dead_token = token;
            dead_offset = offset;
        } else { // seed
            plan.seed = parseU64(token, value, offset);
        }

        if (comma == text.size())
            break;
    }
    if (plan.deadAfter < plan.suspectAfter) {
        outOfRange(dead_token.empty() ? "dead" : dead_token,
                   dead_offset,
                   "dead threshold must be >= suspect threshold");
    }
    return plan;
}

std::string
formatChurnSpec(const ChurnPlan &p)
{
    std::ostringstream os;
    os.precision(17);
    os << "crash=" << p.crashProb << ",reboot=" << p.rebootEpochs
       << ",ramp=" << p.rampEpochs << ",flap=" << p.flapProb
       << ",hang=" << p.hangProb << ",hangx=" << p.hangEpochs
       << ",blackout=" << p.blackoutProb << ",blackoutx="
       << p.blackoutEpochs << ",suspect=" << p.suspectAfter
       << ",dead=" << p.deadAfter << ",seed=" << p.seed;
    return os.str();
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
