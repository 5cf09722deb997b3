#include "cluster/arrival.hh"

#include <cmath>
#include <sstream>

#include "common/number_parse.hh"

namespace coscale {
namespace cluster {

namespace {

const char *
kindName(ArrivalParseError::Kind k)
{
    switch (k) {
      case ArrivalParseError::Kind::EmptySpec:
        return "empty spec";
      case ArrivalParseError::Kind::BadToken:
        return "bad token";
      case ArrivalParseError::Kind::UnknownKey:
        return "unknown key";
      case ArrivalParseError::Kind::BadValue:
        return "bad value";
      case ArrivalParseError::Kind::OutOfRange:
        return "out of range";
      case ArrivalParseError::Kind::DuplicateKey:
        return "duplicate key";
    }
    return "?";
}

std::string
describe(ArrivalParseError::Kind kind, const std::string &token,
         std::size_t offset, const std::string &detail)
{
    std::ostringstream os;
    os << "arrival spec: " << kindName(kind);
    if (!token.empty())
        os << " '" << token << "'";
    os << " at offset " << offset;
    if (!detail.empty())
        os << ": " << detail;
    os << " (expected key=value pairs: rate, diurnal, period, burst, "
          "burstx, ipr, slo, seed)";
    return os.str();
}

/** Parse a full-token double; throws BadValue on junk or non-finite. */
double
parseDouble(const std::string &token, const std::string &value,
            std::size_t offset)
{
    double v = 0.0;
    if (!coscale::parseDouble(value, &v)) {
        throw ArrivalParseError(
            ArrivalParseError::Kind::BadValue, token, offset,
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
        throw ArrivalParseError(
            ArrivalParseError::Kind::BadValue, token, offset,
            "'" + value + "' is not an unsigned integer");
    }
    return v;
}

[[noreturn]] void
outOfRange(const std::string &token, std::size_t offset,
           const std::string &why)
{
    throw ArrivalParseError(ArrivalParseError::Kind::OutOfRange, token,
                            offset, why);
}

} // namespace

ArrivalParseError::ArrivalParseError(Kind kind, std::string token,
                                     std::size_t offset,
                                     const std::string &detail)
    : std::runtime_error(describe(kind, token, offset, detail)),
      errKind(kind), errToken(std::move(token)), errOffset(offset)
{
}

ArrivalSpec
parseArrivalSpec(const std::string &text)
{
    if (text.empty()) {
        throw ArrivalParseError(ArrivalParseError::Kind::EmptySpec, "",
                                0, "");
    }
    ArrivalSpec spec;
    // Bit k set once key k has been seen (duplicate detection).
    unsigned seen = 0;
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
            throw ArrivalParseError(ArrivalParseError::Kind::BadToken,
                                    token, offset,
                                    "expected key=value");
        }
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);

        struct Knob
        {
            const char *name = nullptr;
            unsigned bit = 0;
        };
        static const Knob knobs[] = {
            {"rate", 1u << 0},  {"diurnal", 1u << 1},
            {"period", 1u << 2}, {"burst", 1u << 3},
            {"burstx", 1u << 4}, {"ipr", 1u << 5},
            {"slo", 1u << 6},    {"seed", 1u << 7},
        };
        unsigned bit = 0;
        for (const Knob &k : knobs) {
            if (key == k.name) {
                bit = k.bit;
                break;
            }
        }
        if (bit == 0) {
            throw ArrivalParseError(
                ArrivalParseError::Kind::UnknownKey, token, offset, "");
        }
        if (seen & bit) {
            throw ArrivalParseError(
                ArrivalParseError::Kind::DuplicateKey, token, offset,
                "");
        }
        seen |= bit;

        if (key == "rate") {
            spec.ratePerSec = parseDouble(token, value, offset);
            if (spec.ratePerSec <= 0.0)
                outOfRange(token, offset, "rate must be > 0");
        } else if (key == "diurnal") {
            spec.diurnalAmp = parseDouble(token, value, offset);
            if (spec.diurnalAmp < 0.0 || spec.diurnalAmp > 1.0)
                outOfRange(token, offset, "diurnal must be in [0, 1]");
        } else if (key == "period") {
            spec.diurnalPeriod = parseU64(token, value, offset);
            if (spec.diurnalPeriod == 0)
                outOfRange(token, offset, "period must be >= 1");
        } else if (key == "burst") {
            spec.burstProb = parseDouble(token, value, offset);
            if (spec.burstProb < 0.0 || spec.burstProb > 1.0)
                outOfRange(token, offset, "burst must be in [0, 1]");
        } else if (key == "burstx") {
            spec.burstMult = parseDouble(token, value, offset);
            if (spec.burstMult < 1.0)
                outOfRange(token, offset, "burstx must be >= 1");
        } else if (key == "ipr") {
            spec.instrPerRequest = parseDouble(token, value, offset);
            if (spec.instrPerRequest < 1.0)
                outOfRange(token, offset, "ipr must be >= 1");
        } else if (key == "slo") {
            spec.sloSecs = parseDouble(token, value, offset);
            if (spec.sloSecs <= 0.0)
                outOfRange(token, offset, "slo must be > 0");
        } else { // seed
            spec.seed = parseU64(token, value, offset);
        }

        if (comma == text.size())
            break;
    }
    return spec;
}

std::string
formatArrivalSpec(const ArrivalSpec &s)
{
    std::ostringstream os;
    os.precision(17);
    os << "rate=" << s.ratePerSec << ",diurnal=" << s.diurnalAmp
       << ",period=" << s.diurnalPeriod << ",burst=" << s.burstProb
       << ",burstx=" << s.burstMult << ",ipr=" << s.instrPerRequest
       << ",slo=" << s.sloSecs << ",seed=" << s.seed;
    return os.str();
}

bool
isBurstEpoch(const ArrivalSpec &spec, std::uint64_t epoch)
{
    if (spec.burstProb <= 0.0)
        return false;
    return arrivalUniform(spec.seed, epoch, ArrivalStream::BurstGate)
           < spec.burstProb;
}

double
arrivalRatePerSec(const ArrivalSpec &spec, std::uint64_t epoch)
{
    double rate =
        spec.ratePerSec
        * (1.0
           + spec.diurnalAmp * diurnalWave(epoch, spec.diurnalPeriod));
    if (isBurstEpoch(spec, epoch))
        rate *= spec.burstMult;
    return rate;
}

std::uint64_t
arrivalsInEpoch(const ArrivalSpec &spec, std::uint64_t epoch,
                double epoch_secs)
{
    double expected = arrivalRatePerSec(spec, epoch) * epoch_secs;
    if (expected <= 0.0)
        return 0;
    double whole = std::floor(expected);
    std::uint64_t count = static_cast<std::uint64_t>(whole);
    // The fractional arrival resolves by a stateless coin, keeping
    // long-run throughput equal to the rate with zero carried state.
    if (arrivalUniform(spec.seed, epoch, ArrivalStream::CountFrac)
        < expected - whole) {
        count += 1;
    }
    return count;
}

} // namespace cluster
} // namespace coscale
