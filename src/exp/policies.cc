#include "exp/policies.hh"

#include <cctype>
#include <memory>
#include <stdexcept>

#include "policy/coscale_policy.hh"
#include "policy/fastcap.hh"
#include "policy/multiscale.hh"
#include "policy/offline.hh"
#include "policy/simple_policies.hh"
#include "policy/uncoordinated.hh"

namespace coscale {
namespace exp {

namespace {

std::string
canonical(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '-' || c == '_' || c == ' ')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

using MakePolicy = std::unique_ptr<Policy> (*)(int cores, double gamma,
                                               double capWatts);

/** A policy whose constructor takes (cores, gamma) only. */
template <class P>
std::unique_ptr<Policy>
make(int cores, double gamma, double)
{
    return std::make_unique<P>(cores, gamma);
}

/** One roster row: the CLI spelling, an extra canonical spelling it
 *  also answers to (or nullptr), and how to build a fresh instance. */
struct PolicyRow
{
    const char *name;
    const char *alias;
    MakePolicy make;
};

/** Every policy, in --list-policies order. */
const PolicyRow kRoster[] = {
    {"baseline", nullptr,
     [](int, double, double) -> std::unique_ptr<Policy> {
         return std::make_unique<BaselinePolicy>();
     }},
    {"reactive", nullptr, make<ReactivePolicy>},
    {"memscale", nullptr, make<MemScalePolicy>},
    {"cpuonly", nullptr, make<CpuOnlyPolicy>},
    {"uncoordinated", nullptr, make<UncoordinatedPolicy>},
    {"semi", "semicoordinated", make<SemiCoordinatedPolicy>},
    {"semi-alt", nullptr,
     [](int cores, double gamma, double) -> std::unique_ptr<Policy> {
         return std::make_unique<SemiCoordinatedPolicy>(
             cores, gamma, SemiCoordinatedPolicy::Phase::Alternate);
     }},
    {"coscale", nullptr, make<CoScalePolicy>},
    // Ablation baseline for the generalized knob walk: identical
    // controller, way-partition dimension held.
    {"coscale-dvfs", nullptr,
     [](int cores, double gamma, double) -> std::unique_ptr<Policy> {
         CoScaleOptions o;
         o.useWayPartitioning = false;
         o.nameOverride = "CoScale-DVFS";
         return std::make_unique<CoScalePolicy>(cores, gamma, o);
     }},
    {"coscale-chipwide", nullptr,
     [](int cores, double gamma, double) -> std::unique_ptr<Policy> {
         CoScaleOptions o;
         o.chipWideCpuDvfs = true;
         return std::make_unique<CoScalePolicy>(cores, gamma, o);
     }},
    {"offline", nullptr, make<OfflinePolicy>},
    {"multiscale", nullptr, make<MultiScalePolicy>},
    // FastCap's capping walk alone: no fairness phase, no ledger.
    {"powercap", nullptr,
     [](int cores, double gamma, double capWatts)
         -> std::unique_ptr<Policy> {
         return std::make_unique<FastCapPolicy>(cores, gamma, capWatts,
                                                false);
     }},
    {"fastcap", nullptr,
     [](int cores, double gamma, double capWatts)
         -> std::unique_ptr<Policy> {
         return std::make_unique<FastCapPolicy>(cores, gamma, capWatts);
     }},
};

} // namespace

const std::vector<std::string> &
paperPolicyNames()
{
    static const std::vector<std::string> names = {
        "MemScale",  "CPUOnly", "Uncoordinated",
        "Semi-coordinated", "CoScale", "Offline",
    };
    return names;
}

const std::vector<std::string> &
knownPolicyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const PolicyRow &row : kRoster)
            v.emplace_back(row.name);
        return v;
    }();
    return names;
}

PolicyFactory
policyFactoryByName(const std::string &name, int cores, double gamma,
                    double capWatts)
{
    const std::string p = canonical(name);
    for (const PolicyRow &row : kRoster) {
        if (p == canonical(row.name) || (row.alias && p == row.alias)) {
            return [build = row.make, cores, gamma, capWatts] {
                return build(cores, gamma, capWatts);
            };
        }
    }
    return {};
}

PolicyFactory
requirePolicyFactory(const std::string &name, int cores, double gamma,
                     double capWatts)
{
    PolicyFactory f = policyFactoryByName(name, cores, gamma, capWatts);
    if (f)
        return f;
    std::string msg = "unknown policy '" + name + "'; valid names: ";
    const std::vector<std::string> &known = knownPolicyNames();
    for (size_t i = 0; i < known.size(); ++i) {
        if (i)
            msg += ", ";
        msg += known[i];
    }
    throw std::invalid_argument(msg);
}

} // namespace exp
} // namespace coscale
