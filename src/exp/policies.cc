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
    static const std::vector<std::string> names = {
        "baseline",  "reactive",         "memscale",
        "cpuonly",   "uncoordinated",    "semi",
        "semi-alt",  "coscale",          "coscale-dvfs",
        "coscale-chipwide", "offline",   "multiscale",
        "powercap",  "fastcap",
    };
    return names;
}

PolicyFactory
policyFactoryByName(const std::string &name, int cores, double gamma,
                    double capWatts)
{
    const std::string p = canonical(name);
    if (p == "baseline")
        return [] { return std::make_unique<BaselinePolicy>(); };
    if (p == "reactive") {
        return [cores, gamma] {
            return std::make_unique<ReactivePolicy>(cores, gamma);
        };
    }
    if (p == "memscale") {
        return [cores, gamma] {
            return std::make_unique<MemScalePolicy>(cores, gamma);
        };
    }
    if (p == "cpuonly") {
        return [cores, gamma] {
            return std::make_unique<CpuOnlyPolicy>(cores, gamma);
        };
    }
    if (p == "uncoordinated") {
        return [cores, gamma] {
            return std::make_unique<UncoordinatedPolicy>(cores, gamma);
        };
    }
    if (p == "semi" || p == "semicoordinated") {
        return [cores, gamma] {
            return std::make_unique<SemiCoordinatedPolicy>(cores,
                                                           gamma);
        };
    }
    if (p == "semialt") {
        return [cores, gamma] {
            return std::make_unique<SemiCoordinatedPolicy>(
                cores, gamma, SemiCoordinatedPolicy::Phase::Alternate);
        };
    }
    if (p == "coscale") {
        return [cores, gamma] {
            return std::make_unique<CoScalePolicy>(cores, gamma);
        };
    }
    if (p == "coscaledvfs") {
        // Ablation baseline for the generalized knob walk: identical
        // controller, way-partition dimension held.
        return [cores, gamma] {
            CoScaleOptions o;
            o.useWayPartitioning = false;
            o.nameOverride = "CoScale-DVFS";
            return std::make_unique<CoScalePolicy>(cores, gamma, o);
        };
    }
    if (p == "coscalechipwide") {
        return [cores, gamma] {
            CoScaleOptions o;
            o.chipWideCpuDvfs = true;
            return std::make_unique<CoScalePolicy>(cores, gamma, o);
        };
    }
    if (p == "offline") {
        return [cores, gamma] {
            return std::make_unique<OfflinePolicy>(cores, gamma);
        };
    }
    if (p == "multiscale") {
        return [cores, gamma] {
            return std::make_unique<MultiScalePolicy>(cores, gamma);
        };
    }
    if (p == "powercap") {
        // FastCap's capping walk alone: no fairness phase, no ledger.
        return [cores, gamma, capWatts] {
            return std::make_unique<FastCapPolicy>(cores, gamma, capWatts,
                                                   false);
        };
    }
    if (p == "fastcap") {
        return [cores, gamma, capWatts] {
            return std::make_unique<FastCapPolicy>(cores, gamma,
                                                   capWatts);
        };
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
