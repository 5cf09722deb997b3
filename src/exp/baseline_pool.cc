#include "exp/baseline_pool.hh"

#include <memory>

#include "exp/digest.hh"

namespace coscale {
namespace exp {

const RunResult &
BaselinePool::baseline(const RunRequest &req)
{
    BaselineKey key{configDigest(req.cfg), workloadDigest(req.apps),
                    req.label};

    std::shared_future<RunResult> fut;
    std::shared_ptr<std::promise<RunResult>> prom;
    {
        MutexLock lock(mu);
        auto it = entries.find(key);
        if (it == entries.end()) {
            prom = std::make_shared<std::promise<RunResult>>();
            fut = prom->get_future().share();
            entries.emplace(std::move(key), fut);
            nMisses.fetch_add(1, std::memory_order_relaxed);
        } else {
            fut = it->second;
            nHits.fetch_add(1, std::memory_order_relaxed);
        }
    }

    if (prom) {
        try {
            RunRequest base;
            base.label = req.label;
            base.cfg = req.cfg;
            base.apps = req.apps;
            base.makePolicy = [] {
                return std::make_unique<BaselinePolicy>();
            };
            prom->set_value(coscale::run(base));
        } catch (...) {
            prom->set_exception(std::current_exception());
        }
    }
    return fut.get();
}

std::size_t
BaselinePool::size() const
{
    MutexLock lock(mu);
    return entries.size();
}

BaselinePool &
processBaselinePool()
{
    static BaselinePool pool;
    return pool;
}

} // namespace exp
} // namespace coscale
