#include "exp/baseline_pool.hh"

#include <algorithm>
#include <memory>

namespace coscale {
namespace exp {

const RunResult &
BaselinePool::baseline(const RunRequest &req)
{
    std::shared_future<RunResult> fut;
    std::shared_ptr<std::promise<RunResult>> prom;
    {
        MutexLock lock(mu);
        auto it = std::find_if(
            entries.begin(), entries.end(), [&req](const Entry &e) {
                return e.label == req.label && e.cfg == req.cfg
                       && e.apps == req.apps;
            });
        if (it == entries.end()) {
            prom = std::make_shared<std::promise<RunResult>>();
            fut = prom->get_future().share();
            entries.push_back(Entry{req.cfg, req.apps, req.label, fut});
            nMisses.fetch_add(1, std::memory_order_relaxed);
        } else {
            fut = it->result;
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
    // The reference points into the shared state, which the entry
    // keeps alive wherever the vector moves the entry.
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
