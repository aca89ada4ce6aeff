#include "isp/nearest_neighbor.hh"

#include <utility>

namespace bluedbm {
namespace isp {

void
NearestNeighborEngine::query(flash::PageBuffer query,
                             std::vector<core::GlobalAddress>
                                 candidates,
                             Done done)
{
    struct State
    {
        flash::PageBuffer query;
        std::vector<core::GlobalAddress> candidates;
        std::size_t nextIssue = 0;
        std::size_t completed = 0;
        NnResult result;
        Done done;
    };
    auto st = std::make_shared<State>();
    st->query = std::move(query);
    st->candidates = std::move(candidates);
    st->done = std::move(done);

    if (st->candidates.empty()) {
        node_.ispReadDeviceDram(0, [st]() {
            st->done(std::move(st->result));
        });
        return;
    }

    // Keep up to `window_` candidate reads in flight; distance
    // computation is pipelined in hardware (it happens at line rate
    // as bursts arrive, so it costs no extra simulated time).
    auto pump = std::make_shared<std::function<void()>>();
    *pump = [this, st, pump]() {
        while (st->nextIssue < st->candidates.size() &&
               st->nextIssue - st->completed < window_) {
            std::size_t idx = st->nextIssue++;
            const core::GlobalAddress &ga = st->candidates[idx];
            node_.ispReadRemote(
                ga.node, ga.card, ga.addr,
                [this, st, pump, idx](flash::PageBuffer page) {
                std::uint64_t d = analytics::hammingDistance(
                    st->query.data(), page.data(),
                    std::min(st->query.size(), page.size()));
                ++st->result.comparisons;
                if (d < st->result.bestDistance) {
                    st->result.bestDistance = d;
                    st->result.bestIndex = idx;
                }
                ++st->completed;
                if (st->completed == st->candidates.size()) {
                    st->done(std::move(st->result));
                    // The pump holds itself; drop it so the query's
                    // state is freed.
                    *pump = nullptr;
                    return;
                }
                (*pump)();
            });
        }
    };
    (*pump)();
}

} // namespace isp
} // namespace bluedbm
