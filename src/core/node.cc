#include "core/node.hh"

#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace core {

using flash::Address;
using flash::PageBuffer;
using flash::Status;
using net::Message;

namespace {
/**
 * FlashServer shapes per agent. The host interface mirrors the
 * paper's 128 page buffers (4 I/O interfaces x 32 deep); interface
 * 4 of the host server belongs to the file system, and interface 5
 * is the file system's reserved read-spill lane (a read-hot file
 * stripes page reads onto it when the primary FS queue is deep).
 */
constexpr unsigned ispIfcs = 4, ispDepth = 64;
constexpr unsigned hostIfcs = 6, hostDepth = 32;
constexpr unsigned hostIoIfcs = 4;
constexpr unsigned agentIfcs = 4, agentDepth = 64;
constexpr unsigned fsIfc = 4, fsSpillIfc = 5;
} // namespace

Node::Node(sim::Simulator &sim, net::StorageNetwork &net,
           net::NodeId id, const NodeParams &params)
    : sim_(sim), net_(net), id_(id), params_(params)
{
    if (params_.cards == 0)
        sim::fatal("node needs at least one flash card");

    for (unsigned c = 0; c < params_.cards; ++c) {
        cards_.emplace_back(std::make_unique<flash::FlashCard>(
            sim_, params_.geometry, params_.timing,
            params_.controllerTags,
            params_.seed + id_ * 131 + c));
        auto &split = cards_.back()->splitter();
        auto &isp_port = split.addPort(ispIfcs * ispDepth);
        auto &host_port = split.addPort(hostIfcs * hostDepth);
        auto &agent_port = split.addPort(agentIfcs * agentDepth);
        ispServers_.emplace_back(std::make_unique<flash::FlashServer>(
            sim_, isp_port, ispIfcs, ispDepth));
        hostServers_.emplace_back(std::make_unique<flash::FlashServer>(
            sim_, host_port, hostIfcs, hostDepth));
        agentServers_.emplace_back(
            std::make_unique<flash::FlashServer>(
                sim_, agent_port, agentIfcs, agentDepth));
    }

    // The file system manages card 0's flash itself (section 4).
    fs::FsParams fsp;
    fsp.spillInterface = int(fsSpillIfc);
    fs_ = std::make_unique<fs::LogFs>(sim_, *hostServers_[0], fsIfc,
                                      params_.geometry, fsp);

    cpu_ = std::make_unique<host::HostCpu>(sim_, params_.cores);
    pcie_ = std::make_unique<host::PcieLink>(sim_, params_.pcie);
    deviceDram_ = std::make_unique<sim::LatencyRateServer>(
        params_.dramBytesPerSec, sim::nsToTicks(200));

    installServices();
}

void
Node::installServices()
{
    // Read-service agent: remote devices ask for pages over the
    // integrated network; the agent reads flash and streams the page
    // straight back -- no host software anywhere (section 3.2).
    endpoint(epReadService).setReceiveHandler([this](Message msg) {
        auto req = msg.payload.take<ReadRequest>();
        auto &server = *agentServers_.at(req.card);
        unsigned ifc = agentIfcRotor_++ % agentIfcs;
        net::NodeId requester = msg.src;
        server.readPage(ifc, req.addr,
                        [this, req, requester](PageBuffer data,
                                               Status st) {
            ++served_;
            ReadResponse resp;
            resp.reqId = req.reqId;
            resp.data = std::move(data);
            resp.status = st;
            endpoint(req.replyEndpoint)
                .send(requester,
                      params_.geometry.pageSize + readRequestBytes,
                      std::move(resp));
        });
    });

    // ISP data responses: consumed directly by the in-store
    // processor. Several endpoints carry this traffic so responses
    // spread across parallel lanes (per-endpoint routing).
    for (unsigned e = 0; e < ispDataEndpointCount; ++e) {
        endpoint(ispDataEndpoints[e])
            .setReceiveHandler([this](Message msg) {
            auto resp = msg.payload.take<ReadResponse>();
            complete(resp.reqId, std::move(resp.data));
        });
    }

    // Host data responses: cross PCIe into a read buffer, then an
    // interrupt wakes the waiting software.
    endpoint(epHostData).setReceiveHandler([this](Message msg) {
        auto resp = msg.payload.take<ReadResponse>();
        std::uint64_t req_id = resp.reqId;
        auto data = std::make_shared<PageBuffer>(
            std::move(resp.data));
        pcie_->deviceToHost(
            std::uint32_t(data->size()), [this, req_id, data]() {
            pcie_->interrupt([this, req_id, data]() {
                complete(req_id, std::move(*data));
            });
        });
    });

    // Host-service agent: the conventional distributed path. The
    // remote *server software* fields the request: interrupt, daemon
    // scheduling, then a local storage (or DRAM) access, then the
    // data is handed back to the device for the return trip.
    endpoint(epHostService).setReceiveHandler([this](Message msg) {
        auto req = msg.payload.take<HostServiceRequest>();
        net::NodeId requester = msg.src;
        pcie_->interrupt([this, req, requester]() {
            cpu_->execute(params_.software.remoteService,
                          [this, req, requester]() {
                auto reply = [this, req, requester](PageBuffer data,
                                                    Status st) {
                    ReadResponse resp;
                    resp.reqId = req.reqId;
                    resp.data = std::move(data);
                    resp.status = st;
                    // Hoist the length: the capture below moves resp
                    // *during argument evaluation*, so reading
                    // resp.data.size() in the same argument list is
                    // order-dependent (and gcc picked the empty one).
                    const auto len = std::uint32_t(resp.data.size());
                    // The daemon pushes the payload through its
                    // device (host-to-device DMA) and the device
                    // ships it over the integrated network.
                    pcie_->hostToDevice(
                        len,
                        [this, req, requester, len,
                         resp = std::move(resp)]() mutable {
                        endpoint(req.replyEndpoint)
                            .send(requester, len + readRequestBytes,
                                  std::move(resp));
                    });
                };
                if (req.fromDram) {
                    // Host DRAM access is effectively instant at
                    // this scale.
                    reply(PageBuffer(req.bytes, 0xd7), Status::Ok);
                } else {
                    auto &server = *hostServers_.at(req.card);
                    unsigned ifc = hostIfcRotor_++ % hostIoIfcs;
                    server.readPage(ifc, req.addr, reply);
                }
            });
        });
    });
}

void
Node::complete(std::uint64_t req_id, PageBuffer data)
{
    auto it = pending_.find(req_id);
    if (it == pending_.end())
        sim::panic("response for unknown request %llu",
                   static_cast<unsigned long long>(req_id));
    PageDone done = std::move(it->second);
    pending_.erase(it);
    done(std::move(data));
}

void
Node::ispReadLocal(unsigned card, const Address &addr, PageDone done)
{
    auto &server = *ispServers_.at(card);
    unsigned ifc = ispIfcRotor_++ % ispIfcs;
    server.readPage(ifc, addr,
                    [done = std::move(done)](PageBuffer data,
                                             Status) {
        done(std::move(data));
    });
}

void
Node::ispReadRemote(net::NodeId remote, unsigned card,
                    const Address &addr, PageDone done)
{
    if (remote == id_) {
        ispReadLocal(card, addr, std::move(done));
        return;
    }
    ReadRequest req;
    req.reqId = track(std::move(done));
    req.card = std::uint8_t(card);
    req.addr = addr;
    req.replyEndpoint =
        ispDataEndpoints[req.reqId % ispDataEndpointCount];
    endpoint(epReadService)
        .send(remote, readRequestBytes, std::move(req));
}

void
Node::hostReadLocal(unsigned card, const Address &addr, PageDone done)
{
    // Request setup in user space, then the RPC doorbell, then the
    // device reads flash and DMAs into a read buffer, then the
    // completion interrupt wakes the caller (section 3.3).
    cpu_->execute(params_.software.requestSetup,
                  [this, card, addr, done = std::move(done)]() {
        pcie_->rpc([this, card, addr, done = std::move(done)]() {
            auto &server = *hostServers_.at(card);
            unsigned ifc = hostIfcRotor_++ % hostIoIfcs;
            server.readPage(ifc, addr,
                            [this, done = std::move(done)](
                                PageBuffer data, Status) {
                auto shared = std::make_shared<PageBuffer>(
                    std::move(data));
                pcie_->deviceToHost(
                    std::uint32_t(shared->size()),
                    [this, shared, done = std::move(done)]() {
                    pcie_->interrupt([shared,
                                      done = std::move(done)]() {
                        done(std::move(*shared));
                    });
                });
            });
        });
    });
}

void
Node::hostReadRemote(net::NodeId remote, unsigned card,
                     const Address &addr, PageDone done)
{
    if (remote == id_) {
        hostReadLocal(card, addr, std::move(done));
        return;
    }
    cpu_->execute(params_.software.requestSetup,
                  [this, remote, card, addr,
                   done = std::move(done)]() mutable {
        pcie_->rpc([this, remote, card, addr,
                    done = std::move(done)]() mutable {
            ReadRequest req;
            req.reqId = track(std::move(done));
            req.card = std::uint8_t(card);
            req.addr = addr;
            req.replyEndpoint = epHostData;
            endpoint(epReadService)
                .send(remote, readRequestBytes, std::move(req));
        });
    });
}

void
Node::hostReadRemoteViaHost(net::NodeId remote, unsigned card,
                            const Address &addr, PageDone done)
{
    cpu_->execute(params_.software.requestSetup,
                  [this, remote, card, addr,
                   done = std::move(done)]() mutable {
        pcie_->rpc([this, remote, card, addr,
                    done = std::move(done)]() mutable {
            HostServiceRequest req;
            req.reqId = track(std::move(done));
            req.card = std::uint8_t(card);
            req.addr = addr;
            req.fromDram = false;
            req.bytes = params_.geometry.pageSize;
            req.replyEndpoint = epHostData;
            endpoint(epHostService)
                .send(remote, readRequestBytes, std::move(req));
        });
    });
}

void
Node::hostReadRemoteDram(net::NodeId remote, std::uint32_t bytes,
                         PageDone done)
{
    cpu_->execute(params_.software.requestSetup,
                  [this, remote, bytes,
                   done = std::move(done)]() mutable {
        pcie_->rpc([this, remote, bytes,
                    done = std::move(done)]() mutable {
            HostServiceRequest req;
            req.reqId = track(std::move(done));
            req.fromDram = true;
            req.bytes = bytes;
            req.replyEndpoint = epHostData;
            endpoint(epHostService)
                .send(remote, readRequestBytes, std::move(req));
        });
    });
}

void
Node::ispReadDeviceDram(std::uint32_t bytes,
                        std::function<void()> done)
{
    sim::Tick t = deviceDram_->occupy(sim_.now(), bytes);
    sim_.scheduleAt(t, std::move(done));
}

} // namespace core
} // namespace bluedbm
