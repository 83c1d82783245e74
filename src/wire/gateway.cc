#include "src/wire/gateway.h"

namespace jiffy {

WireGateway::WireGateway(JiffyCluster* cluster, Options options)
    : cluster_(cluster),
      service_([cluster](uint64_t packed) {
        return cluster->ResolveBlock(BlockId::FromPacked(packed));
      }) {
  // Wire-only write traffic must raise the same §9 scale-up pressure an
  // in-process client would, or blocks written exclusively over the wire
  // never split. The repartitioner re-validates span/replication before
  // acting, so the hook only pre-filters on the usage threshold.
  service_.set_pressure_hook([cluster](Block* block, double usage) {
    if (usage < cluster->config().repartition_high_threshold) {
      return;
    }
    Repartitioner::Hint hint;
    hint.job = block->owner_job();
    hint.prefix = block->owner_prefix();
    if (hint.job.empty() || hint.prefix.empty()) {
      return;
    }
    hint.block = block->id();
    hint.type = DsType::kKvStore;
    hint.pressure = Repartitioner::Pressure::kOverload;
    cluster->repartitioner()->Flag(block, std::move(hint));
  });
  TcpServer::Options server_options;
  server_options.port = options.port;
  server_options.threads = options.threads;
  server_options.affinity = options.affinity;
  server_options.sndbuf = options.sndbuf;
  server_options.rcvbuf = options.rcvbuf;
  server_options.nodelay = options.nodelay;
  server_options.reorder_window = options.reorder_window;
  server_options.reorder_seed = options.reorder_seed;
  server_ = std::make_unique<TcpServer>(
      TcpServer::ExecHandler([this](const DecodedRequest& req,
                                    const ExecContext& ctx) {
        return service_.Handle(req, ctx);
      }),
      server_options);
}

WireMap WireGateway::MapFor(const PartitionMap& map) const {
  WireMap out;
  out.total_slots = cluster_->config().kv_hash_slots;
  WireEndpoint ep;
  ep.host = "127.0.0.1";
  ep.port = server_->port();
  out.endpoints.push_back(ep);
  for (const PartitionEntry& entry : map.entries) {
    WireRange range;
    range.slot_lo = static_cast<uint32_t>(entry.lo);
    range.slot_hi = static_cast<uint32_t>(entry.hi);
    range.block = entry.block.Packed();
    range.endpoint = 0;
    out.ranges.push_back(range);
  }
  return out;
}

}  // namespace jiffy
