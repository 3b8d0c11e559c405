// The unified logical store (paper §5): one query interface over many proxies and
// thousands of sensors. A skip graph keyed by sensor id maps each sensor to its owning
// proxy; queries route through the index (hop-accounted, with per-hop wired latency),
// fail over along the sensor's own ordered holder chain when the owner is down, and
// return provenance-annotated answers.
//
// Failover routing follows *sensors*, not proxies: each sensor carries an ordered
// chain of the proxies currently holding its state (acting owner first), re-derived by
// the deployment on every ownership mutation. A second failure of a promoted acting
// owner therefore falls through to the next live holder immediately — there is no
// window in which a shard is unroutable while waiting for the dead proxy's own
// promotion event.

#ifndef SRC_CORE_UNIFIED_STORE_H_
#define SRC_CORE_UNIFIED_STORE_H_

#include <map>
#include <mutex>
#include <vector>

#include "src/core/types.h"
#include "src/index/skip_graph.h"
#include "src/net/network.h"
#include "src/proxy/proxy_node.h"
#include "src/sim/simulator.h"

namespace presto {

struct UnifiedStoreStats {
  uint64_t queries = 0;
  uint64_t routed = 0;
  uint64_t failovers = 0;
  uint64_t unroutable = 0;
  uint64_t total_index_hops = 0;
  uint64_t reassignments = 0;  // index re-points (promotion / migration / hand-back)
};

// Routing (index search, chain walk, stats) runs in the calling context — queries are
// issued from control context (between epochs / at barriers) in lane mode. Query
// *execution* is a pair of typed kQuery events pinned to the serving proxy's lane, so
// the cache/model/pull work runs with that shard's other events; the completion
// therefore also lands in the serving proxy's lane, synchronized with the control
// thread by the epoch barrier.
//
// Proxy-level execution uses the token query API (the store is each proxy's
// PullClient), and the store exposes the same shape upward: a caller passes a token
// and gets it back through UnifiedStore::Client, so every query in flight is a plain
// record that survives a checkpoint.
class UnifiedStore : public EventSink, public PullClient {
 public:
  // Completion target of store queries, keyed by the caller's token. Implemented by
  // Deployment.
  class Client {
   public:
    virtual ~Client() = default;
    virtual void OnStoreQueryDone(uint64_t token, const UnifiedQueryResult& result) = 0;
  };

  // Per-hop latency models proxy-to-proxy forwarding on the wired tier while resolving
  // the distributed index.
  UnifiedStore(Simulator* sim, Network* net, uint64_t seed,
               Duration per_hop_latency = Millis(2));

  // Indexes every sensor the proxy manages (and installs this store as the proxy's
  // pull client). Call after RegisterSensor on the proxy.
  void AddProxy(ProxyNode* proxy);

  // Declares the ordered holder chain for one sensor (acting owner first, standbys in
  // failover priority order): when the index-resolved proxy is down, queries fall
  // through to the first live chain member that holds the sensor.
  void SetSensorChain(NodeId sensor_id, std::vector<NodeId> chain);

  // Re-points the distributed index entry for one sensor at `new_proxy` — the
  // index-registration half of a replica promotion, live migration, or hand-back.
  void ReassignSensor(NodeId sensor_id, NodeId new_proxy);

  // Routes and executes a query; completion is delivered as
  // client->OnStoreQueryDone(token, result) — inline on a routing error, else from
  // the serving proxy's lane.
  void Query(const QuerySpec& spec, uint64_t token);
  void SetClient(Client* client) { client_ = client; }

  const UnifiedStoreStats& stats() const { return stats_; }
  int IndexSize() const { return static_cast<int>(index_.size()); }

  void OnSimEvent(EventKind kind, EventPayload& payload) override;

  // PullClient: proxy-level answers come back keyed by store query id.
  void OnPullDone(uint64_t token, const QueryAnswer& answer) override;

  // Checkpoint codec: the distributed index (exact, including its RNG), holder
  // chains, stats, and pending queries. Restore assumes an identically
  // constructed store (same proxies added in the same order).
  Status SaveState(ByteWriter& w) const;
  Status LoadState(ByteReader& r);
  template <typename Io>
  void CkptFields(Io& io);

 private:
  // One routed query in flight: spec + provenance-annotated result under
  // construction, plus the caller's token. Stage 0 (kQuery, b=0) executes the
  // query on the serving proxy; stage 1 (b=1) models the return hop and completes.
  // Entries for different proxies complete concurrently, so the map itself is
  // mutex-guarded; each entry is only ever touched by its own lane.
  struct PendingQuery {
    QuerySpec spec;
    UnifiedQueryResult result;
    uint64_t token = 0;
    Duration route_delay = 0;

    template <typename Io>
    void CkptFields(Io& io) {
      io(spec, result, token, route_delay);
    }
  };

  ProxyNode* FindProxy(NodeId proxy_id) const;
  PendingQuery* FindPending(uint64_t id);

  Simulator* sim_;
  Network* net_;
  Duration per_hop_latency_;
  SkipGraph index_;  // sensor id -> owning proxy id
  std::map<NodeId, ProxyNode*> proxies_;
  std::map<NodeId, std::vector<NodeId>> chain_of_;  // sensor -> ordered holder chain
  Client* client_ = nullptr;
  UnifiedStoreStats stats_;
  std::mutex pending_m_;
  std::map<uint64_t, PendingQuery> pending_;
  uint64_t next_query_id_ = 1;
};

}  // namespace presto

#endif  // SRC_CORE_UNIFIED_STORE_H_
