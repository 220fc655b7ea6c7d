// deluge_node: hosts one process of a multi-process Deluge cluster.
//
//   deluge_node --config <cluster.cfg> --process <id>
//
// Loads the shared `net::ClusterConfig`, constructs this process's
// nodes in config declaration order (so local ids land on the
// cluster-global ids every other process expects), starts the
// `net::SocketTransport`, and serves until SIGTERM/SIGINT.
//
// Roles understood (NodeSpec::role):
//   replica  a `replica::ReplicaNode` on an in-memory backing, ring id
//            derived from the node's name (`ReplicaNode::RingIdFor`,
//            the same derivation the coordinator's AddRemoteReplica
//            uses) — together these form the data plane of a
//            `replica::ReplicatedStore` driven from another process;
//   sink     counts every application message it receives and answers
//            `net::kSinkCountReq` with {messages, wire bytes} — the
//            audit endpoint for fan-out workloads (bench E24);
//   anything else (e.g. "driver") becomes a black-hole endpoint so the
//            id stays reserved and config order is preserved.
//
// Used by `bench_e24_transport` as the remote half of the socket
// backend; see README "Running a multi-process cluster".

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "net/node_config.h"
#include "net/socket_transport.h"
#include "replica/node.h"
#include "storage/format.h"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

/// A counting endpoint: absorbs application messages, answers
/// kSinkCountReq with fixed64 {messages_received, wire_bytes_received}.
/// Touched only on the transport's event strand, so no locking.
struct Sink {
  deluge::net::NodeId id = 0;
  uint64_t received = 0;
  uint64_t wire_bytes = 0;
};

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --config <path> --process <id>\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deluge;  // NOLINT: tool brevity

  std::string config_path;
  uint32_t process_id = 0;
  bool have_process = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_path = argv[++i];
    } else if (std::strcmp(argv[i], "--process") == 0 && i + 1 < argc) {
      process_id = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      have_process = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config_path.empty() || !have_process) return Usage(argv[0]);

  net::ClusterConfig config;
  Status s = net::ClusterConfig::Load(config_path, &config);
  if (!s.ok()) {
    std::fprintf(stderr, "deluge_node: cannot load %s: %s\n",
                 config_path.c_str(), s.ToString().c_str());
    return 1;
  }
  if (config.process(process_id) == nullptr) {
    std::fprintf(stderr, "deluge_node: process %u not in config\n",
                 process_id);
    return 1;
  }

#if defined(__linux__)
  // Die with the parent (the bench driver) so an aborted run never
  // leaves orphan hosts holding sockets.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
#endif
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  ThreadPool pool(1);  // the transport's event loop
  net::SocketTransportOptions opts;
  opts.config = config;
  opts.local_process = process_id;
  opts.pool = &pool;
  net::SocketTransport transport(std::move(opts));

  // Construct this process's nodes in config order — AddNode assigns
  // the cluster-global ids positionally.
  std::vector<std::unique_ptr<replica::ReplicaNode>> replicas;
  std::deque<Sink> sinks;  // deque: stable addresses for the handlers
  for (net::NodeId id : config.nodes_of(process_id)) {
    const net::NodeSpec* spec = config.node(id);
    if (spec->role == "replica") {
      replicas.push_back(std::make_unique<replica::ReplicaNode>(
          replica::ReplicaNode::RingIdFor(spec->name), &transport,
          /*backing=*/nullptr));
    } else if (spec->role == "sink") {
      sinks.emplace_back();
      Sink* sink = &sinks.back();
      net::SocketTransport* net = &transport;
      sink->id = transport.AddNode([sink, net](const net::Message& m) {
        if (m.type == net::kSinkCountReq) {
          std::string out;
          storage::PutFixed64(&out, sink->received);
          storage::PutFixed64(&out, sink->wire_bytes);
          net::Message reply;
          reply.from = sink->id;
          reply.to = m.from;
          reply.type = net::kSinkCountResp;
          reply.payload = std::move(out);
          net->Send(std::move(reply));
          return;
        }
        ++sink->received;
        sink->wire_bytes += m.WireSize();
      });
    } else {
      transport.AddNode([](const net::Message&) {});
    }
  }

  s = transport.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "deluge_node: start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "deluge_node: process %u up at %s (%zu nodes: "
               "%zu replicas, %zu sinks)\n",
               process_id,
               config.process(process_id)->endpoint.ToString().c_str(),
               config.nodes_of(process_id).size(), replicas.size(),
               sinks.size());

  while (g_stop == 0 && transport.running()) {
    ::usleep(50 * 1000);
  }
  transport.Stop();
  return 0;
}
