// Micro M1: transport robustness — goodput and retransmission behaviour
// of the from-scratch TCP under loss and reordering (the conditions the
// OOO red-black tree of §4.1 exists for).
#include <cstdio>

#include "app/host.h"

using namespace papm;
using namespace papm::app;

namespace {

struct XferResult {
  double goodput_gbps;
  u64 retransmits;
  u64 reordered;
  // The receiver sends nothing but ACKs (its SYN-ACK aside): segments it
  // sent per segment it received, and received segments that brought no
  // new byte.
  double acks_per_seg;
  u64 dup_segments;
  bool intact;
};

XferResult transfer(double loss, double reorder) {
  sim::Env env;
  nic::Fabric fabric(env, {.loss_p = loss, .reorder_p = reorder});

  HostConfig ccfg;
  ccfg.ip = 0x0a000001;
  ccfg.cores = 0;
  Host client(env, fabric, ccfg);
  HostConfig scfg;
  scfg.ip = 0x0a000002;
  scfg.cores = 0;  // not CPU-limited: measure the transport itself
  scfg.busy_poll = true;
  Host server(env, fabric, scfg);

  const std::size_t kBytes = 2u << 20;
  Rng rng(7);
  std::vector<u8> data(kBytes);
  for (auto& b : data) b = static_cast<u8>(rng.next());

  std::vector<u8> got;
  got.reserve(kBytes);
  (void)server.stack().listen(9000, [&](net::TcpConn& c) {
    c.on_readable = [&](net::TcpConn& cc) {
      std::vector<u8> buf(16384);
      std::size_t n;
      while ((n = cc.read(buf)) > 0) {
        got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(n));
      }
    };
  });
  net::TcpConn* conn = client.stack().connect(0x0a000002, 9000);
  SimTime start = 0;
  conn->on_established = [&](net::TcpConn& cc) {
    start = env.now();
    (void)cc.send(data);
  };
  env.engine.run_until_idle();

  XferResult r{};
  const SimTime elapsed = env.now() - start;
  r.goodput_gbps = static_cast<double>(kBytes) * 8.0 /
                   std::max<SimTime>(elapsed, 1);
  r.retransmits = conn->retransmits();
  r.reordered = fabric.reordered();
  net::TcpStack& rx = server.stack();
  r.acks_per_seg = static_cast<double>(rx.segments_tx()) /
                   static_cast<double>(std::max<u64>(rx.segments_rx(), 1));
  r.dup_segments = rx.dup_segments_rx();
  r.intact = got == data;
  return r;
}

}  // namespace

int main() {
  std::printf("=== M1: TCP under loss/reorder (2MB transfer, 25G link) ===\n");
  std::printf("%7s %9s | %12s %8s %9s %8s %8s %7s\n", "loss", "reorder",
              "goodput[Gb/s]", "retx", "reordered", "acks/seg", "dup_segs",
              "intact");
  for (const double loss : {0.0, 0.005, 0.02, 0.05}) {
    for (const double reorder : {0.0, 0.1}) {
      const auto r = transfer(loss, reorder);
      std::printf("%6.1f%% %8.1f%% | %12.2f %8llu %9llu %8.3f %8llu %7s\n",
                  loss * 100, reorder * 100, r.goodput_gbps,
                  static_cast<unsigned long long>(r.retransmits),
                  static_cast<unsigned long long>(r.reordered),
                  r.acks_per_seg,
                  static_cast<unsigned long long>(r.dup_segments),
                  r.intact ? "yes" : "NO");
    }
  }
  std::printf(
      "\n(goodput degrades gracefully with loss; reordering alone is\n"
      " absorbed by the out-of-order rbtree without retransmissions'\n"
      " goodput collapse)\n");
  return 0;
}
