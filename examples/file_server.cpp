// file_server: the §4.2 file-system sketch in action.
//
// Simulates a file-upload service over PktStore with paths as keys: file
// contents arrive from the network as TCP segments and are adopted in
// place (the persistent packet-metadata chain is the file's extent list,
// each extent keeping its NIC checksum and hardware timestamp), survive a
// crash, and are served back via zero-copy frag-backed packets — sendfile
// without the file system / network boundary.
#include <cstdio>
#include <string>

#include "core/pktstore.h"
#include "net/gso.h"
#include "nic/nic.h"

using namespace papm;

namespace {
constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
constexpr u16 kPort = 7000;
}  // namespace

int main() {
  sim::Env env;
  nic::Fabric fabric(env);

  // Server: PASTE-style PM-backed packet pool.
  constexpr u64 kPm = 64u << 20;
  pm::PmDevice dev(env, kPm);
  auto pmpool = pm::PmPool::create(dev, "pkts", dev.data_base(), kPm - 4096);
  pmpool.set_charges(env.cost.pool_alloc_ns, env.cost.pool_alloc_ns / 2);
  net::PmArena arena(dev, pmpool);
  net::PktBufPool spool(env, arena);
  nic::Nic snic(env, fabric, kServerIp, spool);
  net::TcpStack::Options so;
  so.ip = kServerIp;
  so.busy_poll = true;
  net::TcpStack sstack(env, snic, spool, so);
  snic.set_sink([&](net::PktBuf* pb) { sstack.rx(pb); });

  // Client: plain DRAM host.
  net::HeapArena carena(env);
  net::PktBufPool cpool(env, carena);
  nic::Nic cnic(env, fabric, kClientIp, cpool);
  net::TcpStack::Options co;
  co.ip = kClientIp;
  net::TcpStack cstack(env, cnic, cpool, co);
  cnic.set_sink([&](net::PktBuf* pb) { cstack.rx(pb); });

  auto fs = core::PktStore::create(spool, "uploads");

  // The server ingests every received segment chain as one file.
  int next_file = 0;
  (void)sstack.listen(kPort, [&](net::TcpConn& c) {
    c.on_readable = [&](net::TcpConn& cc) {
      auto pkts = cc.read_pkts();
      if (pkts.empty()) return;
      std::vector<u32> offs, lens;
      for (auto* pb : pkts) {
        offs.push_back(pb->payload_off);
        lens.push_back(pb->payload_len());
      }
      const std::string path = "/upload/" + std::to_string(next_file++);
      if (fs.put_pkts(path, pkts, offs, lens).ok()) {
        std::printf("  server: ingested %s (%llu bytes, %u extents)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(fs.stat(path)->len),
                    fs.stat(path)->segments);
      }
      for (auto* pb : pkts) spool.free(pb);
    };
  });

  // Upload three "files".
  std::printf("uploading 3 files over TCP...\n");
  Rng rng(2026);
  std::vector<std::vector<u8>> originals;
  net::TcpConn* conn = cstack.connect(kServerIp, kPort);
  conn->on_established = [&](net::TcpConn& cc) {
    std::vector<u8> first(1200);
    for (auto& b : first) b = static_cast<u8>(rng.next());
    originals.push_back(first);
    (void)cc.send(first);
  };
  env.engine.run_until_idle();
  for (int i = 1; i < 3; i++) {
    std::vector<u8> data(400 + static_cast<std::size_t>(i) * 333);
    for (auto& b : data) b = static_cast<u8>(rng.next());
    originals.push_back(data);
    (void)conn->send(data);
    env.engine.run_until_idle();
  }

  std::printf("\nfiles on the server:\n");
  fs.scan("", "", [&](std::string_view path,
                       const core::PktStore::ValueMeta& st) {
    std::printf("  %-12s %6llu bytes  %u extent(s)  mtime(hw)=%lld ns\n",
                std::string(path).c_str(),
                static_cast<unsigned long long>(st.len), st.segments,
                static_cast<long long>(st.hw_tstamp));
    return true;
  });

  // Power loss, then recovery from the PM image alone.
  std::printf("\nsimulating power loss + recovery...\n");
  dev.crash();
  auto pmpool2 = pm::PmPool::recover(dev, "pkts");
  net::PmArena arena2(dev, pmpool2.value());
  net::PktBufPool spool2(env, arena2);
  auto rec = core::PktStore::recover(spool2, "uploads");
  if (!rec.ok()) {
    std::fprintf(stderr, "recovery failed!\n");
    return 1;
  }
  std::printf("recovered %zu file(s); verifying contents...\n",
              rec->size());
  bool all_ok = true;
  for (std::size_t i = 0; i < originals.size(); i++) {
    const std::string path = "/upload/" + std::to_string(i);
    const bool csum_ok = rec->verify(path).ok();
    const bool bytes_ok = rec->get(path).value_or({}) == originals[i];
    std::printf("  %s: checksum %s, bytes %s\n", path.c_str(),
                csum_ok ? "ok" : "BAD", bytes_ok ? "match" : "MISMATCH");
    all_ok = all_ok && csum_ok && bytes_ok;
  }

  // Zero-copy emission (the sendfile path).
  auto pkts = rec->get_as_pkts("/upload/0");
  std::printf("\nget_as_pkts(\"/upload/0\"): %zu TX-ready packet(s), "
              "value rides as frags (no copy)\n",
              pkts->size());
  for (auto* pb : pkts.value()) spool2.free(pb);

  std::printf("\n%s\n", all_ok ? "all files intact." : "DATA LOSS DETECTED");
  return all_ok ? 0 : 1;
}
