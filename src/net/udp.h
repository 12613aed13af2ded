// Minimal UDP over the same PktBuf/NIC path.
//
// Substrate for the MICA-like comparison point (§2.2: "networked
// non-persistent in-memory key-value stores, such as MICA, eliminate
// networking overheads using kernel-bypass framework and custom
// UDP-based protocol") and the carrier for the Homa-like transport
// (net/homa.h). Datagrams are fire-and-forget: no retransmission, no
// ordering — reliability, if needed, lives above.
#pragma once

#include <functional>
#include <unordered_map>

#include "net/pktbuf.h"
#include "net/tcp.h"  // NetIf, mac derivation helpers

namespace papm::net {

constexpr std::size_t kUdpHdrLen = 8;
constexpr u8 kIpProtoUdp = 17;
constexpr std::size_t kUdpAllHdrLen = kEthHdrLen + kIpHdrLen + kUdpHdrLen;
// Max payload per datagram (no IP fragmentation).
constexpr std::size_t kMaxUdpPayload = kMtu - kIpHdrLen - kUdpHdrLen;

struct UdpHeader {
  u16 src_port = 0;
  u16 dst_port = 0;
  u16 length = 0;    // header + payload
  u16 checksum = 0;  // pseudo-header + header + payload (0 = none)
};

std::size_t encode_udp(const UdpHeader& h, std::span<u8> out);
std::optional<UdpHeader> decode_udp(std::span<const u8> in);

class UdpStack {
 public:
  struct Options {
    u32 ip = 0;
    // Kernel-bypass datapath (MICA-style) vs regular kernel UDP: picks
    // the per-datagram stack charges.
    bool kernel_bypass = false;
    bool csum_offload_tx = true;
  };

  // Datagram delivery: (source ip, source port, packet). The handler
  // owns the packet (payload via pool().payload(*pb)).
  using Handler = std::function<void(u32, u16, PktBuf*)>;

  UdpStack(sim::Env& env, NetIf& netif, PktBufPool& pool, Options opts);

  // Binds a local port. already_exists if taken.
  Status bind(u16 port, Handler handler);

  // Sends one datagram (copies payload into a fresh packet).
  Status send_to(u32 dst_ip, u16 dst_port, u16 src_port,
                 std::span<const u8> payload);

  // Zero-copy variant: `pb` must have kUdpAllHdrLen of header room and
  // its payload (linear tail + frags) in place. Takes ownership.
  Status send_pkt_to(u32 dst_ip, u16 dst_port, u16 src_port, PktBuf* pb);

  // Entry from the NIC (wired by the caller or Host).
  void rx(PktBuf* pb);

  void attach_cpu(sim::HostCpu& cpu) noexcept { cpu_ = &cpu; }
  [[nodiscard]] PktBufPool& pool() noexcept { return pool_; }
  [[nodiscard]] sim::Env& env() noexcept { return env_; }
  [[nodiscard]] u32 ip() const noexcept { return opts_.ip; }

  [[nodiscard]] u64 datagrams_rx() const noexcept { return rx_count_; }
  [[nodiscard]] u64 datagrams_tx() const noexcept { return tx_count_; }
  [[nodiscard]] u64 rx_dropped() const noexcept { return rx_dropped_; }
  // Datagrams dropped by the software checksum check (NIC RX offload off).
  [[nodiscard]] u64 csum_failures() const noexcept { return csum_failures_; }

 private:
  void rx_locked(PktBuf* pb);
  void charge_rx();
  void charge_tx();

  sim::Env& env_;
  NetIf& netif_;
  PktBufPool& pool_;
  Options opts_;
  sim::HostCpu own_cpu_;
  sim::HostCpu* cpu_;
  std::unordered_map<u16, Handler> ports_;
  u64 rx_count_ = 0;
  u64 tx_count_ = 0;
  u64 rx_dropped_ = 0;
  u64 csum_failures_ = 0;
};

}  // namespace papm::net
