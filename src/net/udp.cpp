#include "net/udp.h"

#include <cstring>

namespace papm::net {

namespace {
void put_u16(std::span<u8> out, std::size_t at, u16 v) {
  out[at] = static_cast<u8>(v >> 8);
  out[at + 1] = static_cast<u8>(v & 0xff);
}
u16 get_u16(std::span<const u8> in, std::size_t at) {
  return static_cast<u16>(in[at] << 8 | in[at + 1]);
}

MacAddr mac_for_ip(u32 ip) {
  MacAddr m;
  m.b[0] = 0x02;
  m.b[2] = static_cast<u8>(ip >> 24);
  m.b[3] = static_cast<u8>(ip >> 16);
  m.b[4] = static_cast<u8>(ip >> 8);
  m.b[5] = static_cast<u8>(ip);
  return m;
}
}  // namespace

std::size_t encode_udp(const UdpHeader& h, std::span<u8> out) {
  put_u16(out, 0, h.src_port);
  put_u16(out, 2, h.dst_port);
  put_u16(out, 4, h.length);
  put_u16(out, 6, h.checksum);
  return kUdpHdrLen;
}

std::optional<UdpHeader> decode_udp(std::span<const u8> in) {
  if (in.size() < kUdpHdrLen) return std::nullopt;
  UdpHeader h;
  h.src_port = get_u16(in, 0);
  h.dst_port = get_u16(in, 2);
  h.length = get_u16(in, 4);
  h.checksum = get_u16(in, 6);
  if (h.length < kUdpHdrLen || h.length > in.size()) return std::nullopt;
  return h;
}

UdpStack::UdpStack(sim::Env& env, NetIf& netif, PktBufPool& pool, Options opts)
    : env_(env),
      netif_(netif),
      pool_(pool),
      opts_(opts),
      own_cpu_(env, /*cores=*/0),
      cpu_(&own_cpu_) {}

void UdpStack::charge_rx() {
  const auto& c = env_.cost;
  env_.clock().advance(
      c.scaled(opts_.kernel_bypass ? c.bypass_stack_rx_ns : c.udp_stack_rx_ns));
}

void UdpStack::charge_tx() {
  const auto& c = env_.cost;
  env_.clock().advance(
      c.scaled(opts_.kernel_bypass ? c.bypass_stack_tx_ns : c.udp_stack_tx_ns));
}

Status UdpStack::bind(u16 port, Handler handler) {
  if (ports_.contains(port)) return Errc::already_exists;
  ports_[port] = std::move(handler);
  return Errc::ok;
}

Status UdpStack::send_to(u32 dst_ip, u16 dst_port, u16 src_port,
                         std::span<const u8> payload) {
  if (payload.size() > kMaxUdpPayload) return Errc::too_large;
  PktBuf* pb = pool_.alloc(static_cast<u32>(kUdpAllHdrLen + payload.size()));
  if (pb == nullptr) return Errc::out_of_space;
  pb->len = static_cast<u32>(kUdpAllHdrLen + payload.size());
  pb->payload_off = static_cast<u16>(kUdpAllHdrLen);
  if (!payload.empty()) {
    std::memcpy(pool_.writable(*pb, pb->len).data() + kUdpAllHdrLen,
                payload.data(), payload.size());
    pool_.arena().mark_dirty(pb->data_h + kUdpAllHdrLen, payload.size());
    env_.clock().advance(env_.cost.copy_cost(payload.size()));
  }
  return send_pkt_to(dst_ip, dst_port, src_port, pb);
}

Status UdpStack::send_pkt_to(u32 dst_ip, u16 dst_port, u16 src_port,
                             PktBuf* pb) {
  if (pb->payload_off != kUdpAllHdrLen) {
    pool_.free(pb);
    return Errc::invalid_argument;
  }
  const std::size_t payload_len = pb->total_len() - kUdpAllHdrLen;
  if (payload_len > kMaxUdpPayload) {
    pool_.free(pb);
    return Errc::too_large;
  }
  charge_tx();

  u8* base = pool_.writable(*pb, kUdpAllHdrLen).data();
  pb->l2_off = 0;
  pb->l3_off = kEthHdrLen;
  pb->l4_off = kEthHdrLen + kIpHdrLen;
  pb->l4_proto = kIpProtoUdp;

  EthHeader eth;
  eth.src = netif_.mac();
  eth.dst = mac_for_ip(dst_ip);
  encode_eth(eth, {base, kEthHdrLen});

  IpHeader ip;
  ip.src = opts_.ip;
  ip.dst = dst_ip;
  ip.protocol = kIpProtoUdp;
  ip.total_len = static_cast<u16>(kIpHdrLen + kUdpHdrLen + payload_len);
  encode_ip(ip, {base + kEthHdrLen, kIpHdrLen});

  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<u16>(kUdpHdrLen + payload_len);
  udp.checksum = 0;  // filled by NIC offload (or left 0: "no checksum")
  encode_udp(udp, {base + pb->l4_off, kUdpHdrLen});

  if (!opts_.csum_offload_tx) {
    u16 csum = l4_tx_csum(env_, *pb, ip);
    if (csum == 0) csum = 0xffff;  // 0 means "no checksum" in UDP
    base[pb->l4_off + 6] = static_cast<u8>(csum >> 8);
    base[pb->l4_off + 7] = static_cast<u8>(csum & 0xff);
  }
  pool_.arena().mark_dirty(pb->data_h, kUdpAllHdrLen);

  pb->ip = ip;
  pb->tcp = TcpHeader{};  // L4 view: ports + checksum only
  pb->tcp.src_port = udp.src_port;
  pb->tcp.dst_port = udp.dst_port;
  pb->tstamp = env_.now();

  tx_count_++;
  netif_.transmit(pb);
  return Errc::ok;
}

void UdpStack::rx(PktBuf* pb) {
  cpu_->run([&] { rx_locked(pb); });
}

void UdpStack::rx_locked(PktBuf* pb) {
  // A zero UDP checksum means the sender computed none.
  if (!pb->csum_verified && pb->tcp.checksum != 0 &&
      !verify_l4_csum(env_, pool_, *pb)) {
    csum_failures_++;
    pool_.free(pb);
    return;
  }
  charge_rx();
  rx_count_++;
  auto it = ports_.find(pb->tcp.dst_port);
  if (it == ports_.end()) {
    rx_dropped_++;
    pool_.free(pb);
    return;
  }
  it->second(pb->ip.src, pb->tcp.src_port, pb);
}

}  // namespace papm::net
