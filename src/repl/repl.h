// Multi-host replication layer (primary/backup with quorum acks).
//
// The paper keeps the store durable against power loss on *one* host; a
// whole-host failure (fire, fried PSU, kernel panic during the outage)
// still loses the data. This layer extends the story across the fabric:
// the primary clones the received packet chain — refcounts, not a
// re-serialization — and forwards it to R replicas over Homa, acking the
// client only once a configurable quorum of hosts holds the write
// durably. The forward is the PR-8 slicing idiom applied to replication:
// the value bytes leave as refcounted frags of the very packets the
// client's TCP segments arrived in; only the small replication header is
// ever copied.
//
// Replication is off unless a Replicator is attached to the server; with
// none attached the datapath charges nothing for it (the sim charges no
// cost for untaken branches).
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "common/types.h"
#include "net/homa.h"

namespace papm::repl {

// Replication messages ride as Homa message payloads; the first byte
// tags the kind. All integers little-endian, fixed offsets (no packing
// games — the header is copied into the wire segment anyway).
enum class MsgKind : u8 {
  data = 1,       // primary -> replica: one mutation (put or erase)
  ack = 2,        // replica -> primary: cumulative durable seq
  heartbeat = 3,  // primary -> replica: liveness + high-water seq
  snap_begin = 4, // re-sync stream: snapshot cut seq
  snap_item = 5,  // re-sync stream: one key/value (copied; cold path)
  snap_end = 6,   // re-sync stream: end marker, repeats the cut seq
};

enum class OpKind : u8 { put = 1, erase = 2 };

// kData header:
//   [kind u8][op u8][key_len u16][val_len u32][seq u64][trace u64]
// then key bytes, then (for put) the value bytes — gathered zero-copy
// from the primary's packet buffers. `trace` is the primary's 64-bit
// trace id for the client op that caused this mutation (0 = untraced);
// the replica stamps its apply span with it so primary and replica
// export into one stitched Perfetto trace (docs/OBSERVABILITY.md).
inline constexpr std::size_t kDataHdrLen = 24;
// kAck / kHeartbeat / kSnapBegin / kSnapEnd: [kind u8][pad 7][seq u64].
inline constexpr std::size_t kCtlLen = 16;
// kSnapItem header: [kind u8][pad u8][key_len u16][val_len u32] + key +
// value (all copied — re-sync is a cold path).
inline constexpr std::size_t kSnapItemHdrLen = 8;

inline void put_u16(u8* p, u16 v) { std::memcpy(p, &v, 2); }
inline void put_u32(u8* p, u32 v) { std::memcpy(p, &v, 4); }
inline void put_u64(u8* p, u64 v) { std::memcpy(p, &v, 8); }
inline u16 get_u16(const u8* p) { u16 v; std::memcpy(&v, p, 2); return v; }
inline u32 get_u32(const u8* p) { u32 v; std::memcpy(&v, p, 4); return v; }
inline u64 get_u64(const u8* p) { u64 v; std::memcpy(&v, p, 8); return v; }

inline std::vector<u8> encode_data_hdr(OpKind op, std::string_view key,
                                       u32 val_len, u64 seq, u64 trace = 0) {
  std::vector<u8> h(kDataHdrLen + key.size());
  h[0] = static_cast<u8>(MsgKind::data);
  h[1] = static_cast<u8>(op);
  put_u16(h.data() + 2, static_cast<u16>(key.size()));
  put_u32(h.data() + 4, val_len);
  put_u64(h.data() + 8, seq);
  put_u64(h.data() + 16, trace);
  std::memcpy(h.data() + kDataHdrLen, key.data(), key.size());
  return h;
}

inline std::vector<u8> encode_ctl(MsgKind kind, u64 seq) {
  std::vector<u8> h(kCtlLen, 0);
  h[0] = static_cast<u8>(kind);
  put_u64(h.data() + 8, seq);
  return h;
}

// What an unreachable quorum does to client acks: stall them until the
// quorum heals (strict durability) or release them after a deadline as
// *degraded* local-only acks, surfaced in the repl.degraded_acks counter.
enum class DegradePolicy : u8 { stall = 0, local_ack = 1 };

struct ReplOptions {
  u16 port = 9100;   // Homa port for replication traffic (both roles)
  u32 quorum = 2;    // hosts that must hold the write durably, primary
                     // included (quorum=2 with R=2 ⇒ local + 1 remote)
  DegradePolicy degrade = DegradePolicy::stall;
  SimTime degrade_after_ns = 5 * kNsPerMs;  // local_ack release deadline
  // Repl-layer retransmit to a peer whose Homa message was given up on:
  // first retry after retry_backoff_ns, doubling per attempt.
  SimTime retry_backoff_ns = 2 * kNsPerMs;
  // Liveness: primary heartbeats every interval; a replica that has seen
  // none for timeout_ns declares the primary suspect (failover trigger).
  SimTime hb_interval_ns = 100 * kNsPerUs;
  SimTime hb_timeout_ns = 500 * kNsPerUs;
  // Transport knobs for the replication endpoints: exponential sender
  // backoff so a dead peer's retransmits thin out.
  net::HomaOptions homa{.sender_timeout_ns = 200 * kNsPerUs,
                        .backoff_mult = 2.0,
                        .max_retries = 5};
};

}  // namespace papm::repl
