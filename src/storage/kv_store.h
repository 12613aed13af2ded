// KvStore — the per-shard store contract the request pipeline
// (app::KvServer) is written against.
//
// The §3 baseline and the §4.2 proposal differ in one respect: what the
// store does with the request packets it is handed. LsmStore copies the
// value out of them into its memtable; core::PktStore adopts them. The
// pipeline never asks which one it holds — each store keeps its own
// charging policy (read-path warmth, zero-copy transmit, foreign-buffer
// handling) behind these few calls.
#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "net/pktbuf.h"
#include "storage/knobs.h"

namespace papm::storage {

class KvStore {
 public:
  // A GET hit: the probe that found it is the GET's only index walk. A
  // copying store hands back the value bytes; a zero-copy store hands
  // back the length and its own handle on the stored value (PktStore:
  // the chain head), from which emit_pkts() transmits without walking
  // the index again. The handle is valid until the store's next
  // mutation.
  struct Hit {
    u64 len = 0;
    u64 handle = 0;         // nonzero iff the hit is zero-copy
    std::vector<u8> bytes;  // the value, when handle == 0
  };

  virtual ~KvStore() = default;

  // Stores the value a request carried: pkts[i]'s buffer holds value
  // bytes [offs[i], offs[i] + lens[i]) (offsets absolute within the
  // buffer, past the protocol headers). A store that adopts the buffers
  // may swap a segment from another packet pool for a copy in its own,
  // releasing the original; the caller releases whatever `pkts` holds
  // afterwards. Durable iff ok.
  virtual Status put_pkts(std::string_view key, std::span<net::PktBuf*> pkts,
                          std::span<const u32> offs, std::span<const u32> lens,
                          OpBreakdown* bd = nullptr) = 0;

  // Stores application bytes (no carrying packet). Durable iff ok.
  virtual Status put_bytes(std::string_view key, std::span<const u8> value,
                           OpBreakdown* bd = nullptr) = 0;

  // A GET's probe of this store. `batched` is the request's back-to-back
  // hint; each store applies it to its own read path. Errc::not_found on
  // a miss.
  [[nodiscard]] virtual Result<Hit> lookup(std::string_view key,
                                           bool batched) = 0;

  // Zero-copy read for transmission: frag-backed packets over the value
  // a zero-copy hit (handle != 0) names, taken from that hit's handle
  // with no second index walk. `prefix` (the response head, at most kMss
  // bytes) is copied into the first packet ahead of the value, and the
  // packets are packed to kMss payload bytes each: the whole response
  // leaves as ceil((prefix + len) / kMss) segments, no other send needed.
  // Only stores whose hits carry a handle serve it.
  [[nodiscard]] virtual Result<std::vector<net::PktBuf*>> emit_pkts(
      const Hit& /*hit*/, std::span<const u8> /*prefix*/) const {
    return Errc::not_supported;
  }

  // Durable iff ok; Errc::not_found (and no write) on a miss.
  virtual Status erase(std::string_view key) = 0;

  // fn(key, value length) in key order over [from, to) (empty `to` = no
  // upper bound); stops early on false.
  virtual void scan_keys(
      std::string_view from, std::string_view to,
      const std::function<bool(std::string_view, u64)>& fn) const = 0;

  // Back-to-back hint for the write path's charging (group-commit
  // regime).
  virtual void set_batched(bool b) noexcept = 0;

 protected:
  KvStore() = default;
  KvStore(const KvStore&) = default;
  KvStore(KvStore&&) = default;
  KvStore& operator=(const KvStore&) = default;
  KvStore& operator=(KvStore&&) = default;
};

}  // namespace papm::storage
