#include "core/pktstore.h"

#include <cstring>
#include <stdexcept>

namespace papm::core {

namespace {
net::PmArena& pm_arena_of(net::PktBufPool& pool) {
  auto* arena = dynamic_cast<net::PmArena*>(&pool.arena());
  if (arena == nullptr) {
    throw std::invalid_argument(
        "PktStore requires a PM-backed packet pool (PmArena)");
  }
  return *arena;
}
}  // namespace

PktStore PktStore::create(net::PktBufPool& pktpool, std::string_view name,
                          PktStoreOptions opts) {
  net::PmArena& arena = pm_arena_of(pktpool);
  auto index = container::PSkipList::create(arena.device(), arena.pool(),
                                            std::string(name) + ".idx",
                                            opts.index);
  return PktStore(pktpool, arena, std::move(index), opts);
}

Result<PktStore> PktStore::recover(net::PktBufPool& pktpool,
                                   std::string_view name,
                                   PktStoreOptions opts) {
  net::PmArena& arena = pm_arena_of(pktpool);
  auto index = container::PSkipList::recover(arena.device(), arena.pool(),
                                             std::string(name) + ".idx",
                                             opts.index);
  if (!index.ok()) return index.errc();
  PktStore store(pktpool, arena, std::move(index.value()), opts);
  // Re-register every live data buffer with the fresh packet pool.
  Status st = Errc::ok;
  store.index_.scan("", "", [&](std::string_view, u64 head) {
    const Status s = store.chain_.restore(head);
    if (!s.ok()) st = s;
    return s.ok();
  });
  if (!st.ok()) return st.errc();
  return store;
}

void PktStore::retire_chain(u64 head) {
  // A chain that was durably referenced by the index may still be the
  // recovered value if the crash lands before this epoch's fence retires:
  // quarantine its free until the epoch commits. Without batching the
  // batcher frees at once.
  chain_.batcher().defer([chain = &chain_, head] { chain->free_chain(head); });
}

void PktStore::charge_prep(storage::OpBreakdown* bd) const {
  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  env.clock().advance(opts_.light_prep ? env.cost.pktstore_prep_ns
                                       : env.cost.request_prep_ns);
  if (bd != nullptr) bd->prep_ns += env.now() - t0;
}

Status PktStore::put_pkt(std::string_view key, net::PktBuf& pb, u32 val_off,
                         u32 val_len, storage::OpBreakdown* bd) {
  net::PktBuf* pkts[1] = {&pb};
  const u32 offs[1] = {val_off};
  const u32 lens[1] = {val_len};
  return put_pkts(key, pkts, offs, lens, bd);
}

Status PktStore::rehome(std::span<net::PktBuf*> pkts) {
  net::PktBufPool& pool = *pktpool_;
  auto& env = chain_.device().env();
  for (net::PktBuf*& pb : pkts) {
    if (pb->owner == &pool) continue;
    net::PktBuf* np = pool.alloc(pb->len);
    if (np == nullptr) return Errc::out_of_space;
    env.clock().advance(env.cost.copy_cost(pb->len));
    u8* dst = pool.writable(*np, pb->len).data();
    if (pb->sliced()) {
      // Materialize contiguously in this pool: header bytes from the
      // header block, payload from the slice. After a TCP trim,
      // payload_off can exceed the header block's capacity — headers are
      // never semantically read after parse, so copy what exists and
      // leave the gap zero-filled.
      const u32 hdr = std::min<u32>(pb->cap, pb->payload_off);
      std::memcpy(dst, pb->owner->arena().view(pb->data_h, hdr), hdr);
      const auto pl = pb->owner->payload(*pb);
      std::memcpy(dst + pb->payload_off, pl.data(), pl.size());
    } else {
      std::memcpy(dst, pb->owner->data(*pb), pb->len);
    }
    pool.arena().mark_dirty(np->data_h, pb->len);
    np->len = pb->len;
    np->tstamp = pb->tstamp;
    np->hw_tstamp = pb->hw_tstamp;
    np->wire_csum = pb->wire_csum;
    np->payload_csum = pb->payload_csum;
    np->csum_verified = pb->csum_verified;
    np->rss_hash = pb->rss_hash;
    np->rss_queue = pb->rss_queue;
    np->l2_off = pb->l2_off;
    np->l3_off = pb->l3_off;
    np->l4_off = pb->l4_off;
    np->payload_off = pb->payload_off;
    np->l4_proto = pb->l4_proto;
    np->ip = pb->ip;
    np->tcp = pb->tcp;
    net::PktBufPool::release(pb);
    pb = np;
  }
  return Errc::ok;
}

Status PktStore::put_pkts(std::string_view key, std::span<net::PktBuf*> pkts,
                          std::span<const u32> offs, std::span<const u32> lens,
                          storage::OpBreakdown* bd) {
  if (const Status st = rehome(pkts); !st.ok()) return st;
  obs::inc(m_puts_);
  charge_prep(bd);
  if (opts_.insert != InsertPolicy::host && opts_.zero_copy && !pkts.empty()) {
    bool all_sliced = true;
    u64 total = 0;
    for (std::size_t i = 0; i < pkts.size(); i++) {
      all_sliced = all_sliced && pkts[i]->sliced();
      total += lens[i];
    }
    if (all_sliced && (opts_.insert == InsertPolicy::nic ||
                       total >= kNicInsertMinBytes)) {
      return put_pkts_offloaded(key, pkts, offs, lens, bd);
    }
  }
  auto head = chain_.ingest_pkts(pkts, offs, lens, opts_, bd);
  if (!head.ok()) return head.errc();

  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  u64 old_head = 0;
  const Status st = index_.put(key, head.value(), &old_head);
  if (bd != nullptr) bd->alloc_insert_ns += env.now() - t0;
  if (!st.ok()) {
    chain_.free_chain(head.value());  // never indexed: immediate free is safe
    return st;
  }
  if (old_head != 0) retire_chain(old_head);
  return Errc::ok;
}

Status PktStore::put_pkts_offloaded(std::string_view key,
                                    std::span<net::PktBuf* const> pkts,
                                    std::span<const u32> offs,
                                    std::span<const u32> lens,
                                    storage::OpBreakdown* bd) {
  obs::inc(m_nic_inserts_);
  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  // Host side of the command: MMIO doorbell carrying the key and the
  // sliced-slot descriptor list.
  env.clock().advance(env.cost.nic_insert_doorbell_ns);
  const SimTime t_doorbell = env.now();

  // The engine executes the same ingest + level-0 insert the host would
  // — every PM state transition (and any injected fault) is identical —
  // but its time must not bill the host core: divert clock charges into a
  // discarded engine-local collector while it runs. The engine's latency
  // is modelled by the calibrated command constants below instead.
  SimTime engine_ns = 0;
  const auto scope = env.clock().exchange_scope(t_doorbell, &engine_ns);
  Result<u64> head = Errc::internal;
  Status st = Errc::internal;
  u64 old_head = 0;
  try {
    head = chain_.ingest_pkts(pkts, offs, lens, opts_, nullptr);
    if (head.ok()) st = index_.put(key, head.value(), &old_head);
  } catch (...) {
    env.clock().restore_scope(scope);
    throw;  // PowerFailure unwinds with the host scope back in place
  }
  env.clock().restore_scope(scope);
  if (!head.ok()) return head.errc();
  if (!st.ok()) {
    chain_.free_chain(head.value());  // never indexed: immediate free safe
    return st;
  }

  // Engine completion: fixed command execution plus a per-segment
  // metadata append. Un-batched, the host polls the completion queue and
  // waits the engine out before acking. Under group commit the ack is
  // already deferred to the epoch close, which dominates the engine's
  // completion time — no host wait is charged.
  const SimTime engine_done =
      t_doorbell + env.cost.nic_insert_cmd_ns +
      static_cast<SimTime>(pkts.size()) * env.cost.nic_insert_meta_ns;
  if (!chain_.batcher().batching() && engine_done > env.now()) {
    env.clock().advance(engine_done - env.now());
  }
  env.clock().advance(env.cost.nic_insert_completion_ns);
  if (bd != nullptr) bd->nic_insert_ns += env.now() - t0;

  if (old_head != 0) retire_chain(old_head);
  return Errc::ok;
}

Status PktStore::put_bytes(std::string_view key, std::span<const u8> value,
                           storage::OpBreakdown* bd) {
  obs::inc(m_puts_);
  charge_prep(bd);
  auto head = chain_.ingest_bytes(value, opts_, bd);
  if (!head.ok()) return head.errc();

  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  u64 old_head = 0;
  const Status st = index_.put(key, head.value(), &old_head);
  if (bd != nullptr) bd->alloc_insert_ns += env.now() - t0;
  if (!st.ok()) {
    chain_.free_chain(head.value());  // never indexed: immediate free is safe
    return st;
  }
  if (old_head != 0) retire_chain(old_head);
  return Errc::ok;
}

Result<std::vector<u8>> PktStore::get(std::string_view key) const {
  obs::inc(m_gets_);
  const auto head = index_.get(key);
  if (!head.ok()) return head.errc();
  const Status st = chain_.verify(head.value());
  if (!st.ok()) return st.errc();
  return chain_.read(head.value());
}

Result<storage::KvStore::Hit> PktStore::lookup(std::string_view key,
                                               bool batched) {
  const auto head = index_.get(key);
  if (!head.ok()) return head.errc();
  set_batched(batched);
  Hit h;
  h.len = chain_.meta(head.value())->total_len;
  h.handle = head.value();
  return h;
}

Result<std::vector<net::PktBuf*>> PktStore::emit_pkts(
    const Hit& hit, std::span<const u8> prefix) const {
  obs::inc(m_gets_);
  return chain_.emit_pkts(hit.handle, prefix);
}

Result<std::vector<net::PktBuf*>> PktStore::get_as_pkts(
    std::string_view key) const {
  const auto head = index_.get(key);
  if (!head.ok()) return head.errc();
  Hit h;
  h.handle = head.value();
  return emit_pkts(h, {});
}

PktStore::ValueMeta PktStore::stat_of(u64 head) const {
  const PPktMeta* m = chain_.meta(head);
  ValueMeta vm{};
  vm.len = m->total_len;
  vm.csum_kind = static_cast<CsumKind>(m->csum_kind);
  vm.hw_tstamp = m->hw_tstamp;
  vm.segments = 0;
  for (u64 at = head; at != 0; at = chain_.meta(at)->next) vm.segments++;
  return vm;
}

Result<PktStore::ValueMeta> PktStore::stat(std::string_view key) const {
  const auto head = index_.get(key);
  if (!head.ok()) return head.errc();
  return stat_of(head.value());
}

Status PktStore::verify(std::string_view key) const {
  const auto head = index_.get(key);
  if (!head.ok()) return head.status();
  return chain_.verify(head.value());
}

Status PktStore::erase(std::string_view key) {
  obs::inc(m_erases_);
  const auto head = index_.get(key);
  if (!head.ok()) return head.status();
  if (!index_.erase(key)) return Errc::not_found;
  retire_chain(head.value());
  return Errc::ok;
}

}  // namespace papm::core
