#include "net/buf.h"

namespace roar::net {

namespace detail {

PoolCore::~PoolCore() {
  // closed is set (and the freelist emptied) by ~BufPool; a core can only
  // die after every slab holding it released, so free_list is empty here.
  for (Slab* s : free_list) delete s;
}

void release_slab(Slab* s) {
  std::shared_ptr<PoolCore> core = s->core;
  {
    std::lock_guard lock(core->mu);
    if (!core->closed && core->free_list.size() < core->max_free) {
      core->free_list.push_back(s);
      return;
    }
  }
  delete s;  // pool gone or freelist full: bounded retention
}

}  // namespace detail

BufPool::~BufPool() {
  std::vector<detail::Slab*> orphans;
  {
    std::lock_guard lock(core_->mu);
    core_->closed = true;
    orphans.swap(core_->free_list);
  }
  for (detail::Slab* s : orphans) delete s;
}

BufRef BufPool::acquire() {
  {
    std::lock_guard lock(core_->mu);
    if (!core_->free_list.empty()) {
      detail::Slab* s = core_->free_list.back();
      core_->free_list.pop_back();
      s->refs.store(1, std::memory_order_relaxed);
      core_->reused.fetch_add(1, std::memory_order_relaxed);
      return BufRef::adopt(s);
    }
  }
  core_->fresh.fetch_add(1, std::memory_order_relaxed);
  return BufRef::adopt(new detail::Slab(core_));
}

size_t BufPool::free_count() const {
  std::lock_guard lock(core_->mu);
  return core_->free_list.size();
}

namespace {

// Bounds for the thread-local Bytes freelist: how many vectors one thread
// retains and the largest capacity worth keeping (a jumbo frame would
// otherwise pin its high-water capacity forever). The count must cover one
// poll round's burst: a round that fires many analytic reply timers
// encodes every reply before its flush recycles any, and at 64 such
// bursts missed the freelist about once in ten acquires.
constexpr size_t kMaxFreeBytesVecs = 256;
constexpr size_t kMaxRecycledCapacity = 256 * 1024;

struct TlFreelist {
  std::vector<Bytes> free;
};
TlFreelist& tl_freelist() {
  thread_local TlFreelist tl;
  return tl;
}

std::atomic<uint64_t> g_bytes_fresh{0};
std::atomic<uint64_t> g_bytes_reused{0};

}  // namespace

Bytes acquire_bytes() {
  TlFreelist& tl = tl_freelist();
  if (!tl.free.empty()) {
    Bytes b = std::move(tl.free.back());
    tl.free.pop_back();
    g_bytes_reused.fetch_add(1, std::memory_order_relaxed);
    return b;
  }
  g_bytes_fresh.fetch_add(1, std::memory_order_relaxed);
  return Bytes{};
}

void recycle_bytes(Bytes&& b) {
  if (b.capacity() == 0 || b.capacity() > kMaxRecycledCapacity) return;
  TlFreelist& tl = tl_freelist();
  if (tl.free.size() >= kMaxFreeBytesVecs) return;
  b.clear();
  tl.free.push_back(std::move(b));
}

ByteFreelistStats byte_freelist_stats() {
  return ByteFreelistStats{g_bytes_fresh.load(std::memory_order_relaxed),
                           g_bytes_reused.load(std::memory_order_relaxed)};
}

void Payload::release() {
  buf_.reset();
  if (own_.capacity() != 0) recycle_bytes(std::move(own_));
  own_ = Bytes{};
}

}  // namespace roar::net
