#ifndef SST_BASE_POOLED_STACK_H_
#define SST_BASE_POOLED_STACK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/check.h"

namespace sst {

// A persistent pooled stack on refcounted chunked nodes — the tree-sitter
// stack idiom adapted to one linear stack with many live snapshots. Each
// node is a *chunk* holding up to kChunkCapacity values plus a pointer to
// the chunk below it, so
//   * Push/Pop away from a chunk boundary are index bumps into the top
//     chunk — the same cost profile as a std::vector — and the slab-backed
//     free list (which survives Clear()) is touched only every
//     kChunkCapacity levels, keeping steady-state streaming free of heap
//     traffic,
//   * a snapshot is O(1): retain the top chunk and record the live index —
//     the checkpoint machinery of incremental re-evaluation
//     (engine/incremental.h) keeps one retained snapshot per checkpoint
//     and shares every common chunk structurally,
//   * snapshots are never mutated: a push into a shared top chunk
//     copy-on-writes the live prefix (≤ kChunkCapacity-1 values, once per
//     checkpoint) into a fresh chunk and leaves the shared one to its
//     snapshots; pops only move the live index, which shared chunks
//     tolerate by construction,
//   * releasing a snapshot returns exactly the chunks no other snapshot
//     reaches, iteratively (a 10^6-deep chain must not recurse).
//
// Reference-counting discipline: `ref` counts incoming pointers to the
// chunk — the stack's head pointer, retained snapshots, and `prev` fields
// of other live chunks. A freshly pushed chain has every chunk at ref 1
// (its successor's prev, or the head pointer); divergence (copy-on-write,
// popping out of a shared chunk) adds the extra incoming edges explicitly.
//
// Not thread-safe; one PooledStack serves one evaluator.
template <typename T>
class PooledStack {
 public:
  // 28 values keep a chunk of word-sized T at two cache lines (8-byte
  // prev + 4-byte ref + 4-byte len + 112-byte payload = 128 bytes).
  static constexpr uint32_t kChunkCapacity = 28;

  struct Node {
    Node* prev = nullptr;
    uint32_t ref = 0;  // incoming pointers: head, snapshots, live prevs
    // Live value count, frozen when the chunk is covered by one above it
    // (the top chunk's count lives in the stack's top_len_ member, and a
    // snapshot records its own count — this field is not consulted for
    // either).
    uint32_t len = 0;
    T values[kChunkCapacity];
  };

  // O(1) view of one stack configuration: the top chunk plus how many of
  // its values are live. Taken with TakeSnapshot() (which retains the
  // chunk), restored with Restore(), dropped with Release().
  struct Snapshot {
    Node* head = nullptr;
    uint32_t top_len = 0;
  };

  // Free-list invariant: every chunk on the free list has ref == 1. Chunks
  // are only ever freed as sole owners (Pop's boundary path, ReleaseChain's
  // terminal case) and slab-fresh chunks are born with ref 1, so Push
  // never writes the refcount on the hot path.

  PooledStack() = default;
  PooledStack(const PooledStack&) = delete;
  PooledStack& operator=(const PooledStack&) = delete;
  // Slabs own every chunk, live or free; destruction needs no chain walk.
  ~PooledStack() = default;

  bool empty() const { return head_ == nullptr; }
  uint64_t size() const { return below_ + top_len_; }
  const T& top() const {
    SST_CHECK(head_ != nullptr);
    return head_->values[top_len_ - 1];
  }
  Node* head() const { return head_; }
  uint32_t top_len() const { return top_len_; }

  void Push(const T& value) {
    // Hot path: room in an exclusively owned top chunk — store + bump.
    // push_limit_ caches "kChunkCapacity if the top chunk is exclusively
    // ours, else 0", so the common case is one member compare with no
    // pointer chase through the chunk's refcount.
    if (top_len_ < push_limit_) {
      head_->values[top_len_++] = value;
      return;
    }
    PushSlow(value);
  }

  void Pop() {
    SST_CHECK(head_ != nullptr);
    // Hot path: the top chunk keeps at least one live value — index bump.
    // Shared chunks take this path too: pops never write values.
    if (top_len_ > 1) {
      --top_len_;
      return;
    }
    PopChunk();
  }

  // Register-resident view of the head chunk for inline steppers
  // (eval/stack_evaluator.h): its values, live count and in-place push
  // bound. A push below `limit` and a pop that leaves at least one live
  // value may be applied to the cursor alone; any other push or pop, and
  // anything else that reads the stack, needs Sync first — the cursor's
  // live count is the one field the stack does not see.
  struct Cursor {
    T* values;
    uint32_t len;
    uint32_t limit;
  };
  Cursor cursor() const {
    return {head_ != nullptr ? head_->values : nullptr, top_len_,
            push_limit_};
  }
  void Sync(const Cursor& cursor) { top_len_ = cursor.len; }

  // Releases the whole live chain into the free list; O(live chunks not
  // shared with snapshots). Slabs are kept, so the next document's pushes
  // allocate nothing.
  void Clear() {
    ReleaseChain(head_);
    head_ = nullptr;
    top_len_ = 0;
    below_ = 0;
    push_limit_ = 0;
  }

  // O(1) snapshot: retains the top chunk and records the live index. A
  // snapshot of the empty stack is {nullptr, 0} — valid and restorable.
  // The top chunk is shared from here on, so in-place pushes stop until
  // copy-on-write (or release of every snapshot) makes it exclusive again.
  Snapshot TakeSnapshot() {
    if (head_ != nullptr) {
      ++head_->ref;
      push_limit_ = 0;
    }
    return Snapshot{head_, top_len_};
  }

  // Re-roots the stack at `snap`, whose total chain length is `size` — the
  // caller recorded it when the snapshot was taken. The snapshot keeps its
  // own reference — it stays valid and can be restored again. Values the
  // snapshot can see were never overwritten (pushes into shared chunks
  // copy-on-write), so restoring is just repointing.
  void Restore(const Snapshot& snap, uint64_t size) {
    SST_CHECK(size == SnapshotSize(snap));
    if (snap.head != nullptr) ++snap.head->ref;
    ReleaseChain(head_);
    head_ = snap.head;
    top_len_ = snap.top_len;
    below_ = size - snap.top_len;
    push_limit_ = 0;  // the restored top chunk is shared with the snapshot
  }

  void Release(const Snapshot& snap) { ReleaseChain(snap.head); }

  // Drops one incoming edge on `node`, freeing into the pool and cascading
  // down the chain while chunks die. Iterative by construction.
  void ReleaseChain(Node* node) {
    while (node != nullptr) {
      if (node->ref > 1) {
        --node->ref;
        return;
      }
      Node* prev = node->prev;
      node->prev = free_;
      free_ = node;
      node = prev;
    }
  }

  // Total values reachable from the snapshot — O(chunks), i.e. O(depth /
  // kChunkCapacity). Owners that need the size in O(1) record it at
  // snapshot time (the evaluator's config words do).
  static uint64_t SnapshotSize(const Snapshot& snap) {
    uint64_t n = snap.top_len;
    for (const Node* node = snap.head; node != nullptr; node = node->prev) {
      if (node != snap.head) n += node->len;
    }
    return n;
  }

  // Value equality of the live stack against a snapshot, top-down.
  bool EqualsSnapshot(const Snapshot& snap) const {
    return ChainsEqual(head_, top_len_, snap.head, snap.top_len);
  }

  static bool SnapshotsEqual(const Snapshot& a, const Snapshot& b) {
    return ChainsEqual(a.head, a.top_len, b.head, b.top_len);
  }

  // Structural equality of two chains, top-down. Chains that share a tail
  // stop at the first common (chunk, index) position, so the cost is the
  // distance to the shared chunk, not the full depth — the convergence
  // test of incremental re-evaluation compares a freshly rescanned chain
  // against a pre-edit snapshot whose lower chunks are physically shared.
  // Callers that know both lengths (the evaluator's config carries one)
  // should reject unequal lengths first; this walk handles them correctly
  // but in O(shorter chain).
  static bool ChainsEqual(const Node* a, uint32_t alen, const Node* b,
                          uint32_t blen) {
    while (!(a == b && alen == blen)) {
      if (a == nullptr || b == nullptr) return false;
      if (!(a->values[alen - 1] == b->values[blen - 1])) return false;
      --alen;
      --blen;
      if (alen == 0) {
        a = a->prev;
        alen = (a != nullptr) ? a->len : 0;
      }
      if (blen == 0) {
        b = b->prev;
        blen = (b != nullptr) ? b->len : 0;
      }
    }
    return true;
  }

  // Allocation observability (tests assert steady-state reuse).
  size_t slabs() const { return slabs_.size(); }

 private:
  static constexpr size_t kSlabNodes = 1024;

  // The boundary paths stay out of line so the four-instruction hot
  // paths of Push/Pop inline cleanly into the evaluator's event handlers.

  // The top chunk emptied: descend to the one below (whose live count was
  // frozen in `len` when it was covered).
  __attribute__((noinline)) void PopChunk() {
    Node* dead = head_;
    head_ = dead->prev;
    if (head_ != nullptr) {
      top_len_ = head_->len;
      below_ -= head_->len;
    } else {
      top_len_ = 0;
    }
    if (dead->ref == 1) {
      // Sole incoming pointer was the head: the chunk dies here and its
      // prev edge hands the chunk below to the stack — no counter traffic.
      dead->prev = free_;
      free_ = dead;
    } else {
      // Snapshots still reach the chunk (and through it the tail); the
      // stack takes its own incoming edge on the new head.
      --dead->ref;
      if (head_ != nullptr) ++head_->ref;
    }
    push_limit_ =
        (head_ != nullptr && head_->ref == 1) ? kChunkCapacity : 0;
  }

  __attribute__((noinline)) void PushSlow(const T& value) {
    Node* head = head_;
    if (head != nullptr && top_len_ < kChunkCapacity) {
      if (head->ref == 1) {
        // The chunk regained exclusivity since push_limit_ was cached
        // (its snapshots were all released): push in place again.
        push_limit_ = kChunkCapacity;
        head->values[top_len_++] = value;
        return;
      }
      // Shared top chunk with room: copy-on-write the live prefix so the
      // snapshots that own it never see our writes. Runs once per
      // checkpoint, copying at most kChunkCapacity - 1 values.
      Node* fresh = Acquire();
      fresh->prev = head->prev;
      if (head->prev != nullptr) ++head->prev->ref;  // second chain in
      for (uint32_t i = 0; i < top_len_; ++i) {
        fresh->values[i] = head->values[i];
      }
      --head->ref;  // the head pointer moves off the shared chunk
      head_ = fresh;
      fresh->values[top_len_++] = value;
      push_limit_ = kChunkCapacity;
      return;
    }
    // Full top chunk (freeze its live count — for a shared full chunk this
    // rewrites the value it froze at, since shared chunks only ever lose
    // live values to pops and regrow through copy-on-write) or empty
    // stack: open a fresh chunk above.
    if (head != nullptr) {
      head->len = top_len_;
      below_ += top_len_;
    }
    Node* fresh = Acquire();  // arrives with ref == 1 (free-list invariant)
    fresh->prev = head;  // the head pointer's edge transfers to fresh
    fresh->values[0] = value;
    head_ = fresh;
    top_len_ = 1;
    push_limit_ = kChunkCapacity;
  }

  Node* Acquire() {
    if (free_ != nullptr) {
      Node* node = free_;
      free_ = node->prev;
      return node;
    }
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    Node* slab = slabs_.back().get();
    for (size_t i = kSlabNodes - 1; i > 0; --i) {
      slab[i].ref = 1;  // free-list invariant
      slab[i].prev = free_;
      free_ = &slab[i];
    }
    slab[0].ref = 1;
    return &slab[0];
  }

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_ = nullptr;
  Node* head_ = nullptr;
  uint32_t top_len_ = 0;  // live values in the head chunk (>= 1 when live)
  // In-place push bound for the head chunk: kChunkCapacity when the chunk
  // is exclusively the stack's, 0 when it is shared (or there is none) —
  // recomputed at every event that can change head ownership.
  uint32_t push_limit_ = 0;
  uint64_t below_ = 0;  // live values in the chunks beneath the head chunk
};

}  // namespace sst

#endif  // SST_BASE_POOLED_STACK_H_
