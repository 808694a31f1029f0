#ifndef ESP_STREAM_ARENA_H_
#define ESP_STREAM_ARENA_H_

#include <utility>
#include <vector>

#include "stream/tuple.h"
#include "stream/value.h"

namespace esp::stream {

/// \brief A free-list of std::vector<Value> backing stores, recycled across
/// ticks instead of round-tripping through the allocator.
///
/// The steady-state data plane creates and destroys thousands of small value
/// vectors per tick (evaluator rows, projection outputs, window evictions)
/// whose sizes barely vary. The arena keeps released vectors (cleared, with
/// their capacity intact) and hands them back on Acquire.
///
/// Lifetime rules: the arena is a cache, not an owner. A vector obtained
/// from Acquire() may be freed normally anywhere (e.g. inside a Tuple handed
/// to the caller) — only vectors explicitly passed to Release() return to
/// the pool. Each thread has its own arena (Local()), so shard workers never
/// contend; releasing a vector on a different thread than the one that
/// allocated it is safe (it just migrates the buffer).
///
/// AddressSanitizer builds compile the pool out (kPooling): recycled buffers
/// would hide a use-after-release from ASan, so there Acquire allocates
/// fresh and Release/Recycle free at once.
class TupleArena {
 public:
  /// The calling thread's arena.
  static TupleArena& Local();

  /// Returns an empty vector with at least `reserve` capacity, reusing a
  /// pooled backing store when one is available.
  std::vector<Value> Acquire(size_t reserve) {
    if (kPooling && !pool_.empty()) {
      std::vector<Value> v = std::move(pool_.back());
      pool_.pop_back();
      if (v.capacity() < reserve) v.reserve(reserve);
      return v;
    }
    std::vector<Value> v;
    v.reserve(reserve);
    return v;
  }

  /// Takes a vector's backing store (`v` is left empty) and returns it to
  /// the pool. The elements are destroyed now; the capacity is kept.
  /// Oversized buffers and overflow beyond the pool cap are freed.
  void Release(std::vector<Value>&& v) {
    std::vector<Value> owned = std::move(v);
    if (!kPooling || owned.capacity() == 0 ||
        owned.capacity() > kMaxPooledCapacity ||
        pool_.size() >= kMaxPooledVectors) {
      return;  // `owned` frees normally.
    }
    owned.clear();
    pool_.push_back(std::move(owned));
  }

  /// Returns an empty tuple vector, reusing a pooled backing store when one
  /// is available. Pairs with ReleaseTuples()/Recycle() the way Acquire()
  /// pairs with Release(); relations built on these vectors stop allocating
  /// their tuple arrays once the pool warms up.
  std::vector<Tuple> AcquireTuples() {
    if (kPooling && !tuple_pool_.empty()) {
      std::vector<Tuple> v = std::move(tuple_pool_.back());
      tuple_pool_.pop_back();
      return v;
    }
    return {};
  }

  /// Takes a tuple vector's backing store (`v` is left empty) and returns it
  /// to the pool. Elements are destroyed now; callers should Recycle() value
  /// stores first.
  void ReleaseTuples(std::vector<Tuple>&& v) {
    std::vector<Tuple> owned = std::move(v);
    if (!kPooling || owned.capacity() == 0 ||
        owned.capacity() > kMaxPooledCapacity ||
        tuple_pool_.size() >= kMaxPooledVectors) {
      return;  // `owned` frees normally.
    }
    owned.clear();
    tuple_pool_.push_back(std::move(owned));
  }

  /// Releases the backing store of every tuple in `relation` (which is left
  /// empty) and pools the tuple array itself. For stages that drop a whole
  /// relation at end of tick.
  void Recycle(Relation&& relation) {
    for (Tuple& tuple : relation.mutable_tuples()) {
      Release(std::move(tuple.mutable_values()));
    }
    ReleaseTuples(std::move(relation.mutable_tuples()));
  }

 private:
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kPooling = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  static constexpr bool kPooling = false;
#else
  static constexpr bool kPooling = true;
#endif
#else
  static constexpr bool kPooling = true;
#endif
  static constexpr size_t kMaxPooledVectors = 8192;
  static constexpr size_t kMaxPooledCapacity = 64;  // Values per vector.

  std::vector<std::vector<Value>> pool_;
  std::vector<std::vector<Tuple>> tuple_pool_;
};

}  // namespace esp::stream

#endif  // ESP_STREAM_ARENA_H_
