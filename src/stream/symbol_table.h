#ifndef ESP_STREAM_SYMBOL_TABLE_H_
#define ESP_STREAM_SYMBOL_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace esp::stream {

/// \brief A dense 32-bit handle to an interned string in the deployment's
/// SymbolTable. Two symbols with equal ids denote the same string; the
/// table dedups on insert, so equal ids is also a *necessary* condition
/// for equal content.
struct Symbol {
  uint32_t id = 0;
  bool operator==(const Symbol&) const = default;
};

/// \brief Deployment-scoped, thread-safe intern table.
///
/// ESP's vocabulary (tag ids, receptor ids, shelf names) is tiny and
/// endlessly repeated, so the table maps each distinct string to a dense id
/// once and every subsequent tuple carries the 4-byte handle instead of a
/// fresh std::string. Entries are stored in fixed-size blocks that are
/// never moved or freed: TextOf/HashOf are lock-free pointer chases and the
/// returned references stay valid for the life of the process. Interning
/// takes a mutex (insert-or-find); it runs at ingest, not per evaluation.
class SymbolTable {
 public:
  static SymbolTable& Global();

  /// Returns the id for `text`, interning it on first sight. Returns
  /// nullopt only when the table is full (2^24 distinct strings) — callers
  /// fall back to a plain string value.
  std::optional<uint32_t> TryIntern(std::string_view text);

  /// The interned string for a valid id. Lock-free; the reference is stable.
  const std::string& TextOf(uint32_t id) const {
    return EntryOf(id).text;
  }

  /// Precomputed std::hash<std::string> of the content, so interned and
  /// plain string values hash identically in shared hash maps.
  size_t HashOf(uint32_t id) const { return EntryOf(id).hash; }

  /// Number of interned strings so far.
  size_t size() const { return published_.load(std::memory_order_acquire); }

 private:
  struct Entry {
    std::string text;
    size_t hash = 0;
  };

  // 4096 entries per block, 4096 blocks: ids are 24-bit in practice.
  static constexpr uint32_t kBlockBits = 12;
  static constexpr uint32_t kBlockSize = 1u << kBlockBits;
  static constexpr uint32_t kMaxBlocks = 1u << 12;

  SymbolTable() = default;

  const Entry& EntryOf(uint32_t id) const {
    const Entry* block =
        blocks_[id >> kBlockBits].load(std::memory_order_acquire);
    return block[id & (kBlockSize - 1)];
  }

  std::array<std::atomic<Entry*>, kMaxBlocks> blocks_{};
  std::atomic<uint32_t> published_{0};

  std::mutex mu_;
  uint32_t count_ = 0;                                 // Guarded by mu_.
  std::unordered_map<std::string_view, uint32_t> index_;  // Guarded by mu_.
};

}  // namespace esp::stream

#endif  // ESP_STREAM_SYMBOL_TABLE_H_
