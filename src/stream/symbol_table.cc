#include "stream/symbol_table.h"

namespace esp::stream {

SymbolTable& SymbolTable::Global() {
  static SymbolTable* table = new SymbolTable();
  return *table;
}

std::optional<uint32_t> SymbolTable::TryIntern(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  const uint32_t id = count_;
  if ((id >> kBlockBits) >= kMaxBlocks) return std::nullopt;
  Entry* block = blocks_[id >> kBlockBits].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new Entry[kBlockSize];
    blocks_[id >> kBlockBits].store(block, std::memory_order_release);
  }
  Entry& entry = block[id & (kBlockSize - 1)];
  entry.text.assign(text.data(), text.size());
  entry.hash = std::hash<std::string>{}(entry.text);
  // The index key views the entry's own storage, which never moves.
  index_.emplace(std::string_view(entry.text), id);
  ++count_;
  published_.store(count_, std::memory_order_release);
  return id;
}

}  // namespace esp::stream
