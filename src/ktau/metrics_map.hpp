// Open-addressing flat map from packed (event, event) u64 keys to
// EventMetrics, used for the user-context bridge matrix and call-path
// edges in TaskProfile; TaskProfile also keys one by request tag to find
// the head of each request's row chain.
//
// These maps sit on the KTAU probe hot path: every instrumented exit with
// an active user context (and, with call-path profiling, every exit) does
// one upsert.  std::unordered_map pays a hash-node allocation per new key
// and a pointer chase per lookup; this map keeps key+value contiguous in a
// power-of-two slot array with linear probing, and fronts it with a
// one-entry last-key cache (kernel paths hammer the same (user, kernel)
// pair many times in a row).  Steady state — all keys seen once — does no
// allocation at all.
//
// Key restriction: the packed key 0xFFFFFFFFFFFFFFFF is reserved as the
// empty-slot sentinel.  It cannot occur in practice: the bridge writes
// only while user context != kNoEventId (0xFFFFFFFF), call-path parents
// use kCallpathRoot (0xFFFFFFFE), and request tags are 32-bit keys.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ktau::meas {

template <typename V>
class FlatKeyMap {
 public:
  using key_type = std::uint64_t;
  using mapped_type = V;
  using value_type = std::pair<key_type, V>;

  static constexpr key_type kEmptyKey = ~std::uint64_t{0};

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatKeyMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;

    reference operator*() const { return (*slots_)[pos_]; }
    pointer operator->() const { return &(*slots_)[pos_]; }

    const_iterator& operator++() {
      ++pos_;
      skip_empty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.pos_ != b.pos_;
    }

   private:
    friend class FlatKeyMap;
    const_iterator(const std::vector<value_type>* slots, std::size_t pos)
        : slots_(slots), pos_(pos) {
      skip_empty();
    }
    void skip_empty() {
      while (slots_ != nullptr && pos_ < slots_->size() &&
             (*slots_)[pos_].first == kEmptyKey) {
        ++pos_;
      }
    }
    const std::vector<value_type>* slots_ = nullptr;
    std::size_t pos_ = 0;
  };

  FlatKeyMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const_iterator begin() const { return const_iterator(&slots_, 0); }
  const_iterator end() const { return const_iterator(&slots_, slots_.size()); }

  const_iterator find(key_type key) const {
    const std::size_t pos = probe(key);
    if (pos == kNotFound) return end();
    return const_iterator(&slots_, pos);
  }

  const V& at(key_type key) const {
    const std::size_t pos = probe(key);
    if (pos == kNotFound) {
      throw std::out_of_range("FlatKeyMap::at: key not found");
    }
    return slots_[pos].second;
  }

  /// Insert-or-find.  Steady state (key already present) does no
  /// allocation; new keys may trigger a power-of-two rehash.
  V& operator[](key_type key) {
    assert(key != kEmptyKey && "FlatKeyMap: sentinel key is reserved");
    if (!slots_.empty()) {
      // One-entry cache: kernel paths repeat the same key in bursts.
      if (slots_[last_].first == key) return slots_[last_].second;
      const std::size_t mask = slots_.size() - 1;
      std::size_t pos = hash(key) & mask;
      while (true) {
        if (slots_[pos].first == key) {
          last_ = pos;
          return slots_[pos].second;
        }
        if (slots_[pos].first == kEmptyKey) break;
        pos = (pos + 1) & mask;
      }
    }
    return insert_new(key);
  }

  void clear() {
    slots_.clear();
    size_ = 0;
    last_ = 0;
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 16;

  static std::uint64_t hash(key_type key) {
    // splitmix64 finalizer: enough mixing that sequential event ids spread.
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  std::size_t probe(key_type key) const {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash(key) & mask;
    while (true) {
      if (slots_[pos].first == key) return pos;
      if (slots_[pos].first == kEmptyKey) return kNotFound;
      pos = (pos + 1) & mask;
    }
  }

  V& insert_new(key_type key) {
    // Grow at 3/4 load so probe chains stay short.
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash(key) & mask;
    while (slots_[pos].first != kEmptyKey) pos = (pos + 1) & mask;
    slots_[pos].first = key;
    ++size_;
    last_ = pos;
    return slots_[pos].second;
  }

  void rehash(std::size_t new_slots) {
    std::vector<value_type> old = std::move(slots_);
    slots_.assign(new_slots, value_type{kEmptyKey, V{}});
    const std::size_t mask = new_slots - 1;
    for (auto& kv : old) {
      if (kv.first == kEmptyKey) continue;
      std::size_t pos = hash(kv.first) & mask;
      while (slots_[pos].first != kEmptyKey) pos = (pos + 1) & mask;
      slots_[pos] = std::move(kv);
    }
    last_ = 0;
  }

  std::vector<value_type> slots_;
  std::size_t size_ = 0;
  std::size_t last_ = 0;  // one-entry cache: index of the last touched slot
};

}  // namespace ktau::meas
