// Arena: a page-backed bump allocator for frame-scoped scratch memory.
//
// Scratch of this kind is many short-lived blocks whose lifetimes end
// together at a well-defined boundary — the end of a block, an epoch, or
// a dump. A bump allocator turns each of those allocations
// into a pointer increment against a chain of malloc'd pages, and the
// collective free into a pointer rewind: reset() (or a scoped Frame)
// recycles every byte without touching the general-purpose heap, so
// steady-state epochs run allocation-free once the page chain has grown
// to its high-water mark.
//
// Not thread-safe: one Arena per owner. The owners are the profiler's
// (common/prof.cpp): each thread log's event pages, and the process-wide
// arena holding the logs. Alignment is honored per allocation; pages
// double up to kMaxPage so a mis-sized first page never causes O(n) page
// chaining. Oversized requests get a dedicated page and leave the bump
// page untouched.
//
// ArenaVector<T> is the typed companion: a minimal contiguous array over
// arena memory for trivially destructible T (events, ids). Growth
// abandons the old block inside the arena — bounded by the doubling
// policy at < 2x the final size, all reclaimed by the next reset().
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace cloudalloc::common {

class Arena {
 public:
  static constexpr std::size_t kDefaultPage = std::size_t{64} << 10;
  static constexpr std::size_t kMaxPage = std::size_t{4} << 20;

  explicit Arena(std::size_t first_page = kDefaultPage)
      : next_page_size_(first_page < kMinPage ? kMinPage : first_page) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Arena(Arena&& other) noexcept { steal(other); }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      release_pages();
      steal(other);
    }
    return *this;
  }

  ~Arena() { release_pages(); }

  /// Bump-allocates `bytes` aligned to `align` (a power of two). Never
  /// returns nullptr; page exhaustion chains a new page.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    CHECK(align != 0 && (align & (align - 1)) == 0);
    if (bytes == 0) bytes = 1;
    std::uintptr_t p = (cursor_ + (align - 1)) & ~(std::uintptr_t{align} - 1);
    if (p + bytes > limit_) {
      new_page(bytes, align);
      p = (cursor_ + (align - 1)) & ~(std::uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    bytes_used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Typed array of default-initialized elements; T must not need a
  /// destructor call (the arena never runs one).
  template <typename T>
  T* make_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without destructor calls");
    T* out = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) ::new (static_cast<void*>(out + i)) T();
    return out;
  }

  /// Rewinds every page: all outstanding blocks are dead, the page chain
  /// is kept for reuse, and the next allocations refill it front to back.
  void reset() {
    spare_ = splice_lists(spare_, head_used_next_);
    head_used_next_ = nullptr;
    // Keep the current (largest, most recently chained) page as the bump
    // page; older pages move to the spare list and are reused on demand.
    if (current_ != nullptr) {
      cursor_ = payload_of(current_);
      limit_ = cursor_ + current_->capacity;
    }
    bytes_used_ = 0;
  }

  /// Bytes handed out since construction or the last reset() (alignment
  /// padding excluded) — the live high-water signal for tests and stats.
  std::size_t bytes_used() const { return bytes_used_; }

  /// Total bytes of owned pages (capacity, not usage).
  std::size_t bytes_reserved() const { return bytes_reserved_; }

  /// RAII frame: remembers the bump position and rewinds to it on scope
  /// exit. Frames nest; memory allocated inside the frame dies with it.
  /// Only valid when no new page is chained inside the frame — the cheap
  /// common case for bounded scratch; the general boundary is reset().
  class Frame {
   public:
    explicit Frame(Arena& arena)
        : arena_(arena), page_(arena.current_), cursor_(arena.cursor_),
          used_(arena.bytes_used_) {}
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
    ~Frame() {
      if (arena_.current_ == page_) {  // no page chained: exact rewind
        arena_.cursor_ = cursor_;
        arena_.bytes_used_ = used_;
      }
      // Otherwise leave the arena as-is; the next reset() reclaims all.
    }

   private:
    Arena& arena_;
    void* page_;
    std::uintptr_t cursor_;
    std::size_t used_;
  };

 private:
  struct Page {
    Page* next;
    std::size_t capacity;
  };
  static constexpr std::size_t kMinPage = 1 << 10;

  static std::uintptr_t payload_of(Page* page) {
    return reinterpret_cast<std::uintptr_t>(page) + sizeof(Page);
  }

  static Page* splice_lists(Page* list, Page* extra) {
    if (extra == nullptr) return list;
    Page* tail = extra;
    while (tail->next != nullptr) tail = tail->next;
    tail->next = list;
    return extra;
  }

  void new_page(std::size_t bytes, std::size_t align) {
    const std::size_t need = bytes + align + sizeof(Page);
    // Reuse a spare page from a previous reset() when it fits.
    for (Page** link = &spare_; *link != nullptr; link = &(*link)->next) {
      if ((*link)->capacity + sizeof(Page) >= need) {
        Page* page = *link;
        *link = page->next;
        adopt_page(page);
        return;
      }
    }
    std::size_t size = next_page_size_;
    while (size < need) size *= 2;
    if (next_page_size_ < kMaxPage) next_page_size_ *= 2;
    // The arena IS the pool boundary: this is the one sanctioned malloc.
    void* raw = ::operator new(size);
    auto* page = ::new (raw) Page{nullptr, size - sizeof(Page)};
    bytes_reserved_ += size;
    adopt_page(page);
  }

  void adopt_page(Page* page) {
    if (current_ != nullptr) {
      current_->next = head_used_next_;
      head_used_next_ = current_;
    }
    page->next = nullptr;
    current_ = page;
    cursor_ = payload_of(page);
    limit_ = cursor_ + page->capacity;
  }

  void release_pages() {
    for (Page* list : {current_, head_used_next_, spare_}) {
      while (list != nullptr) {
        Page* next = list->next;
        ::operator delete(list);
        list = next;
      }
    }
    current_ = head_used_next_ = spare_ = nullptr;
    cursor_ = limit_ = 0;
    bytes_used_ = bytes_reserved_ = 0;
  }

  void steal(Arena& other) {
    current_ = std::exchange(other.current_, nullptr);
    head_used_next_ = std::exchange(other.head_used_next_, nullptr);
    spare_ = std::exchange(other.spare_, nullptr);
    cursor_ = std::exchange(other.cursor_, 0);
    limit_ = std::exchange(other.limit_, 0);
    bytes_used_ = std::exchange(other.bytes_used_, 0);
    bytes_reserved_ = std::exchange(other.bytes_reserved_, 0);
    next_page_size_ = other.next_page_size_;
  }

  Page* current_ = nullptr;         ///< the bump page
  Page* head_used_next_ = nullptr;  ///< older filled pages (newest first)
  Page* spare_ = nullptr;           ///< reset() pages awaiting reuse
  std::uintptr_t cursor_ = 0;
  std::uintptr_t limit_ = 0;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t next_page_size_;
};

/// Minimal contiguous growable array over arena memory. For trivially
/// copyable + destructible element types (tasks, events, plain records);
/// growth memcpy-relocates into a fresh arena block and abandons the old
/// one until the arena's next reset().
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVector relocates with memcpy and never destroys");

 public:
  explicit ArenaVector(Arena& arena) : arena_(&arena) {}

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    T* fresh = static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    capacity_ = n;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) reserve(capacity_ == 0 ? 16 : capacity_ * 2);
    data_[size_++] = value;
  }

  void resize(std::size_t n) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = T();
    size_ = n;
  }

  /// Drops the reference to arena memory (after the owner's reset()).
  void unbind() {
    data_ = nullptr;
    size_ = capacity_ = 0;
  }

 private:
  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace cloudalloc::common
