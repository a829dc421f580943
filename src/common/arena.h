// Arena: a page-backed bump allocator for memory that lives as long as
// its owner.
//
// Each allocation is a pointer increment against the newest of a chain of
// malloc'd pages; the pages are freed together when the arena is
// destroyed, never one by one.
//
// Not thread-safe: one Arena per owner. The owners are the profiler's
// (common/prof.cpp): each thread log's event ring, and the process-wide
// arena holding the logs. Alignment is honored per allocation; pages
// double up to kMaxPage so a mis-sized first page never causes O(n) page
// chaining, and a request larger than the next page gets a page of its
// own size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

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

  ~Arena() {
    while (pages_ != nullptr) {
      Page* next = pages_->next;
      ::operator delete(pages_);
      pages_ = next;
    }
  }

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

  /// Total bytes of owned pages (capacity, not usage).
  std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Page {
    Page* next;
  };
  static constexpr std::size_t kMinPage = 1 << 10;

  void new_page(std::size_t bytes, std::size_t align) {
    const std::size_t need = bytes + align + sizeof(Page);
    std::size_t size = next_page_size_;
    while (size < need) size *= 2;
    if (next_page_size_ < kMaxPage) next_page_size_ *= 2;
    // The arena IS the pool boundary: this is the one sanctioned malloc.
    void* raw = ::operator new(size);
    pages_ = ::new (raw) Page{pages_};
    bytes_reserved_ += size;
    cursor_ = reinterpret_cast<std::uintptr_t>(raw) + sizeof(Page);
    limit_ = reinterpret_cast<std::uintptr_t>(raw) + size;
  }

  Page* pages_ = nullptr;  ///< every owned page, newest (the bump page) first
  std::uintptr_t cursor_ = 0;
  std::uintptr_t limit_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t next_page_size_;
};

}  // namespace cloudalloc::common
