#pragma once
/// \file page_array.hpp
/// \brief A fixed-size array on its own anonymous page mapping, for the
/// solver's large buffers (the evolved state, the RK stages and the
/// pipeline's patch buffers).
///
/// A new mapping reads as zeros but holds no memory: a page becomes
/// resident when it is first written, so a page that nothing writes (the
/// patch buffer of a chunk a rank never runs) never does. Freeing unmaps,
/// so the memory leaves the process at once, on whatever thread frees it;
/// malloc would keep a large freed block in that thread's arena. Under
/// AddressSanitizer the page-rounding tail past the last element is
/// poisoned, so an overflow into it is reported as it would be on the heap.

#include <atomic>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace dgr {

namespace page_map {

/// `bytes` of fresh zero pages (nullptr for 0). Throws dgr::Error when the
/// mapping fails.
void* map(std::size_t bytes);
/// Release a mapping of `bytes` returned by map() (no-op on nullptr).
void unmap(void* p, std::size_t bytes);

/// Bytes currently held in PageArray mappings, process-wide: the sum of
/// their element sizes (not rounded to pages), so a buffer's share is
/// exact and independent of the host and of malloc.
std::size_t live_bytes();
/// The largest live_bytes() this process has held.
std::size_t peak_bytes();

}  // namespace page_map

/// `size()` elements of a trivially copyable T on a private page mapping.
/// resize() discards the contents and hands out fresh zero pages; copies
/// are deep; a moved-from array is empty.
template <class T>
class PageArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PageArray() = default;
  explicit PageArray(std::size_t n) { resize(n); }
  PageArray(const PageArray& o) : PageArray(o.n_) { copy_from(o); }
  PageArray(PageArray&& o) noexcept
      : p_(std::exchange(o.p_, nullptr)), n_(std::exchange(o.n_, 0)) {}
  ~PageArray() { release(); }

  /// Deep copy; reuses this mapping when the sizes match.
  PageArray& operator=(const PageArray& o) {
    if (this == &o) return *this;
    if (n_ != o.n_) resize(o.n_);
    copy_from(o);
    return *this;
  }
  PageArray& operator=(PageArray&& o) noexcept {
    if (this != &o) {
      release();
      p_ = std::exchange(o.p_, nullptr);
      n_ = std::exchange(o.n_, 0);
    }
    return *this;
  }

  /// Unmap the current contents and map n zero elements.
  void resize(std::size_t n) {
    release();
    p_ = static_cast<T*>(page_map::map(n * sizeof(T)));
    n_ = n;
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  T* data() { return p_; }
  const T* data() const { return p_; }
  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }

 private:
  void copy_from(const PageArray& o) {
    if (n_ != 0) std::memcpy(p_, o.p_, n_ * sizeof(T));
  }
  void release() {
    page_map::unmap(p_, n_ * sizeof(T));
    p_ = nullptr;
    n_ = 0;
  }

  T* p_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace dgr
