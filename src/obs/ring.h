// Fixed-capacity, overwrite-oldest ring: the one event buffer behind
// TraceSink's spans and AuditTrail's records.
//
// The capacity is allocated once, at construction (0 is raised to 1),
// so push() never allocates.  Elements are addressed oldest first:
// index 0 is the oldest retained element, size() - 1 the newest.
//
// Not synchronised: each owner guards its ring with its own lock.
#pragma once

#include <cstddef>
#include <vector>

namespace bp::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : slots_(capacity == 0 ? 1 : capacity) {}

  // Appends `value`; when the ring is full it replaces the oldest
  // element.  Returns true when an element was overwritten.
  bool push(const T& value) {
    const bool overwrote = size_ == slots_.size();
    if (!overwrote) ++size_;
    slots_[next_] = value;
    if (++next_ == slots_.size()) next_ = 0;
    return overwrote;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  bool empty() const noexcept { return size_ == 0; }

  // The i-th retained element, oldest first.  Requires i < size().
  const T& operator[](std::size_t i) const noexcept {
    std::size_t slot = (size_ == slots_.size() ? next_ : 0) + i;
    if (slot >= slots_.size()) slot -= slots_.size();
    return slots_[slot];
  }

  // The most recently pushed element.  Requires !empty().
  const T& newest() const noexcept {
    return slots_[next_ == 0 ? slots_.size() - 1 : next_ - 1];
  }

  // Calls fn(element) for every retained element, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn((*this)[i]);
  }

  // Forgets every element; the capacity stays allocated.
  void clear() noexcept {
    next_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t next_ = 0;  // slot the next push writes
  std::size_t size_ = 0;  // retained elements, <= capacity
};

}  // namespace bp::obs
