#include "objmodel/obj_set.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"

namespace rmiopt::om {

std::size_t ObjSet::find(const Object* obj) const {
  if (size_ == 0 || obj == nullptr) return slots_.size();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(obj);; i = (i + 1) & mask) {
    if (slots_[i] == obj) return i;
    if (slots_[i] == nullptr) return slots_.size();
  }
}

bool ObjSet::contains(const Object* obj) const {
  return find(obj) != slots_.size();
}

bool ObjSet::insert(Object* obj) {
  RMIOPT_CHECK(obj != nullptr && obj != tombstone(),
               "ObjSet stores object addresses only");
  if ((used_ + 1) * 4 > slots_.size() * 3) {
    // Mostly tombstones: rebuild at the same size; otherwise double.
    const std::size_t cap = slots_.empty() ? 16
                            : (size_ + 1) * 2 <= slots_.size()
                                ? slots_.size()
                                : slots_.size() * 2;
    rehash(cap);
  }
  const std::size_t mask = slots_.size() - 1;
  Object** grave = nullptr;
  std::size_t i = home(obj);
  for (; slots_[i] != nullptr; i = (i + 1) & mask) {
    if (slots_[i] == obj) return false;
    if (grave == nullptr && slots_[i] == tombstone()) grave = &slots_[i];
  }
  if (grave != nullptr) {
    *grave = obj;
  } else {
    slots_[i] = obj;
    ++used_;
  }
  ++size_;
  return true;
}

bool ObjSet::erase(const Object* obj) {
  const std::size_t i = find(obj);
  if (i == slots_.size()) return false;
  slots_[i] = tombstone();
  --size_;
  return true;
}

void ObjSet::clear() {
  if (used_ != 0) std::fill(slots_.begin(), slots_.end(), nullptr);
  size_ = 0;
  used_ = 0;
}

void ObjSet::rehash(std::size_t capacity) {
  std::vector<Object*> old(capacity, nullptr);
  old.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::bit_width(capacity) - 1);
  used_ = size_;
  const std::size_t mask = capacity - 1;
  for (Object* s : old) {
    if (!live(s)) continue;
    std::size_t i = home(s);
    while (slots_[i] != nullptr) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace rmiopt::om
