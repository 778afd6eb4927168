// Scratch<T>: per-thread recycled working storage for hot paths.
//
// A Scratch<T> borrows a T from the calling thread's free list (creating
// one only when the list is empty) and, when it goes out of scope,
// clear()s it and hands it back.  Containers keep their capacity across
// clear(), so a path that borrows its working sets — a graph walk's stack
// and visited set, a deserialization pass's bookkeeping — stops allocating
// once the list has warmed up.  Nested borrows on one thread take distinct
// objects, and threads never share a list, so no locking is needed.
//
// T needs a default constructor and a clear() member.  The free list is a
// thread_local, destroyed at thread exit, so a Scratch must not be created
// by the destructor of a static or thread_local object.
#pragma once

#include <memory>
#include <vector>

namespace rmiopt::support {

template <typename T>
class Scratch {
 public:
  Scratch() {
    auto& list = free_list();
    if (list.empty()) {
      obj_ = std::make_unique<T>();
    } else {
      obj_ = std::move(list.back());
      list.pop_back();
    }
  }
  ~Scratch() {
    obj_->clear();
    free_list().push_back(std::move(obj_));
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T& operator*() const { return *obj_; }
  T* operator->() const { return obj_.get(); }

 private:
  static std::vector<std::unique_ptr<T>>& free_list() {
    thread_local std::vector<std::unique_ptr<T>> list;
    return list;
  }

  std::unique_ptr<T> obj_;
};

}  // namespace rmiopt::support
