// One field list per statistics struct.  Each stats struct declares its
// fields once, as an X-macro list of X(type, name) entries; its members
// and its operator+= are both generated from that list, so a counter is
// summed the moment it is declared:
//
//   #define MY_STATS_FIELDS(X) X(Counter, calls) X(std::int64_t, ns)
//   struct MyStats {
//     MY_STATS_FIELDS(RMIOPT_DECLARE_FIELD)
//     MyStats& operator+=(const MyStats& o) {
//       MY_STATS_FIELDS(RMIOPT_ADD_FIELD)
//       return *this;
//     }
//   };
//
// The expansion is the same straight-line code as a hand-written body.
#pragma once

#include <cstdint>

namespace rmiopt {
// An event counter's type in the field lists.
using Counter = std::uint64_t;
}  // namespace rmiopt

// One value-initialized member (0 for a counter).
#define RMIOPT_DECLARE_FIELD(type, name) type name{};
// `name += o.name;` — for the body of an operator+=(const T& o).
#define RMIOPT_ADD_FIELD(type, name) name += o.name;
