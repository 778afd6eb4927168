// The parallel web server (paper §5.4).
//
// A master on machine 0 accepts page requests and forwards each to a slave
// selected by the URL's Java hash code; the slave looks the page up in its
// in-memory table and returns it.  The whole application revolves around a
// single RMI — page = server[url.hashCode()].get_page(url) — whose URL
// argument and page return value the compiler proves cycle-free and
// reusable (Tables 7 and 8).
#pragma once

#include "apps/run_env.hpp"
#include "apps/run_result.hpp"
#include "codegen/opt_level.hpp"

namespace rmiopt::apps {

struct WebserverConfig {
  std::size_t machines = 2;     // master + (machines-1) slaves
  std::size_t pages = 64;       // distinct pages per slave
  std::size_t page_size = 2048; // bytes per page (uniform: reuse-friendly)
  std::size_t requests = 500;   // total page retrievals
  std::size_t concurrent_clients = 1;  // master-side request pipelines
  std::uint64_t seed = 3;       // request sequence
  // Real-time backstop per blocked call (forwarded to the RMI runtime;
  // virtual-time failures do not wait on it).
  std::int64_t call_timeout_ms = 30'000;
  RunEnv env;
};

// RunResult::check = total page bytes received by the master; a correct
// run returns requests * page_size.
RunResult run_webserver(codegen::OptLevel level,
                        const WebserverConfig& cfg = {});

}  // namespace rmiopt::apps
