// Ablation: combining object reuse with Kono & Masuda's zero-copy receive
// (paper §6, related work [10]): "Our object reuse scheme can be used in
// combination with their zero copy scheme for increased performance."
//
// The first half sweeps the *receive* side for real: with
// CostModel::zero_copy_receive on, delivery lands frame images in pooled
// pinned buffers and the reader borrows large primitive-array rows
// straight out of them (rebinding reuse-cached arrays to the new frame's
// span instead of rewriting bytes).  The sweep runs gather on/off x
// zero-copy-receive on/off x Sim/Loopback and asserts: result digests
// identical everywhere, frame images untouched by the receive knob,
// deserialize virtual time and real allocation volume strictly lower when
// borrowing engages, and every recv/pool counter zero with the knob off.
//
// The second half sweeps the *send* side: CostModel::zero_copy_send routes
// serialization into a scatter-gather list whose inline primitive-array
// rows are borrowed spans, not copies.  The sweep cross-checks every cell
// (app x opt level x gather on/off x Sim/Loopback) by digesting the frame
// images seen at the NIC boundary: gathering must change *when* bytes are
// copied, never *which* bytes go on the wire.  Any divergence in either
// sweep dumps the cell digests to $RMIOPT_GATHER_DUMP (default
// gather_divergence.txt) and exits nonzero — CI uploads the dump as an
// artifact.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/microbench.hpp"
#include "bench/bench_common.hpp"
#include "support/hash.hpp"
#include "wire/framing.hpp"

using namespace rmiopt;

namespace {

// The environment of one sweep cell: the zero-copy knobs and transport
// under test, plus a frame probe folding every frame image into an
// order-insensitive digest.
struct ProbedEnv {
  std::atomic<std::uint64_t> digest{0};
  std::atomic<std::uint64_t> frames{0};
  apps::RunEnv env;

  ProbedEnv(bool gather, bool zcr, net::TransportKind transport) {
    env.cost.zero_copy_send = gather;
    env.cost.zero_copy_receive = zcr;
    env.transport = transport;
    env.frame_probe = [this](std::uint16_t, std::uint16_t,
                             const wire::Frame& frame) {
      const ByteBuffer image = wire::encode_frame(frame);
      digest.fetch_xor(
          fnv1a(image.contents().data(), image.contents().size()),
          std::memory_order_relaxed);
      frames.fetch_add(1, std::memory_order_relaxed);
    };
  }
};

// One sweep cell: an order-insensitive digest of every frame image the
// transport carried (XOR of per-frame FNV-1a hashes commutes, so Sim's
// inline delivery and Loopback's threaded delivery compare equal), plus
// the counters the assertions need.
struct Cell {
  std::string app;
  std::string level;
  bool gather = false;
  std::string transport;
  std::uint64_t digest = 0;
  std::uint64_t frames = 0;
  std::uint64_t gather_segments = 0;
  std::uint64_t bytes_borrowed = 0;
  std::uint64_t gathered_messages = 0;
  double seconds = 0.0;
};

template <typename Cfg>
Cell run_cell(const char* app, codegen::OptLevel level, bool gather,
              net::TransportKind transport, Cfg cfg,
              apps::RunResult (*runner)(codegen::OptLevel, const Cfg&)) {
  ProbedEnv probed(gather, /*zcr=*/false, transport);
  cfg.env = probed.env;
  const apps::RunResult r = runner(level, cfg);

  Cell c;
  c.app = app;
  c.level = std::string(codegen::to_string(level));
  c.gather = gather;
  c.transport = transport == net::TransportKind::Sim ? "Sim" : "Loopback";
  c.digest = probed.digest.load();
  c.frames = probed.frames.load();
  c.gather_segments = r.total.serial.gather_segments;
  c.bytes_borrowed = r.total.serial.gather_bytes_borrowed;
  c.gathered_messages = r.net.gathered_messages;
  c.seconds = r.makespan.as_seconds();
  return c;
}

// One receive-sweep cell: the 64x64 double-array bench under one
// (level, gather, zero_copy_receive, transport) configuration.
struct RecvCell {
  std::string level;
  bool gather = false;
  bool zcr = false;
  std::string transport;
  std::uint64_t digest = 0;  // XOR of per-frame image hashes (order-free)
  std::uint64_t frames = 0;
  double check = 0.0;
  std::int64_t deser_ns = 0;  // virtual CPU cost of the serial counters
  std::uint64_t recv_segments = 0;
  std::uint64_t recv_bytes_borrowed = 0;
  std::uint64_t bytes_copied_rx = 0;
  std::uint64_t new_bytes = 0;  // real allocation volume ("new (MBytes)")
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double seconds = 0.0;
};

RecvCell run_recv_cell(codegen::OptLevel level, bool gather, bool zcr,
                       net::TransportKind transport) {
  ProbedEnv probed(gather, zcr, transport);
  apps::ArrayBenchConfig cfg;
  cfg.rows = 64;  // 512-byte rows: well past the borrow threshold
  cfg.cols = 64;
  cfg.iterations = 300;
  cfg.env = probed.env;
  const apps::RunResult r = apps::run_array_bench(level, cfg);

  RecvCell c;
  c.level = std::string(codegen::to_string(level));
  c.gather = gather;
  c.zcr = zcr;
  c.transport = transport == net::TransportKind::Sim ? "Sim" : "Loopback";
  c.digest = probed.digest.load();
  c.frames = probed.frames.load();
  c.check = r.check;
  c.deser_ns = r.total.serial.cpu_cost(cfg.env.cost).as_nanos();
  c.recv_segments = r.total.serial.recv_segments;
  c.recv_bytes_borrowed = r.total.serial.recv_bytes_borrowed;
  c.bytes_copied_rx = r.total.serial.bytes_copied_rx;
  c.new_bytes = r.total.serial.bytes_allocated;
  c.pool_hits = r.net.frame_pool_hits;
  c.pool_misses = r.net.frame_pool_misses;
  c.seconds = r.makespan.as_seconds();
  return c;
}

void dump_divergence(const std::vector<RecvCell>& recv_cells,
                     const std::vector<Cell>& cells,
                     const std::vector<std::string>& errors) {
  const char* env = std::getenv("RMIOPT_GATHER_DUMP");
  const std::string path = env != nullptr && env[0] != '\0'
                               ? env
                               : "gather_divergence.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "zero-copy sweep: divergence\n\n");
  for (const auto& e : errors) std::fprintf(f, "FAIL: %s\n", e.c_str());
  std::fprintf(f, "\nreceive sweep cells\n");
  std::fprintf(f, "%-14s %-7s %-4s %-9s %18s %8s %10s %14s %12s %12s\n",
               "level", "gather", "zcr", "transport", "digest", "frames",
               "rx spans", "rx borrowed", "pool hits", "pool misses");
  for (const auto& c : recv_cells) {
    std::fprintf(
        f, "%-14s %-7s %-4s %-9s 0x%016llx %8llu %10llu %14llu %12llu %12llu\n",
        c.level.c_str(), c.gather ? "on" : "off", c.zcr ? "on" : "off",
        c.transport.c_str(), static_cast<unsigned long long>(c.digest),
        static_cast<unsigned long long>(c.frames),
        static_cast<unsigned long long>(c.recv_segments),
        static_cast<unsigned long long>(c.recv_bytes_borrowed),
        static_cast<unsigned long long>(c.pool_hits),
        static_cast<unsigned long long>(c.pool_misses));
  }
  std::fprintf(f, "\nsend sweep cells\n");
  std::fprintf(f, "%-6s %-14s %-7s %-9s %18s %8s %10s %14s\n", "app",
               "level", "gather", "transport", "digest", "frames",
               "segments", "borrowed");
  for (const auto& c : cells) {
    std::fprintf(f, "%-6s %-14s %-7s %-9s 0x%016llx %8llu %10llu %14llu\n",
                 c.app.c_str(), c.level.c_str(), c.gather ? "on" : "off",
                 c.transport.c_str(),
                 static_cast<unsigned long long>(c.digest),
                 static_cast<unsigned long long>(c.frames),
                 static_cast<unsigned long long>(c.gather_segments),
                 static_cast<unsigned long long>(c.bytes_borrowed));
  }
  std::fclose(f);
  std::fprintf(stderr, "divergence dump written to %s\n", path.c_str());
}

}  // namespace

int main() {
  std::vector<std::string> errors;

  // ---- receive side: gather x zero-copy-receive x transport --------------
  std::vector<RecvCell> recv_cells;
  for (const auto level :
       {codegen::OptLevel::Site, codegen::OptLevel::SiteReuseCycle}) {
    for (const bool gather : {false, true}) {
      for (const bool zcr : {false, true}) {
        for (const auto tk :
             {net::TransportKind::Sim, net::TransportKind::Loopback}) {
          recv_cells.push_back(run_recv_cell(level, gather, zcr, tk));
        }
      }
    }
  }

  auto find_recv = [&](const std::string& level, bool gather, bool zcr,
                       const std::string& transport) -> const RecvCell& {
    for (const auto& c : recv_cells) {
      if (c.level == level && c.gather == gather && c.zcr == zcr &&
          c.transport == transport) {
        return c;
      }
    }
    RMIOPT_CHECK(false, "receive sweep cell missing");
    std::abort();
  };
  for (const auto& c : recv_cells) {
    const std::string where = c.level + "/gather=" + (c.gather ? "on" : "off") +
                              "/zcr=" + (c.zcr ? "on" : "off") + "/" +
                              c.transport;
    // (1) Identical results everywhere: borrowing must be semantically
    // invisible to the application.
    const RecvCell& base = find_recv(c.level, false, false, "Sim");
    if (c.check != base.check) {
      errors.push_back(where + ": result digest diverges from baseline");
    }
    // (2) The receive knob must not change a single wire byte.
    if (c.transport == "Sim") {
      const RecvCell& off = find_recv(c.level, c.gather, false, "Sim");
      if (c.digest != off.digest || c.frames != off.frames) {
        errors.push_back(where + ": frame images diverge with zcr toggled");
      }
      const RecvCell& lb = find_recv(c.level, c.gather, c.zcr, "Loopback");
      if (c.digest != lb.digest || c.frames != lb.frames) {
        errors.push_back(where + ": Sim and Loopback frame images diverge");
      }
    }
    if (c.zcr) {
      const RecvCell& off = find_recv(c.level, c.gather, false, c.transport);
      // (3) Borrowing engaged (512-byte rows clear the threshold) and the
      // pool recycled at least once over 300 iterations.
      if (c.recv_segments == 0 || c.recv_bytes_borrowed == 0) {
        errors.push_back(where + ": zcr on but no rows were borrowed");
      }
      if (c.pool_hits == 0 || c.pool_misses == 0) {
        errors.push_back(where + ": zcr on but the frame pool never cycled");
      }
      // (4) The whole point: strictly lower deserialize virtual time and
      // strictly fewer real allocation bytes at identical results.
      if (c.deser_ns >= off.deser_ns) {
        errors.push_back(where + ": deserialize virtual time did not drop");
      }
      if (c.new_bytes >= off.new_bytes) {
        errors.push_back(where + ": allocation volume did not drop");
      }
      if (c.seconds >= off.seconds) {
        errors.push_back(where + ": makespan did not drop");
      }
    } else if (c.recv_segments != 0 || c.recv_bytes_borrowed != 0 ||
               c.pool_hits != 0 || c.pool_misses != 0) {
      // (5) Knob off: the pool and the borrow path must not exist.
      errors.push_back(where + ": recv/pool counters nonzero with zcr off");
    }
  }

  TextTable t({"level", "gather", "zero-copy recv", "seconds", "deser ms",
               "rx spans", "rx borrowed KB", "new KB", "pool hit/miss"});
  for (const auto& c : recv_cells) {
    if (c.transport != "Sim") continue;  // Loopback cells are cross-checks
    t.add_row({c.level, c.gather ? "on" : "off", c.zcr ? "on" : "off",
               fmt_fixed(c.seconds, 4),
               fmt_fixed(static_cast<double>(c.deser_ns) / 1e6, 2),
               std::to_string(c.recv_segments),
               std::to_string(c.recv_bytes_borrowed / 1024),
               std::to_string(c.new_bytes / 1024),
               std::to_string(c.pool_hits) + "/" +
                   std::to_string(c.pool_misses)});
  }
  std::printf("Ablation: zero-copy receive (double[64][64], 300 RMIs; "
              "result digests cross-checked per cell)\n%s",
              t.render().c_str());
  std::printf("\nWith the knob on the reader borrows rows out of pooled "
              "pinned frames (reuse rebinds cached arrays to the new span), "
              "cutting deserialize time and allocation volume at identical "
              "results and identical wire bytes.\n\n");

  // ---- send side: scatter-gather sweep -----------------------------------
  const auto levels = {codegen::OptLevel::Site,
                       codegen::OptLevel::SiteReuseCycle};
  const auto transports = {net::TransportKind::Sim,
                           net::TransportKind::Loopback};
  std::vector<Cell> cells;
  for (const auto level : levels) {
    for (const bool gather : {false, true}) {
      for (const auto tk : transports) {
        apps::ArrayBenchConfig acfg;
        acfg.rows = 32;  // 32x8 = 256-byte rows: every row borrows
        acfg.cols = 32;
        acfg.iterations = 100;
        cells.push_back(run_cell<apps::ArrayBenchConfig>(
            "array", level, gather, tk, acfg, apps::run_array_bench));

        apps::ListBenchConfig lcfg;
        lcfg.list_length = 100;
        lcfg.iterations = 50;
        cells.push_back(run_cell<apps::ListBenchConfig>(
            "list", level, gather, tk, lcfg, apps::run_list_bench));
      }
    }
  }

  // Cross-cell checks: gathering must be invisible on the wire.
  auto find = [&](const std::string& app, const std::string& level,
                  bool gather, const std::string& transport) -> const Cell& {
    for (const auto& c : cells) {
      if (c.app == app && c.level == level && c.gather == gather &&
          c.transport == transport) {
        return c;
      }
    }
    RMIOPT_CHECK(false, "sweep cell missing");
    std::abort();
  };
  for (const auto& c : cells) {
    if (c.transport != "Sim") continue;
    // (1) Sim and Loopback carry byte-identical frame images per config.
    const Cell& lb = find(c.app, c.level, c.gather, "Loopback");
    if (c.digest != lb.digest || c.frames != lb.frames) {
      errors.push_back(c.app + "/" + c.level + "/gather=" +
                       (c.gather ? "on" : "off") +
                       ": Sim and Loopback frame images diverge");
    }
    // (2) Gathering never changes the bytes on the wire.
    if (c.gather) {
      const Cell& off = find(c.app, c.level, false, "Sim");
      if (c.digest != off.digest || c.frames != off.frames) {
        errors.push_back(c.app + "/" + c.level +
                         ": gather on/off frame images diverge");
      }
    }
  }
  for (const auto& c : cells) {
    // (3) Knob off leaves every gather counter at zero; knob on borrows
    // every inline primitive-array row (zero per-row memcpys on the array
    // bench — its 256-byte rows all clear the borrow threshold).
    if (!c.gather &&
        (c.gather_segments != 0 || c.bytes_borrowed != 0 ||
         c.gathered_messages != 0)) {
      errors.push_back(c.app + "/" + c.level + "/" + c.transport +
                       ": gather counters nonzero with the knob off");
    }
    if (c.gather && c.app == "array" &&
        (c.gather_segments == 0 || c.bytes_borrowed == 0 ||
         c.gathered_messages == 0)) {
      errors.push_back(c.app + "/" + c.level + "/" + c.transport +
                       ": knob on but no rows were borrowed");
    }
  }

  TextTable s({"app", "level", "gather", "seconds", "borrowed segs",
               "memcpy bytes eliminated"});
  for (const auto& c : cells) {
    if (c.transport != "Sim") continue;  // Loopback cells are cross-checks
    s.add_row({c.app, c.level, c.gather ? "on" : "off", fmt_fixed(c.seconds, 4),
               std::to_string(c.gather_segments),
               std::to_string(c.bytes_borrowed)});
  }
  std::printf("Ablation: zero-copy scatter-gather send "
              "(frame images cross-checked Sim vs Loopback, on vs off)\n%s",
              s.render().c_str());
  std::printf("\n'memcpy bytes eliminated' counts inline primitive-array "
              "bytes that rode as borrowed iovec segments instead of being "
              "copied into a contiguous payload.\n");

  if (!errors.empty()) {
    for (const auto& e : errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());
    dump_divergence(recv_cells, cells, errors);
    return 1;
  }
  std::printf("\nAll %zu sweep cells agree: zero-copy changed when bytes "
              "are copied, never which bytes go on the wire or what the "
              "application computes.\n",
              recv_cells.size() + cells.size());
  return 0;
}
