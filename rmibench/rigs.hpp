// The benchmark's workloads: one Rig per workload, each a 2-machine
// cluster (default Sim transport, one dispatch worker per machine) running
// one paper program compiled through driver::PassManager.  Machine 0 is
// the only caller and issues RMIs in a closed loop from the benchmark's
// own thread; machine 1 serves them.  Rigs own their request inputs and
// check every reply they deliver.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "net/cluster.hpp"
#include "rmi/runtime.hpp"

namespace rmibench {

namespace figures = rmiopt::apps::figures;

// The workload names the benchmark accepts, in the order it lists them.
const std::vector<std::string>& workload_names();

struct RigOptions {
  std::uint64_t seed = 1;
  // Time the benchmark's handler bodies (traced runs only: two clock
  // reads per call are part of the tracing overhead).
  bool time_handlers = false;
  // Observers attached before any traffic flows (nullptr / empty: none).
  rmiopt::trace::Recorder* recorder = nullptr;
  rmiopt::net::Transport::FrameProbe frame_probe;
};

class Rig {
 public:
  virtual ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Issues RMI number `i` (numbered from 0 over the rig's life) and
  // checks its reply.  Throws whatever invoke() throws.
  virtual void call(std::uint64_t i) = 0;

  // Empty when `calls` RMIs were served and every reply was right;
  // otherwise what went wrong.
  virtual std::string check(std::uint64_t calls) const = 0;

  // One line describing the generated inputs (for the run log).
  virtual std::string inputs() const = 0;

  // A no-argument, ACK-only RMI to machine 1.  When it returns, machine 1
  // has finished everything sent before it (one dispatcher, FIFO inbox),
  // and it leaves no counted work behind it — so counters read after a
  // fence are exact.
  void fence();

  rmiopt::net::Cluster& cluster() { return *cluster_; }
  rmiopt::rmi::RmiSystem& sys() { return *sys_; }
  const rmiopt::driver::CompileStats& compile_stats() const {
    return prog_.stats;
  }
  double compile_ms() const { return compile_ms_; }
  std::int64_t handler_ns() const {
    return handler_ns_.load(std::memory_order_relaxed);
  }

 protected:
  Rig(figures::FigureProgram model, rmiopt::codegen::OptLevel level,
      const RigOptions& opts);

  // Binds `handler` to the model's call site `tag` (timing its body when
  // the options ask for it) and returns the runtime call-site id.
  std::uint32_t bind_site(const std::string& method, const std::string& tag,
                          rmiopt::rmi::Handler handler);
  // Exports a fresh instance of marker class `cls` on machine 1.
  rmiopt::rmi::RemoteRef export_on_callee(const std::string& cls);
  // Exports the fence target, then starts the dispatchers.
  void start();

  figures::FigureProgram model_;
  rmiopt::driver::CompiledProgram prog_;
  double compile_ms_ = 0.0;
  bool time_handlers_ = false;
  std::atomic<std::int64_t> handler_ns_{0};
  std::unique_ptr<rmiopt::net::Cluster> cluster_;
  std::unique_ptr<rmiopt::rmi::RmiSystem> sys_;

 private:
  std::vector<rmiopt::om::ObjRef> exported_;  // machine 1's export targets
  std::uint32_t fence_site_ = 0;
  rmiopt::rmi::RemoteRef fence_target_;
};

// Builds, compiles, starts and binds the named workload.  Throws
// std::invalid_argument on an unknown name.
std::unique_ptr<Rig> make_rig(const std::string& workload,
                              const RigOptions& opts);

}  // namespace rmibench
