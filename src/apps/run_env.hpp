// The run environment the five benchmark applications share: how the
// cluster is modelled, what observes a run, and which model it compiles.
// Every app config carries one as `env`; the runners hand it to
// apps::AppRun (apps/harness.hpp), which applies it the same way for all.
#pragma once

#include <cstddef>

#include "net/failure_detector.hpp"
#include "net/transport.hpp"

namespace rmiopt::driver {
class PassManager;
}

namespace rmiopt::apps {

namespace figures {
struct FigureProgram;
}

struct RunEnv {
  serial::CostModel cost{};  // network/serialization cost model
  net::TransportKind transport = net::TransportKind::Sim;
  std::size_t dispatch_workers = 1;  // RMI handler pool per machine
  net::FaultPlan faults{};  // seeded fault injection (inert by default)
  // Heartbeat failure detection (inert by default).  Enabled, a crashed
  // machine is confirmed dead in bounded virtual time and its traffic
  // fails fast (rmi::MachineDown) instead of burning the full ARQ budget.
  net::FailureDetectorConfig detector{};
  // Optional trace recorder (nullptr = tracing off, zero overhead).
  trace::Recorder* recorder = nullptr;
  // Optional frame probe installed on the cluster's transport: sees every
  // frame at the NIC boundary (bench/ablation_zero_copy digests frame
  // images with it to prove Sim/Loopback/gather-on/gather-off equality).
  // Like the recorder it only observes: a run is the same with or without.
  net::Transport::FrameProbe frame_probe = nullptr;
  // Optional shared IR model (nullptr = build a fresh one per run).  Must
  // outlive any PassManager that compiled it (see driver/pass_manager.hpp).
  figures::FigureProgram* model = nullptr;
  // Optional shared pass manager: analyses and plans are then cached
  // across runs and levels (nullptr = one-shot driver::compile).  Honored
  // only together with `model` — a caching manager must never hold
  // analyses of a run-local module that dies with the run.
  driver::PassManager* pass_manager = nullptr;
};

}  // namespace rmiopt::apps
