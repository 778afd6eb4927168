// Shared helpers for the benchmark applications.
#pragma once

#include <string>

#include "apps/paper_figures.hpp"
#include "apps/run_env.hpp"
#include "apps/run_result.hpp"
#include "driver/pass_manager.hpp"
#include "net/cluster.hpp"
#include "rmi/runtime.hpp"

namespace rmiopt::apps {

// Find-or-define for the fieldless marker classes the apps export their
// state objects under ("LU", "Server", ...).  Idempotent, so a figure
// model can be shared across runs (a PassManager's analyses then hit on
// every run); the classes carry no fields and are never referenced by the
// IR, so defining them after compilation does not perturb the module's
// fingerprint.
inline om::ClassId marker_class(om::TypeRegistry& types,
                                const std::string& name) {
  if (const om::ClassDescriptor* d = types.find_by_name(name)) return d->id;
  return types.define_class(name, {});
}

// The scaffold of one application run, built from its RunEnv the same way
// for every app: the model, its compiled call sites, the cluster and the
// RMI runtime.  The app defines its methods and call sites on `sys`,
// drives the run, and ends it with finish().
class AppRun {
  // The run-local model, built from `make_model` unless env.model is
  // shared.  Declared first: `model` may refer to it.
  figures::FigureProgram local_model_;

 public:
  // Compiles through env.pass_manager only when env.model is set: a
  // caching manager must never hold analyses of a module that dies with
  // the run (the lifetime contract in driver/pass_manager.hpp).  The
  // recorder and frame probe are attached before the runtime is built.
  AppRun(const RunEnv& env, figures::FigureProgram (*make_model)(),
         codegen::OptLevel level, std::size_t machines,
         const driver::CompileOptions& opts = {},
         std::int64_t call_timeout_ms = rmi::ExecutorConfig{}.call_timeout_ms)
      : local_model_(env.model != nullptr ? figures::FigureProgram{}
                                          : make_model()),
        model(env.model != nullptr ? *env.model : local_model_),
        prog(env.model != nullptr && env.pass_manager != nullptr
                 ? env.pass_manager->compile(*model.module, level, opts)
                 : driver::compile(*model.module, level, opts)),
        cluster(machines, *model.types, env.cost, env.transport, {},
                env.faults, env.detector),
        sys(observed(cluster, env), *model.types,
            rmi::ExecutorConfig{env.dispatch_workers, call_timeout_ms}) {}

  // Stops the runtime and collects the run: virtual makespan, per-machine
  // and network counters, the call-site profile and this compile's stats.
  RunResult finish() {
    sys.stop();
    RunResult r;
    r.makespan = cluster.makespan();
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      r.per_machine.push_back(sys.stats(static_cast<std::uint16_t>(i)));
      r.total += r.per_machine.back();
    }
    r.net = cluster.stats();
    r.messages = r.net.messages;
    r.bytes = r.net.bytes;
    r.profile = sys.export_profile();
    r.compile = prog.stats;
    return r;
  }

  const figures::FigureProgram& model;
  driver::CompiledProgram prog;
  net::Cluster cluster;
  rmi::RmiSystem sys;

 private:
  static net::Cluster& observed(net::Cluster& cluster, const RunEnv& env) {
    if (env.recorder != nullptr) cluster.set_recorder(env.recorder);
    if (env.frame_probe) cluster.transport().set_frame_probe(env.frame_probe);
    return cluster;
  }
};

}  // namespace rmiopt::apps
