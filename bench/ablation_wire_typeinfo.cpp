// Ablation: what does call-site specialization (§3.1) actually buy?
//
// The 'site' gain has two separable parts: (a) CPU — no per-object
// serializer dispatch, no generic stub/boxing; (b) network — no type
// information on the wire.  We isolate them by zeroing parts of the cost
// model and rerunning the 16x16 array benchmark at 'class' vs 'site'.
#include <cstdio>

#include "apps/microbench.hpp"
#include "bench/bench_common.hpp"

using namespace rmiopt;

namespace {

template <typename Cfg, typename Runner>
double gain(const Cfg& cfg, Runner run) {
  const double t_class =
      run(codegen::OptLevel::Class, cfg).makespan.as_seconds();
  const double t_site =
      run(codegen::OptLevel::Site, cfg).makespan.as_seconds();
  return (t_class - t_site) / t_class * 100.0;
}

void zero_network(serial::CostModel& cost) {
  cost.msg_latency_ns = 0;
  cost.wire_byte_ns = 0;
  cost.send_overhead_ns = 0;
}

void zero_dispatch(serial::CostModel& cost) {
  cost.serializer_invoke_ns = 0;
  cost.type_decode_ns = 0;
  cost.generic_stub_ns = cost.site_stub_ns;
  cost.generic_arg_box_ns = 0;
}

template <typename Cfg, typename Runner>
void report(const char* workload, Cfg base, Runner run, TextTable& t) {
  Cfg free_net = base;
  zero_network(free_net.env.cost);
  Cfg free_cpu = base;
  zero_dispatch(free_cpu.env.cost);
  t.add_row({workload, "full model", fmt_fixed(gain(base, run), 1) + "%"});
  t.add_row({workload, "network free (CPU effects only)",
             fmt_fixed(gain(free_net, run), 1) + "%"});
  t.add_row({workload, "dispatch free (wire effects only)",
             fmt_fixed(gain(free_cpu, run), 1) + "%"});
}

}  // namespace

int main() {
  TextTable t({"workload", "cost model", "site gain over class"});

  // Bulk payload: type info is a negligible fraction of the bytes; the
  // 'site' gain is almost entirely dispatch CPU.
  apps::ArrayBenchConfig array_cfg;
  array_cfg.iterations = 500;
  report("double[16][16]", array_cfg, apps::run_array_bench, t);

  // Many tiny objects: per-node type info is comparable to the payload;
  // the wire component matters ("a lot of network traffic is saved to
  // transmit type information for each linked list node", §5.1).
  apps::ListBenchConfig list_cfg;
  list_cfg.iterations = 500;
  report("LinkedList(100)", list_cfg, apps::run_list_bench, t);

  std::printf("Ablation: decomposing the call-site-specialization gain\n%s",
              t.render().c_str());
  std::printf(
      "\nThe class->site wire saving is small because the 'class' baseline "
      "already uses KaRMI/Manta-style compact class ids; the big wire "
      "reduction happened going introspective->class.  Measured type-info "
      "bytes per message:\n");

  apps::ListBenchConfig one;
  one.iterations = 1;
  for (const auto level : {codegen::OptLevel::Heavy, codegen::OptLevel::Class,
                           codegen::OptLevel::Site}) {
    const apps::RunResult r = apps::run_list_bench(level, one);
    std::printf("  %-12s %6llu bytes of type info, %6llu wire bytes\n",
                std::string(codegen::to_string(level)).c_str(),
                static_cast<unsigned long long>(r.total.serial.type_info_bytes),
                static_cast<unsigned long long>(r.bytes));
  }
  return 0;
}
