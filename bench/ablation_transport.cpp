// Ablation: the transport backend and the session layer's ACK coalescing.
//
// Part 1 — backend equivalence.  The layered stack charges virtual time in
// Transport::charge_and_schedule, shared by every backend, so swapping the
// byte-framing SimTransport for the struct-passing LoopbackTransport must
// not move a single makespan.  We run the deterministic applications
// (linked list, Table 1; web server, Table 7) under both and print the
// difference, which a correct build shows as exactly zero.
//
// Part 2 — ACK coalescing (§3.1: "combining micro messages").  The session
// layer can hold back small non-Call messages and ship several per frame.
// A synthetic stream of ACKs shows what coalescing buys on the GM model:
// one send overhead + one wire latency per *frame* instead of per message.
#include <cstdio>

#include "apps/microbench.hpp"
#include "apps/webserver.hpp"
#include "bench/bench_common.hpp"
#include "net/cluster.hpp"

using namespace rmiopt;

namespace {

double run_list(codegen::OptLevel level, net::TransportKind kind) {
  apps::ListBenchConfig cfg;
  cfg.env.transport = kind;
  return apps::run_list_bench(level, cfg).makespan.as_seconds();
}

double run_web(codegen::OptLevel level, net::TransportKind kind) {
  apps::WebserverConfig cfg;
  cfg.requests = 200;
  cfg.env.transport = kind;
  return apps::run_webserver(level, cfg).makespan.as_seconds();
}

// Sends `count` bare ACKs 0 -> 1 through a cluster configured with the
// given per-link batch budget and reports the resulting network stats.
net::NetworkStats::Snapshot ack_stream(std::size_t batch, std::size_t count,
                                       SimTime* makespan) {
  om::TypeRegistry types;
  wire::SessionConfig session;
  session.max_batch_messages = batch;
  net::Cluster cluster(2, types, serial::CostModel{},
                       net::TransportKind::Sim, session);
  for (std::size_t i = 0; i < count; ++i) {
    wire::Message ack;
    ack.header.kind = wire::MsgKind::Ack;
    ack.header.seq = static_cast<std::uint32_t>(i);
    ack.header.source_machine = 0;
    ack.header.dest_machine = 1;
    cluster.send(std::move(ack));
  }
  cluster.flush();  // seal any partially filled batch
  for (std::size_t i = 0; i < count; ++i) {
    (void)cluster.machine(1).receive_blocking();
  }
  *makespan = cluster.makespan();
  return cluster.stats();
}

}  // namespace

int main() {
  using codegen::OptLevel;

  std::printf("Part 1: SimTransport vs LoopbackTransport (must be equal)\n");
  TextTable eq({"application", "level", "sim (s)", "loopback (s)", "delta"});
  for (OptLevel level : {OptLevel::Class, OptLevel::SiteReuseCycle}) {
    const double ls = run_list(level, net::TransportKind::Sim);
    const double ll = run_list(level, net::TransportKind::Loopback);
    eq.add_row({"linked list", std::string(codegen::to_string(level)),
                fmt_fixed(ls, 6), fmt_fixed(ll, 6), fmt_fixed(ls - ll, 6)});
    const double ws = run_web(level, net::TransportKind::Sim);
    const double wl = run_web(level, net::TransportKind::Loopback);
    eq.add_row({"web server", std::string(codegen::to_string(level)),
                fmt_fixed(ws, 6), fmt_fixed(wl, 6), fmt_fixed(ws - wl, 6)});
  }
  std::printf("%s\n", eq.render().c_str());

  std::printf("Part 2: session-layer ACK coalescing (1024 ACKs, 0 -> 1)\n");
  TextTable co({"batch budget", "frames", "coalesced msgs", "wire bytes",
                "makespan (us)"});
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                  std::size_t{8}, std::size_t{32}}) {
    SimTime makespan;
    const net::NetworkStats::Snapshot s = ack_stream(batch, 1024, &makespan);
    co.add_row({std::to_string(batch), std::to_string(s.frames),
                std::to_string(s.coalesced), std::to_string(s.bytes),
                fmt_fixed(makespan.as_micros(), 1)});
  }
  std::printf("%s\n", co.render().c_str());
  std::printf(
      "Charged payload bytes are identical; batching amortizes the per-frame\n"
      "send overhead and wire latency across the coalesced messages.\n");
  return 0;
}
