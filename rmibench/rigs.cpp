#include "rigs.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "apps/harness.hpp"
#include "driver/pass_manager.hpp"
#include "rmi/name_service.hpp"
#include "support/rng.hpp"

namespace rmibench {

using namespace rmiopt;
using Clock = std::chrono::steady_clock;
using codegen::OptLevel;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"array16", "list100",
                                                 "list100-class", "webserver"};
  return names;
}

// ---- Rig --------------------------------------------------------------------

Rig::Rig(figures::FigureProgram model, OptLevel level, const RigOptions& opts)
    : model_(std::move(model)), time_handlers_(opts.time_handlers) {
  {
    // A fresh manager per rig: every set-up pays the full compile.
    driver::PassManager pm;
    const auto t0 = Clock::now();
    prog_ = pm.compile(*model_.module, level);
    compile_ms_ =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }
  cluster_ = std::make_unique<net::Cluster>(2, *model_.types);
  if (opts.recorder != nullptr) cluster_->set_recorder(opts.recorder);
  if (opts.frame_probe) cluster_->transport().set_frame_probe(opts.frame_probe);
  sys_ = std::make_unique<rmi::RmiSystem>(*cluster_, *model_.types,
                                          rmi::ExecutorConfig{1});

  rmi::CompiledCallSite fence;
  fence.method_id = sys_->define_method(
      "Bench.fence", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  fence.plan = std::make_unique<serial::CallSitePlan>();
  fence.plan->name = "Bench.fence";
  fence.plan->needs_cycle_table = false;
  fence_site_ = sys_->add_callsite(std::move(fence));
}

std::uint32_t Rig::bind_site(const std::string& method, const std::string& tag,
                             rmi::Handler handler) {
  rmi::Handler run = std::move(handler);
  if (time_handlers_) {
    run = [this, inner = std::move(run)](
              rmi::CallContext& ctx, std::span<const std::int64_t> scalars,
              std::span<const om::ObjRef> args) {
      const auto t0 = Clock::now();
      rmi::HandlerResult r = inner(ctx, scalars, args);
      handler_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count(),
          std::memory_order_relaxed);
      return r;
    };
  }
  const std::uint32_t method_id = sys_->define_method(method, std::move(run));
  return sys_->add_callsite(
      driver::to_runtime_site(prog_, model_.tag(tag), method_id));
}

Rig::~Rig() {
  sys_->stop();
  for (om::ObjRef obj : exported_) cluster_->machine(1).heap().free(obj);
}

rmi::RemoteRef Rig::export_on_callee(const std::string& cls) {
  exported_.push_back(cluster_->machine(1).heap().alloc(
      apps::marker_class(*model_.types, cls)));
  return sys_->export_object(1, exported_.back());
}

void Rig::start() {
  fence_target_ = export_on_callee("Bench");
  sys_->start();
}

void Rig::fence() {
  sys_->invoke(0, fence_target_, fence_site_, {});
}

namespace {

// Digest of a generated input sequence, printed so two seeds' inputs can
// be told apart in the run log.
std::uint64_t fnv1a(const std::vector<std::uint32_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint32_t x : v) h = (h ^ x) * 0x100000001b3ull;
  return h;
}

// ---- array16: Table 2, a 16x16 double[][] argument, void return -------------

class ArrayRig final : public Rig {
 public:
  static constexpr std::uint32_t kSide = 16;

  explicit ArrayRig(const RigOptions& opts)
      : Rig(figures::make_figure12(), OptLevel::SiteReuseCycle, opts) {
    // Seeded contents; element [0][0] carries the call number instead.
    SplitMix64 rng(opts.seed);
    om::Heap& h0 = cluster_->machine(0).heap();
    mat_ = h0.alloc_array(model_.cls("[[D"), kSide);
    for (std::uint32_t r = 0; r < kSide; ++r) {
      om::ObjRef row = h0.alloc_array(model_.cls("[D"), kSide);
      for (std::uint32_t c = 0; c < kSide; ++c) {
        row->set_elem<double>(c, rng.next_double());
      }
      mat_->set_elem_ref(r, row);
    }
    last_ = mat_->get_elem_ref(kSide - 1)->get_elem<double>(kSide - 1);

    site_ = bind_site("ArrayBench.send", "send",
                      [this](rmi::CallContext&, auto,
                             std::span<const om::ObjRef> args) {
                        const om::ObjRef m = args[0];
                        checksum_ += m->get_elem_ref(0)->get_elem<double>(0);
                        if (m->get_elem_ref(kSide - 1)->get_elem<double>(
                                kSide - 1) != last_) {
                          ++bad_;
                        }
                        ++served_;
                        return rmi::HandlerResult{};
                      });
    target_ = export_on_callee("ArrayBench");
    start();
  }

  ~ArrayRig() override {
    sys_->stop();
    cluster_->machine(0).heap().free_graph(mat_);
  }

  void call(std::uint64_t i) override {
    mat_->get_elem_ref(0)->set_elem<double>(0, static_cast<double>(i));
    sys_->invoke(0, target_, site_, std::array{mat_});
  }

  std::string check(std::uint64_t calls) const override {
    if (served_ != calls) {
      return "handler ran " + std::to_string(served_) + " times for " +
             std::to_string(calls) + " calls";
    }
    // Sum of the call numbers 0..calls-1 (exact in a double up to 2^53).
    const double want =
        static_cast<double>(calls) * static_cast<double>(calls - 1) / 2.0;
    if (checksum_ != want) return "checksum is not the sum of call numbers";
    if (bad_ != 0) return std::to_string(bad_) + " arrays arrived altered";
    return {};
  }

  std::string inputs() const override {
    char buf[96];
    std::snprintf(buf, sizeof buf, "16x16 doubles, [15][15] = %.17g", last_);
    return buf;
  }

 private:
  om::ObjRef mat_ = nullptr;
  double last_ = 0.0;
  std::uint32_t site_ = 0;
  rmi::RemoteRef target_;
  // Written by machine 1's dispatcher only; read after invoke() returns.
  double checksum_ = 0.0;
  std::uint64_t served_ = 0;
  std::uint64_t bad_ = 0;
};

// ---- list100 / list100-class: Table 1, a 100-node linked list ---------------

class ListRig final : public Rig {
 public:
  static constexpr int kNodes = 100;

  ListRig(OptLevel level, const RigOptions& opts)
      : Rig(figures::make_figure14(), level, opts) {
    // The nodes are linked in a seeded order, so the seed moves the
    // list's layout in memory but never its shape.
    om::Heap& h0 = cluster_->machine(0).heap();
    const om::ClassDescriptor& cls =
        model_.types->get(model_.cls("LinkedList"));
    next_ = &cls.fields[0];
    std::vector<om::ObjRef> nodes;
    for (int i = 0; i < kNodes; ++i) nodes.push_back(h0.alloc(cls));
    std::vector<std::uint32_t> order(kNodes);  // list position -> allocation
    for (int i = 0; i < kNodes; ++i) order[i] = static_cast<std::uint32_t>(i);
    SplitMix64 rng(opts.seed);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    for (int i = 0; i + 1 < kNodes; ++i) {
      nodes[order[i]]->set_ref(*next_, nodes[order[i + 1]]);
    }
    head_ = nodes[order[0]];
    order_digest_ = fnv1a(order);

    site_ = bind_site("Foo.send", "send",
                      [this](rmi::CallContext&, auto,
                             std::span<const om::ObjRef> args) {
                        int n = 0;
                        for (om::ObjRef p = args[0];
                             p != nullptr && n <= kNodes;
                             p = p->get_ref(*next_)) {
                          ++n;
                        }
                        if (n != kNodes) ++bad_;
                        ++served_;
                        return rmi::HandlerResult{};
                      });
    target_ = export_on_callee("Foo");
    start();
  }

  ~ListRig() override {
    sys_->stop();
    cluster_->machine(0).heap().free_graph(head_);
  }

  void call(std::uint64_t) override {
    sys_->invoke(0, target_, site_, std::array{head_});
  }

  std::string check(std::uint64_t calls) const override {
    if (served_ != calls) {
      return "handler ran " + std::to_string(served_) + " times for " +
             std::to_string(calls) + " calls";
    }
    if (bad_ != 0) return std::to_string(bad_) + " lists arrived misshapen";
    return {};
  }

  std::string inputs() const override {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "%d nodes linked in allocation order %016llx", kNodes,
                  static_cast<unsigned long long>(order_digest_));
    return buf;
  }

 private:
  const om::FieldDescriptor* next_ = nullptr;
  om::ObjRef head_ = nullptr;
  std::uint64_t order_digest_ = 0;
  std::uint32_t site_ = 0;
  rmi::RemoteRef target_;
  std::uint64_t served_ = 0;  // machine 1's dispatcher only
  std::uint64_t bad_ = 0;
};

// ---- webserver: Table 7, a URL out and a 2 KB page back ---------------------

class WebRig final : public Rig {
 public:
  static constexpr std::size_t kPages = 64;
  static constexpr std::size_t kPageSize = 2048;
  static constexpr std::size_t kStream = 256;  // requests before repeating

  explicit WebRig(const RigOptions& opts)
      : Rig(figures::make_webserver_model(), OptLevel::SiteReuseCycle, opts),
        names_(*sys_, *model_.types) {
    om::Heap& h0 = cluster_->machine(0).heap();
    om::Heap& h1 = cluster_->machine(1).heap();
    for (std::size_t p = 0; p < kPages; ++p) {
      table_.emplace(url_for(p), h1.alloc_string(page_text(p)));
      urls_.push_back(h0.alloc_string(url_for(p)));
    }
    SplitMix64 rng(opts.seed);
    for (std::size_t r = 0; r < kStream; ++r) {
      stream_.push_back(static_cast<std::uint32_t>(rng.next_below(kPages)));
    }

    site_ = bind_site(
        "Server.get_page", "get_page",
        [this](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
          auto it = table_.find(std::string(args[0]->as_string_view()));
          if (it == table_.end()) {
            ++misses_;
            return rmi::HandlerResult{};  // 404: null page
          }
          // The table owns the page; the runtime must not free it.
          return rmi::HandlerResult{.value = it->second};
        });
    ret_reused_ = sys_->callsite(site_).plan->reuse_ret;
    const rmi::RemoteRef server = export_on_callee("Server");
    start();
    names_.bind(1, "Server#0", server);
    server_ = names_.lookup(0, "Server#0");
  }

  ~WebRig() override {
    sys_->stop();
    om::Heap& h1 = cluster_->machine(1).heap();
    for (const auto& [url, page] : table_) h1.free(page);
    om::Heap& h0 = cluster_->machine(0).heap();
    for (om::ObjRef u : urls_) h0.free(u);
    // At a reuse_ret site the last page received is still the caller's.
    if (ret_reused_ && last_page_ != nullptr) h0.free_graph(last_page_);
  }

  void call(std::uint64_t i) override {
    const std::uint32_t p = stream_[i % kStream];
    om::ObjRef page = sys_->invoke(0, server_, site_, std::array{urls_[p]});
    if (page == nullptr) {
      ++null_pages_;
      return;
    }
    const std::string_view text = page->as_string_view();
    bytes_ += text.size();
    if (text.size() != kPageSize || text.front() != page_char(p, 0) ||
        text.back() != page_char(p, kPageSize - 1)) {
      ++bad_;
    }
    if (ret_reused_) {
      last_page_ = page;
    } else {
      cluster_->machine(0).heap().free_graph(page);
    }
  }

  std::string check(std::uint64_t calls) const override {
    if (misses_ != 0 || null_pages_ != 0) {
      return std::to_string(misses_) + " requests got a 404";
    }
    if (bytes_ != calls * kPageSize) {
      return "received " + std::to_string(bytes_) + " page bytes for " +
             std::to_string(calls) + " requests";
    }
    if (bad_ != 0) return std::to_string(bad_) + " pages had wrong contents";
    return {};
  }

  std::string inputs() const override {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "%zu-request stream over %zu pages, digest %016llx", kStream,
                  kPages, static_cast<unsigned long long>(fnv1a(stream_)));
    return buf;
  }

 private:
  static std::string url_for(std::size_t page) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "/page%06zu.html", page);
    return buf;
  }
  static char page_char(std::size_t page, std::size_t i) {
    return static_cast<char>('a' + (page + i) % 26);
  }
  static std::string page_text(std::size_t page) {
    std::string body(kPageSize, '\0');
    for (std::size_t i = 0; i < kPageSize; ++i) body[i] = page_char(page, i);
    return body;
  }

  rmi::NameService names_;
  std::unordered_map<std::string, om::ObjRef> table_;  // machine 1's pages
  std::vector<om::ObjRef> urls_;                       // machine 0's URLs
  std::vector<std::uint32_t> stream_;
  std::uint32_t site_ = 0;
  bool ret_reused_ = false;
  rmi::RemoteRef server_;
  om::ObjRef last_page_ = nullptr;
  std::uint64_t misses_ = 0;  // machine 1's dispatcher only
  std::uint64_t null_pages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t bad_ = 0;
};

}  // namespace

std::unique_ptr<Rig> make_rig(const std::string& workload,
                              const RigOptions& opts) {
  if (workload == "array16") return std::make_unique<ArrayRig>(opts);
  if (workload == "list100") {
    return std::make_unique<ListRig>(OptLevel::SiteReuseCycle, opts);
  }
  if (workload == "list100-class") {
    return std::make_unique<ListRig>(OptLevel::Class, opts);
  }
  if (workload == "webserver") return std::make_unique<WebRig>(opts);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace rmibench
