// One ROAR cluster benchmark over real loopback TCP sockets.
//
// Boots a TcpCluster (front-end + control plane + storage nodes, each on
// its own listener), offers it open-loop Poisson query arrivals from the
// cluster's own WorkloadEngine for --seconds, checks every answer, and
// prints one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// Every node runs the real pps scan over a real corpus and replies when
// the scan is done; no service time is modeled. Each query's latency is
// timed from the moment its arrival was due, so a stall of the loop that
// delays later submissions counts against them.
//
// --trace 0 reports the end-to-end metrics with the cluster's tracer off:
// p50 and p99 latency and set-up time (median of repeated cluster boots).
// Each latency is computed per slice of the measured window (a slice holds
// at least kMinSliceSamples queries, so every p99 has at least ten samples
// above it), and the lower quartile over slices is reported. Neighbours on
// a shared host slow it down 1.5-2x for seconds to minutes at a time; the
// lower quartile is the program's latency outside such episodes as long as
// they cover under three quarters of a run, while a slower program still
// moves every slice.
// --trace 1 runs the same workload with the tracer on and reports the
// per-layer metrics: the in-program span breakdown of each sampled query
// (plan, dispatch, node queue, node service, network, tail), the
// benchmark's own spans around its calls into the cluster, the matching
// layer timed on its own, how late the arrival generator ran, and
// per-layer counters. The spans and the last sampled span trees go to
// --trace-out.
//
// Workloads (BENCHMARK.json records why each was chosen). Both run the
// same cluster: 8 nodes, p = 4, a 4k-item corpus, each node scanning on 4
// WorkerPool lanes, nodes spread over 2 reactor shards. The WorkloadEngine
// offers 2000 q/s with its default class mix and no metadata cache: about
// a quarter of this cluster's saturation rate on a 4-core x86 host (half
// the 0.5x-rated-capacity base load of the repository's flash-crowd
// workload test). At this rate the p99 is set by the 34 threads sharing 4
// cores and holds steady across runs; at 1000 q/s it sat between that
// regime and an idle host's and spread twice as far.
//   pool      p stays 4: the query path alone (planning, sockets, WorkerPool
//             batching, handoff and cross-shard completion posting).
//   reconfig  p alternates 4 <-> 2 every 0.25 s under the same load:
//             control-plane waves relayed through the dissemination tree
//             (relay fanout 2, so the 8 nodes form two relay roots with
//             three-node subtrees), §4.5 fetch confirmations and the drop
//             gate on the query path.
// Nodes that scan inline on one shared event-loop thread were tried too
// (16 and 32 nodes); on this class of host their latency flipped between
// two levels ~2x apart for whole runs, too unsteady to gate on.
//
// Correctness: every query must be complete, unshed, with harvest 1 and
// the exact match count of the corpus; fresh queries after the run must
// too. reconfig must commit every wave and relay at least one through the
// tree.
//
// Usage: cluster_bench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--trace-out <file>]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/tcp_cluster.h"
#include "cluster/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/tracer.h"
#include "net/buf.h"

using namespace roar;
using namespace roar::cluster;

namespace {

using SteadyClock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  uint32_t p_alt;  // 0 = fixed p; else alternate kP <-> p_alt
  double reconfig_period_s;
};

constexpr Workload kWorkloads[] = {
    {"pool", 0, 0.0},
    {"reconfig", 2, 0.25},
};

constexpr uint32_t kNodes = 8;
constexpr uint32_t kP = 4;
constexpr size_t kCorpusItems = 4'096;
constexpr uint32_t kNodeWorkers = 4;
constexpr uint32_t kReactorShards = 2;
constexpr uint32_t kRelayFanout = 2;
constexpr double kQueryRate = 2'000.0;  // open-loop Poisson arrivals/s

// Set-up is repeated at least kSetupMinRepeats times and until
// kSetupMinTotalS has been spent (capped), and the median reported.
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 50;
constexpr double kSetupMinTotalS = 3.0;
constexpr double kWarmupS = 5.0;
// The warm-up lets the front-end's estimators settle: with a 1 s warm-up
// the first ~6 s of a run were measurably slower than the rest.
// A slice lasts at least kSliceS and is long enough to expect 25% more
// than kMinSliceSamples queries; a slice that gets fewer fails the run.
constexpr double kSliceS = 1.0;
constexpr uint64_t kMinSliceSamples = 1'000;
constexpr double kTraceCollectEveryS = 0.1;
constexpr uint32_t kVerifyQueries = 8;

TcpClusterConfig cluster_config(uint64_t seed) {
  TcpClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.p = kP;
  cfg.seed = seed;
  cfg.real_matching = true;
  cfg.engine.corpus_items = kCorpusItems;
  cfg.engine.corpus_seed = seed;
  cfg.engine.encoder_seed = seed ^ 0x9e3779b97f4a7c15ull;
  cfg.dataset_size = kCorpusItems;
  // Rate estimates only seed the front-end's planner and timeouts; nodes
  // reply when their real scan finishes.
  cfg.node_proto.base_rate = 1e7;
  cfg.node_proto.subquery_overhead_s = 0.0;
  cfg.frontend.initial_rate = cfg.node_proto.base_rate;
  cfg.frontend.timeout_margin_s = 0.5;
  cfg.node_proto.fetch_bandwidth = 1e9;  // §4.5 fetches finish in ms
  cfg.node_workers = kNodeWorkers;
  cfg.reactor_shards = kReactorShards;
  cfg.relay_fanout = kRelayFanout;
  return cfg;
}

// The benchmark's own spans, recorded around its calls into the cluster:
// setup, each query (with its submit() call as a child), each p-change
// wave and each trace-ring collection pause.
struct BenchSpan {
  uint64_t id;
  uint64_t parent;
  const char* name;
  double start_s;
  double end_s;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), t0_(SteadyClock::now()) {}
  double now() const {
    return std::chrono::duration<double>(SteadyClock::now() - t0_).count();
  }
  // Reserves an id, so a child can name its parent before the parent ends.
  uint64_t reserve() { return ++last_id_; }
  void add(uint64_t id, const char* name, double start_s, double end_s,
           uint64_t parent = 0) {
    if (on_) spans_.push_back({id, parent, name, start_s, end_s});
  }
  void add(const char* name, double start_s, double end_s) {
    add(reserve(), name, start_s, end_s);
  }
  SampleSet durations(const char* name) const {
    SampleSet s;
    for (const auto& sp : spans_) {
      if (std::strcmp(sp.name, name) == 0) s.add(sp.end_s - sp.start_s);
    }
    return s;
  }
  std::string to_text() const {
    std::string out = "# id parent name start_us dur_us\n";
    char line[160];
    for (const auto& sp : spans_) {
      std::snprintf(line, sizeof(line), "%llu %llu %s %.3f %.3f\n",
                    static_cast<unsigned long long>(sp.id),
                    static_cast<unsigned long long>(sp.parent), sp.name,
                    sp.start_s * 1e6, (sp.end_s - sp.start_s) * 1e6);
      out += line;
    }
    return out;
  }

 private:
  bool on_;
  SteadyClock::time_point t0_;
  uint64_t last_id_ = 0;
  std::vector<BenchSpan> spans_;
};

// Per-query span breakdowns assembled from the cluster's trace rings. The
// rings hold only their newest events, so the run samples them
// periodically and keeps each fully observed query once.
struct LayerSamples {
  SampleSet plan, dispatch, node_queue, node_service, network, tail;
  SampleSet part_service;
  std::unordered_set<uint64_t> seen;
  std::vector<core::TraceEvent> last_events;

  void absorb(std::vector<core::TraceEvent> evs) {
    for (const auto& t : core::SpanAssembler::assemble(evs)) {
      if (!t.complete() || t.failed || t.admit_shed || t.parts.empty()) {
        continue;
      }
      bool observed = std::all_of(
          t.parts.begin(), t.parts.end(), [](const core::SpanPart& p) {
            return p.replied() && p.dispatch_at >= 0 && p.recv_at >= 0 &&
                   p.exec_at >= 0 && p.done_at >= 0;
          });
      if (!observed || !seen.insert(t.trace_id).second) continue;
      auto b = t.breakdown();
      plan.add(b.plan_s);
      dispatch.add(b.dispatch_s);
      node_queue.add(b.node_queue_s);
      node_service.add(b.node_service_s);
      network.add(b.network_s);
      tail.add(b.tail_s);
      for (const auto& p : t.parts) part_service.add(p.done_at - p.exec_at);
    }
    last_events = std::move(evs);
  }
};

// Counter readings taken at the start and end of the measured window.
struct Counters {
  double subqueries = 0, messages = 0, bytes = 0;
  double frames_flushed = 0, flush_syscalls = 0;
  double batches = 0, batched = 0, pool_executed = 0, pool_stolen = 0;
  double ring_full = 0;
  double deltas_sent = 0, deltas_relayed = 0, acks_aggregated = 0;
  double interest_skips = 0;
  double allocs = 0;

  static Counters read(TcpCluster& c) {
    auto snap = c.metrics().snapshot();
    Counters k;
    k.subqueries = snap.get("node.subqueries");
    k.messages = snap.get("net.messages_sent");
    k.bytes = snap.get("net.bytes_sent");
    k.frames_flushed = snap.get("driver.frames_flushed");
    k.flush_syscalls = snap.get("driver.flush_syscalls");
    k.batches = static_cast<double>(c.batches_drained());
    k.batched = static_cast<double>(c.batched_subqueries());
    k.pool_executed = snap.get("pool.tasks_executed");
    k.pool_stolen = snap.get("pool.tasks_stolen");
    k.ring_full =
        snap.get("driver.ring_full_events") + snap.get("pool.ring_full_events");
    k.deltas_sent = snap.get("control.deltas_sent");
    k.deltas_relayed = snap.get("control.deltas_relayed");
    k.acks_aggregated = snap.get("control.node_acks_aggregated");
    k.interest_skips = snap.get("control.interest_filtered_sends");
    // Pool-slab and TX-buffer heap allocations (the datapath's recycling
    // misses); the TX freelist counter is process-wide.
    k.allocs = static_cast<double>(net::byte_freelist_stats().fresh);
    for (size_t s = 0; s < c.driver().shards(); ++s) {
      k.allocs +=
          static_cast<double>(c.driver().reactor(s).buf_pool().stats().fresh);
    }
    return k;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) opt.workload = &w;
      }
      if (!opt.workload) return false;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return opt.workload != nullptr && opt.seconds > 0 && argc % 2 == 1;
}

class Bench {
 public:
  explicit Bench(const Options& opt)
      : opt_(opt), w_(*opt.workload), spans_(opt.trace) {}

  int run();

 private:
  void boot();
  // Offers Poisson arrivals for `duration_s`, then drains. The warm-up
  // (estimators converge, pools and freelists fill) is not measured.
  void offer_load(double duration_s, bool measured);
  uint64_t submit(const QueryRequest& req, Frontend::QueryCallback cb);
  void on_outcome(const QueryOutcome& out, double latency_s, double due,
                  bool measured);
  // Polls shard 0 with 0 ms epoll waits, so arrival timers fire when due
  // rather than at the next whole millisecond.
  bool drive_until(const std::function<bool()>& pred, double timeout_s);
  // Runs `body` every `period_s` on the cluster's caller-driven loop until
  // background_on_ is cleared.
  void every(double period_s, std::function<void()> body);
  void start_background();
  void verify_after_run();
  // Times the matching layer on its own: one sub-query-sized window of the
  // corpus, scanned repeatedly through MatchEngine::execute.
  double time_match_layer();
  // Lower quartile over slices of a per-slice statistic.
  double slice_quartile(const std::function<double(const SampleSet&)>& f) const;
  void print_result(const Counters& before, const Counters& after);

  const Options& opt_;
  const Workload& w_;
  SpanLog spans_;
  std::unique_ptr<TcpCluster> cluster_;
  SampleSet setup_s_;

  // Correctness accounting.
  uint64_t expected_matches_ = 0;  // the corpus's exact match count
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;

  // Open-loop state. Arrival times are offsets from arrivals_t0_ on the
  // cluster clock. The measured window is cut into slices by due time;
  // metrics are lower quartiles over slices, so a host slowdown that
  // covers part of the run moves some slices, not the result.
  std::unique_ptr<WorkloadEngine> engine_;
  bool measured_ = false;
  double arrivals_t0_ = 0.0;
  double slice_s_ = kSliceS;
  std::vector<SampleSet> slices_;
  SampleSet arrival_lag_s_;
  uint64_t completed_ = 0;
  uint64_t outstanding_ = 0;

  // Background tasks (p waves, trace sampling). Declared after cluster_,
  // so they are destroyed first; pending timers refer to them by index and
  // die with the cluster unfired.
  std::vector<std::function<void()>> ticks_;
  bool background_on_ = false;
  uint64_t waves_ordered_ = 0;
  double wave_started_s_ = -1.0;
  SampleSet wave_s_;
  LayerSamples layers_;
  double match_ns_per_item_ = 0.0;
};

void Bench::boot() {
  // The last cluster set up is the one measured.
  double total = 0.0;
  for (int i = 0; i < kSetupMaxRepeats &&
                  (i < kSetupMinRepeats || total < kSetupMinTotalS);
       ++i) {
    cluster_.reset();
    double t0 = spans_.now();
    cluster_ = std::make_unique<TcpCluster>(cluster_config(opt_.seed));
    double t1 = spans_.now();
    setup_s_.add(t1 - t0);
    total += t1 - t0;
    spans_.add("setup", t0, t1);
  }
  cluster_->tracer().set_enabled(opt_.trace);
  expected_matches_ = cluster_->engine()->full_store_matches();
  cluster_->control().on_reconfigured = [this](uint32_t) {
    if (wave_started_s_ < 0) return;
    double now = spans_.now();
    wave_s_.add(now - wave_started_s_);
    spans_.add("p_wave", wave_started_s_, now);
    wave_started_s_ = -1.0;
  };
}

uint64_t Bench::submit(const QueryRequest& req, Frontend::QueryCallback cb) {
  // The engine records each arrival just before submitting it.
  double due = arrivals_t0_ + engine_->arrivals().back().at;
  net::Clock& clock = cluster_->driver().clock();
  double sent = clock.now();
  bool measured = measured_;
  if (measured) {
    ++attempted_;
    arrival_lag_s_.add(sent - due);
  }
  ++outstanding_;
  uint64_t query_span = spans_.reserve();
  double t0 = spans_.now();
  uint64_t id = cluster_->submit_query(
      req, [this, cb = std::move(cb), query_span, t0, due, measured,
            &clock](const QueryOutcome& out) {
        spans_.add(query_span, "query", t0, spans_.now());
        on_outcome(out, clock.now() - due, due, measured);
        cb(out);
      });
  // The front-end plans and sends every sub-query inside submit().
  spans_.add(spans_.reserve(), "submit_call", t0, spans_.now(), query_span);
  return id;
}

void Bench::on_outcome(const QueryOutcome& out, double latency_s, double due,
                       bool measured) {
  --outstanding_;
  bool ok = out.id != 0 && out.complete && !out.shed && out.parts_shed == 0 &&
            out.harvest == 1.0 && out.matches == expected_matches_;
  if (ok && measured) {
    ++completed_;
    auto slice = static_cast<size_t>((due - arrivals_t0_) / slice_s_);
    slices_[std::min(slice, slices_.size() - 1)].add(latency_s);
  } else if (!ok) {
    if (measured) ++failed_;
    if (problems_.size() < 4) {
      problems_.push_back(
          std::string(measured ? "" : "warm-up ") + "query " +
          std::to_string(out.id) + ": complete=" +
          std::to_string(out.complete) + " harvest=" +
          std::to_string(out.harvest) + " matches=" +
          std::to_string(out.matches) + " expected=" +
          std::to_string(expected_matches_));
    }
  }
}

bool Bench::drive_until(const std::function<bool()>& pred, double timeout_s) {
  double until = spans_.now() + timeout_s;
  while (!pred()) {
    if (spans_.now() >= until) return false;
    cluster_->driver().poll(0);
  }
  return true;
}

void Bench::offer_load(double duration_s, bool measured) {
  measured_ = measured;
  if (measured) {
    double slice_s =
        std::max(kSliceS, 1.25 * kMinSliceSamples / kQueryRate);
    auto n_slices =
        static_cast<size_t>(std::max(1.0, std::floor(duration_s / slice_s)));
    slices_.assign(n_slices, SampleSet{});
    slice_s_ = duration_s / static_cast<double>(n_slices);
  }

  WorkloadConfig wc;
  wc.base_rate_per_s = kQueryRate;
  wc.duration_s = duration_s;
  // The warm-up draws its arrivals from a stream of its own.
  wc.seed = measured ? opt_.seed : ~opt_.seed;
  wc.record_arrivals = true;  // submit() reads each arrival's due time
  engine_ = std::make_unique<WorkloadEngine>(
      cluster_->driver().clock(), wc,
      [this](const QueryRequest& req, Frontend::QueryCallback cb) {
        return submit(req, std::move(cb));
      });
  arrivals_t0_ = cluster_->driver().clock().now();
  engine_->start();
  bool drained = drive_until(
      [&] { return engine_->done() && outstanding_ == 0; },
      wc.duration_s + 60.0);
  if (!drained) {
    problems_.push_back(std::to_string(outstanding_) +
                        " queries never completed");
    if (measured) failed_ += outstanding_;
  }
  if (!measured) return;
  for (size_t i = 0; i < slices_.size(); ++i) {
    if (slices_[i].count() < kMinSliceSamples) {
      problems_.push_back("slice " + std::to_string(i) + " holds only " +
                          std::to_string(slices_[i].count()) +
                          " queries; its p99 needs " +
                          std::to_string(kMinSliceSamples));
    }
  }
}

void Bench::every(double period_s, std::function<void()> body) {
  size_t i = ticks_.size();
  auto rearm = [this, i, period_s] {
    cluster_->driver().clock().schedule_after(period_s,
                                              [this, i] { ticks_[i](); });
  };
  ticks_.push_back([this, body = std::move(body), rearm] {
    if (!background_on_) return;
    body();
    rearm();
  });
  rearm();
}

void Bench::start_background() {
  background_on_ = true;
  if (w_.p_alt > 0) {
    every(w_.reconfig_period_s, [this] {
      ControlPlane& cp = cluster_->control();
      if (cp.reconfig_busy()) return;
      wave_started_s_ = spans_.now();
      ++waves_ordered_;
      ++attempted_;
      cluster_->change_p(cp.safe_p() == kP ? w_.p_alt : kP);
    });
  }
  if (opt_.trace) {
    every(kTraceCollectEveryS, [this] {
      double t0 = spans_.now();
      layers_.absorb(cluster_->trace_events());
      spans_.add("trace_collect", t0, spans_.now());
    });
  }
}

void Bench::verify_after_run() {
  auto& driver = cluster_->driver();
  if (w_.p_alt > 0) {
    // The last ordered wave must commit and reach the front-end.
    bool settled = driver.run_until(
        [&] {
          return !cluster_->control().reconfig_busy() &&
                 cluster_->frontend().safe_p() == cluster_->control().safe_p();
        },
        30.0);
    if (!settled) {
      ++failed_;
      problems_.push_back("p wave never committed");
    }
  }
  // Fresh queries on the settled cluster return the exact count.
  for (uint32_t i = 0; i < kVerifyQueries; ++i) {
    ++attempted_;
    QueryOutcome out = cluster_->run_query(30.0);
    if (out.id == 0 || !out.complete || out.harvest != 1.0 ||
        out.matches != expected_matches_) {
      ++failed_;
      problems_.push_back("verification query: matches=" +
                          std::to_string(out.matches) + " expected=" +
                          std::to_string(expected_matches_));
    }
  }
}

double Bench::time_match_layer() {
  const MatchEngine* engine = cluster_->engine();
  Rng rng(opt_.seed);
  uint64_t scanned = 0;
  double t0 = spans_.now(), t = t0;
  while (t - t0 < 0.2 || scanned == 0) {
    MatchEngine::Window win;
    win.arc = Arc(rng.next_ring_id(), ~uint64_t{0} / kP);
    scanned += engine->execute(win).scanned;
    t = spans_.now();
  }
  spans_.add("match_layer", t0, t);
  return (t - t0) * 1e9 / static_cast<double>(scanned);
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

double Bench::slice_quartile(
    const std::function<double(const SampleSet&)>& f) const {
  SampleSet per_slice;
  for (const auto& s : slices_) {
    if (!s.empty()) per_slice.add(f(s));
  }
  return per_slice.empty() ? 0.0 : per_slice.percentile(0.25);
}

void Bench::print_result(const Counters& a, const Counters& b) {
  double done = static_cast<double>(completed_);
  double waves = static_cast<double>(waves_ordered_);
  double p50_ms =
      slice_quartile([](const SampleSet& s) { return s.median() * 1e3; });
  double p99_ms = slice_quartile(
      [](const SampleSet& s) { return s.percentile(0.99) * 1e3; });
  bool correct = failed_ == 0 && problems_.empty() && completed_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  if (!opt_.trace) {
    print_metric(first, "latency_p50_ms", p50_ms, "ms");
    print_metric(first, "latency_p99_ms", p99_ms, "ms");
    print_metric(first, "setup_s", setup_s_.median(), "s");
  } else {
    const LayerSamples& l = layers_;
    print_metric(first, "traced_latency_p50_ms", p50_ms, "ms");
    print_metric(first, "traced_queries", static_cast<double>(l.plan.count()),
                 "count");
    print_metric(first, "arrival_lag_us", arrival_lag_s_.median() * 1e6, "us");
    print_metric(first, "arrival_lag_p99_us",
                 arrival_lag_s_.percentile(0.99) * 1e6, "us");
    print_metric(first, "plan_us", l.plan.median() * 1e6, "us");
    print_metric(first, "dispatch_us", l.dispatch.median() * 1e6, "us");
    print_metric(first, "node_queue_us", l.node_queue.median() * 1e6, "us");
    print_metric(first, "node_service_us", l.node_service.median() * 1e6,
                 "us");
    print_metric(first, "part_service_us", l.part_service.median() * 1e6,
                 "us");
    print_metric(first, "network_us", l.network.median() * 1e6, "us");
    print_metric(first, "tail_us", l.tail.median() * 1e6, "us");
    print_metric(first, "submit_call_us",
                 spans_.durations("submit_call").median() * 1e6, "us");
    print_metric(first, "match_ns_per_item", match_ns_per_item_, "ns");
    print_metric(first, "subqueries_per_query",
                 ratio(b.subqueries - a.subqueries, done), "count");
    print_metric(first, "messages_per_query",
                 ratio(b.messages - a.messages, done), "count");
    print_metric(first, "bytes_per_query", ratio(b.bytes - a.bytes, done),
                 "bytes");
    print_metric(first, "frames_per_writev",
                 ratio(b.frames_flushed - a.frames_flushed,
                       b.flush_syscalls - a.flush_syscalls),
                 "count");
    print_metric(first, "alloc_per_query", ratio(b.allocs - a.allocs, done),
                 "count");
    print_metric(first, "exec_batch_size",
                 ratio(b.batched - a.batched, b.batches - a.batches), "count");
    print_metric(first, "pool_steal_ratio",
                 ratio(b.pool_stolen - a.pool_stolen,
                       b.pool_executed - a.pool_executed),
                 "ratio");
    print_metric(first, "mailbox_ring_full", b.ring_full - a.ring_full,
                 "count");
    print_metric(first, "control_deltas_per_wave",
                 ratio(b.deltas_sent - a.deltas_sent, waves), "count");
    print_metric(first, "deltas_relayed_per_wave",
                 ratio(b.deltas_relayed - a.deltas_relayed, waves), "count");
    print_metric(first, "acks_aggregated_per_wave",
                 ratio(b.acks_aggregated - a.acks_aggregated, waves), "count");
    print_metric(first, "interest_skips_per_wave",
                 ratio(b.interest_skips - a.interest_skips, waves), "count");
    print_metric(first, "p_wave_ms", wave_s_.median() * 1e3, "ms");
    print_metric(first, "trace_collect_ms",
                 spans_.durations("trace_collect").median() * 1e3, "ms");
  }
  std::printf("}}\n");
}

int Bench::run() {
  boot();
  offer_load(kWarmupS, /*measured=*/false);
  start_background();
  Counters before = Counters::read(*cluster_);
  offer_load(opt_.seconds, /*measured=*/true);
  Counters after = Counters::read(*cluster_);
  background_on_ = false;
  if (w_.p_alt > 0 && after.deltas_relayed <= before.deltas_relayed) {
    problems_.push_back("no p wave was relayed through the dissemination tree");
  }
  verify_after_run();
  if (opt_.trace) match_ns_per_item_ = time_match_layer();

  for (const auto& p : problems_) {
    std::fprintf(stderr, "cluster_bench: %s\n", p.c_str());
  }
  // Per-slice sample counts and latencies, for judging how steady a run
  // was.
  std::string per_slice;
  for (const auto& sl : slices_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %zu:%.3f/%.3f", sl.count(),
                  sl.median() * 1e3, sl.percentile(0.99) * 1e3);
    per_slice += buf;
  }
  std::fprintf(stderr,
               "cluster_bench: %s seed=%llu trace=%d rate=%g/s: %llu measured "
               "queries, %llu waves, setup %.3f s; slice n:p50/p99 ms:%s\n",
               w_.name, static_cast<unsigned long long>(opt_.seed),
               opt_.trace ? 1 : 0, kQueryRate,
               static_cast<unsigned long long>(completed_),
               static_cast<unsigned long long>(waves_ordered_),
               setup_s_.median(), per_slice.c_str());

  if (opt_.trace && !opt_.trace_out.empty()) {
    if (std::FILE* f = std::fopen(opt_.trace_out.c_str(), "w")) {
      std::string text = spans_.to_text();
      text += "\n# span trees of the last trace-ring sample\n";
      text += core::SpanAssembler::render_all(layers_.last_events);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cluster_bench: cannot write %s\n",
                   opt_.trace_out.c_str());
    }
  }
  print_result(before, after);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kOff);
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: cluster_bench --workload pool|reconfig "
                 "--seed n --seconds s --trace 0|1 [--trace-out file]\n");
    return 2;
  }
  try {
    Bench bench(opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cluster_bench: %s\n", e.what());
    return 1;
  }
}
