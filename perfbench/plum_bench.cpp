// plum_bench — the program the repository benchmark runs (README.md beside
// this file explains the workloads and every metric).
//
//   plum_bench --workload NAME --seed N (--seconds S | --cycles T)
//              [--trace 0|1] [--scale full|tiny]
//
// Builds the workload's inputs from the public library API, runs the
// timed cycles (after the workload's warm-up cycles) on the
// simulated machine inside this one process, checks the final mesh,
// and prints one JSON object on stdout: the metrics with their units,
// the output-check verdict and the run's fingerprint.
//
//   --trace 0  PlumFramework::cycle() on the fiber pool, one worker per
//              core; reports the end-to-end metrics.
//   --trace 1  the phase calls cycle() makes, in its order, each wrapped
//              in reads of the simulated clock, Comm::stats() and the
//              thread CPU clock; runs on the thread engine so that each
//              rank owns one OS thread and the thread CPU clock
//              attributes to it.  Reports the per-layer metrics.
//
// Both engines produce bit-identical simulated results, so both run
// kinds must print the same fingerprint for the same workload, seed and
// cycle count.  The benchmark adds no collective to the timed loop: the
// per-rank samples go to shared arrays, so the simulated clocks see
// exactly the calls a user's cycle() makes.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "adapt/marking.hpp"
#include "adapt/scenario.hpp"
#include "dualgraph/dual_graph.hpp"
#include "mesh/box_mesh.hpp"
#include "parallel/dist_check.hpp"
#include "parallel/dist_gen.hpp"
#include "parallel/framework.hpp"
#include "partition/partitioner.hpp"
#include "simmpi/machine.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

#ifndef PLUM_BENCH_BUILD_TYPE
#define PLUM_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace plum;

enum class Markers { kLocal1Storm, kFront, kBurst };

struct Workload {
  const char* name;
  int n;  ///< box mesh of n^3 cubes, 6 tets each
  Rank procs;
  bool dist_gen;  ///< slab-wise distributed startup, else replicated
  Markers markers;
  int solver_iterations;
  int quantum;  ///< the timed cycle count is a multiple of this
  /// Cycles per second a 4-core host sustains: --seconds S runs
  /// S * nominal_cps timed cycles, rounded to whole blocks.  A fixed
  /// count, not a deadline, keeps the simulated metrics and the
  /// fingerprint exactly reproducible.
  double nominal_cps;
};

// The timed loop is cut into kBlocks equal blocks of whole quanta;
// throughput and CPU per cycle are the median over blocks, so a short
// stall on a shared host moves one block, not the result.
constexpr int kBlocks = 8;

/// Untimed cycles before the timed loop.
constexpr int kWarmup = 2;

/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 5;

/// Fewest timed cycles of a --seconds run: p90 then has at least ten
/// samples beyond it.
constexpr int kMinSamples = 100;

// Why these three: README.md.  The quantum keeps every run on whole
// marker periods (refine/coarsen pairs, one burst period), so a run
// covers the same mix of cycle kinds whatever its length.
constexpr Workload kWorkloads[] = {
    {"remap-storm-p64", 22, 64, true, Markers::kLocal1Storm, 10, 2, 4.0},
    {"front-p64", 12, 64, true, Markers::kFront, 2, 1, 17.0},
    {"burst-p8", 12, 8, false, Markers::kBurst, 2, 32, 17.0},
};

/// Tiny inputs for the self-test: same code paths, seconds of work.
Workload tiny(Workload w) {
  w.n = 6;
  return w;
}

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}
double thread_cpu_ms() { return cpu_ms(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_ms() { return cpu_ms(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Exact percentile of the samples: linear interpolation between the
/// closest ranks of the sorted values (the "linear" method).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The workload's inputs, made from the seed alone.
struct Inputs {
  mesh::BoxMeshSpec spec;
  mesh::Mesh global;  ///< empty under distributed startup
  dual::DualGraph dualg;
  std::vector<Rank> proc;
  adapt::Strategy strategy;  ///< remap storm's Local_1 region
  adapt::ScenarioConfig scenario;  ///< front and burst markers
  // Main-thread CPU of each replicated setup step (ms).
  double mesh_ms = 0.0, dual_ms = 0.0, placement_ms = 0.0;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.spec.nx = in.spec.ny = in.spec.nz = w.n;
  double t = thread_cpu_ms();
  auto lap = [&t]() {
    const double now = thread_cpu_ms();
    const double d = now - t;
    t = now;
    return d;
  };
  if (w.dist_gen) {
    in.dualg = parallel::make_box_dual_graph(in.spec);
    in.dual_ms = lap();
    in.proc = parallel::make_slab_partition(in.spec, w.procs);
    in.placement_ms = lap();
  } else {
    in.global = mesh::make_box_mesh(in.spec);
    in.mesh_ms = lap();
    in.dualg = dual::build_dual_graph(in.global);
    in.dual_ms = lap();
    const auto part =
        partition::make_partitioner("rcb")->partition(in.dualg, w.procs);
    in.proc.assign(part.part.begin(), part.part.end());
    in.placement_ms = lap();
  }
  // The seed perturbs each workload a little, so that seeds sample one
  // workload rather than different ones.
  Rng rng(seed);
  auto jitter = [&rng](double frac) {
    return 1.0 + frac * (rng.next_double() - 0.5);
  };
  switch (w.markers) {
    case Markers::kLocal1Storm: {
      // The paper's Local_1 sphere, its centre moved by up to 2% of the
      // domain per axis.
      in.strategy = parallel::make_slab_strategy(
          adapt::StrategyKind::kLocal1, in.spec);
      mesh::Vec3& c = in.strategy.sphere.center;
      c.x = in.spec.origin.x + (c.x - in.spec.origin.x) * jitter(0.1);
      c.y = in.spec.origin.y + (c.y - in.spec.origin.y) * jitter(0.1);
      c.z = in.spec.origin.z + (c.z - in.spec.origin.z) * jitter(0.1);
      break;
    }
    case Markers::kFront:
      // The front's radius varies by up to 2%.
      in.scenario.kind = adapt::ScenarioKind::kFront;
      in.scenario.front_radius_frac *= jitter(0.04);
      break;
    case Markers::kBurst:
      // The seed picks the randomly refined and coarsened edges.
      in.scenario.kind = adapt::ScenarioKind::kBurst;
      in.scenario.seed = seed;
      break;
  }
  return in;
}

using Marker = std::function<void(mesh::Mesh&)>;

struct CycleMarkers {
  Marker refine, coarsen;
};

/// Refine/coarsen markers of (scenario) cycle `c`.
class MarkerSchedule {
 public:
  MarkerSchedule(const Workload& w, const Inputs& in)
      : w_(w),
        strategy_(in.strategy),
        scenario_(in.scenario, mesh::Box{in.spec.origin,
                                         in.spec.origin + in.spec.size}) {}

  CycleMarkers at(int c) const {
    if (w_.markers == Markers::kLocal1Storm) {
      if (c % 2 == 0) {
        const adapt::Strategy s = strategy_;
        return {[s](mesh::Mesh& m) { s.apply_refine(m); }, nullptr};
      }
      return {nullptr,
              [](mesh::Mesh& m) { adapt::mark_coarsen_all_refined(m); }};
    }
    return {scenario_.refine_marker(c), scenario_.coarsen_marker(c)};
  }

 private:
  const Workload& w_;
  adapt::Strategy strategy_;
  adapt::SoakScenario scenario_;
};

parallel::FrameworkConfig framework_config(const Workload& w) {
  parallel::FrameworkConfig cfg;
  cfg.solver_iterations = w.solver_iterations;
  cfg.balancer.partitioner = "auto";
  return cfg;
}

// --- traced run ---------------------------------------------------------

enum Phase { kSolve, kRefine, kCoarsen, kWeights, kBalance, kMigrate, kNPhases };

/// One read of a rank's counters at a phase boundary.
struct Probe {
  double cpu_ms = 0.0;  ///< thread CPU after the reads below
  double sim_us = 0.0;
  double idle_us = 0.0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};

/// Per-rank accumulators of the traced run.  Simulated deltas are kept
/// per cycle, since the reported value is the max over ranks.
struct RankTrace {
  double phase_cpu_ms[kNPhases] = {};
  std::int64_t phase_bytes[kNPhases] = {};
  std::vector<double> phase_sim_us[kNPhases];
  std::vector<double> phase_idle_us[kNPhases];
  double probe_cpu_ms = 0.0;
  std::int64_t msgs = 0, bytes = 0;
  double sim_us = 0.0, idle_us = 0.0;
  std::vector<int> refine_rounds, coarsen_rounds;
  std::int64_t refine_elements = 0;
  std::int64_t migrate_elements = 0;
  std::vector<double> mig_wall, mig_pack, mig_ship, mig_purge, mig_unpack,
      mig_spl;
  // Replicated balance outcomes (read from rank 0).
  std::vector<char> repartitioned, accepted;
  std::vector<double> predicted_us, vertices_changed;
};

class Tracer {
 public:
  Tracer(simmpi::Comm& comm, RankTrace* out)
      : comm_(comm), out_(out) {}

  Probe read() {
    const double c0 = thread_cpu_ms();
    Probe p;
    p.sim_us = comm_.clock().now();
    p.idle_us = comm_.clock().idle_us();
    const simmpi::CommStats& s = comm_.stats();
    p.msgs = s.msgs_sent;
    p.bytes = s.bytes_sent;
    p.cpu_ms = thread_cpu_ms();
    out_->probe_cpu_ms += p.cpu_ms - c0;
    return p;
  }

  template <typename F>
  auto timed(Phase ph, F&& call) {
    const Probe a = read();
    auto result = call();
    const double cpu_end = thread_cpu_ms();
    const Probe b = read();
    out_->phase_cpu_ms[ph] += cpu_end - a.cpu_ms;
    out_->phase_bytes[ph] += b.bytes - a.bytes;
    out_->phase_sim_us[ph].push_back(b.sim_us - a.sim_us);
    out_->phase_idle_us[ph].push_back(b.idle_us - a.idle_us);
    return result;
  }

 private:
  simmpi::Comm& comm_;
  RankTrace* out_;
};

/// cycle()'s phases, in its order, each under the tracer.
void traced_cycle(parallel::PlumFramework& fw, Tracer& tr,
                  const CycleMarkers& mk, RankTrace& rt, bool record_rank0) {
  const parallel::FrameworkConfig& cfg = fw.config();
  tr.timed(kSolve, [&] {
    return cfg.solver_iterations > 0 ? fw.solve(cfg.solver_iterations)
                                     : solver::SolverStats{};
  });
  const parallel::ParallelAdaptStats ref = tr.timed(kRefine, [&] {
    return mk.refine ? fw.refine_with(mk.refine)
                     : parallel::ParallelAdaptStats{};
  });
  const parallel::ParallelAdaptStats coa = tr.timed(kCoarsen, [&] {
    return mk.coarsen ? fw.coarsen_with(mk.coarsen)
                      : parallel::ParallelAdaptStats{};
  });
  tr.timed(kWeights, [&] {
    fw.refresh_weights();
    return 0;
  });
  const balance::BalanceOutcome bal =
      tr.timed(kBalance, [&] { return fw.balance_only(); });
  const parallel::MigrationResult mig = tr.timed(kMigrate, [&] {
    return bal.accepted ? fw.migrate_to(bal.proc_of_vertex)
                        : parallel::MigrationResult{};
  });
  rt.refine_rounds.push_back(ref.propagation_rounds);
  rt.coarsen_rounds.push_back(coa.agreement_rounds);
  rt.refine_elements += ref.subdivision.elements_created;
  rt.migrate_elements += mig.elements_sent;
  rt.mig_wall.push_back(mig.elapsed_us);
  rt.mig_pack.push_back(mig.pack_us);
  rt.mig_ship.push_back(mig.ship_us);
  rt.mig_purge.push_back(mig.delete_purge_us);
  rt.mig_unpack.push_back(mig.unpack_us);
  rt.mig_spl.push_back(mig.spl_us);
  if (record_rank0) {
    rt.repartitioned.push_back(bal.repartitioned);
    rt.accepted.push_back(bal.accepted);
    rt.predicted_us.push_back(bal.accepted ? bal.decision.cost.cost_us : 0.0);
    rt.vertices_changed.push_back(static_cast<double>(
        std::max<std::int64_t>(0, bal.partition.vertices_changed)));
  }
}

// --- shared per-run state -------------------------------------------------

struct RunState {
  RunState(Rank P, int cycles)
      : P(P),
        cycles(cycles),
        host_t0(static_cast<std::size_t>(P) * cycles),
        host_t1(host_t0.size()),
        sim_dt(host_t0.size()),
        imbalance(static_cast<std::size_t>(cycles)),
        setup_done(static_cast<std::size_t>(P)),
        mesh_cpu(static_cast<std::size_t>(P)),
        fw_cpu(static_cast<std::size_t>(P)),
        end_clock(static_cast<std::size_t>(P)),
        traces(static_cast<std::size_t>(P)) {}

  Rank P;
  int cycles;
  // [cycle * P + rank]
  std::vector<double> host_t0, host_t1, sim_dt;
  std::vector<double> imbalance;  ///< post-balance W_max/W_avg per cycle
  std::vector<double> setup_done, mesh_cpu, fw_cpu, end_clock;
  std::vector<RankTrace> traces;
  // Per block: ranks that entered its first / left its last cycle, and
  // the process CPU when the first rank entered and the last one left.
  std::array<std::atomic<int>, kBlocks> entered{}, left{};
  std::array<double, kBlocks> block_cpu0{}, block_cpu1{};
  bool check_ok = false;
  std::string check_summary;
  std::int64_t fp_elements = 0;
  std::uint64_t fp_gids = 0, fp_placement = 0;
};

std::uint64_t placement_hash(const std::vector<Rank>& proc_of_root) {
  std::uint64_t h = 0;
  for (std::size_t g = 0; g < proc_of_root.size(); ++g) {
    h += hash_combine64(g, static_cast<std::uint64_t>(proc_of_root[g]));
  }
  return h;
}

/// One rank's run: construct the framework, then (unless this is a
/// setup-only repetition) the warm-up and timed cycles and the output
/// check.
void rank_body(simmpi::Comm& comm, const Workload& w, const Inputs& in,
               const MarkerSchedule& sched, bool trace, bool setup_only,
               RunState& st) {
  const Rank r = comm.rank();
  const std::size_t ri = static_cast<std::size_t>(r);
  parallel::FrameworkConfig cfg = framework_config(w);
  double t = thread_cpu_ms();
  parallel::DistMesh dm;
  if (w.dist_gen) dm = parallel::make_box_dist_mesh(in.spec, r, w.procs);
  st.mesh_cpu[ri] = thread_cpu_ms() - t;
  t = thread_cpu_ms();
  parallel::PlumFramework fw =
      w.dist_gen
          ? parallel::PlumFramework(&comm, std::move(dm), in.dualg, in.proc,
                                    cfg)
          : parallel::PlumFramework(&comm, in.global, in.dualg, in.proc, cfg);
  st.fw_cpu[ri] = thread_cpu_ms() - t;
  st.setup_done[ri] = host_now_s();
  if (setup_only) return;

  RankTrace& rt = st.traces[ri];
  Tracer tracer(comm, &rt);
  for (int c = 0; c < kWarmup + st.cycles; ++c) {
    const CycleMarkers mk = sched.at(c);
    const int k = c - kWarmup;
    if (k < 0) {
      fw.cycle(mk.refine, mk.coarsen);
      continue;
    }
    const int block_len = st.cycles / kBlocks;
    const int b = k / block_len;
    if (k % block_len == 0 && st.entered[b].fetch_add(1) == 0) {
      st.block_cpu0[b] = process_cpu_ms();
    }
    const std::size_t idx = static_cast<std::size_t>(k) * st.P + ri;
    st.host_t0[idx] = host_now_s();
    const double s0 = comm.clock().now();
    if (trace) {
      const Probe p0 = tracer.read();
      traced_cycle(fw, tracer, mk, rt, r == 0);
      const Probe p1 = tracer.read();
      rt.msgs += p1.msgs - p0.msgs;
      rt.bytes += p1.bytes - p0.bytes;
      rt.sim_us += p1.sim_us - p0.sim_us;
      rt.idle_us += p1.idle_us - p0.idle_us;
    } else {
      const parallel::CycleStats cs = fw.cycle(mk.refine, mk.coarsen);
      if (r == 0) {
        st.imbalance[static_cast<std::size_t>(k)] =
            cs.balance.accepted ? cs.balance.new_load.imbalance
                                : cs.balance.old_load.imbalance;
      }
    }
    st.sim_dt[idx] = comm.clock().now() - s0;
    st.host_t1[idx] = host_now_s();
    if ((k + 1) % block_len == 0 && st.left[b].fetch_add(1) == st.P - 1) {
      st.block_cpu1[b] = process_cpu_ms();
    }
  }
  st.end_clock[ri] = comm.clock().now();

  // Output check: the full distributed invariant checker, then the
  // fingerprint of the final mesh and placement.
  parallel::DistCheckOptions opt;
  opt.level = parallel::CheckLevel::kFull;
  opt.expected_volume = in.spec.size.x * in.spec.size.y * in.spec.size.z;
  opt.dual = &fw.dual_graph();
  opt.proc_of_root = &fw.proc_of_root();
  const parallel::DistCheckResult chk =
      parallel::check_dist_consistency(fw.dist(), comm, opt);
  const std::int64_t elements =
      comm.allreduce_sum(fw.dist().local.num_active_elements());
  std::uint64_t gids = 0;
  for (const LocalIndex e : fw.dist().local.active_elements()) {
    gids += mix64(fw.dist().local.element(e).gid);
  }
  gids = comm.allreduce<std::uint64_t>(
      gids, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  if (r == 0) {
    st.check_ok = chk.ok();
    st.check_summary = chk.summary();
    st.fp_elements = elements;
    st.fp_gids = gids;
    st.fp_placement = placement_hash(fw.proc_of_root());
  }
}

// --- reduction of the samples into metrics ---------------------------------

struct Metrics {
  JsonWriter w;
  Metrics() { w.begin_object(); }
  void add(const char* name, double value, const char* unit) {
    w.key(name);
    w.begin_object();
    w.key("value");
    // JSON has no NaN or infinity; a string fails the output check.
    if (std::isfinite(value)) {
      w.value(value);
    } else {
      w.value("non-finite");
    }
    w.key("unit");
    w.value(unit);
    w.end_object();
  }
  std::string finish() {
    w.end_object();
    return w.take();
  }
};

/// Per cycle, the max over ranks of v[k][r], summed over cycles.
double sum_of_max(const std::vector<RankTrace>& tr,
                  std::vector<double> RankTrace::*field, int cycles) {
  double total = 0.0;
  for (int k = 0; k < cycles; ++k) {
    double m = 0.0;
    for (const RankTrace& t : tr) {
      m = std::max(m, (t.*field)[static_cast<std::size_t>(k)]);
    }
    total += m;
  }
  return total;
}

double phase_sum_of_max(const std::vector<RankTrace>& tr,
                        std::vector<double> (RankTrace::*field)[kNPhases],
                        Phase ph, int cycles) {
  double total = 0.0;
  for (int k = 0; k < cycles; ++k) {
    double m = 0.0;
    for (const RankTrace& t : tr) {
      m = std::max(m, (t.*field)[ph][static_cast<std::size_t>(k)]);
    }
    total += m;
  }
  return total;
}

void add_end_to_end(Metrics& m, const RunState& st, double setup_s) {
  const std::size_t P = static_cast<std::size_t>(st.P);
  std::vector<double> host_ms, sim_ms, t0s, t1s;
  for (int k = 0; k < st.cycles; ++k) {
    const std::size_t b = static_cast<std::size_t>(k) * P;
    t0s.push_back(
        *std::min_element(st.host_t0.begin() + b, st.host_t0.begin() + b + P));
    t1s.push_back(
        *std::max_element(st.host_t1.begin() + b, st.host_t1.begin() + b + P));
    host_ms.push_back((t1s.back() - t0s.back()) * 1e3);
    sim_ms.push_back(
        *std::max_element(st.sim_dt.begin() + b, st.sim_dt.begin() + b + P) *
        1e-3);
  }
  const int block_len = st.cycles / kBlocks;
  std::vector<double> block_cps, block_cpu;
  for (int b = 0; b < kBlocks; ++b) {
    const std::size_t first = static_cast<std::size_t>(b * block_len);
    const std::size_t last = first + static_cast<std::size_t>(block_len) - 1;
    block_cps.push_back(block_len / (t1s[last] - t0s[first]));
    block_cpu.push_back((st.block_cpu1[b] - st.block_cpu0[b]) / block_len);
  }
  double imb = 0.0;
  for (double v : st.imbalance) imb += v;
  m.add("cycles_per_s", median(block_cps), "1/s");
  m.add("cycle_host_p50_ms", percentile(host_ms, 0.50), "ms");
  m.add("cycle_host_p90_ms", percentile(host_ms, 0.90), "ms");
  m.add("cpu_ms_per_cycle", median(block_cpu), "ms");
  m.add("setup_s", setup_s, "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("sim_cycle_p50_ms", percentile(sim_ms, 0.50), "ms");
  m.add("sim_cycle_p90_ms", percentile(sim_ms, 0.90), "ms");
  m.add("imbalance_mean", imb / st.cycles, "ratio");
}

struct SetupLayers {
  double mesh_ms, dual_ms, placement_ms, framework_ms, rss_mb;
};

void add_per_layer(Metrics& m, const RunState& st, const SetupLayers& su) {
  const std::vector<RankTrace>& tr = st.traces;
  const int T = st.cycles;
  const double inv = 1.0 / T;
  auto cpu = [&](Phase ph) {
    double s = 0.0;
    for (const RankTrace& t : tr) s += t.phase_cpu_ms[ph];
    return s * inv;
  };
  auto bytes = [&](Phase ph) {
    double s = 0.0;
    for (const RankTrace& t : tr) s += static_cast<double>(t.phase_bytes[ph]);
    return s * inv;
  };
  auto sim = [&](Phase ph) {
    return phase_sum_of_max(tr, &RankTrace::phase_sim_us, ph, T) * 1e-3 * inv;
  };
  auto idle = [&](Phase ph) {
    return phase_sum_of_max(tr, &RankTrace::phase_idle_us, ph, T) * 1e-3 * inv;
  };
  auto max_rounds = [&](std::vector<int> RankTrace::*f) {
    double s = 0.0;
    for (int k = 0; k < T; ++k) {
      int mx = 0;
      for (const RankTrace& t : tr) {
        mx = std::max(mx, (t.*f)[static_cast<std::size_t>(k)]);
      }
      s += mx;
    }
    return s * inv;
  };

  m.add("setup.mesh_ms", su.mesh_ms, "ms");
  m.add("setup.dualgraph_ms", su.dual_ms, "ms");
  m.add("setup.placement_ms", su.placement_ms, "ms");
  m.add("setup.framework_ms", su.framework_ms, "ms");
  m.add("setup.rss_mb", su.rss_mb, "MB");

  m.add("solver.cpu_ms", cpu(kSolve), "ms");
  m.add("solver.sim_ms", sim(kSolve), "ms");
  m.add("solver.sim_idle_ms", idle(kSolve), "ms");
  m.add("solver.bytes", bytes(kSolve), "B");

  double refine_elements = 0.0, moved = 0.0;
  for (const RankTrace& t : tr) {
    refine_elements += static_cast<double>(t.refine_elements);
    moved += static_cast<double>(t.migrate_elements);
  }
  m.add("adapt.refine.cpu_ms", cpu(kRefine), "ms");
  m.add("adapt.refine.sim_ms", sim(kRefine), "ms");
  m.add("adapt.refine.rounds", max_rounds(&RankTrace::refine_rounds), "count");
  m.add("adapt.refine.elements", refine_elements * inv, "count");
  m.add("adapt.coarsen.cpu_ms", cpu(kCoarsen), "ms");
  m.add("adapt.coarsen.sim_ms", sim(kCoarsen), "ms");
  m.add("adapt.coarsen.rounds", max_rounds(&RankTrace::coarsen_rounds),
        "count");
  m.add("adapt.bytes", bytes(kRefine) + bytes(kCoarsen), "B");

  m.add("balance.weights.cpu_ms", cpu(kWeights), "ms");
  m.add("balance.weights.sim_ms", sim(kWeights), "ms");
  m.add("balance.weights.bytes", bytes(kWeights), "B");

  const RankTrace& r0 = tr.front();
  double reparts = 0.0, accepts = 0.0, changed = 0.0, predicted = 0.0;
  for (int k = 0; k < T; ++k) {
    const std::size_t i = static_cast<std::size_t>(k);
    reparts += r0.repartitioned[i];
    accepts += r0.accepted[i];
    changed += r0.vertices_changed[i];
    predicted += r0.predicted_us[i];
  }
  m.add("balance.cpu_ms", cpu(kBalance), "ms");
  m.add("balance.sim_ms", sim(kBalance), "ms");
  m.add("balance.repartitions", reparts * inv, "count");
  m.add("balance.accept_ratio", ratio(accepts, reparts), "ratio");
  m.add("partition.vertices_changed", changed * inv, "count");

  const double wall = sum_of_max(tr, &RankTrace::mig_wall, T);
  const double phase_sum = sum_of_max(tr, &RankTrace::mig_pack, T) +
                           sum_of_max(tr, &RankTrace::mig_ship, T) +
                           sum_of_max(tr, &RankTrace::mig_purge, T) +
                           sum_of_max(tr, &RankTrace::mig_unpack, T) +
                           sum_of_max(tr, &RankTrace::mig_spl, T);
  m.add("migrate.cpu_ms", cpu(kMigrate), "ms");
  m.add("migrate.sim_ms", sim(kMigrate), "ms");
  m.add("migrate.sim_idle_ms", idle(kMigrate), "ms");
  m.add("migrate.elements_moved", moved * inv, "count");
  m.add("migrate.bytes", bytes(kMigrate), "B");
  m.add("migrate.overlap_ratio", ratio(wall, phase_sum), "ratio");
  m.add("migrate.cost_ratio", ratio(wall, predicted), "ratio");

  double msgs = 0.0, all_bytes = 0.0, sim_us = 0.0, idle_us = 0.0,
         phase_cpu = 0.0, probe_cpu = 0.0;
  for (const RankTrace& t : tr) {
    msgs += static_cast<double>(t.msgs);
    all_bytes += static_cast<double>(t.bytes);
    sim_us += t.sim_us;
    idle_us += t.idle_us;
    probe_cpu += t.probe_cpu_ms;
    for (double c : t.phase_cpu_ms) phase_cpu += c;
  }
  const double loop_cpu = st.block_cpu1.back() - st.block_cpu0.front();
  m.add("simmpi.msgs", msgs * inv, "count");
  m.add("simmpi.bytes", all_bytes * inv, "B");
  m.add("simmpi.sim_idle_frac", ratio(idle_us, sim_us), "ratio");
  m.add("simmpi.cpu_other_ms", (loop_cpu - phase_cpu) * inv, "ms");
  m.add("trace.overhead_frac", ratio(probe_cpu, loop_cpu), "ratio");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int cycles = 0;
  bool trace = false;
  bool tiny = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "plum_bench: %s\nusage: plum_bench --workload NAME --seed N "
               "(--seconds S | --cycles T) [--trace 0|1] "
               "[--scale full|tiny]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--cycles") {
      a.cycles = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scale") {
      if (v != "full" && v != "tiny") usage("--scale must be full or tiny");
      a.tiny = v == "tiny";
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.cycles < 1 && a.seconds <= 0.0) {
    usage("--seconds or --cycles must be positive");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = host_now_s();
  const Args args = parse(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload w = args.tiny ? tiny(*found) : *found;
  const int step = kBlocks * w.quantum;
  auto whole_blocks = [step](int n, int min) {
    return std::max((min + step - 1) / step * step,
                    (n + step / 2) / step * step);
  };
  const int cycles =
      args.cycles > 0
          ? whole_blocks(args.cycles, step)
          : whole_blocks(static_cast<int>(args.seconds * w.nominal_cps),
                         kMinSamples);
  // The plan goes out first, so a run that dies still reports how many
  // cycles it attempted.
  std::printf("{\"plan\":{\"cycles\":%d}}\n", cycles);
  std::fflush(stdout);

  simmpi::Machine machine;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (args.trace) {
    machine.set_mode(simmpi::MachineMode::kThreads);
  } else {
    machine.set_mode(simmpi::MachineMode::kPool);
    machine.set_pool({.workers = nproc});
  }

  // Setup runs kSetupReps times; the last one goes on into the cycles.
  // Each repetition is timed from the start of input generation (the
  // first from process start) until the last rank holds its framework.
  std::vector<double> setup_s, mesh_ms, dual_ms, place_ms, fw_ms;
  RunState st(w.procs, cycles);
  double setup_rss = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    const double t0 = rep == 0 ? process_start : host_now_s();
    const Inputs in = make_inputs(w, args.seed);
    const MarkerSchedule sched(w, in);
    machine.run(w.procs, [&](simmpi::Comm& comm) {
      rank_body(comm, w, in, sched, args.trace, !last, st);
    });
    // setup_done was written before the cycles started.
    setup_s.push_back(*std::max_element(st.setup_done.begin(),
                                        st.setup_done.end()) -
                      t0);
    double mesh = in.mesh_ms, fw = 0.0;
    for (double v : st.mesh_cpu) mesh += v;
    for (double v : st.fw_cpu) fw += v;
    mesh_ms.push_back(mesh);
    dual_ms.push_back(in.dual_ms);
    place_ms.push_back(in.placement_ms);
    fw_ms.push_back(fw);
    if (rep == 0) setup_rss = peak_rss_mb();
  }

  const double makespan_us =
      *std::max_element(st.end_clock.begin(), st.end_clock.end());
  std::uint64_t fp = hash_combine64(
      static_cast<std::uint64_t>(st.fp_elements), st.fp_gids);
  fp = hash_combine64(fp, st.fp_placement);
  std::uint64_t makespan_bits = 0;
  std::memcpy(&makespan_bits, &makespan_us, sizeof makespan_bits);
  fp = hash_combine64(fp, makespan_bits);
  char fp_hex[20];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fp));

  Metrics m;
  if (args.trace) {
    add_per_layer(m, st,
                  {median(mesh_ms), median(dual_ms), median(place_ms),
                   median(fw_ms), setup_rss});
  } else {
    add_end_to_end(m, st, median(setup_s));
  }

  JsonWriter out;
  out.begin_object();
  out.key("workload");
  out.value(w.name);
  out.key("seed");
  out.value(static_cast<std::int64_t>(args.seed));
  out.key("trace");
  out.value(args.trace);
  out.key("cycles");
  out.value(cycles);
  out.key("warmup");
  out.value(kWarmup);
  out.key("n");
  out.value(w.n);
  out.key("procs");
  out.value(w.procs);
  out.key("engine");
  out.value(args.trace ? "threads" : "pool");
  out.key("pool_workers");
  out.value(args.trace ? 0 : nproc);
  out.key("nproc");
  out.value(nproc);
  out.key("build_type");
  out.value(PLUM_BENCH_BUILD_TYPE);
  out.key("check_ok");
  out.value(st.check_ok);
  out.key("check_summary");
  out.value(st.check_summary);
  out.key("fingerprint");
  out.value(fp_hex);
  out.key("active_elements");
  out.value(st.fp_elements);
  out.key("sim_makespan_us");
  out.value(makespan_us);
  out.end_object();
  std::string head = out.take();
  head.pop_back();  // splice the metrics object in before the final '}'
  std::printf("%s,\"metrics\":%s}\n", head.c_str(), m.finish().c_str());
  return 0;
}
