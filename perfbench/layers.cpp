// perfbench_layers — the per-layer half of the fepia benchmark.
//
// run.py measures the end-to-end figures on the untimed fepia_cli /
// fepiad. For the traced pass it calls this harness, which re-runs the
// same computation through the *public* functions of each src/ module
// and times the calls from outside: no span is added inside src/.
//
// The estimator phases come from a timing and counting wrapper around
// the safe-region predicate, handed to the block-predicate overload of
// validate::estimateEmpiricalRadius (documented bit-identical to the
// other overloads). The estimator copies the predicate once per chunk
// and once more for its serial probe (origin check first, then the
// polish), so each copy's call log tells the phases apart:
//   chunk phase  estimator entry .. last return of any chunk copy
//   polish       first .. last call of the serial copy after the origin
//   tail         last predicate return .. estimator return (bootstrap
//                CI plus the reductions)
// Every radius the harness computes is printed as a 17-digit number so
// run.py can assert it is bit-identical to the untraced CLI output.
//
// Usage (one JSON object on stdout per call):
//   perfbench_layers validate --system F --samples N --seed S --threads T
//   perfbench_layers fault --system F --samples N --seed S --gens G
//                          --threads T [--crash ..] [--slow ..] [--loss ..]
//   perfbench_layers nominal --system F --gens G [plan flags]
//       exit 0 when the plan's nominal run satisfies QoS, 3 otherwise
//   perfbench_layers sweep --spec F --threads T
//   perfbench_layers queries --list F --threads T --reps K
//       F: one request per line, tab-separated kind and args
//   perfbench_layers write-system OUT
//       writes the built-in reference HiPer-D system
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "classify/block_classifier.hpp"
#include "des/pipeline.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "feature/feature.hpp"
#include "feature/linear.hpp"
#include "feature/transform.hpp"
#include "hiperd/factory.hpp"
#include "io/problem_io.hpp"
#include "io/system_io.hpp"
#include "obs/clock.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/parameter.hpp"
#include "radius/fepia.hpp"
#include "radius/merge.hpp"
#include "radius/registry/scheduler.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "server/query.hpp"
#include "sweep/spec.hpp"
#include "validate/empirical.hpp"
#include "validate/scheme.hpp"

namespace {

using namespace fepia;
namespace rb = radius::backend;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Flat "key": value JSON object, printed in insertion order.
class JsonOut {
 public:
  void set(const std::string& key, double v) { add(key, num(v)); }
  void raw(const std::string& key, std::string json) { add(key, std::move(json)); }
  void print() const {
    std::cout << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::cout << (i ? ", " : "") << '"' << items_[i].first
                << "\": " << items_[i].second;
    }
    std::cout << "}\n";
  }

 private:
  void add(const std::string& key, std::string v) {
    items_.emplace_back(key, std::move(v));
  }
  std::vector<std::pair<std::string, std::string>> items_;
};

std::string numList(const std::vector<double>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) s += (i ? ", " : "") + num(xs[i]);
  return s + "]";
}

/// Time covered by the union of [start, end) intervals.
double unionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double curStart = 0.0;
  double curEnd = -std::numeric_limits<double>::infinity();
  for (const auto& [a, b] : iv) {
    if (a > curEnd) {
      if (curEnd > curStart) total += curEnd - curStart;
      curStart = a;
      curEnd = b;
    } else {
      curEnd = std::max(curEnd, b);
    }
  }
  if (curEnd > curStart) total += curEnd - curStart;
  return total;
}

/// Benchmark spans: [start, end) intervals on the steady clock.
struct Spans {
  std::vector<std::pair<double, double>> intervals;
  /// Runs fn() as one span, adding its duration to `accumulate`.
  template <typename Fn>
  auto time(double& accumulate, Fn&& fn) {
    const double t0 = now();
    auto r = fn();
    const double t1 = now();
    intervals.emplace_back(t0, t1);
    accumulate += t1 - t0;
    return r;
  }
};

// ---------------------------------------------------------------------
// The timing predicate wrapper and the phase read-out.

struct Call {
  double t0;
  double t1;
  std::size_t lanes;
};

/// One estimator call's predicate copies and their call logs.
class PhaseRecorder {
 public:
  using KernelFactory = std::function<validate::BlockSafePredicate()>;

  /// A predicate whose every copy builds its own kernel on first use
  /// and logs each call. Copies start empty, so the estimator's
  /// per-chunk copies never share a kernel or a log.
  validate::BlockSafePredicate wrap(KernelFactory make) {
    struct Slot {
      Slot() = default;
      Slot(const Slot&) {}
      Slot& operator=(const Slot&) { return *this; }
      validate::BlockSafePredicate kernel;
      std::vector<Call>* log = nullptr;
    };
    return [this, make = std::move(make), slot = Slot()](
               const la::PointBlock& block,
               std::span<const std::size_t> dirs,
               std::span<std::uint8_t> out) mutable {
      if (slot.log == nullptr) {
        slot.kernel = make();
        slot.log = newLog(now());
      }
      const double t0 = now();
      slot.kernel(block, dirs, out);
      slot.log->push_back(Call{t0, now(), block.lanes()});
    };
  }

  struct Phases {
    double estimate = 0, chunkPhase = 0, polish = 0, tail = 0;
    double classifyBusy = 0, chunkBusy = 0;
    std::size_t classifications = 0, polishClassifications = 0;
    std::size_t calls = 0, lanes = 0;

    void add(const Phases& o) {
      estimate += o.estimate;
      chunkPhase += o.chunkPhase;
      polish += o.polish;
      tail += o.tail;
      classifyBusy += o.classifyBusy;
      chunkBusy += o.chunkBusy;
      classifications += o.classifications;
      polishClassifications += o.polishClassifications;
      calls += o.calls;
      lanes += o.lanes;
    }
  };

  /// Reads the phases of the estimator call that ran from `entry` to
  /// `exit`, then forgets the logs.
  Phases analyze(double entry, double exit) {
    Phases p;
    p.estimate = exit - entry;
    // The serial probe is the copy that ran first (the origin check
    // precedes the parallel phase).
    std::size_t serial = 0;
    for (std::size_t i = 1; i < logs_.size(); ++i) {
      if (logs_[i].first < logs_[serial].first) serial = i;
    }
    double chunkEnd = entry;
    double lastReturn = entry;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      const std::vector<Call>& calls = *logs_[i].second;
      if (calls.empty()) continue;
      for (const Call& c : calls) {
        p.classifyBusy += c.t1 - c.t0;
        p.lanes += c.lanes;
        lastReturn = std::max(lastReturn, c.t1);
      }
      p.calls += calls.size();
      if (i == serial) {
        // calls[0] is the origin check, excluded from the estimator's
        // classification count; the rest is the polish.
        if (calls.size() > 1) {
          p.polish += calls.back().t1 - calls[1].t0;
          for (std::size_t k = 1; k < calls.size(); ++k) {
            p.polishClassifications += calls[k].lanes;
          }
        }
      } else {
        p.chunkBusy += calls.back().t1 - calls.front().t0;
        chunkEnd = std::max(chunkEnd, calls.back().t1);
        for (const Call& c : calls) p.classifications += c.lanes;
      }
    }
    p.classifications += p.polishClassifications;
    p.chunkPhase = chunkEnd - entry;
    p.tail = exit - lastReturn;
    logs_.clear();
    return p;
  }

 private:
  std::vector<Call>* newLog(double first) {
    const std::lock_guard<std::mutex> lock(mutex_);
    logs_.emplace_back(first, std::make_unique<std::vector<Call>>());
    return logs_.back().second.get();
  }

  std::mutex mutex_;
  std::vector<std::pair<double, std::unique_ptr<std::vector<Call>>>> logs_;
};

/// Runs one estimation through a fresh recorder and checks that the
/// wrapper saw exactly the classifications the estimator counted.
struct TimedEstimate {
  validate::EmpiricalEstimate est;
  PhaseRecorder::Phases phases;
};

TimedEstimate estimateTimed(PhaseRecorder::KernelFactory kernel,
                            const la::Vector& origin,
                            const validate::EstimatorOptions& opts,
                            parallel::ThreadPool* pool, Spans& spans) {
  PhaseRecorder rec;
  const validate::BlockSafePredicate pred = rec.wrap(std::move(kernel));
  TimedEstimate out;
  const double t0 = now();
  out.est = validate::estimateEmpiricalRadius(pred, origin, opts, pool);
  const double t1 = now();
  spans.intervals.emplace_back(t0, t1);
  out.phases = rec.analyze(t0, t1);
  if (out.phases.classifications != out.est.classifications) {
    throw std::runtime_error("wrapper saw " +
                             std::to_string(out.phases.classifications) +
                             " classifications, estimator counted " +
                             std::to_string(out.est.classifications));
  }
  return out;
}

PhaseRecorder::KernelFactory featureKernel(const feature::FeatureSet& phi,
                                           classify::Mode mode) {
  return [&phi, mode]() -> validate::BlockSafePredicate {
    auto cls = std::make_shared<classify::BlockClassifier>(phi, mode);
    return [cls](const la::PointBlock& block, std::span<const std::size_t>,
                 std::span<std::uint8_t> out) { cls->classify(block, out); };
  };
}

void putPhases(JsonOut& j, const PhaseRecorder::Phases& p) {
  j.set("validate.estimate_s", p.estimate);
  j.set("validate.chunk_phase_s", p.chunkPhase);
  j.set("validate.polish_s", p.polish);
  j.set("validate.tail_s", p.tail);
  j.set("validate.classifications", static_cast<double>(p.classifications));
  j.set("validate.polish_classifications",
        static_cast<double>(p.polishClassifications));
  j.set("classify.busy_s", p.classifyBusy);
  j.set("classify.calls", static_cast<double>(p.calls));
  j.set("classify.lanes", static_cast<double>(p.lanes));
  j.set("chunk_busy_s", p.chunkBusy);
}

// ---------------------------------------------------------------------
// validateMergedScheme, re-run through the timing wrapper: the same
// per-feature P-space construction and seed derivation as
// src/validate/scheme.cpp, so every radius is bit-identical to it.

std::shared_ptr<const feature::PerformanceFeature> pSpaceFeature(
    const std::shared_ptr<const feature::PerformanceFeature>& phi,
    const la::Vector& weights, const la::Vector& base) {
  la::Vector scale(weights.size());
  la::Vector shift(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    scale[i] = weights[i] != 0.0 ? 1.0 / weights[i] : 0.0;
    shift[i] = weights[i] != 0.0 ? 0.0 : base[i];
  }
  return feature::precomposeAffineDiagonal(phi, scale, shift);
}

struct SchemeRun {
  std::vector<double> perFeature;  ///< empirical radius per feature
  double joint = std::numeric_limits<double>::quiet_NaN();
  PhaseRecorder::Phases phases;
};

SchemeRun validateSchemeTimed(const radius::FepiaProblem& problem,
                              radius::MergeScheme scheme,
                              const validate::EstimatorOptions& opts,
                              classify::Mode mode, parallel::ThreadPool* pool,
                              Spans& spans) {
  const radius::MergedAnalysis analysis = problem.merged(scheme);
  const radius::MergedRobustnessReport& rep = analysis.report();
  const la::Vector orig = problem.space().concatenatedOriginal();
  rng::SplitMix64 seeds(opts.seed);
  SchemeRun run;
  for (std::size_t i = 0; i < rep.features.size(); ++i) {
    const radius::DiagonalMap map(rep.features[i].mapWeights);
    feature::FeatureSet single;
    single.add(pSpaceFeature(problem.features()[i].feature,
                             rep.features[i].mapWeights, orig),
               problem.features()[i].bounds);
    validate::EstimatorOptions o = opts;
    o.seed = seeds.next();
    const TimedEstimate t =
        estimateTimed(featureKernel(single, mode), map.toP(orig), o, pool, spans);
    run.perFeature.push_back(t.est.radius);
    run.phases.add(t.phases);
  }
  if (scheme == radius::MergeScheme::NormalizedByOriginal) {
    const la::Vector& weights = rep.features.front().mapWeights;
    const radius::DiagonalMap map(weights);
    feature::FeatureSet joint;
    for (const feature::BoundedFeature& bf : problem.features()) {
      joint.add(pSpaceFeature(bf.feature, weights, orig), bf.bounds);
    }
    validate::EstimatorOptions o = opts;
    o.seed = seeds.next();
    const TimedEstimate t =
        estimateTimed(featureKernel(joint, mode), map.toP(orig), o, pool, spans);
    run.joint = t.est.radius;
    run.phases.add(t.phases);
  }
  return run;
}

double analyticSolve(const radius::FepiaProblem& problem,
                     radius::MergeScheme scheme) {
  rb::RadiusProblem rp;
  rp.problem = &problem;
  rp.scheme = scheme;
  return rb::solveRadius(rp, rb::RadiusRequest{}, nullptr).rho;
}

void sameBits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
    throw std::runtime_error("timed radius " + num(b) +
                             " differs from the module's own " + num(a));
  }
}

// ---------------------------------------------------------------------
// Argument handling.

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> planFlags;  ///< --crash/--slow/--loss as given

  static Args parse(int argc, char** argv, int first) {
    Args a;
    for (int i = first; i < argc; ++i) {
      const std::string k = argv[i];
      if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("bad argument '" + k + "'");
      }
      const std::string v = argv[++i];
      if (k == "--crash" || k == "--slow" || k == "--loss") {
        a.planFlags.push_back(k);
        a.planFlags.push_back(v);
      } else {
        a.flags[k] = v;
      }
    }
    return a;
  }
  [[nodiscard]] std::string str(const std::string& k) const {
    const auto it = flags.find(k);
    if (it == flags.end()) throw std::invalid_argument("missing " + k);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& k) const {
    return std::stoull(str(k));
  }
};

std::vector<std::string> splitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

/// The plan fepia_cli fault-sim builds from the same --crash/--slow/
/// --loss flags (server/query.cpp).
fault::FaultPlan parsePlan(const std::vector<std::string>& f) {
  fault::FaultPlan plan;
  for (std::size_t i = 0; i + 1 < f.size(); i += 2) {
    const std::vector<std::string> p = splitOn(f[i + 1], ':');
    if (f[i] == "--crash") {
      fault::MachineCrash c;
      c.machine = std::stoul(p.at(0));
      c.atSeconds = std::stod(p.at(1));
      if (p.size() == 3) c.backup = std::stoul(p[2]);
      plan.crashes.push_back(c);
    } else if (f[i] == "--slow") {
      fault::Slowdown s;
      s.target = p.at(0) == "machine" ? fault::Slowdown::Target::Machine
                                      : fault::Slowdown::Target::Link;
      s.index = std::stoul(p.at(1));
      s.fromSeconds = std::stod(p.at(2));
      s.toSeconds = std::stod(p.at(3));
      s.factor = std::stod(p.at(4));
      plan.slowdowns.push_back(s);
    } else {
      fault::MessageLoss ml;
      ml.link = std::stoul(p.at(0));
      ml.probability = std::stod(p.at(1));
      plan.losses.push_back(ml);
    }
  }
  return plan;
}

// ---------------------------------------------------------------------
// Subcommands.

int cmdValidate(const Args& a) {
  const double start = now();
  Spans spans;
  JsonOut j;
  double ioLoad = 0, registrySolve = 0;
  const hiperd::ReferenceSystem ref =
      spans.time(ioLoad, [&] { return io::loadSystem(a.str("--system")); });
  const std::size_t threads = a.u64("--threads");
  parallel::ThreadPool pool(threads);
  const radius::FepiaProblem mixed = ref.system.executionMessageProblem(ref.qos);
  const double rho = spans.time(registrySolve, [&] {
    return analyticSolve(mixed, radius::MergeScheme::NormalizedByOriginal);
  });

  validate::EstimatorOptions opts;
  opts.directions = a.u64("--samples");
  opts.seed = a.u64("--seed");
  // fepia_cli validate pins the "empirical" backend, whose kernel is the
  // scalar classification mode.
  opts.classifyMode = classify::Mode::Scalar;

  // The module's own entry point on the same inputs, untimed inside:
  // the denominator of the trace overhead (best of one run before and
  // one after the wrapped run), and a second radius check.
  const auto plainRun = [&] {
    const double t0 = now();
    validate::SchemeValidation v = validate::validateMergedScheme(
        mixed, radius::MergeScheme::NormalizedByOriginal, opts, &pool);
    return std::make_pair(now() - t0, std::move(v));
  };
  const auto [before, plain] = plainRun();
  const SchemeRun run =
      validateSchemeTimed(mixed, radius::MergeScheme::NormalizedByOriginal,
                          opts, classify::Mode::Scalar, &pool, spans);
  const double wall = now() - start - before;
  const double untraced = std::min(before, plainRun().first);
  for (std::size_t i = 0; i < plain.perFeature.size(); ++i) {
    sameBits(plain.perFeature[i].empirical.radius, run.perFeature.at(i));
  }
  sameBits(plain.joint->empirical.radius, run.joint);

  j.set("wall_s", wall);
  j.set("threads", static_cast<double>(threads));
  j.set("io.load_s", ioLoad);
  j.set("registry.solve_s", registrySolve);
  putPhases(j, run.phases);
  j.set("covered_s", unionLength(spans.intervals));
  j.set("traced_s", run.phases.estimate);
  j.set("untraced_s", untraced);
  j.set("analytic_rho", rho);
  std::vector<double> radii = run.perFeature;
  radii.push_back(run.joint);
  j.raw("radii", numList(radii));
  j.print();
  return 0;
}

/// The degraded estimator's joint-space predicate (src/fault/degraded.cpp)
/// as a lane loop, so the timing wrapper sees each DES classification.
struct DesModel {
  const hiperd::ReferenceSystem& ref;
  radius::FepiaProblem mixed;
  radius::DiagonalMap map;
  std::unique_ptr<fault::PlanInjector> injector;
  std::size_t generations;

  DesModel(const hiperd::ReferenceSystem& r, const fault::FaultPlan& plan,
           std::size_t gens)
      : ref(r),
        mixed(r.system.executionMessageProblem(r.qos)),
        map(criticalWeights(mixed)),
        injector(plan.empty() ? nullptr
                              : std::make_unique<fault::PlanInjector>(plan, r.system)),
        generations(gens) {}

  static la::Vector criticalWeights(const radius::FepiaProblem& p) {
    const radius::MergedAnalysis analysis =
        p.merged(radius::MergeScheme::NormalizedByOriginal);
    const auto& rep = analysis.report();
    return rep.features[rep.criticalFeature].mapWeights;
  }

  [[nodiscard]] des::PipelineResult simulate(const la::Vector& pi) const {
    const auto parts = mixed.space().split(pi);
    des::PipelineOptions o;
    o.generations = generations;
    o.faults = injector.get();
    return des::simulatePipeline(ref.system, parts[0], parts[1],
                                 ref.qos.minThroughput, o);
  }

  [[nodiscard]] bool safe(const la::Vector& P) const {
    const la::Vector pi = map.fromP(P);
    for (const double x : pi) {
      if (x < 0.0) return false;
    }
    return simulate(pi).satisfies(ref.qos.maxLatencySeconds);
  }

  [[nodiscard]] la::Vector originP() const {
    return map.toP(mixed.space().concatenatedOriginal());
  }
};

int cmdNominal(const Args& a) {
  const hiperd::ReferenceSystem ref = io::loadSystem(a.str("--system"));
  const fault::FaultPlan plan = parsePlan(a.planFlags);
  plan.validateAgainst(ref.system);
  const DesModel model(ref, plan, a.u64("--gens"));
  return model.simulate(model.map.fromP(model.originP()))
                 .satisfies(ref.qos.maxLatencySeconds)
             ? 0
             : 3;
}

int cmdFault(const Args& a) {
  const double start = now();
  Spans spans;
  JsonOut j;
  double ioLoad = 0, registrySolve = 0, faultEstimate = 0;
  const hiperd::ReferenceSystem ref =
      spans.time(ioLoad, [&] { return io::loadSystem(a.str("--system")); });
  const std::size_t threads = a.u64("--threads");
  parallel::ThreadPool pool(threads);
  const fault::FaultPlan plan = parsePlan(a.planFlags);
  plan.validateAgainst(ref.system);
  const DesModel model(ref, plan, a.u64("--gens"));
  const double rho = spans.time(registrySolve, [&] {
    return analyticSolve(model.mixed, radius::MergeScheme::NormalizedByOriginal);
  });

  validate::EstimatorOptions base;
  base.directions = a.u64("--samples");
  base.seed = a.u64("--seed");
  fault::DegradedOptions dopts;
  dopts.generations = model.generations;
  dopts.explicitDirections = true;

  // The module's own entry point, timed as one call (and once more after
  // the wrapped run; the faster of the two is reported).
  const auto directRun = [&] {
    return fault::estimateDegradedRadius(ref, {plan}, base, dopts, &pool);
  };
  const fault::DegradedEstimate direct = spans.time(faultEstimate, directRun);
  if (!direct.nominalSatisfies) {
    throw std::runtime_error("nominal run violates QoS");
  }

  // The same estimate through the timing wrapper: one DES run per lane.
  const validate::EstimatorOptions est =
      fault::desEstimatorOptions(base, /*explicitDirections=*/true);
  const PhaseRecorder::KernelFactory desKernel =
      [&model]() -> validate::BlockSafePredicate {
    return [&model, scratch = la::Vector(model.mixed.space().concatenatedOriginal().size())](
               const la::PointBlock& block, std::span<const std::size_t>,
               std::span<std::uint8_t> out) mutable {
      for (std::size_t l = 0; l < block.lanes(); ++l) {
        block.gatherPoint(l, scratch.span());
        out[l] = model.safe(scratch) ? 1 : 0;
      }
    };
  };
  const TimedEstimate timed =
      estimateTimed(desKernel, model.originP(), est, &pool, spans);
  sameBits(direct.degraded.radius, timed.est.radius);

  // One nominal DES run through the public des API, median of 15.
  std::vector<double> runs;
  const la::Vector pi0 = model.mixed.space().concatenatedOriginal();
  for (int r = 0; r < 15; ++r) {
    const double t0 = now();
    (void)model.simulate(pi0);
    runs.push_back(now() - t0);
  }
  std::nth_element(runs.begin(), runs.begin() + 7, runs.end());
  const double desRun = runs[7];
  const double wall = now() - start;
  const double again = now();
  (void)directRun();
  faultEstimate = std::min(faultEstimate, now() - again);

  j.set("wall_s", wall);
  j.set("threads", static_cast<double>(threads));
  j.set("io.load_s", ioLoad);
  j.set("registry.solve_s", registrySolve);
  j.set("fault.estimate_s", faultEstimate);
  putPhases(j, timed.phases);
  j.set("des.runs", static_cast<double>(timed.est.classifications));
  j.set("des.run_ms", desRun * 1e3);
  j.set("covered_s", unionLength(spans.intervals));
  j.set("traced_s", timed.phases.estimate);
  j.set("untraced_s", faultEstimate);
  j.set("analytic_rho", rho);
  j.raw("radii", numList({direct.degraded.radius}));
  j.print();
  return 0;
}

/// The sweep engine's linear-workload point (src/sweep/engine.cpp):
/// the same instance recipe and content-derived seeds, so every
/// empirical radius is bit-identical to the surface's.
int cmdSweep(const Args& a) {
  const double start = now();
  Spans spans;
  JsonOut j;
  double ioLoad = 0, registrySolve = 0;
  const sweep::SweepSpec spec =
      spans.time(ioLoad, [&] { return sweep::loadSweepSpec(a.str("--spec")); });
  if (spec.workload != sweep::Workload::Linear || !spec.empirical) {
    throw std::invalid_argument("sweep layers need a linear spec with empirical on");
  }
  const std::size_t threads = a.u64("--threads");
  parallel::ThreadPool pool(threads);

  const std::size_t points = spec.pointCount();
  struct Point {
    radius::FepiaProblem problem;
    radius::MergeScheme scheme;
    std::uint64_t seed;
  };
  // One empirical estimate per distinct content key, as the engine's
  // cache dedups them.
  std::vector<Point> work;
  std::map<std::string, std::size_t> byKey;
  std::vector<std::size_t> pointWork(points);
  for (std::size_t id = 0; id < points; ++id) {
    const auto tok = [&](const char* axis) { return spec.valueAt(id, axis).token; };
    const std::string instKey = "lin;n=" + tok("n") + ";kscale=" + tok("kscale") +
                                ";origscale=" + tok("origscale");
    const std::string empKey = instKey + ";scheme=" + tok("scheme") + ";beta=" +
                               tok("beta") + ";emp;samples=" +
                               std::to_string(spec.samples);
    const auto found = byKey.find(empKey);
    if (found != byKey.end()) {
      pointWork[id] = found->second;
      continue;
    }
    const std::size_t n = static_cast<std::size_t>(spec.valueAt(id, "n").number);
    rng::Xoshiro256StarStar g(sweep::deriveSeed(spec.seed, instKey));
    la::Vector k(n), orig(n);
    for (std::size_t c = 0; c < n; ++c) {
      k[c] = spec.valueAt(id, "kscale").number * rng::uniform(g, 0.1, 3.0);
      orig[c] = spec.valueAt(id, "origscale").number * rng::uniform(g, 0.2, 20.0);
    }
    radius::FepiaProblem problem;
    for (std::size_t c = 0; c < n; ++c) {
      problem.addPerturbation(perturb::PerturbationParameter(
          "pi" + std::to_string(c),
          units::Unit::base(static_cast<units::Dimension>(c % 4)),
          la::Vector{orig[c]}));
    }
    const auto lin = std::make_shared<feature::LinearFeature>("phi", k);
    problem.addFeature(lin, feature::FeatureBounds::upper(
                                spec.valueAt(id, "beta").number * lin->evaluate(orig)));
    const radius::MergeScheme scheme = tok("scheme") == "sensitivity"
                                           ? radius::MergeScheme::Sensitivity
                                           : radius::MergeScheme::NormalizedByOriginal;
    byKey.emplace(empKey, work.size());
    pointWork[id] = work.size();
    work.push_back(Point{std::move(problem), scheme,
                         sweep::deriveSeed(spec.seed, empKey)});
  }

  for (const Point& p : work) {
    spans.time(registrySolve, [&] { return analyticSolve(p.problem, p.scheme); });
  }

  // Estimators run serially inside shard-parallel workers, as in the
  // engine; each worker keeps its own spans and phases.
  std::vector<SchemeRun> runs(work.size());
  std::vector<Spans> workerSpans(work.size());
  const auto options = [&](std::size_t w) {
    validate::EstimatorOptions o;
    o.directions = spec.samples;
    o.seed = work[w].seed;
    return o;
  };
  // The module's own entry point on the same points, for the trace
  // overhead (best of one run before and one after the wrapped run) and
  // a second radius check. The sweep's "empirical-batched" backend uses
  // the batched classification mode.
  std::vector<double> plain(work.size());
  const auto plainRun = [&] {
    const double u0 = now();
    parallel::parallelFor(pool, work.size(), [&](std::size_t w) {
      validate::EstimatorOptions o = options(w);
      o.classifyMode = classify::Mode::Batched;
      plain[w] = validate::validateMergedScheme(work[w].problem, work[w].scheme,
                                                o, nullptr)
                     .rho.empirical.radius;
    });
    return now() - u0;
  };
  const double before = plainRun();

  const double t0 = now();
  parallel::parallelFor(pool, work.size(), [&](std::size_t w) {
    runs[w] = validateSchemeTimed(work[w].problem, work[w].scheme, options(w),
                                  classify::Mode::Batched, nullptr, workerSpans[w]);
  });
  const double traced = now() - t0;
  const double tracedEnd = now();
  const double untraced = std::min(before, plainRun());
  for (std::size_t w = 0; w < work.size(); ++w) {
    sameBits(plain[w], *std::min_element(runs[w].perFeature.begin(),
                                         runs[w].perFeature.end()));
  }
  PhaseRecorder::Phases total;
  for (std::size_t w = 0; w < work.size(); ++w) {
    total.add(runs[w].phases);
    spans.intervals.insert(spans.intervals.end(),
                           workerSpans[w].intervals.begin(),
                           workerSpans[w].intervals.end());
  }
  std::vector<double> radii(points);
  for (std::size_t id = 0; id < points; ++id) {
    radii[id] = runs[pointWork[id]].perFeature.front();
  }
  // The traced pass only: neither untraced run counts.
  const double wall = tracedEnd - start - before;

  j.set("wall_s", wall);
  j.set("threads", static_cast<double>(threads));
  j.set("io.load_s", ioLoad);
  j.set("registry.solve_s", registrySolve);
  putPhases(j, total);
  j.set("covered_s", unionLength(spans.intervals));
  j.set("traced_s", traced);
  j.set("untraced_s", untraced);
  j.raw("radii", numList(radii));
  j.print();
  return 0;
}

/// Each listed request run in-process through the server's own query
/// runners (no session cache), median of `reps`; plus the io and
/// registry time of the problems the radius requests name.
int cmdQueries(const Args& a) {
  const double start = now();
  Spans spans;
  JsonOut j;
  std::ifstream in(a.str("--list"));
  if (!in) throw std::runtime_error("cannot open request list");
  std::vector<std::vector<std::string>> reqs;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) reqs.push_back(splitOn(line, '\t'));
  }
  const std::size_t threads = a.u64("--threads");
  const std::size_t reps = a.u64("--reps");
  parallel::ThreadPool pool(threads);

  std::vector<double> medians;
  for (const std::vector<std::string>& r : reqs) {
    const std::vector<std::string> args(r.begin() + 1, r.end());
    std::vector<double> t;
    for (std::size_t k = 0; k < reps; ++k) {
      obs::Registry registry;
      obs::RunManifest manifest;
      obs::Stopwatch wall;
      server::QueryContext ctx;
      ctx.registry = &registry;
      ctx.manifest = &manifest;
      ctx.wall = &wall;
      ctx.sharedPool = &pool;
      std::ostringstream sink;
      const double t0 = now();
      if (r[0] == "radius") {
        (void)server::runRadiusQuery(args, sink, ctx);
      } else if (r[0] == "validate") {
        (void)server::runValidateQuery(args, sink, ctx);
      } else if (r[0] == "sweep") {
        (void)server::runSweepQuery(args, sink, ctx);
      } else {
        throw std::invalid_argument("unknown request kind '" + r[0] + "'");
      }
      const double t1 = now();
      spans.intervals.emplace_back(t0, t1);
      t.push_back(t1 - t0);
    }
    std::sort(t.begin(), t.end());
    medians.push_back(t[t.size() / 2]);
  }

  // io and registry: every distinct problem file of the radius requests.
  double ioLoad = 0, registrySolve = 0;
  std::size_t loads = 0, solves = 0;
  std::map<std::string, bool> seen;
  for (const std::vector<std::string>& r : reqs) {
    if (r[0] != "radius" || seen[r[1]]) continue;
    seen[r[1]] = true;
    const radius::FepiaProblem p =
        spans.time(ioLoad, [&] { return io::loadProblem(r[1]); });
    ++loads;
    for (const radius::MergeScheme s : {radius::MergeScheme::NormalizedByOriginal,
                                        radius::MergeScheme::Sensitivity}) {
      (void)spans.time(registrySolve, [&] { return analyticSolve(p, s); });
      ++solves;
    }
  }
  j.set("wall_s", now() - start);
  j.set("covered_s", unionLength(spans.intervals));
  j.set("io.load_s", loads ? ioLoad / static_cast<double>(loads) : 0.0);
  j.set("io.loads", static_cast<double>(loads));
  j.set("registry.solve_s", solves ? registrySolve / static_cast<double>(solves) : 0.0);
  j.set("registry.calls", static_cast<double>(solves));
  j.raw("inproc_s", numList(medians));
  j.print();
  return 0;
}

int cmdWriteSystem(int argc, char** argv) {
  if (argc < 3) throw std::invalid_argument("write-system needs an output path");
  std::ofstream out(argv[2]);
  if (!out) throw std::runtime_error(std::string("cannot write '") + argv[2] + "'");
  io::writeSystem(out, hiperd::makeReferenceSystem());
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_layers validate|fault|nominal|sweep|queries|"
                 "write-system ...\n";
    return 1;
  }
  try {
    const std::string cmd = argv[1];
    if (cmd == "write-system") return cmdWriteSystem(argc, argv);
    const Args a = Args::parse(argc, argv, 2);
    if (cmd == "validate") return cmdValidate(a);
    if (cmd == "fault") return cmdFault(a);
    if (cmd == "nominal") return cmdNominal(a);
    if (cmd == "sweep") return cmdSweep(a);
    if (cmd == "queries") return cmdQueries(a);
    std::cerr << "perfbench_layers: unknown command '" << cmd << "'\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 1;
  }
}
