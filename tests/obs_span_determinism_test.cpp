// Instrumentation must be invisible to the numerics: with tracing on
// the engine-driven searches and the Monte-Carlo estimator must return
// byte-identical results to the untraced run, at every thread count.
// Spans only read the clock and append to thread-local buffers, so the
// results cannot depend on whether a collector is listening.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "alloc/eval_engine.hpp"
#include "alloc/genetic.hpp"
#include "alloc/heuristics.hpp"
#include "alloc/search.hpp"
#include "etc/etc.hpp"
#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/xoshiro.hpp"
#include "validate/empirical.hpp"

namespace alloc = fepia::alloc;
namespace etcns = fepia::etc;
namespace feature = fepia::feature;
namespace obs = fepia::obs;
namespace parallel = fepia::parallel;
namespace rng = fepia::rng;
namespace validate = fepia::validate;
namespace la = fepia::la;

namespace {

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Workload {
  la::Matrix etcMatrix;
  alloc::Allocation seed;
  double tau;
};

Workload makeWorkload() {
  rng::Xoshiro256StarStar g(0x0B5E11ull);
  la::Matrix e = etcns::generateCvb(48, 6, etcns::CvbParams{}, g);
  alloc::Allocation seed = alloc::mct(e);
  const double tau = 1.4 * alloc::makespan(seed, e);
  return Workload{std::move(e), std::move(seed), tau};
}

alloc::EngineConfig rhoConfig(double tau) {
  alloc::EngineConfig cfg;
  cfg.objective = alloc::EngineObjective::Rho;
  cfg.tau = tau;
  return cfg;
}

struct SearchOutcome {
  std::vector<std::size_t> assignment;
  double objective = 0.0;
  std::uint64_t evaluations = 0;
};

constexpr std::size_t kGenerations = 6;

SearchOutcome runSearch(const Workload& w, std::size_t threads) {
  parallel::ThreadPool pool(threads);
  alloc::EvalEngine engine(w.etcMatrix, rhoConfig(w.tau), &pool);
  const alloc::Allocation improved = alloc::localSearch(engine, w.seed);
  alloc::GeneticOptions opts;
  opts.populationSize = 24;
  opts.generations = kGenerations;
  rng::Xoshiro256StarStar g(0xFEED5EEDull);
  const alloc::GeneticResult res =
      alloc::geneticSearch(engine, g, opts, {improved});
  return SearchOutcome{res.best.assignment(), res.bestObjective,
                       res.evaluations};
}

feature::FeatureSet makeFeatureSet() {
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>(
              "lin", la::Vector{1.0, 0.7, -0.3}),
          feature::FeatureBounds::upper(5.0));
  phi.add(std::make_shared<feature::QuadraticFeature>(
              "quad", 2.0 * la::identity(3), la::Vector{0.1, 0.0, 0.0}),
          feature::FeatureBounds::upper(30.0));
  return phi;
}

std::size_t countByName(const std::vector<obs::SpanRecord>& recs,
                        std::string_view name) {
  std::size_t n = 0;
  for (const obs::SpanRecord& r : recs) {
    if (name == r.name) ++n;
  }
  return n;
}

}  // namespace

TEST(ObsSpanDeterminism, SearchIsTraceInvariantAtEveryThreadCount) {
  const Workload w = makeWorkload();
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.stop();
  (void)tc.collect();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SearchOutcome off = runSearch(w, threads);

    tc.start();
    const SearchOutcome on = runSearch(w, threads);
    tc.stop();
    const std::vector<obs::SpanRecord> recs = tc.collect();

    EXPECT_EQ(on.assignment, off.assignment);
    EXPECT_TRUE(sameBits(on.objective, off.objective));
    EXPECT_EQ(on.evaluations, off.evaluations);

    // The traced run must actually have produced the structural spans:
    // one ga.generation per generation regardless of thread count, and
    // pool.task spans for every worker-executed batch.
    EXPECT_EQ(countByName(recs, "ga.generation"), kGenerations);
    EXPECT_EQ(countByName(recs, "search.local_search"), 1u);
    EXPECT_EQ(countByName(recs, "search.ga"), 1u);
    EXPECT_GT(countByName(recs, "pool.task"), 0u);
  }
}

TEST(ObsSpanDeterminism, EstimatorIsTraceAndMetricsInvariant) {
  const feature::FeatureSet phi = makeFeatureSet();
  const la::Vector orig{0.5, 0.5, 0.5};
  validate::EstimatorOptions opts;
  opts.directions = 512;
  opts.chunkSize = 64;
  opts.seed = 0xDE7E2A11ull;
  opts.horizon = 32.0;

  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.stop();
  (void)tc.collect();
  const auto plain = validate::estimateEmpiricalRadius(phi, orig, opts);
  ASSERT_TRUE(plain.finite());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    obs::Registry reg;
    validate::EstimatorOptions instrumented = opts;
    instrumented.metrics = &reg;

    tc.start();
    const auto est =
        validate::estimateEmpiricalRadius(phi, orig, instrumented, &pool);
    tc.stop();
    const std::vector<obs::SpanRecord> recs = tc.collect();

    EXPECT_TRUE(sameBits(est.radius, plain.radius));
    EXPECT_TRUE(sameBits(est.ci.lo, plain.ci.lo));
    EXPECT_TRUE(sameBits(est.ci.hi, plain.ci.hi));
    EXPECT_EQ(est.classifications, plain.classifications);

    // Metrics are written serially after the parallel join, so they are
    // thread-count invariant too.
    EXPECT_EQ(reg.counters().value("validate.directions"), opts.directions);
    EXPECT_EQ(reg.counters().value("validate.classifications"),
              plain.classifications);
    const obs::Histogram* h = reg.findHistogram("validate.chunk_classifications");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), opts.directions / opts.chunkSize);

    EXPECT_EQ(countByName(recs, "validate.estimate"), 1u);
    EXPECT_EQ(countByName(recs, "validate.chunk"),
              opts.directions / opts.chunkSize);
    // The serial phases after the chunks: one polish, one bootstrap CI.
    EXPECT_EQ(countByName(recs, "validate.polish"), 1u);
    EXPECT_EQ(countByName(recs, "validate.bootstrap"), 1u);
  }
}
