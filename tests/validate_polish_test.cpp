// The polish of the empirical estimator prunes every candidate ray at the
// incumbent distance and classifies a candidate's march probes in one
// block call. Neither may move a radius. This suite pins the radius, the
// confidence interval and the classification count of fixed fixtures —
// linear, quadratic, a non-convex direction-indexed region whose rays
// leave and re-enter the safe set, and a DES degraded estimate — to the
// values of the unpruned one-probe-per-call polish: radius and interval
// bit for bit, counts no higher. It also checks the live classification
// counter and the error behaviour of march probes past a violation.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "feature/quadratic.hpp"
#include "hiperd/factory.hpp"
#include "la/matrix.hpp"
#include "la/vector.hpp"
#include "parallel/thread_pool.hpp"
#include "radius/fepia.hpp"
#include "support/instance_gen.hpp"
#include "validate/empirical.hpp"

namespace fault = fepia::fault;
namespace feature = fepia::feature;
namespace hiperd = fepia::hiperd;
namespace la = fepia::la;
namespace parallel = fepia::parallel;
namespace validate = fepia::validate;
namespace ft = fepia::testing;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

la::Vector originOf(const fepia::radius::FepiaProblem& problem) {
  la::Vector origin;
  for (std::size_t k = 0; k < problem.space().kindCount(); ++k) {
    for (const double x : problem.space().kind(k).original()) {
      origin.push_back(x);
    }
  }
  return origin;
}

validate::EstimatorOptions pinnedOptions(std::uint64_t seed) {
  validate::EstimatorOptions opts;
  opts.directions = 64;
  opts.chunkSize = 16;
  opts.seed = 0x9011511ull ^ seed;
  opts.bootstrapResamples = 200;
  return opts;
}

/// A non-convex region in R^3 around the origin, keyed by direction id:
/// an outer boundary at 2 + x0/|x|, and on even directions a thin
/// unsafe shell at radius 0.7 + 0.25 x1/|x| (width 0.1). March probes
/// land inside the shell only on some rays; on the others the ray
/// leaves and re-enters the safe set between two probes, and even the
/// rays that hit it see safe probes again beyond it.
bool shellRegion(const la::Vector& x, std::size_t direction) {
  const double r = std::sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]);
  if (r == 0.0) return true;
  if (r >= 2.0 + x[0] / r) return false;
  return direction % 2 != 0 || std::abs(r - (0.7 + 0.25 * x[1] / r)) >= 0.05;
}

struct Pinned {
  const char* name;
  double radius;
  double ciLo;
  double ciHi;
  std::size_t classifications;
};

/// Recorded from the unpruned polish (one probe per predicate call).
constexpr Pinned kPinned[] = {
    {"linear seed 1 dim 3", 0x1.92b5b080c07fcp+0, 0x0p+0,
     0x1.92b5b080c07fcp+0, 29692},
    {"linear seed 1 dim 5", 0x1.0c58bb1034e68p+1, 0x0p+0,
     0x1.0c58bb1034e68p+1, 44906},
    {"linear seed 2 dim 3", 0x1.bd28aeda588a6p+0, 0x0p+0,
     0x1.bd28aeda588a6p+0, 28560},
    {"linear seed 2 dim 5", 0x1.def1b7e292eb8p+0, 0x0p+0,
     0x1.def1b7e292eb8p+0, 45151},
    {"quadratic", 0x1.ed646f965b3fcp-1, 0x1.cb1876089fb64p-1,
     0x1.ed646f965b3fcp-1, 29305},
    {"non-convex indexed shell", 0x1.999999999fcfcp-2, 0x1.6369ab6eee678p-4,
     0x1.999999999fcfcp-2, 29002},
    {"degraded DES", 0x1.00129b0eec20ep+0, 0x0p+0, 0x1.00129b0eec20ep+0,
     20608},
};

void expectPinned(const Pinned& want, const validate::EmpiricalEstimate& got) {
  SCOPED_TRACE(want.name);
  EXPECT_EQ(bits(got.radius), bits(want.radius)) << hex(got.radius);
  EXPECT_EQ(bits(got.ci.lo), bits(want.ciLo)) << hex(got.ci.lo);
  EXPECT_EQ(bits(got.ci.hi), bits(want.ciHi)) << hex(got.ci.hi);
  EXPECT_LE(got.classifications, want.classifications);
}

}  // namespace

TEST(PolishPinned, LinearRadiiMatchTheUnprunedPolish) {
  std::size_t row = 0;
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const std::size_t dim : {std::size_t{3}, std::size_t{5}}) {
      const fepia::radius::FepiaProblem problem =
          ft::makeLinearInstance(seed, dim);
      expectPinned(kPinned[row++],
                   validate::estimateEmpiricalRadius(
                       problem.features(), originOf(problem),
                       pinnedOptions(seed * 10 + dim)));
    }
  }
}

TEST(PolishPinned, QuadraticRadiusMatchesTheUnprunedPolish) {
  feature::FeatureSet phi;
  la::Matrix q = la::identity(3);
  q(0, 0) = 2.0;
  q(1, 1) = 8.0;
  q(2, 2) = 0.5;
  phi.add(std::make_shared<feature::QuadraticFeature>(
              "ellipsoid", q, la::Vector{0.3, -0.2, 0.1}),
          feature::FeatureBounds::upper(4.0));
  expectPinned(kPinned[4],
               validate::estimateEmpiricalRadius(
                   phi, la::Vector{0.1, 0.0, 0.2}, pinnedOptions(4)));
}

TEST(PolishPinned, NonConvexIndexedRadiusMatchesTheUnprunedPolish) {
  expectPinned(kPinned[5],
               validate::estimateEmpiricalRadius(
                   validate::IndexedSafePredicate(shellRegion),
                   la::Vector{0.0, 0.0, 0.0}, pinnedOptions(5)));
}

TEST(PolishPinned, DegradedRadiusMatchesTheUnprunedPolish) {
  const auto ref = hiperd::makeReferenceSystem();
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 0.5, 0});
  plan.losses.push_back({ref.system.message(0).link, 0.05});
  plan.policy.detectionTimeoutSeconds = 0.01;
  validate::EstimatorOptions opts = pinnedOptions(6);
  opts.directions = 8;
  fault::DegradedOptions dopts;
  dopts.generations = 40;
  dopts.explicitDirections = true;
  const fault::DegradedEstimate est =
      fault::estimateDegradedRadius(ref, {plan}, opts, dopts);
  ASSERT_TRUE(est.nominalSatisfies);
  expectPinned(kPinned[6], est.degraded);
}

TEST(PolishLiveCounter, EndsEqualToTheEstimatorsCount) {
  // Chunks add their counts as they finish and the polish adds its own
  // after every sweep, so the live counter ends at the full total.
  const fepia::radius::FepiaProblem problem = ft::makeLinearInstance(1, 5);
  std::atomic<std::uint64_t> live{0};
  validate::EstimatorOptions opts = pinnedOptions(15);
  opts.liveClassifications = &live;
  parallel::ThreadPool pool(2);
  const validate::EmpiricalEstimate est = validate::estimateEmpiricalRadius(
      problem.features(), originOf(problem), opts, &pool);
  EXPECT_EQ(live.load(), est.classifications);

  std::atomic<std::uint64_t> chunksOnly{0};
  opts.liveClassifications = &chunksOnly;
  opts.polishSweeps = 0;
  (void)validate::estimateEmpiricalRadius(problem.features(),
                                          originOf(problem), opts, &pool);
  EXPECT_GT(live.load(), chunksOnly.load()) << "the polish went uncounted";
}

namespace {

/// Over the nonnegative quadrant of R^2: the boundary lies at distance
/// 2 + angle from the x0 axis, except in a narrow spike around that axis
/// where it lies at 0.5. When `throwing`, the spike is undefined beyond
/// 1.5. A march along the spike meets its first violation at 0.977, so
/// only a probe past it can throw, which the per-ray loop never makes.
struct SpikeRegion {
  bool throwing = false;
  bool operator()(const la::Vector& x) const {
    const double r = std::hypot(x[0], x[1]);
    const double angle = std::atan2(x[1], x[0]);
    if (angle < 0.02) {
      if (throwing && r > 1.5) {
        throw std::domain_error("spike region: undefined beyond 1.5");
      }
      return r < 0.5;
    }
    return r < 2.0 + angle;
  }
};

}  // namespace

TEST(PolishSpeculation, AThrowPastTheFirstViolationIsReplayedAway) {
  validate::EstimatorOptions opts = pinnedOptions(7);
  opts.directions = 8;
  opts.nonnegativeDirections = true;
  const la::Vector origin{0.0, 0.0};
  const validate::EmpiricalEstimate plain = validate::estimateEmpiricalRadius(
      validate::SafePredicate(SpikeRegion{false}), origin, opts);
  // The sample misses the spike and the polish walks into it, where the
  // incumbent (above 2) puts march probes past 1.5 in the spike's block.
  ASSERT_GT(plain.distanceSummary.min, 2.0);
  ASSERT_NEAR(plain.radius, 0.5, 1e-12);

  const validate::EmpiricalEstimate throwing =
      validate::estimateEmpiricalRadius(
          validate::SafePredicate(SpikeRegion{true}), origin, opts);
  EXPECT_EQ(bits(throwing.radius), bits(plain.radius));
  EXPECT_EQ(bits(throwing.ci.lo), bits(plain.ci.lo));
  EXPECT_EQ(bits(throwing.ci.hi), bits(plain.ci.hi));
  ASSERT_EQ(throwing.distances.size(), plain.distances.size());
  for (std::size_t i = 0; i < plain.distances.size(); ++i) {
    EXPECT_EQ(bits(throwing.distances[i]), bits(plain.distances[i])) << i;
  }
  // The thrown block's lanes count, and so do the replayed probes.
  EXPECT_GT(throwing.classifications, plain.classifications);
}
