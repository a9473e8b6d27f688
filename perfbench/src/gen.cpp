#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness.hpp"

namespace perfbench {
namespace {

/// Uniform double in [0, 1) from 53 bits of a mixed word.
double unit(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::string fixed4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// Largest 4-decimal p with p * load <= target (and at least 0.0001).
double p_for(double target_rho, double load) {
  const double p = std::floor(target_rho / load * 1e4) / 1e4;
  return std::clamp(p, 1e-4, 1.0);
}

/// Traffic shape of one point of manifests/paper.json: everything but p,
/// which each tuple redraws for its own load.
struct Shape {
  unsigned k;
  unsigned bulk;
  double q;             ///< favorite-output probability (0 = uniform)
  const char* service;  ///< service spec, as the manifest writes it
  double mean;          ///< mean service time of `service`
};

/// The 24 first_stage points of manifests/paper.json, one entry each, so
/// each section keeps its share of points: uniform (9), bulk (4),
/// favorite-output (3), service (5) and mm1-limit (3, k = s = 1).
constexpr Shape kFirstStage[] = {
    {2, 1, 0.0, "det:1", 1.0},  {2, 1, 0.0, "det:1", 1.0},
    {2, 1, 0.0, "det:1", 1.0},  {4, 1, 0.0, "det:1", 1.0},
    {4, 1, 0.0, "det:1", 1.0},  {4, 1, 0.0, "det:1", 1.0},
    {8, 1, 0.0, "det:1", 1.0},  {8, 1, 0.0, "det:1", 1.0},
    {8, 1, 0.0, "det:1", 1.0},  {2, 2, 0.0, "det:1", 1.0},
    {2, 2, 0.0, "det:1", 1.0},  {2, 4, 0.0, "det:1", 1.0},
    {2, 4, 0.0, "det:1", 1.0},  {2, 1, 0.3, "det:1", 1.0},
    {2, 1, 0.6, "det:1", 1.0},  {4, 1, 0.5, "det:1", 1.0},
    {2, 1, 0.0, "det:4", 4.0},  {2, 1, 0.0, "det:8", 8.0},
    {2, 1, 0.0, "multi:4@0.5,8@0.5", 6.0},
    {2, 1, 0.0, "geo:0.5", 2.0},  {2, 1, 0.0, "geo:0.25", 4.0},
    {1, 1, 0.0, "geo:0.25", 4.0}, {1, 1, 0.0, "geo:0.125", 8.0},
    {1, 1, 0.0, "geo:0.0625", 16.0}};

/// The network points: stage-convergence (3 at k = 2, 8 stages) and
/// stage-convergence-k4 (1 at k = 4, 4 stages) for later_stages;
/// total-delay (3 at det:1, 1 at det:4; k = 2, checkpoints 3, 6, 9) for
/// total_delay.
struct NetworkShape {
  unsigned k;
  unsigned stages;
  const char* service;
  double mean;
};
constexpr NetworkShape kLaterStages[] = {
    {2, 8, "det:1", 1.0}, {2, 8, "det:1", 1.0}, {2, 8, "det:1", 1.0},
    {4, 4, "det:1", 1.0}};
constexpr NetworkShape kTotalDelay[] = {
    {2, 9, "det:1", 1.0}, {2, 9, "det:1", 1.0}, {2, 9, "det:1", 1.0},
    {2, 9, "det:4", 4.0}};

/// first_stage distribution length of tuple u: none for a quarter of them,
/// else spread evenly over [256, 2048], so cold evaluation times (which
/// grow with the square of the length) form a smooth range rather than a
/// few fixed values that would make the latency tail lumpy.
unsigned dist_length(std::size_t u) {
  if ((u / 10) % 4 == 0) return 0;
  return 256 + static_cast<unsigned>((u / 10) * 797 % 1793);
}

template <typename T, std::size_t N>
const T& pick(const T (&table)[N], std::uint64_t draw) {
  return table[draw % N];
}

/// Index of the mixed service in kFirstStage: its section prints no closed
/// form, so closed_form tuples skip it.
constexpr std::size_t kMixedService = 18;
static_assert(kFirstStage[kMixedService].service[0] == 'm');

/// The closed_form body for a first_stage shape (not the mixed service):
/// its section's printed family (uniform, bulk, nonuniform, deterministic
/// or geometric service).
std::string closed_form_body(const Shape& sh, double rho) {
  const std::string head = "\"kernel\":\"closed_form\",\"params\":{"
                           "\"family\":";
  const std::string ks = ",\"k\":" + std::to_string(sh.k);
  const std::string service(sh.service);
  if (sh.q > 0.0)
    return head + "\"nonuniform\"" + ks + ",\"p\":" +
           fixed4(p_for(rho, 1.0)) + ",\"q\":" + fixed4(sh.q) + ",\"b\":1}";
  if (sh.bulk > 1)
    return head + "\"bulk\"" + ks + ",\"p\":" +
           fixed4(p_for(rho, sh.bulk)) + ",\"b\":" +
           std::to_string(sh.bulk) + "}";
  if (service.rfind("geo:", 0) == 0)
    return head + "\"geometric\"" + ks + ",\"p\":" +
           fixed4(p_for(rho, sh.mean)) + ",\"mu\":" + service.substr(4) + "}";
  if (service.rfind("det:", 0) == 0 && sh.mean > 1.0)
    return head + "\"deterministic\"" + ks + ",\"p\":" +
           fixed4(p_for(rho, sh.mean)) + ",\"m\":" + service.substr(4) + "}";
  return head + "\"uniform\"" + ks + ",\"p\":" + fixed4(p_for(rho, 1.0)) +
         "}";
}

/// The "kernel"/"params" body of universe tuple `u`, which is also its
/// popularity rank. The kernel (u mod 10: 4 first_stage, 2 each of the
/// others), the distribution length and the manifest point are functions
/// of u alone, so every seed has the same mix at every popularity; the
/// load is drawn from the seed.
std::string tuple_body(std::uint64_t seed, std::size_t u) {
  const double rho =
      kMinRho + (kMaxRho - kMinRho) *
                    unit(mix64(seed ^ (0x7475706c65ull + u * 0x9e37ull)));
  std::uint64_t state = mix64(0x7368617065ull + u);
  const auto next = [&state] { return state = mix64(state); };
  switch (u % 10) {
    case 0: case 1: case 2: case 3: {
      const Shape& sh = pick(kFirstStage, next());
      return "\"kernel\":\"first_stage\",\"params\":{\"k\":" +
             std::to_string(sh.k) + ",\"p\":" +
             fixed4(p_for(rho, sh.bulk * sh.mean)) + ",\"bulk\":" +
             std::to_string(sh.bulk) +
             (sh.q > 0.0 ? ",\"q\":" + fixed4(sh.q) : std::string()) +
             ",\"service\":\"" + sh.service + "\",\"distribution\":" +
             std::to_string(dist_length(u)) + "}";
    }
    case 4: case 5: {
      const NetworkShape& sh = pick(kLaterStages, next());
      return "\"kernel\":\"later_stages\",\"params\":{\"k\":" +
             std::to_string(sh.k) + ",\"p\":" + fixed4(p_for(rho, sh.mean)) +
             ",\"service\":\"" + sh.service + "\",\"stage\":" +
             std::to_string(1 + next() % sh.stages) + "}";
    }
    case 6: case 7: {
      std::uint64_t draw = next() % (std::size(kFirstStage) - 1);
      if (draw >= kMixedService) ++draw;
      return closed_form_body(kFirstStage[draw], rho);
    }
    default: {
      const NetworkShape& sh = pick(kTotalDelay, next());
      return "\"kernel\":\"total_delay\",\"params\":{\"k\":" +
             std::to_string(sh.k) + ",\"p\":" + fixed4(p_for(rho, sh.mean)) +
             ",\"service\":\"" + sh.service + "\",\"stages\":" +
             std::to_string(sh.stages / 3 * (1 + next() % 3)) +
             ",\"quantiles\":[0.5,0.9,0.99]}";
    }
  }
}

/// Planted malformed lines, one of four kinds; each must be answered with
/// error.kind "usage".
std::string malformed_line(std::uint64_t id, std::uint64_t kind) {
  const std::string head = "{\"id\":" + std::to_string(id) + ",";
  switch (kind % 4) {
    case 0:
      return head + "\"kernel\":\"first_stage\",\"params\":{\"p\":1.5}}";
    case 1:
      return head + "\"kernel\":\"no_such_kernel\"}";
    case 2:
      return head + "\"kernel\":\"later_stages\",\"params\":{\"bogus\":1}}";
    default:
      return head + "\"kernel\":\"first_stage\",\"params\":{";  // truncated
  }
}

}  // namespace

QueryGen::QueryGen(std::uint64_t seed) : seed_(seed) {
  params_.reserve(kUniverse);
  for (std::size_t u = 0; u < kUniverse; ++u)
    params_.push_back(tuple_body(seed_, u));
  zipf_cdf_.resize(kUniverse);
  double total = 0.0;
  for (std::size_t r = 0; r < kUniverse; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    zipf_cdf_[r] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
}

std::uint64_t QueryGen::draw(std::uint64_t index,
                             std::uint64_t salt) const noexcept {
  return mix64(mix64(seed_ + salt) ^ (index * 0xd1342543de82ef95ull));
}

bool QueryGen::malformed(std::uint64_t index) const {
  return unit(draw(index, 1)) < kMalformedShare;
}

std::size_t QueryGen::tuple_of(std::uint64_t index) const {
  const double u = unit(draw(index, 2));
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_cdf_.size() - 1);
}

std::string QueryGen::tuple_line(std::size_t tuple, std::uint64_t id) const {
  return "{\"id\":" + std::to_string(id) + "," + params_[tuple] + "}";
}

std::string QueryGen::line(std::uint64_t index) const {
  if (malformed(index)) return malformed_line(index, draw(index, 3));
  return tuple_line(tuple_of(index), index);
}

std::string QueryGen::block(std::uint64_t first, std::size_t count) const {
  std::string out;
  out.reserve(count * 120);
  for (std::size_t i = 0; i < count; ++i) {
    out += line(first + i);
    out.push_back('\n');
  }
  return out;
}

}  // namespace perfbench
