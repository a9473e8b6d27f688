// Seeded ksw.query/v1 request stream for the serve and fleet workloads.
//
// A universe of analytic-kernel tuples (first_stage with distributions up
// to 2048 terms, later_stages, closed_form, total_delay) is drawn from the
// seed; request i picks a tuple by Zipf popularity over the tuple index,
// except for a planted share of malformed lines. Each tuple copies the
// traffic shape (k, bulk, q, service, stages) of one point of
// manifests/paper.json, chosen by the tuple index alone, and draws its
// load from the seed, with traffic intensity rho in [kMinRho, kMaxRho], so
// a valid request never meets the saturated-load `numeric` guard. Request i is a pure function of (seed, i): the same
// seed always yields the same stream bytes, and the generator keeps
// duplicates within a batch (no dedupe).
//
// The constants below are assumptions, not measurements of real traffic:
// no recorded query log exists to fit them to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Load range: from the manifest's lightest point (rho = 0.2) up to a
/// ceiling above its heaviest (0.8) and below saturation.
inline constexpr double kMinRho = 0.2;
inline constexpr double kMaxRho = 0.95;
/// Distinct valid tuples: enough that their results exceed the 64 MB
/// cache, so LRU eviction runs.
inline constexpr std::size_t kUniverse = 16384;
inline constexpr double kZipfExponent = 0.9;     ///< popularity over ranks
inline constexpr double kMalformedShare = 0.01;  ///< planted malformed lines

class QueryGen {
 public:
  explicit QueryGen(std::uint64_t seed);

  /// Request line `index` (no trailing newline); its id is `index`.
  [[nodiscard]] std::string line(std::uint64_t index) const;
  /// Whether request `index` is one of the planted malformed lines.
  [[nodiscard]] bool malformed(std::uint64_t index) const;
  /// The universe tuple request `index` asks for (valid requests only).
  [[nodiscard]] std::size_t tuple_of(std::uint64_t index) const;
  /// Request line for universe tuple `tuple` with the given id.
  [[nodiscard]] std::string tuple_line(std::size_t tuple,
                                       std::uint64_t id) const;
  /// Lines [first, first + count) joined with newlines (trailing one too).
  [[nodiscard]] std::string block(std::uint64_t first,
                                  std::size_t count) const;

  [[nodiscard]] std::size_t universe() const noexcept {
    return params_.size();
  }

 private:
  [[nodiscard]] std::uint64_t draw(std::uint64_t index,
                                   std::uint64_t salt) const noexcept;

  std::uint64_t seed_;
  std::vector<std::string> params_;  ///< "kernel":..,"params":{..} bodies
  std::vector<double> zipf_cdf_;     ///< over popularity ranks
};

}  // namespace perfbench
