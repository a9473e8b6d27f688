// Output checks shared by the workloads and the self-check tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gen.hpp"
#include "sim/network.hpp"
#include "sweep/emit.hpp"

namespace perfbench {

/// The committed book: docs/REPRODUCTION.md and every file under
/// docs/reproduction/, keyed by repository-relative path.
using CommittedBook = std::map<std::string, std::string>;
[[nodiscard]] CommittedBook load_committed_book(const std::string& root);

/// Byte comparison of rendered book artifacts against the committed book.
/// Each artifact is one op; a missing or differing file fails.
struct BookCheck {
  std::uint64_t compared = 0;
  std::uint64_t mismatched = 0;
  std::vector<std::string> drifted;  ///< paths that differ or are missing
};
[[nodiscard]] BookCheck compare_book(
    const std::vector<ksw::sweep::Artifact>& artifacts,
    const CommittedBook& committed);

/// FNV-1a digest of every statistic a simulation returns (stage tallies,
/// histograms, packet counts), so two commits can be compared exactly.
[[nodiscard]] std::uint64_t sim_digest(const ksw::sim::NetworkResults& r);

/// The fields of one ksw.query/v1 response line the checks need.
struct Response {
  bool parsed = false;
  bool has_id = false;
  std::int64_t id = 0;
  bool ok = false;
  bool cached = false;
  std::string kind;         ///< error.kind when !ok
  std::string_view result;  ///< raw result bytes when ok
};
[[nodiscard]] Response parse_response(std::string_view line);

/// Checks a response stream against the generator that produced the
/// requests. A request fails when its response is out of order, errors
/// on a valid line (overload included), succeeds on a planted malformed
/// line or errors with another kind than "usage", or carries result
/// bytes that differ from an earlier response for the same canonical key.
class ResponseChecker {
 public:
  explicit ResponseChecker(const QueryGen& gen, std::uint64_t sample_seed);

  /// Check the response to request `index`; returns false if it failed.
  bool check(std::uint64_t index, std::string_view line);
  /// Re-evaluate up to `count` sampled keys directly with
  /// serve::evaluate_bytes and compare with the served bytes; each
  /// mismatch counts as one failed op. Returns the number compared.
  std::uint64_t verify_sample(std::size_t count);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t valid() const noexcept { return valid_; }
  [[nodiscard]] std::uint64_t overload() const noexcept { return overload_; }
  /// Valid responses marked cached:false although the same key was
  /// requested within the previous kDivergenceWindow requests.
  [[nodiscard]] std::uint64_t divergent() const noexcept {
    return divergent_;
  }
  static constexpr std::uint64_t kDivergenceWindow = 64;

 private:
  /// Canonical cache key of universe tuple `tuple` (memoized).
  [[nodiscard]] const std::string& key_of(std::size_t tuple);
  void fail(std::uint64_t index, const std::string& why);

  const QueryGen& gen_;
  std::uint64_t sample_seed_;
  std::vector<std::string> keys_;  ///< per tuple, "" until computed
  std::unordered_map<std::string, std::uint64_t> result_hash_;
  /// Sampled keys -> (tuple, served bytes), in key order.
  std::map<std::string, std::pair<std::size_t, std::string>> sampled_;
  std::vector<std::int64_t> last_seen_;  ///< per tuple, request index
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t valid_ = 0;
  std::uint64_t overload_ = 0;
  std::uint64_t divergent_ = 0;
  std::uint64_t reported_ = 0;
};

}  // namespace perfbench
