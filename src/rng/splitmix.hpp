// SplitMix64 (Steele, Lea & Flood; the public-domain reference by Vigna):
// the seed mixer behind rng::philox_key and sim::replicate_seed. One step
// turns nearby inputs (seeds 1, 2, 3, replicate indices) into
// decorrelated 64-bit words.
#pragma once

#include <cstdint>

namespace ksw::rng {

class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

}  // namespace ksw::rng
