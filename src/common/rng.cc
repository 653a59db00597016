#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace roar {
namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

uint64_t subseed(uint64_t base, SeedStream stream) {
  return subseed(base, static_cast<uint64_t>(stream));
}

uint64_t subseed(uint64_t base, uint64_t salt) {
  // Mix the stream tag in before running splitmix64 twice: adjacent base
  // seeds and adjacent streams land in unrelated parts of the sequence.
  uint64_t x = base ^ (salt * 0xD1B54A32D192ED03ull);
  splitmix64(x);
  return splitmix64(x);
}

uint64_t Rng::next_below(uint64_t bound) {
  // Lemire's debiased multiply-shift would need 128-bit; rejection sampling
  // on the top bits is simple and unbiased.
  uint64_t mask = bound - 1;
  mask |= mask >> 1;
  mask |= mask >> 2;
  mask |= mask >> 4;
  mask |= mask >> 8;
  mask |= mask >> 16;
  mask |= mask >> 32;
  uint64_t v;
  do {
    v = next_u64() & mask;
  } while (v >= bound);
  return v;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_exponential(double rate) {
  double u;
  do {
    u = next_double();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

double Rng::next_normal() {
  double u1;
  do {
    u1 = next_double();
  } while (u1 == 0.0);
  double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::next_normal_truncated(double mean, double stddev, double lo) {
  for (int i = 0; i < 256; ++i) {
    double v = mean + stddev * next_normal();
    if (v >= lo) return v;
  }
  return lo;
}

Rng Rng::fork() {
  return Rng(next_u64());
}

ZipfGenerator::ZipfGenerator(uint64_t n, double s) : n_(n) {
  cdf_.reserve(n);
  double sum = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
  for (auto& c : cdf_) c /= sum;
}

uint64_t ZipfGenerator::next(Rng& rng) const {
  double u = rng.next_double();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

}  // namespace roar
