#include "pps/numeric_scheme.h"

namespace roar::pps {

std::vector<int64_t> exponential_reference_points(int64_t max_value) {
  std::vector<int64_t> pts;
  for (int64_t base = 1; base <= max_value; base *= 10) {
    for (int64_t k = 1; k <= 9; ++k) {
      int64_t v = base * k;
      if (v > max_value) break;
      pts.push_back(v);
    }
  }
  if (pts.empty() || pts.back() != max_value) pts.push_back(max_value);
  return pts;
}

std::vector<int64_t> linear_reference_points(int64_t lo, int64_t hi,
                                             size_t count) {
  std::vector<int64_t> pts;
  if (count == 0) return pts;
  pts.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double f = count == 1 ? 0.0
                          : static_cast<double>(i) /
                                static_cast<double>(count - 1);
    pts.push_back(lo + static_cast<int64_t>(
                           f * static_cast<double>(hi - lo)));
  }
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  return pts;
}

std::vector<std::string> inequality_words(
    int64_t value, const std::vector<int64_t>& reference_points) {
  std::vector<std::string> words;
  words.reserve(reference_points.size());
  for (int64_t p : reference_points) {
    // Values equal to a reference point are "not greater, not less": skip,
    // matching the paper's strict comparisons.
    if (value == p) continue;
    std::string word = value > p ? ">" : "<";
    word += std::to_string(p);
    words.push_back(std::move(word));
  }
  return words;
}

std::string inequality_query_word(IneqType type, int64_t value,
                                  const std::vector<int64_t>& reference_points,
                                  int64_t* chosen) {
  int64_t best = reference_points.front();
  int64_t best_dist = std::numeric_limits<int64_t>::max();
  for (int64_t p : reference_points) {
    int64_t d = std::llabs(value - p);
    if (d < best_dist) {
      best_dist = d;
      best = p;
    }
  }
  if (chosen != nullptr) *chosen = best;
  std::string word = type == IneqType::kGreater ? ">" : "<";
  word += std::to_string(best);
  return word;
}

int64_t DomainPartition::subset_of(int64_t v) const {
  // Subsets are [offset + s*width, offset + (s+1)*width). Values before the
  // first offset fall in subset -1's clamped remainder; use floor division.
  int64_t shifted = v - lo - offset;
  int64_t s = shifted >= 0 ? shifted / width : (shifted - width + 1) / width;
  return s;
}

void DomainPartition::subset_bounds(int64_t s, int64_t* a, int64_t* b) const {
  int64_t start = lo + offset + s * width;
  int64_t end = start + width - 1;
  *a = std::max(start, lo);
  *b = std::min(end, hi);
}

std::vector<DomainPartition> dyadic_partitions(int64_t lo, int64_t hi,
                                               int64_t min_width,
                                               size_t levels) {
  std::vector<DomainPartition> ps;
  int64_t width = min_width;
  for (size_t l = 0; l < levels; ++l) {
    ps.push_back(DomainPartition{lo, hi, width, 0});
    if (width > 1) {
      ps.push_back(DomainPartition{lo, hi, width, -width / 2});
    }
    if (width > (hi - lo)) break;
    width *= 2;
  }
  return ps;
}

std::vector<std::string> range_words(int64_t value,
                                     const std::vector<DomainPartition>& ps) {
  std::vector<std::string> words;
  words.reserve(ps.size());
  for (size_t x = 0; x < ps.size(); ++x) {
    int64_t y = ps[x].subset_of(value);
    words.push_back(std::to_string(x) + "," + std::to_string(y));
  }
  return words;
}

std::string range_query_word(int64_t lb, int64_t ub,
                             const std::vector<DomainPartition>& ps,
                             int64_t* out_a, int64_t* out_b) {
  size_t best_x = 0;
  int64_t best_y = 0;
  int64_t best_err = std::numeric_limits<int64_t>::max();
  int64_t best_a = 0, best_b = 0;
  for (size_t x = 0; x < ps.size(); ++x) {
    // Candidate subsets: those containing lb, ub, and the midpoint.
    int64_t mid = lb + (ub - lb) / 2;
    for (int64_t v : {lb, mid, ub}) {
      int64_t y = ps[x].subset_of(v);
      int64_t a, b;
      ps[x].subset_bounds(y, &a, &b);
      int64_t err = std::llabs(lb - a) + std::llabs(ub - b);
      if (err < best_err) {
        best_err = err;
        best_x = x;
        best_y = y;
        best_a = a;
        best_b = b;
      }
    }
  }
  if (out_a != nullptr) *out_a = best_a;
  if (out_b != nullptr) *out_b = best_b;
  return std::to_string(best_x) + "," + std::to_string(best_y);
}

namespace {
constexpr uint32_t kRankBuckets[] = {1, 5, 10, 25};
}

std::span<const uint32_t> rank_buckets() {
  return std::span<const uint32_t>(kRankBuckets, 4);
}

std::vector<std::string> ranked_words(
    std::span<const std::string> ordered_keywords) {
  std::vector<std::string> words;
  for (size_t k = 0; k < ordered_keywords.size(); ++k) {
    words.push_back(ordered_keywords[k]);  // plain keyword matching
    for (uint32_t bucket : kRankBuckets) {
      if (k < bucket) {
        words.push_back("top" + std::to_string(bucket) + "|" +
                        ordered_keywords[k]);
      }
    }
  }
  return words;
}

std::string ranked_query_word(std::string_view keyword, uint32_t bucket) {
  return "top" + std::to_string(bucket) + "|" + std::string(keyword);
}

}  // namespace roar::pps
