#include "core/slo.h"

#include <algorithm>
#include <cmath>

namespace roar::core {

const char* class_name(QueryClass c) {
  switch (c) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kBatch:
      return "batch";
    case QueryClass::kScavenger:
      return "scavenger";
  }
  return "?";
}

SloContract SloContract::standard() {
  SloContract c;
  c.of(QueryClass::kInteractive) = {1.0, 0.05, 0.05};
  c.of(QueryClass::kBatch) = {4.0, 0.15, 0.10};
  c.of(QueryClass::kScavenger) = {15.0, 0.50, 0.25};
  return c;
}

size_t spang_queue_bound(double service_rate_per_s, double target_delay_s,
                         uint64_t n_sources, size_t min_cap,
                         size_t max_cap) {
  double sources = static_cast<double>(std::max<uint64_t>(1, n_sources));
  double bdp = std::max(0.0, service_rate_per_s) *
               std::max(0.0, target_delay_s) / std::sqrt(sources);
  auto cap = static_cast<size_t>(std::llround(std::ceil(bdp)));
  return std::clamp(cap, min_cap, max_cap);
}

double spang_delay_bound(double target_delay_s, uint64_t n_sources) {
  double sources = static_cast<double>(std::max<uint64_t>(1, n_sources));
  return 0.5 * std::max(0.0, target_delay_s) / std::sqrt(sources);
}

AdmissionController::AdmissionController(AdmissionParams params)
    : params_(params) {
  if (params_.inflight_cap == 0) params_.inflight_cap = 1;
  if (params_.resume_frac <= 0.0 || params_.resume_frac > 1.0) {
    params_.resume_frac = 0.75;
  }
}

size_t AdmissionController::threshold(QueryClass c) const {
  double frac = std::clamp(params_.class_frac[class_index(c)], 0.0, 1.0);
  auto t = static_cast<size_t>(
      static_cast<double>(params_.inflight_cap) * frac);
  return std::max<size_t>(1, t);
}

bool AdmissionController::admit(QueryClass c, size_t inflight) {
  size_t i = class_index(c);
  ClassStats& st = stats_[i];
  ++st.offered;
  size_t limit = threshold(c);
  if (shedding_[i]) {
    // Hysteresis: stay shedding until the queue genuinely drained below
    // resume_frac × threshold, not merely dipped one slot under it.
    auto resume = static_cast<size_t>(
        params_.resume_frac * static_cast<double>(limit));
    if (inflight >= resume) {
      ++st.shed;
      return false;
    }
    shedding_[i] = false;
  }
  if (inflight >= limit) {
    shedding_[i] = true;
    ++st.shed;
    return false;
  }
  ++st.admitted;
  return true;
}

uint64_t AdmissionController::total_offered() const {
  uint64_t n = 0;
  for (const auto& st : stats_) n += st.offered;
  return n;
}

uint64_t AdmissionController::total_shed() const {
  uint64_t n = 0;
  for (const auto& st : stats_) n += st.shed;
  return n;
}

ResolvedSlo resolve_slo(const SloSpec& spec, double capacity_qps,
                        uint32_t frontends) {
  ResolvedSlo r;
  const ClassContract& tight = spec.contract.of(QueryClass::kInteractive);
  r.target_p99_s = tight.target_p99_s;
  uint32_t f = std::max<uint32_t>(1, frontends);
  r.admission = spec.admission;
  r.admission.inflight_cap =
      spec.frontend_inflight_cap != 0
          ? spec.frontend_inflight_cap
          : spang_queue_bound(capacity_qps / f, tight.target_p99_s, f,
                              /*min_cap=*/8);
  r.node_max_backlog_s = spec.node_max_backlog_s > 0
                             ? spec.node_max_backlog_s
                             : spang_delay_bound(tight.target_p99_s, f);
  return r;
}

}  // namespace roar::core
