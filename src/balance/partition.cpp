#include "balance/partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "core/error.hpp"

namespace dynmo::balance {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The exact search's termination and exactness rest on range sums of
/// finite, non-negative values; anything else is rejected up front.
void check_non_negative(std::span<const double> v, const char* what) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    DYNMO_CHECK(std::isfinite(v[i]) && v[i] >= 0.0,
                what << "[" << i << "] = " << v[i]
                     << " is not a finite value >= 0");
  }
}

/// The smallest cap c with `load <= c * k` in floating point: the cap at
/// which a stage of speed k first holds `load` (k == 1 → `load` itself).
double cap_for(double load, double k) {
  if (k == 1.0) return load;
  double c = load / k;
  while (c * k < load) c = std::nextafter(c, kInf);
  for (double d = std::nextafter(c, 0.0); d < c && d * k >= load;
       d = std::nextafter(c, 0.0)) {
    c = d;
  }
  return c;
}

struct Probe {
  std::vector<std::size_t> boundaries;  ///< stages opened, never padded
  bool fits_stages = false;
  bool fits_memory = true;
  double bottleneck = 0.0;  ///< max stage load
  /// The smallest cap that packs the same stages: every multi-layer
  /// stage's load, capacity-normalized.  A single-layer stage packs at any
  /// cap (an empty stage always takes its first layer).
  double tight = 0.0;
  /// The smallest cap above the probed one at which a stage that closed on
  /// load alone would have taken its next layer; kInf if none did.
  double next = kInf;
};

/// Greedy maximal packing: each stage takes layers while staying within the
/// load cap and the memory cap.  Fits when it uses <= num_stages stages.
/// With per-stage capacities, stage s's load budget is cap * caps[s]: for a
/// fixed stage order, filling each stage to its own budget uses the minimum
/// number of stages.  Stage loads are summed left to right, as
/// StageMap::stage_loads does; a range that starts later never sums higher,
/// so the greedy count is exact in floating point too.
///
/// `feasibility_only`: the exact search reads fits_stages, tight and next
/// only, and once the greedy packing has opened more than num_stages stages
/// fits_stages can only stay false — so the probe returns the moment it
/// overflows instead of packing the remaining layers.  Callers needing the
/// full boundaries, bottleneck or fits_memory pass false.
Probe probe_maximal(std::span<const double> w, std::span<const double> mem,
                    double cap, double memcap, int num_stages,
                    std::span<const double> caps,
                    bool feasibility_only = false) {
  Probe r;
  r.boundaries.push_back(0);
  const auto speed = [&](std::size_t s) {
    return caps.empty() ? 1.0 : caps[std::min(s, caps.size() - 1)];
  };
  double load = 0.0;
  double m = 0.0;
  double budget = cap * speed(0);
  const auto close_stage = [&](std::size_t end) {
    r.bottleneck = std::max(r.bottleneck, load);
    if (end - r.boundaries.back() >= 2) {
      r.tight =
          std::max(r.tight, cap_for(load, speed(r.boundaries.size() - 1)));
    }
  };
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double lw = w[i];
    const double lm = mem.empty() ? 0.0 : mem[i];
    const bool stage_empty = (r.boundaries.back() == i);
    const bool over_load = load + lw > budget && !stage_empty;
    const bool over_mem = memcap > 0.0 && m + lm > memcap && !stage_empty;
    if (over_load || over_mem) {
      if (!over_mem) {
        r.next = std::min(
            r.next, cap_for(load + lw, speed(r.boundaries.size() - 1)));
      }
      // About to open another stage: with this push plus the terminal one
      // the final count is at least boundaries.size()+1 > num_stages.
      if (feasibility_only &&
          static_cast<int>(r.boundaries.size()) >= num_stages) {
        r.fits_stages = false;
        return r;
      }
      close_stage(i);
      r.boundaries.push_back(i);
      budget = cap * speed(r.boundaries.size() - 1);
      load = 0.0;
      m = 0.0;
    }
    if (memcap > 0.0 && lm > memcap) r.fits_memory = false;
    load += lw;
    m += lm;
  }
  close_stage(w.size());
  r.boundaries.push_back(w.size());
  r.fits_stages = static_cast<int>(r.boundaries.size()) - 1 <= num_stages;
  return r;
}

/// Balanced greedy: aim each stage at the remaining average, never exceeding
/// `cap`; falls back to nothing if it would burst the stage budget (callers
/// then keep the maximal packing).
std::optional<std::vector<std::size_t>> probe_balanced(
    std::span<const double> w, std::span<const double> mem, double cap,
    double memcap, int num_stages, std::span<const double> caps) {
  std::vector<std::size_t> b;
  b.push_back(0);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  const double caps_total =
      caps.empty() ? static_cast<double>(num_stages)
                   : std::accumulate(caps.begin(), caps.end(), 0.0);
  double remaining = total;
  double caps_left = caps_total;
  std::size_t i = 0;
  for (int s = 0; s < num_stages; ++s) {
    // Capacity-weighted share of the remaining load: a half-speed stage
    // aims at half the average.
    const double my_cap =
        caps.empty() ? 1.0 : caps[static_cast<std::size_t>(s)];
    const double target = remaining * my_cap / std::max(1e-12, caps_left);
    const double load_cap = caps.empty() ? cap : cap * my_cap;
    caps_left -= my_cap;
    double load = 0.0;
    double m = 0.0;
    while (i < w.size()) {
      // Leave at least zero layers for later stages; stop when the stage
      // met its target or would exceed either cap.
      const double lw = w[i];
      const double lm = mem.empty() ? 0.0 : mem[i];
      const bool stage_empty = (b.back() == i);
      if (!stage_empty) {
        if (load + lw > load_cap) break;
        if (memcap > 0.0 && m + lm > memcap) break;
        // Past the target and adding would overshoot more than stopping.
        if (load >= target ||
            std::abs(load + lw - target) > std::abs(load - target)) {
          break;
        }
      }
      load += lw;
      m += lm;
      ++i;
    }
    remaining -= load;
    b.push_back(i);
  }
  if (i != w.size()) return std::nullopt;  // layers left over: infeasible
  return b;
}

/// The exact parametric search (Nicol 1994; Pinar & Aykanat 2004): the
/// smallest cap c >= floor at which the greedy packing fits num_stages.
/// The probe at `hi` must fit.  Each probe snaps the bracket to a cap some
/// packing actually reaches — a fitting probe lowers hi to its tight cap,
/// a failing one raises lo to its next cap — so the search stops on the
/// optimum itself rather than within a tolerance of it.  Adds the probes it
/// runs to `probes`.
double min_fitting_cap(std::span<const double> w, std::span<const double> mem,
                       double memcap, int num_stages,
                       std::span<const double> caps, double hi, int& probes) {
  double max_speed = 1.0;
  double speed_sum = static_cast<double>(num_stages);
  if (!caps.empty()) {
    max_speed = *std::max_element(caps.begin(), caps.end());
    speed_sum = std::accumulate(caps.begin(), caps.end(), 0.0);
  }
  // The heaviest layer lands somewhere, at best on the fastest stage.
  const double floor =
      cap_for(*std::max_element(w.begin(), w.end()), max_speed);
  double lo = floor;
  // First guesses: total work over total capacity, then that plus the
  // heaviest layer — for equal speeds an upper bound on the optimum.
  const double avg = std::accumulate(w.begin(), w.end(), 0.0) / speed_sum;
  double c = avg;
  for (int n = 0; lo < hi; ++n, ++probes) {
    if (n == 1) c = avg + floor;
    if (!(c > lo && c < hi)) c = lo;
    const Probe p = probe_maximal(w, mem, c, memcap, num_stages, caps,
                                  /*feasibility_only=*/true);
    // c lies in [lo, hi), so each probe strictly narrows the bracket.
    if (p.fits_stages) {
      hi = std::max(floor, p.tight);
      DYNMO_CHECK(hi <= c, "fitting probe at cap " << c << " needs " << hi);
    } else {
      lo = p.next;
      DYNMO_CHECK(lo > c, "failing probe at cap " << c << " stops at " << lo);
    }
    c = lo + 0.5 * (hi - lo);
  }
  return hi;
}

}  // namespace

double PartitionBalancer::optimal_bottleneck(std::span<const double> weights,
                                             int num_stages) {
  DYNMO_CHECK(num_stages > 0, "need stages");
  check_non_negative(weights, "layer weight");
  if (weights.empty()) return 0.0;
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  DYNMO_CHECK(std::isfinite(total), "layer weights sum to " << total);
  int probes = 0;
  return min_fitting_cap(weights, {}, 0.0, num_stages, {}, total, probes);
}

int PartitionBalancer::min_stages(std::span<const double> weights,
                                  double cap) {
  DYNMO_CHECK(cap >= 0.0, "stage cap " << cap << " is not >= 0");
  check_non_negative(weights, "layer weight");
  const auto p = probe_maximal(weights, {}, cap, 0.0,
                               std::numeric_limits<int>::max(), {});
  if (p.bottleneck > cap) return std::numeric_limits<int>::max();
  return static_cast<int>(p.boundaries.size()) - 1;
}

PartitionResult PartitionBalancer::balance(const PartitionRequest& req) const {
  DYNMO_CHECK(req.num_stages > 0, "need at least one stage");
  DYNMO_CHECK(!req.weights.empty(), "no layers to balance");
  DYNMO_CHECK(req.memory_bytes.empty() ||
                  req.memory_bytes.size() == req.weights.size(),
              "memory vector size mismatch");
  DYNMO_CHECK(req.capacities.empty() ||
                  req.capacities.size() ==
                      static_cast<std::size_t>(req.num_stages),
              "capacity vector covers " << req.capacities.size()
                                        << " stages, request has "
                                        << req.num_stages);
  check_non_negative(req.weights, "layer weight");
  check_non_negative(req.memory_bytes, "layer memory_bytes");
  for (const double c : req.capacities) {
    DYNMO_CHECK(std::isfinite(c) && c > 0.0,
                "stage capacities must be finite and > 0");
  }

  const std::span<const double> w(req.weights);
  const std::span<const double> mem(req.memory_bytes);
  const std::span<const double> caps(req.capacities);
  const auto L = w.size();
  const auto S = static_cast<std::size_t>(req.num_stages);

  // Everything fits the slowest stage at hi.  The memory constraint can
  // make every cap infeasible even when pure-load packing would fit, so
  // the probes enforce both.
  const double min_cap =
      caps.empty() ? 1.0 : *std::min_element(caps.begin(), caps.end());
  const double hi =
      cap_for(std::accumulate(w.begin(), w.end(), 0.0), min_cap);
  DYNMO_CHECK(std::isfinite(hi),
              "capacity-normalized total load " << hi << " is not finite");
  if (!probe_maximal(w, mem, hi, req.mem_capacity, req.num_stages, caps,
                     /*feasibility_only=*/true)
           .fits_stages) {
    // Memory alone forces more than num_stages stages — report least-bad.
    auto r = probe_maximal(w, mem, hi, req.mem_capacity, req.num_stages, caps);
    r.boundaries.resize(S);
    r.boundaries.push_back(L);
    PartitionResult out;
    out.map = pipeline::StageMap::from_boundaries(std::move(r.boundaries));
    out.memory_feasible = false;
    out.probes = 2;
    const auto loads = out.map.stage_loads(w);
    out.bottleneck = *std::max_element(loads.begin(), loads.end());
    return out;
  }

  // The final probes pack at the optimum plus a 1e-9 relative slack: the
  // recorded goldens and BENCH_*.json pin the maps packed at that cap.
  // Probes so far: the feasibility check above; the final maximal and
  // balanced packings below add two more.
  PartitionResult out;
  out.probes = 3;
  const double cap = min_fitting_cap(w, mem, req.mem_capacity, req.num_stages,
                                     caps, hi, out.probes) *
                     (1.0 + 1e-9);

  auto final_probe = probe_maximal(w, mem, cap, req.mem_capacity,
                                   req.num_stages, caps);
  DYNMO_CHECK(final_probe.fits_stages, "final probe must fit");
  // Pad trailing empty stages so the map always has num_stages entries.
  final_probe.boundaries.resize(S + 1, L);

  // Prefer the balanced variant when it matches the optimal bottleneck —
  // it avoids front-loaded stages with empty tails.
  std::vector<std::size_t> boundaries = final_probe.boundaries;
  if (auto balanced = probe_balanced(w, mem, cap, req.mem_capacity,
                                     req.num_stages, caps)) {
    boundaries = std::move(*balanced);
  }

  out.map = pipeline::StageMap::from_boundaries(std::move(boundaries));
  out.memory_feasible = final_probe.fits_memory;
  const auto loads = out.map.stage_loads(w);
  out.bottleneck = *std::max_element(loads.begin(), loads.end());
  return out;
}

}  // namespace dynmo::balance
