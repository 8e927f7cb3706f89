#include "balance/incremental.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace dynmo::balance {

// ------------------------------------------------------------- MaxTree

void MaxTree::reset(std::span<const double> values) {
  n_ = values.size();
  cap_ = 1;
  while (cap_ < std::max<std::size_t>(n_, 1)) cap_ <<= 1;
  val_.assign(2 * cap_, -std::numeric_limits<double>::infinity());
  idx_.assign(2 * cap_, 0);
  for (std::size_t i = 0; i < cap_; ++i) {
    if (i < n_) val_[cap_ + i] = values[i];
    idx_[cap_ + i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t node = cap_ - 1; node >= 1; --node) pull(node);
}

void MaxTree::pull(std::size_t node) {
  const std::size_t l = 2 * node;
  const std::size_t r = 2 * node + 1;
  // Left wins ties → the root's argmax is the *first* maximal leaf, the
  // element std::max_element returns.
  if (val_[r] > val_[l]) {
    val_[node] = val_[r];
    idx_[node] = idx_[r];
  } else {
    val_[node] = val_[l];
    idx_[node] = idx_[l];
  }
}

void MaxTree::set(std::size_t i, double v) {
  DYNMO_CHECK(i < n_, "MaxTree index " << i << " out of range " << n_);
  std::size_t node = cap_ + i;
  val_[node] = v;
  for (node /= 2; node >= 1; node /= 2) pull(node);
}

double MaxTree::get(std::size_t i) const {
  DYNMO_CHECK(i < n_, "MaxTree index " << i << " out of range " << n_);
  return val_[cap_ + i];
}

double MaxTree::max_value() const {
  DYNMO_CHECK(n_ > 0, "max of empty MaxTree");
  return val_[1];
}

std::size_t MaxTree::argmax() const {
  DYNMO_CHECK(n_ > 0, "argmax of empty MaxTree");
  return idx_[1];
}

std::size_t MaxTree::memory_bytes() const {
  return val_.capacity() * sizeof(double) +
         idx_.capacity() * sizeof(std::uint32_t);
}

// --------------------------------------------------------- CostSurface

double CostSurface::norm_w(std::size_t s) const {
  if (caps_.empty()) return sum_w_[s];
  return sum_w_[s] / std::max(1e-12, caps_[s]);
}

double CostSurface::norm_t(std::size_t s) const {
  if (caps_.empty()) return sum_t_[s];
  return sum_t_[s] / std::max(1e-12, caps_[s]);
}

void CostSurface::recompute_stage(std::size_t s,
                                  const std::vector<std::size_t>& b) {
  double acc_w = 0.0;
  double acc_t = 0.0;
  for (std::size_t l = b[s]; l < b[s + 1]; ++l) {
    acc_w += w_[l];
    acc_t += t_[l];
  }
  sum_w_[s] = acc_w;
  sum_t_[s] = acc_t;
  tree_w_.set(s, norm_w(s));
  tree_t_.set(s, norm_t(s));
}

void CostSurface::reset(const pipeline::StageMap& map,
                        std::span<const double> weights,
                        std::span<const double> time_s,
                        std::span<const double> mem_bytes,
                        std::span<const double> capacities) {
  DYNMO_CHECK(map.num_stages() > 0, "CostSurface needs a non-empty map");
  DYNMO_CHECK(weights.size() == map.num_layers() &&
                  time_s.size() == map.num_layers() &&
                  mem_bytes.size() == map.num_layers(),
              "per-layer vectors must cover the map's layers");
  DYNMO_CHECK(capacities.empty() ||
                  capacities.size() ==
                      static_cast<std::size_t>(map.num_stages()),
              "capacity vector covers " << capacities.size()
                                        << " stages, map has "
                                        << map.num_stages());
  overlay_ = false;
  undo_.clear();
  map_ = map;
  w_.assign(weights.begin(), weights.end());
  t_.assign(time_s.begin(), time_s.end());
  m_.assign(mem_bytes.begin(), mem_bytes.end());
  caps_.assign(capacities.begin(), capacities.end());
  // Same left-to-right per-stage summation as StageMap::stage_loads.
  sum_w_ = map_.stage_loads(w_);
  sum_t_ = map_.stage_loads(t_);
  const std::size_t S = sum_w_.size();
  std::vector<double> nw(S), nt(S);
  for (std::size_t s = 0; s < S; ++s) {
    nw[s] = norm_w(s);
    nt[s] = norm_t(s);
  }
  tree_w_.reset(nw);
  tree_t_.reset(nt);
}

std::size_t CostSurface::sync(const pipeline::StageMap& map,
                              std::span<const double> weights,
                              std::span<const double> time_s,
                              std::span<const double> mem_bytes,
                              std::span<const double> capacities) {
  DYNMO_CHECK(!overlay_, "sync() with an uncommitted candidate overlay");
  const bool shape_changed =
      !ready() || !(map_ == map) || w_.size() != weights.size() ||
      caps_.size() != capacities.size() ||
      !std::equal(caps_.begin(), caps_.end(), capacities.begin());
  if (shape_changed) {
    reset(map, weights, time_s, mem_bytes, capacities);
    return static_cast<std::size_t>(map_.num_stages());
  }
  // Same map and capacities: diff the per-layer inputs and re-sum only the
  // stages hosting a changed layer.
  std::vector<bool> touched(static_cast<std::size_t>(map_.num_stages()),
                            false);
  bool any = false;
  for (std::size_t l = 0; l < w_.size(); ++l) {
    if (w_[l] != weights[l] || t_[l] != time_s[l] || m_[l] != mem_bytes[l]) {
      w_[l] = weights[l];
      t_[l] = time_s[l];
      m_[l] = mem_bytes[l];
      touched[static_cast<std::size_t>(map_.stage_of(l))] = true;
      any = true;
    }
  }
  if (!any) return 0;
  std::size_t count = 0;
  const auto& b = map_.boundaries();
  for (std::size_t s = 0; s < touched.size(); ++s) {
    if (!touched[s]) continue;
    recompute_stage(s, b);
    ++count;
  }
  return count;
}

double CostSurface::bottleneck_w_full_rescan() const {
  auto loads = map_.stage_loads(w_);
  if (!caps_.empty()) {
    for (std::size_t s = 0; s < loads.size(); ++s) {
      loads[s] /= std::max(1e-12, caps_[s]);
    }
  }
  return *std::max_element(loads.begin(), loads.end());
}

double CostSurface::bottleneck_t_full_rescan() const {
  auto loads = map_.stage_loads(t_);
  if (!caps_.empty()) {
    for (std::size_t s = 0; s < loads.size(); ++s) {
      loads[s] /= std::max(1e-12, caps_[s]);
    }
  }
  return *std::max_element(loads.begin(), loads.end());
}

SurfaceEval CostSurface::evaluate(const pipeline::StageMap& candidate) {
  DYNMO_CHECK(!overlay_, "evaluate() with an uncommitted candidate overlay");
  DYNMO_CHECK(candidate.num_layers() == map_.num_layers(),
              "candidate covers " << candidate.num_layers()
                                  << " layers, surface has "
                                  << map_.num_layers());
  DYNMO_CHECK(candidate.num_stages() == map_.num_stages(),
              "candidate has " << candidate.num_stages()
                               << " stages, surface has "
                               << map_.num_stages());
  SurfaceEval ev;
  ev.norm_w_before = tree_w_.max_value();
  ev.norm_t_before = tree_t_.max_value();
  ev.plan = plan_migration(map_, candidate, m_);

  const auto& bb = map_.boundaries();
  const auto& ab = candidate.boundaries();
  undo_.clear();
  for (std::size_t s = 0; s + 1 < ab.size(); ++s) {
    if (bb[s] == ab[s] && bb[s + 1] == ab[s + 1]) continue;
    undo_.push_back(Undo{s, sum_w_[s], sum_t_[s]});
    recompute_stage(s, ab);
  }
  ev.touched_stages = undo_.size();
  ev.norm_w_after = tree_w_.max_value();
  ev.norm_t_after = tree_t_.max_value();
  cand_ = candidate;
  overlay_ = true;
  return ev;
}

SurfaceEval CostSurface::evaluate_full_rescan(
    const pipeline::StageMap& candidate) const {
  SurfaceEval ev;
  const auto normalized_max = [&](const pipeline::StageMap& m,
                                  std::span<const double> per_layer) {
    auto loads = m.stage_loads(per_layer);
    if (!caps_.empty()) {
      DYNMO_CHECK(caps_.size() == loads.size(),
                  "capacity vector covers " << caps_.size()
                                            << " stages, map has "
                                            << loads.size());
      for (std::size_t s = 0; s < loads.size(); ++s) {
        loads[s] /= std::max(1e-12, caps_[s]);
      }
    }
    return *std::max_element(loads.begin(), loads.end());
  };
  ev.norm_w_before = normalized_max(map_, w_);
  ev.norm_t_before = normalized_max(map_, t_);
  ev.norm_w_after = normalized_max(candidate, w_);
  ev.norm_t_after = normalized_max(candidate, t_);
  ev.plan = plan_migration_full_rescan(map_, candidate, m_);
  ev.touched_stages = static_cast<std::size_t>(map_.num_stages());
  return ev;
}

void CostSurface::commit() {
  DYNMO_CHECK(overlay_, "commit() without a pending candidate");
  map_ = cand_;
  overlay_ = false;
  undo_.clear();
}

void CostSurface::rollback() {
  DYNMO_CHECK(overlay_, "rollback() without a pending candidate");
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    sum_w_[it->stage] = it->sum_w;
    sum_t_[it->stage] = it->sum_t;
    tree_w_.set(it->stage, norm_w(it->stage));
    tree_t_.set(it->stage, norm_t(it->stage));
  }
  overlay_ = false;
  undo_.clear();
}

std::size_t CostSurface::memory_bytes() const {
  const auto vec = [](const std::vector<double>& v) {
    return v.capacity() * sizeof(double);
  };
  return vec(w_) + vec(t_) + vec(m_) + vec(caps_) + vec(sum_w_) +
         vec(sum_t_) +
         map_.boundaries().capacity() * sizeof(std::size_t) +
         tree_w_.memory_bytes() + tree_t_.memory_bytes();
}

}  // namespace dynmo::balance
