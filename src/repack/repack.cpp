#include "repack/repack.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace dynmo::repack {

FirstFitResult repack_first_fit(std::vector<double> mem_usage,
                                std::vector<std::size_t> num_layers,
                                double max_mem, int target_num_workers) {
  DYNMO_CHECK(mem_usage.size() == num_layers.size(),
              "mem_usage/num_layers size mismatch");
  DYNMO_CHECK(max_mem > 0.0, "max_mem must be positive");
  const int n = static_cast<int>(mem_usage.size());

  FirstFitResult res;
  res.active.assign(mem_usage.size(), true);

  // Paper Algorithm 2, lines 2–14.  (The paper's listing marks `src` as the
  // worker being emptied; transfers carry its layers to `dst`.)
  for (int src = 0; src < n; ++src) {
    for (int dst = src + 1; dst < n; ++dst) {
      const auto isrc = static_cast<std::size_t>(src);
      const auto idst = static_cast<std::size_t>(dst);
      if (!res.active[isrc] || !res.active[idst]) continue;
      const int still_active =
          static_cast<int>(std::count(res.active.begin(), res.active.end(), true));
      if (mem_usage[isrc] + mem_usage[idst] < max_mem &&
          still_active > target_num_workers) {
        res.active[isrc] = false;
        for (std::size_t lyr = 0; lyr < num_layers[isrc]; ++lyr) {
          res.transfers.push_back(Transfer{src, dst, lyr});
        }
        mem_usage[idst] += mem_usage[isrc];
        mem_usage[isrc] = 0.0;
        num_layers[idst] += num_layers[isrc];
        num_layers[isrc] = 0;
        break;  // src is empty; move on to the next src
      }
    }
  }
  res.mem_usage = std::move(mem_usage);
  res.num_layers = std::move(num_layers);
  return res;
}

ContiguousRepackResult repack_contiguous(const ContiguousRepackRequest& req,
                                         int num_workers) {
  DYNMO_CHECK(num_workers > 0, "need at least one worker");
  DYNMO_CHECK(req.mem_capacity > 0.0, "repack needs a memory capacity");
  DYNMO_CHECK(req.fill_fraction > 0.0 && req.fill_fraction <= 1.0,
              "fill fraction must be in (0,1]");

  const double budget = req.mem_capacity * req.fill_fraction;
  const std::span<const double> mem(req.memory_bytes);

  ContiguousRepackResult out;
  std::vector<std::size_t> boundaries;
  boundaries.push_back(0);
  double acc = 0.0;
  for (std::size_t l = 0; l < mem.size(); ++l) {
    const bool stage_empty = boundaries.back() == l;
    if (!stage_empty && acc + mem[l] > budget) {
      boundaries.push_back(l);
      acc = 0.0;
    }
    if (mem[l] > budget) {
      // A single layer over budget can never fit a worker: flag the result
      // (the caller falls back to not repacking).
      out.feasible = false;
    }
    acc += mem[l];
  }
  boundaries.push_back(mem.size());

  int used = static_cast<int>(boundaries.size()) - 1;
  if (used > num_workers) {
    out.feasible = false;
    used = num_workers;  // truncated map below is only advisory
    boundaries.resize(static_cast<std::size_t>(num_workers));
    boundaries.push_back(mem.size());
  }

  // Honor an explicit worker count.  Spreading out (target > memory
  // minimum) is always legal — it only lowers per-worker memory.  Packing
  // tighter than the memory minimum is an OOM (Fig. 4's empty cells).
  if (req.target_workers > 0 && req.target_workers <= num_workers) {
    if (used < req.target_workers) {
      const auto spread =
          pipeline::StageMap::uniform(mem.size(), req.target_workers);
      boundaries.assign(spread.boundaries().begin(),
                        spread.boundaries().end());
      used = req.target_workers;
    } else if (used > req.target_workers) {
      out.feasible = false;
    }
  }

  while (static_cast<int>(boundaries.size()) - 1 < num_workers) {
    boundaries.push_back(mem.size());
  }
  out.map = pipeline::StageMap::from_boundaries(std::move(boundaries));
  out.active_workers = used;
  return out;
}

ContiguousRepackResult repack_contiguous(const ContiguousRepackRequest& req,
                                         int num_workers,
                                         const cluster::Deployment& deployment) {
  DYNMO_CHECK(num_workers <= deployment.num_stages(),
              num_workers << " workers but the deployment has "
                          << deployment.num_stages() << " stages");
  // Worker w → node hosting deployment stage w.
  std::vector<int> node_of(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    node_of[static_cast<std::size_t>(w)] = deployment.node(w);
  }
  ContiguousRepackResult res = repack_contiguous(req, num_workers);

  const auto count_freed = [&](int active) {
    // A node is newly freed when it hosts workers only in [active,
    // num_workers) — workers at or beyond num_workers were free already.
    int freed = 0;
    std::vector<int> nodes(node_of.begin(), node_of.end());
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (int n : nodes) {
      bool any_released = false;
      bool any_kept = false;
      for (int w = 0; w < num_workers; ++w) {
        if (node_of[static_cast<std::size_t>(w)] != n) continue;
        (w >= active ? any_released : any_kept) = true;
      }
      if (any_released && !any_kept) ++freed;
    }
    return freed;
  };

  // An explicit target is a contract (forced Fig-4 sweeps): deliver it
  // exactly; snapping only applies when the packer chose the count.
  if (!res.feasible || res.active_workers >= num_workers ||
      req.target_workers > 0) {
    res.whole_nodes_freed = count_freed(res.active_workers);
    return res;
  }

  // Snap the survivor count up to the next node boundary (the first worker
  // of each node's contiguous run), provided a whole node is still freed.
  int snapped = res.active_workers;
  while (snapped < num_workers &&
         node_of[static_cast<std::size_t>(snapped)] ==
             node_of[static_cast<std::size_t>(snapped - 1)]) {
    ++snapped;
  }
  if (snapped != res.active_workers && count_freed(snapped) > 0) {
    ContiguousRepackRequest spread = req;
    spread.target_workers = snapped;
    res = repack_contiguous(spread, num_workers);
  }
  res.whole_nodes_freed = count_freed(res.active_workers);
  return res;
}

}  // namespace dynmo::repack
