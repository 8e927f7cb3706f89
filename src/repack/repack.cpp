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

int node_aligned_workers(const cluster::Deployment& deployment, int survivors,
                         int workers) {
  DYNMO_CHECK(survivors > 0 && workers <= deployment.num_stages(),
              "cannot align " << survivors << " of " << workers
                              << " workers on a deployment of "
                              << deployment.num_stages() << " stages");
  int snapped = survivors;
  while (snapped < workers &&
         deployment.node(snapped) == deployment.node(snapped - 1)) {
    ++snapped;
  }
  return snapped < workers ? snapped : survivors;
}

}  // namespace dynmo::repack
