#include "repack/elastic.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/log.hpp"

namespace dynmo::repack {

int MockEckCluster::patch_pod(const PatchRequest& req) {
  std::scoped_lock lock(mu_);
  if (req.gpus_requested < 0 || req.gpus_requested != req.gpus_limit) {
    return 422;  // unprocessable: requests/limits must agree for GPUs
  }
  auto it = allocated_.find(req.pod);
  if (it == allocated_.end()) {
    // First PATCH establishes this pod's baseline claim (admission is the
    // scheduler's job — see the class comment).
    allocated_.emplace(req.pod, req.gpus_requested);
    patches_.push_back(req);
    return 200;
  }
  // Resizes are priced as a per-pod delta under the lock, so concurrent
  // grow claims from different pods can never sum past what is free.
  if (req.gpus_requested > it->second + free_gpus_) {
    return 409;  // conflict: cannot grow beyond what's free
  }
  const int delta = it->second - req.gpus_requested;
  it->second = req.gpus_requested;
  free_gpus_ += delta;
  patches_.push_back(req);
  DYNMO_LOG(Info) << "ECK: pod " << req.pod << " resized to "
                  << req.gpus_requested << " GPUs; " << free_gpus_
                  << " free for pending jobs";
  return 200;
}

int MockEckCluster::free_gpus() const {
  std::scoped_lock lock(mu_);
  return free_gpus_;
}

int MockEckCluster::schedule_pending_job(int wanted) {
  std::scoped_lock lock(mu_);
  const int granted = std::min(wanted, free_gpus_);
  free_gpus_ -= granted;
  return granted;
}

JobManagerClient::JobManagerClient(ControlPlane* cluster,
                                   std::string pod_name, int initial_gpus)
    : cluster_(cluster), pod_(std::move(pod_name)), claimed_(initial_gpus) {
  DYNMO_CHECK(cluster_ != nullptr, "null cluster");
  PatchRequest req{pod_, initial_gpus, initial_gpus};
  const int status = cluster_->patch_pod(req);
  DYNMO_CHECK(status == 200, "initial GPU claim rejected: " << status);
}

bool JobManagerClient::resize_gpu_claim(int gpus) {
  PatchRequest req{pod_, gpus, gpus};
  const int status = cluster_->patch_pod(req);
  if (status != 200) {
    DYNMO_LOG(Warn) << "PATCH rejected with status " << status;
    return false;
  }
  claimed_ = gpus;
  return true;
}

}  // namespace dynmo::repack
