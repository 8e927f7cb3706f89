// Elastic resource management (paper §3.4.2).
//
// After re-packing, released GPUs must (a) be fenced off from the training
// communicator — the threaded runtime does it with Communicator::split, the
// ncclCommSplit() analogue — and (b) be returned to the cluster manager.  The paper
// integrates with ECK (Elastic Cloud on Kubernetes) by PATCHing the pod
// spec's resource requests/limits; JobManagerClient reproduces that
// handshake against a ControlPlane — an in-process mock API server
// (MockEckCluster) or the multi-tenant fleet::Arbiter (docs/FLEET.md) —
// so the full release state machine is exercised either way.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dynmo::repack {

/// One PATCH request as the Kubernetes API server would see it.
struct PatchRequest {
  std::string pod;
  int gpus_requested = 0;  ///< new resources.requests["nvidia.com/gpu"]
  int gpus_limit = 0;      ///< new resources.limits["nvidia.com/gpu"]
};

/// The GPU control plane a job PATCHes its claim against.  Implementations:
/// MockEckCluster (below, the degenerate trust-every-baseline backend) and
/// fleet::Arbiter (priorities + fairness + preemption across N jobs).
///
/// Contract every implementation must keep:
///   - `patch_pod` returns an HTTP-ish status: 200 granted, 409 conflict
///     (the grow lost a race or was denied by policy — the claimant stays
///     on its current footprint), 422 malformed.
///   - The first PATCH a pod issues establishes its baseline claim;
///     admission control for baselines is the control plane's business.
///   - Shrinking PATCHes always succeed (releasing capacity is never
///     refused); the released GPUs become visible through `free_gpus()`.
///   - Grants are atomic: concurrent grow claims can never sum past the
///     capacity that was actually free.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;

  /// Handle a PATCH; returns HTTP-ish status code (200 on success).
  virtual int patch_pod(const PatchRequest& req) = 0;

  /// GPUs not currently claimed by any pod (schedulable capacity).
  virtual int free_gpus() const = 0;
};

/// In-process stand-in for the ECK-managed Kubernetes control plane.
/// Tracks one claim per pod name; freed GPUs become schedulable for
/// "pending jobs" (a counter here).  Baseline claims (a pod's first PATCH)
/// are trusted unconditionally — admission is the scheduler's job, and
/// this mock has none; the fleet::Arbiter is the backend that does.
class MockEckCluster : public ControlPlane {
 public:
  int patch_pod(const PatchRequest& req) override;

  int free_gpus() const override;
  const std::vector<PatchRequest>& patches() const { return patches_; }

  /// A pending job grabs up to n GPUs; returns how many it got.
  int schedule_pending_job(int wanted);

 private:
  mutable std::mutex mu_;
  std::vector<PatchRequest> patches_;
  std::map<std::string, int> allocated_;  ///< current claim per pod
  int free_gpus_ = 0;
};

class JobManagerClient {
 public:
  JobManagerClient(ControlPlane* cluster, std::string pod_name,
                   int initial_gpus);

  /// Resize this pod's GPU claim to `gpus`, in either direction: released
  /// GPUs go back to the cluster queue, a grow claims from it (the API
  /// server rejects a PATCH past what is free — another pending job may
  /// have scheduled onto the capacity first).  Returns false if the PATCH
  /// was rejected.
  bool resize_gpu_claim(int gpus);

  int claimed_gpus() const { return claimed_; }
  const std::string& pod() const { return pod_; }

 private:
  ControlPlane* cluster_;
  std::string pod_;
  int claimed_;
};

}  // namespace dynmo::repack
