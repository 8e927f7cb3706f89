#include "fleet/arbiter.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace dynmo::fleet {

namespace {

/// Victim candidates are examined lowest priority class first; within a
/// class, submission order (deterministic, like every fleet tie-break).
struct VictimOrder {
  int priority;
  int idx;
  bool operator<(const VictimOrder& o) const {
    if (priority != o.priority) return priority < o.priority;
    return idx < o.idx;
  }
};

/// One planned forced shrink of a preemption, priced before execution.
struct PlannedShrink {
  int victim = -1;
  int target = 0;
  int take = 0;
  runtime::TransitionQuote quote;
};

}  // namespace

Arbiter::Arbiter(ArbiterConfig cfg)
    : cfg_(std::move(cfg)), free_pool_(cfg_.total_gpus) {
  DYNMO_CHECK(cfg_.total_gpus > 0,
              "fleet pool needs at least one GPU, got " << cfg_.total_gpus);
}

Arbiter::~Arbiter() = default;

void Arbiter::submit(JobSpec spec) {
  DYNMO_CHECK(!ran_, "submit() after run()");
  DYNMO_CHECK(!spec.name.empty(), "job needs a pod name");
  for (const Job& j : jobs_) {
    DYNMO_CHECK(j.spec.name != spec.name,
                "duplicate job name '" << spec.name << "'");
  }
  DYNMO_CHECK(spec.weight > 0.0, "job '" << spec.name
                                         << "' has non-positive weight");
  DYNMO_CHECK(spec.min_gpus >= 1 && spec.max_gpus >= spec.min_gpus,
              "job '" << spec.name << "' wants [" << spec.min_gpus << ", "
                      << spec.max_gpus << "] GPUs");
  DYNMO_CHECK(spec.min_gpus <= cfg_.total_gpus,
              "job '" << spec.name << "' needs " << spec.min_gpus
                      << " GPUs but the pool only has " << cfg_.total_gpus);
  DYNMO_CHECK(spec.arrival_s >= 0.0,
              "job '" << spec.name << "' arrives before the clock starts");
  DYNMO_CHECK(spec.factory != nullptr,
              "job '" << spec.name << "' has no session factory");
  Job j;
  j.spec = std::move(spec);
  jobs_.push_back(std::move(j));
}

int Arbiter::free_gpus() const {
  std::scoped_lock lock(mu_);
  return std::max(0, free_pool_ - reserved_total_);
}

int Arbiter::available_for(const Job& j) const {
  std::scoped_lock lock(mu_);
  return std::max(0, free_pool_ - (reserved_total_ - j.reserved));
}

std::vector<int> Arbiter::fair_shares(int extra_job) const {
  std::vector<int> out(jobs_.size(), -1);
  std::vector<ShareClaim> claims;
  std::vector<int> index;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& j = jobs_[i];
    const bool candidate = static_cast<int>(i) == extra_job;
    if (j.phase != JobPhase::Running && !candidate) continue;
    ShareClaim c;
    c.weight = j.spec.weight;
    // A running job's floor is its minimum footprint (it can never be dug
    // below it); an admission candidate enters floorless — its minimum is
    // enforced by the grant clamp, and a guaranteed floor here could
    // oversubscribe the pool before the candidate is even admissible.
    c.floor_gpus = candidate ? 0 : j.spec.min_gpus;
    c.cap_gpus = j.spec.max_gpus;
    claims.push_back(c);
    index.push_back(static_cast<int>(i));
  }
  const auto shares = weighted_max_min_shares(cfg_.total_gpus, claims);
  for (std::size_t k = 0; k < index.size(); ++k) out[index[k]] = shares[k];
  return out;
}

void Arbiter::emit(const telemetry::FleetDecisionRow& row) {
  if (row.kind == "admit" && row.accepted) ++result_.admits;
  if (row.kind == "grant") ++result_.grants;
  if (row.kind == "deny") ++result_.denies;
  if (row.kind == "release") ++result_.releases;
  if (row.kind == "preempt" && row.accepted) ++result_.preemptions;
  result_.decisions.push_back(row);
  if (trace_) trace_->write(row);
}

void Arbiter::try_admit(int idx, bool record_defer) {
  Job& j = jobs_[idx];
  if (j.phase != JobPhase::Pending) return;
  if (clock_.now() < j.spec.arrival_s) return;

  const auto shares = fair_shares(idx);
  const int share = shares[idx];
  const int avail = available_for(j);
  const int wanted =
      std::clamp(share, j.spec.min_gpus, j.spec.max_gpus);

  if (avail >= j.spec.min_gpus) {
    const int grant = std::min(wanted, avail);
    {
      std::scoped_lock lock(mu_);
      reserved_total_ -= j.reserved;
      j.reserved = 0;
      j.pending_grant = grant;
    }
    const int free_before = free_gpus();
    j.phase = JobPhase::Running;
    j.admitted_s = clock_.now();
    j.session = j.spec.factory(grant, this);
    DYNMO_CHECK(j.session != nullptr,
                "job '" << j.spec.name << "' factory returned no session");
    j.session->start();  // the baseline PATCH lands in patch_pod()
    DYNMO_CHECK(j.baseline_seen && j.alloc == grant,
                "job '" << j.spec.name
                        << "' did not claim its admission grant of "
                        << grant << " GPUs (misconfigured factory?)");
    JobOutcome& out = result_.jobs[idx];
    out.name = j.spec.name;
    out.priority = j.spec.priority;
    out.arrival_s = j.spec.arrival_s;
    out.admitted_s = j.admitted_s;
    out.admitted_gpus = grant;

    telemetry::FleetDecisionRow row;
    row.time_s = clock_.now();
    row.job = j.spec.name;
    row.kind = "admit";
    row.accepted = true;
    row.priority = j.spec.priority;
    row.gpus_before = 0;
    row.gpus_after = grant;
    row.pool_free_before = free_before;
    row.pool_free_after = free_gpus();
    row.fair_share = share;
    emit(row);
    clock_.push(clock_.now(), idx);
    return;
  }

  // Not enough unreserved capacity for the job's minimum: plan a
  // preemption (docs/FLEET.md "Preemption pricing").  Equal-priority
  // victims only give back what they hold above fair share; strictly
  // lower-priority victims can be dug down to their minimum.
  bool preempted = false;
  if (cfg_.allow_preemption) {
    std::vector<VictimOrder> order;
    for (std::size_t v = 0; v < jobs_.size(); ++v) {
      const Job& cand = jobs_[v];
      if (cand.phase != JobPhase::Running || cand.shrink_pending) continue;
      if (cand.spec.priority > j.spec.priority) continue;
      order.push_back({cand.spec.priority, static_cast<int>(v)});
    }
    std::sort(order.begin(), order.end());

    int needed = j.spec.min_gpus - avail;
    std::vector<PlannedShrink> plan;
    for (const VictimOrder& o : order) {
      if (needed <= 0) break;
      Job& victim = jobs_[o.idx];
      const int floor =
          victim.spec.priority < j.spec.priority
              ? victim.spec.min_gpus
              : std::max(shares[o.idx], victim.spec.min_gpus);
      const int take = std::min(victim.alloc - floor, needed);
      if (take <= 0) continue;
      const int target = victim.alloc - take;
      const auto quote = victim.session->quote_shrink(target);
      if (!quote.feasible) continue;
      plan.push_back({o.idx, target, take, quote});
      needed -= take;
    }

    if (needed <= 0 && !plan.empty()) {
      // Fleet-payoff pricing in GPU-seconds.  Moving GPUs between jobs is
      // zero-sum in raw GPU-time, so the gate weighs what the fleet
      // *actually* loses — each victim's restart stall across its
      // pre-shrink footprint, plus the scaling inefficiency of running it
      // on the smaller one (the growth of iter_s x workers) over the
      // window — against the GPU-seconds of demand the waiting claimant
      // finally gets to serve.
      const double W = cfg_.payoff_window_iters;
      const auto victim_cost = [W](const PlannedShrink& p) {
        const double eff_before = p.quote.iter_s_before * p.quote.workers_before;
        const double eff_after = p.quote.iter_s_after * p.quote.workers_after;
        return p.quote.restart_stall_s * p.quote.workers_before +
               std::max(0.0, eff_after - eff_before) * W;
      };
      double gain = 0.0, cost = 0.0;
      for (const PlannedShrink& p : plan) {
        gain += p.take * W * p.quote.iter_s_before;
        cost += victim_cost(p);
      }
      const bool accepted = W <= 0.0 || gain >= cost;
      for (const PlannedShrink& p : plan) {
        Job& victim = jobs_[p.victim];
        telemetry::FleetDecisionRow row;
        row.time_s = clock_.now();
        row.job = j.spec.name;
        row.kind = "preempt";
        row.accepted = accepted;
        row.priority = j.spec.priority;
        row.gpus_before = victim.alloc;
        row.gpus_after = p.target;
        row.pool_free_before = free_gpus();
        row.fair_share = share;
        row.projected_gain_gpu_s = p.take * W * p.quote.iter_s_before;
        row.exposed_cost_gpu_s = victim_cost(p);
        row.victim = victim.spec.name;
        if (accepted) {
          victim.session->request_shrink(p.target);
          victim.shrink_pending = true;
          ++victim.preemptions;
          std::scoped_lock lock(mu_);
          j.reserved += p.take;
          reserved_total_ += p.take;
        }
        row.pool_free_after = free_gpus();
        // A refused plan is re-priced on every later admission retry;
        // recording it once, at arrival, keeps the decision log bounded
        // (same rule as the deferred-admit row below).
        if (accepted || record_defer) emit(row);
      }
      preempted = accepted;
    }
  }

  if (!preempted && record_defer) {
    telemetry::FleetDecisionRow row;
    row.time_s = clock_.now();
    row.job = j.spec.name;
    row.kind = "admit";
    row.accepted = false;
    row.priority = j.spec.priority;
    row.gpus_before = 0;
    row.gpus_after = j.spec.min_gpus;  // the wanted minimum
    row.pool_free_before = free_gpus();
    row.pool_free_after = free_gpus();
    row.fair_share = share;
    emit(row);
  }
}

void Arbiter::try_admit_pending() {
  // Highest priority first; arrival then submission order break ties.
  std::vector<int> pending;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].phase == JobPhase::Pending &&
        jobs_[i].spec.arrival_s <= clock_.now()) {
      pending.push_back(static_cast<int>(i));
    }
  }
  std::sort(pending.begin(), pending.end(), [this](int a, int b) {
    const JobSpec& ja = jobs_[a].spec;
    const JobSpec& jb = jobs_[b].spec;
    if (ja.priority != jb.priority) return ja.priority > jb.priority;
    if (ja.arrival_s != jb.arrival_s) return ja.arrival_s < jb.arrival_s;
    return a < b;
  });
  for (int idx : pending) try_admit(idx, /*record_defer=*/false);
}

void Arbiter::step_job(int idx) {
  Job& j = jobs_[idx];
  const double t0 = clock_.now();
  const double dt = j.session->step();
  // The footprint the window ran on: forced shrinks execute at window
  // entry and elastic transitions within it, so the post-step count is
  // the settled one.
  result_.busy_gpu_s += j.session->active_workers() * dt;
  if (!j.session->done()) {
    clock_.push(t0 + dt, idx);
  } else {
    finish_job(idx, t0 + dt);
  }
}

void Arbiter::finish_job(int idx, double end_s) {
  Job& j = jobs_[idx];
  JobOutcome& out = result_.jobs[idx];
  out.result = j.session->finish();
  out.finished_s = end_s;
  out.preemptions = j.preemptions;

  const int held = j.alloc;
  const int free_before = free_gpus();
  {
    std::scoped_lock lock(mu_);
    free_pool_ += j.alloc;
    j.alloc = 0;
  }
  j.phase = JobPhase::Finished;
  j.finished_s = end_s;
  j.session.reset();
  j.spec.factory = nullptr;  // drop the closure's model/engine ownership

  telemetry::FleetDecisionRow row;
  row.time_s = end_s;
  row.job = j.spec.name;
  row.kind = "finish";
  row.accepted = true;
  row.priority = j.spec.priority;
  row.gpus_before = held;
  row.gpus_after = 0;
  row.pool_free_before = free_before;
  row.pool_free_after = free_gpus();
  emit(row);

  result_.makespan_s = std::max(result_.makespan_s, end_s);
}

int Arbiter::patch_pod(const repack::PatchRequest& req) {
  if (req.pod.empty() || req.gpus_requested < 0 ||
      req.gpus_limit < req.gpus_requested) {
    return 422;
  }
  Job* job = nullptr;
  int idx = -1;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].spec.name == req.pod) {
      job = &jobs_[i];
      idx = static_cast<int>(i);
      break;
    }
  }
  if (job == nullptr) return 422;  // unknown pod: not one of our jobs
  Job& j = *job;
  DYNMO_CHECK(j.phase == JobPhase::Running,
              "PATCH for pod '" << req.pod << "' outside its run");

  if (!j.baseline_seen) {
    // The baseline claim the session's controller establishes at start();
    // admission already sized and funded it.
    DYNMO_CHECK(req.gpus_requested == j.pending_grant,
                "pod '" << req.pod << "' baseline claim of "
                        << req.gpus_requested
                        << " GPUs does not match its admission grant of "
                        << j.pending_grant);
    std::scoped_lock lock(mu_);
    DYNMO_CHECK(free_pool_ >= req.gpus_requested,
                "admission grant exceeds the free pool (arbiter bug)");
    free_pool_ -= req.gpus_requested;
    j.alloc = req.gpus_requested;
    j.baseline_seen = true;
    return 200;
  }

  if (req.gpus_requested == j.alloc) return 200;

  if (req.gpus_requested < j.alloc) {
    // Releases are never refused.  A preemption's forced shrink lands
    // here too; it was already priced and recorded as its preempt row.
    const int free_before = free_gpus();
    const int before = j.alloc;
    {
      std::scoped_lock lock(mu_);
      free_pool_ += j.alloc - req.gpus_requested;
      j.alloc = req.gpus_requested;
    }
    if (j.shrink_pending) {
      j.shrink_pending = false;
    } else {
      telemetry::FleetDecisionRow row;
      row.time_s = clock_.now();
      row.job = j.spec.name;
      row.kind = "release";
      row.accepted = true;
      row.priority = j.spec.priority;
      row.gpus_before = before;
      row.gpus_after = req.gpus_requested;
      row.pool_free_before = free_before;
      row.pool_free_after = free_gpus();
      row.fair_share = fair_shares(-1)[idx];
      emit(row);
    }
    return 200;
  }

  // Grow: gate on capacity, fairness, and the fleet-payoff rule.
  const int delta = req.gpus_requested - j.alloc;
  const auto quote = j.session->quote_expand(req.gpus_requested);
  const auto shares = fair_shares(-1);
  const int share = shares[idx];
  const int unreserved = free_gpus();

  const bool capacity_ok = delta <= unreserved;
  const bool fairness_ok =
      req.gpus_requested <= share || cfg_.work_conserving;
  const double W = cfg_.payoff_window_iters;
  const double gain =
      std::max(0.0, quote.iter_s_before - quote.iter_s_after) * W *
      quote.workers_after;
  const double cost = quote.restart_stall_s * quote.workers_after;
  const bool priced_ok = W <= 0.0 || gain >= cost;
  const bool granted =
      quote.feasible && capacity_ok && fairness_ok && priced_ok;

  telemetry::FleetDecisionRow row;
  row.time_s = clock_.now();
  row.job = j.spec.name;
  row.kind = granted ? "grant" : "deny";
  row.accepted = granted;
  row.priority = j.spec.priority;
  row.gpus_before = j.alloc;
  row.gpus_after = req.gpus_requested;
  row.pool_free_before = unreserved;
  row.fair_share = share;
  row.projected_gain_gpu_s = gain;
  row.exposed_cost_gpu_s = cost;
  if (granted) {
    std::scoped_lock lock(mu_);
    free_pool_ -= delta;
    j.alloc = req.gpus_requested;
  }
  row.pool_free_after = free_gpus();
  emit(row);
  return granted ? 200 : 409;
}

FleetResult Arbiter::run() {
  DYNMO_CHECK(!ran_, "Arbiter::run() is single-shot");
  ran_ = true;
  DYNMO_CHECK(!jobs_.empty(), "no jobs submitted");
  if (cfg_.telemetry.enabled()) {
    telemetry::RunInfo info;
    info.producer = "fleet";
    trace_.emplace(cfg_.telemetry, info);
  }
  result_.jobs.resize(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    clock_.push(jobs_[i].spec.arrival_s, static_cast<int>(i));
    // Pre-fill identity so an unadmitted job is still reported.
    result_.jobs[i].name = jobs_[i].spec.name;
    result_.jobs[i].priority = jobs_[i].spec.priority;
    result_.jobs[i].arrival_s = jobs_[i].spec.arrival_s;
  }

  while (!clock_.empty()) {
    const Event e = clock_.pop();
    Job& j = jobs_[e.job];
    if (!j.arrival_consumed) {
      // The job's arrival.  If try_admit_pending() already admitted it at
      // this instant, the event is stale — its stepping chain was pushed
      // by the admission.
      j.arrival_consumed = true;
      if (j.phase == JobPhase::Pending) try_admit(e.job, /*record_defer=*/true);
    } else if (j.phase == JobPhase::Running) {
      step_job(e.job);
    }
    // Capacity may have been freed (finish, release, landed preemption):
    // revisit deferred admissions before the clock moves on.
    try_admit_pending();
  }

  for (const Job& j : jobs_) {
    DYNMO_CHECK(j.phase == JobPhase::Finished,
                "job '" << j.spec.name
                        << "' was never admitted — the pool can never free "
                           "its minimum of "
                        << j.spec.min_gpus << " GPUs");
  }
  if (trace_) trace_->finalize();

  double total_tokens = 0.0;
  for (const JobOutcome& out : result_.jobs) {
    total_tokens += out.result.tokens_per_sec * out.result.total_time_s;
    result_.gpu_hours_saved += out.result.gpu_hours_saved;
  }
  if (result_.makespan_s > 0.0) {
    result_.aggregate_tokens_per_sec = total_tokens / result_.makespan_s;
    result_.utilization =
        result_.busy_gpu_s / (cfg_.total_gpus * result_.makespan_s);
  }
  return std::move(result_);
}

}  // namespace dynmo::fleet
