#include "runtime/threaded.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "dynamic/distributed_pruning.hpp"
#include "fault/injector.hpp"
#include "runtime/checkpoint.hpp"

namespace dynmo::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// Learning rate of the tiny SGD step (`ThreadedConfig::apply_weight_update`):
/// each backward scales a layer's weights by 1 − lr.
constexpr double kLearningRate = 1e-3;

/// Wall seconds since `t0`: the runtime's measured times (busy, iteration,
/// stall), which its catalog declares "deterministic": false.
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Fault recovery re-creates the pipeline's point-to-point traffic under a
// fresh tag namespace (an "epoch") so stale in-flight messages from an
// aborted iteration can never be consumed as fresh ones.  Epoch bands:
//   fwd/bwd activations: kFirstUserTag + 1 + 2e / + 2 + 2e   (e <= 18)
//   checkpoint gathers:  kFirstUserTag + 40 + e
//   final stats:         kFirstUserTag + 90
//   migrations:          kFirstUserTag + 100 + layer (own positive band so
//                        a slow sender can never alias collective traffic)
constexpr int kMaxFaultEpochs = 18;
constexpr comm::Tag kStatsTag = comm::kFirstUserTag + 90;
constexpr comm::Tag kMigrationBase = comm::kFirstUserTag + 100;

comm::Tag fwd_tag(int epoch) {
  return comm::kFirstUserTag + 1 + 2 * static_cast<comm::Tag>(epoch);
}
comm::Tag bwd_tag(int epoch) {
  return comm::kFirstUserTag + 2 + 2 * static_cast<comm::Tag>(epoch);
}
comm::Tag gather_tag(int epoch) {
  return comm::kFirstUserTag + 40 + static_cast<comm::Tag>(epoch);
}

/// Thrown inside a worker when the heartbeat monitor requests a recovery
/// rendezvous; unwinds the in-flight iteration, which is then re-executed
/// from the restored checkpoint.
struct RecoveryInterrupt {};
/// Thrown by the victim after it has served its own recovery collective;
/// unwinds it out of the phase loop into the zombie service loop.
struct DeadWorker {};

/// Shared fault state between the worker threads, the heartbeat monitor,
/// and the driver.  Heartbeats are plain counters: any bump resets the
/// monitor's frozen-timer for that rank, so a rank blocked in a receive
/// poll loop (which ticks) is never falsely declared dead.
struct FaultShared {
  explicit FaultShared(int workers)
      : beats(static_cast<std::size_t>(workers)),
        monitored(static_cast<std::size_t>(workers)) {
    for (auto& b : beats) b.store(0, std::memory_order_relaxed);
    for (auto& m : monitored) m.store(false, std::memory_order_relaxed);
  }

  std::vector<std::atomic<std::uint64_t>> beats;
  std::vector<std::atomic<bool>> monitored;
  std::atomic<bool> recovery_requested{false};
  std::atomic<int> dead_rank{-1};
  std::atomic<int> recovery_id{0};
  std::atomic<std::int64_t> victim_iter{0};
  std::atomic<int> done_count{0};
  std::atomic<bool> stop{false};

  std::mutex mu;  // guards ckpt_blob / ckpt_iter / dead_list
  std::vector<std::byte> ckpt_blob;
  std::int64_t ckpt_iter = -1;
  std::vector<int> dead_list;

  void tick(int rank) {
    beats[static_cast<std::size_t>(rank)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void set_monitored(int rank, bool on) {
    monitored[static_cast<std::size_t>(rank)].store(
        on, std::memory_order_release);
  }
};

/// Missed-heartbeat monitor: a monitored rank whose counter stays frozen
/// for `timeout_s` of polling is declared dead and a recovery
/// rendezvous is requested.  One victim per recovery cycle; the monitor
/// pauses (and re-snapshots) while a recovery is in flight.  Silence is
/// counted in polls of nominal length: a monitor the OS schedules late
/// does not charge its own lateness to the ranks it could not watch.
void monitor_main(FaultShared& fs, double timeout_s) {
  constexpr double kPollS = 0.002;
  const std::size_t n = fs.beats.size();
  std::vector<std::uint64_t> snap(n, 0);
  std::vector<double> frozen_s(n, 0.0);
  while (!fs.stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollS));
    if (fs.recovery_requested.load(std::memory_order_acquire)) {
      for (std::size_t r = 0; r < n; ++r) {
        snap[r] = fs.beats[r].load(std::memory_order_relaxed);
        frozen_s[r] = 0.0;
      }
      continue;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (!fs.monitored[r].load(std::memory_order_acquire)) {
        snap[r] = fs.beats[r].load(std::memory_order_relaxed);
        frozen_s[r] = 0.0;
        continue;
      }
      const auto b = fs.beats[r].load(std::memory_order_relaxed);
      if (b != snap[r]) {
        snap[r] = b;
        frozen_s[r] = 0.0;
        continue;
      }
      frozen_s[r] += kPollS;
      if (frozen_s[r] >= timeout_s) {
        {
          std::scoped_lock lk(fs.mu);
          fs.dead_list.push_back(static_cast<int>(r));
        }
        fs.dead_rank.store(static_cast<int>(r), std::memory_order_release);
        fs.recovery_id.fetch_add(1, std::memory_order_acq_rel);
        fs.recovery_requested.store(true, std::memory_order_release);
        for (auto& f : frozen_s) f = 0.0;
        break;
      }
    }
  }
}

/// Re-pack the layers contiguously over the surviving workers (dead ranks
/// keep an empty stage so stage indices remain rank indices) — the
/// "surviving prefix" placement recovery restarts onto.  Uniform split so
/// every survivor keeps hosting as long as num_layers >= survivors.
pipeline::StageMap recovery_map_for(std::size_t num_layers, int workers,
                                    const std::vector<bool>& alive) {
  std::size_t alive_n = 0;
  for (const bool a : alive) alive_n += a ? 1 : 0;
  DYNMO_CHECK(alive_n > 0, "no surviving workers to recover onto");
  const std::size_t base = num_layers / alive_n;
  const std::size_t rem = num_layers % alive_n;
  std::vector<std::size_t> bounds{0};
  std::size_t idx = 0;
  for (int r = 0; r < workers; ++r) {
    std::size_t sz = 0;
    if (alive[static_cast<std::size_t>(r)]) {
      sz = base + (idx < rem ? 1 : 0);
      ++idx;
    }
    bounds.push_back(bounds.back() + sz);
  }
  return pipeline::StageMap::from_boundaries(std::move(bounds));
}

std::uint64_t checksum_floats(std::span<const float> xs) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(float));
    std::memcpy(&bits, &xs[i], sizeof(bits));
    h = hash_mix(h, bits, i);
  }
  return h;
}

/// Deterministic initial weights for layer l — identical no matter which
/// worker materializes them.
tensor::Tensor initial_weights(std::size_t layer, const ThreadedConfig& cfg) {
  Rng rng(hash_mix(cfg.seed, layer, 0x11a7e));
  return tensor::Tensor::random(cfg.hidden, cfg.hidden, rng,
                                1.0f / static_cast<float>(cfg.hidden));
}

/// Deterministic input activations for (iteration, microbatch).
tensor::Tensor make_input(std::int64_t iter, int mb,
                          const ThreadedConfig& cfg) {
  Rng rng(hash_mix(cfg.seed ^ 0x1239, static_cast<std::uint64_t>(iter),
                   static_cast<std::uint64_t>(mb)));
  return tensor::Tensor::random(cfg.batch_rows, cfg.hidden, rng, 1.0f);
}

void send_tensor(const comm::Communicator& c, int dst, comm::Tag tag,
                 const tensor::Tensor& t) {
  comm::Packer p;
  pack_tensor(p, t);
  c.send(dst, tag, p.take());
}

tensor::Tensor tensor_from_payload(const comm::Message& m) {
  comm::Unpacker u(m.payload);
  tensor::Tensor t = unpack_tensor(u);
  DYNMO_CHECK(u.exhausted(), "tensor payload has " << u.remaining()
                                                   << " trailing bytes");
  return t;
}

tensor::Tensor recv_tensor(const comm::Communicator& c, int src,
                           comm::Tag tag) {
  return tensor_from_payload(c.recv(src, tag));
}

struct WorkerStats {
  double busy_s = 0.0;
  std::uint64_t output_checksum = 0;
  std::uint64_t bytes_migrated = 0;
  int iterations_run = 0;
  std::uint64_t bytes_checkpoint = 0;
  int restarts = 0;
  int worker_losses = 0;
};

int prev_hosting_stage(const pipeline::StageMap& map, int s) {
  for (int p = s - 1; p >= 0; --p) {
    if (!map.stage_empty(p)) return p;
  }
  return -1;
}

int next_hosting_stage(const pipeline::StageMap& map, int s) {
  for (int n = s + 1; n < map.num_stages(); ++n) {
    if (!map.stage_empty(n)) return n;
  }
  return -1;
}

int first_hosting_stage(const pipeline::StageMap& map) {
  for (int s = 0; s < map.num_stages(); ++s) {
    if (!map.stage_empty(s)) return s;
  }
  return -1;
}

}  // namespace

ThreadedPipeline::ThreadedPipeline(ThreadedConfig cfg) : cfg_(cfg) {
  DYNMO_CHECK(cfg.workers > 0, "need workers");
  DYNMO_CHECK(cfg.num_layers > 0, "need layers");
  DYNMO_CHECK(cfg.checkpoint_interval_iters >= 0,
              "checkpoint interval must be non-negative");
}

ThreadedReport ThreadedPipeline::run(const std::vector<PlanPhase>& phases) {
  DYNMO_CHECK(!phases.empty(), "empty plan");
  const bool fault_mode = !cfg_.fault.empty();
  for (const auto& ph : phases) {
    DYNMO_CHECK(ph.map.num_stages() == cfg_.workers,
                "every phase map must span all initial workers");
    DYNMO_CHECK(ph.map.num_layers() == cfg_.num_layers,
                "phase map layer count mismatch");
    if (ph.active) {
      DYNMO_CHECK(static_cast<int>(ph.active->size()) == cfg_.workers,
                  "active mask size mismatch");
      DYNMO_CHECK((*ph.active)[0], "rank 0 must survive re-packing");
    }
    if (ph.restart_active) {
      DYNMO_CHECK(!ph.active,
                  "a phase is either a release or a restart, not both");
      DYNMO_CHECK(static_cast<int>(ph.restart_active->size()) ==
                      cfg_.workers,
                  "restart mask size mismatch");
      DYNMO_CHECK((*ph.restart_active)[0],
                  "rank 0 must stay active across a restart");
    }
    if (fault_mode) {
      // Loss recovery re-packs onto the heartbeat-visible survivors, so
      // every worker must be pipelining (scripted releases would leave
      // ranks the monitor cannot reason about).
      DYNMO_CHECK(!ph.active && !ph.restart_active,
                  "fault plans compose with migration phases only");
      for (int s = 0; s < ph.map.num_stages(); ++s) {
        DYNMO_CHECK(!ph.map.stage_empty(s),
                    "fault plans need every worker hosting layers");
      }
    }
  }
  if (fault_mode) {
    DYNMO_CHECK(cfg_.workers >= 2, "fault injection needs >= 2 workers");
    DYNMO_CHECK(cfg_.num_layers >= static_cast<std::size_t>(cfg_.workers),
                "fault recovery needs num_layers >= workers");
    DYNMO_CHECK(cfg_.heartbeat_timeout_s > 0.0,
                "heartbeat timeout must be positive");
  }

  comm::World world(cfg_.workers, cfg_.transport);
  const ThreadedConfig cfg = cfg_;

  fault::FaultPlan plan = cfg_.fault;
  if (plan.mtbf_iters > 0.0 && plan.horizon_iters == 0) {
    for (const auto& ph : phases) plan.horizon_iters += ph.iterations;
  }

  std::unique_ptr<FaultShared> fault_shared;
  std::thread monitor;
  if (fault_mode) {
    fault_shared = std::make_unique<FaultShared>(cfg_.workers);
    monitor = std::thread(monitor_main, std::ref(*fault_shared),
                          cfg_.heartbeat_timeout_s);
  }
  FaultShared* const fs = fault_shared.get();

  // Shared trace writer: TraceWriter serializes appends internally, so the
  // worker threads emit into it concurrently.
  std::optional<telemetry::TraceWriter> trace_storage;
  if (cfg_.telemetry.enabled()) {
    telemetry::RunInfo info;
    info.producer = "threaded";
    info.transport = comm::to_string(cfg_.transport);
    for (const auto& ph : phases) info.iterations += ph.iterations;
    info.rebalance_interval = 0;  // maps change by plan, not by balancer
    info.pipeline_stages = cfg_.workers;
    info.seed = cfg_.seed;
    info.mode = "threaded";
    info.measured_columns = {"iterations.time_s", "elastic_transitions.stall_s",
                             "fault_events.stall_s"};
    trace_storage.emplace(cfg_.telemetry, std::move(info));
  }
  telemetry::TraceWriter* const trace =
      trace_storage ? &*trace_storage : nullptr;

  const auto worker_main = [&world, &phases, cfg, trace, fs, plan](int rank) {
    const comm::Communicator wcomm = world.world_comm(rank);
    std::optional<comm::Communicator> coll = wcomm;  // collective group
    LayerTensors weights;
    WorkerStats stats;
    std::int64_t global_it = 0;  // consistent input stream across phases

    // Fault bookkeeping.  Every rank holds its own injector over the same
    // (plan, seed, workers) triple — the schedule is a pure function of
    // those, so all threads resolve the same victims at the same
    // iterations without any extra coordination.
    std::optional<fault::Injector> inj;
    if (fs != nullptr) inj.emplace(plan, cfg.workers, Rng(cfg.seed));
    std::vector<bool> alive(static_cast<std::size_t>(cfg.workers), true);
    std::optional<pipeline::StageMap> override_map;  // post-loss placement
    bool i_am_dead = false;
    int epoch = 0;      // tag namespace generation, bumped per recovery
    int served_id = 0;  // newest recovery this rank has participated in
    // Per-(iteration, microbatch) output records instead of an eager XOR
    // fold: rollback erases the records of re-executed iterations, so the
    // end-of-run fold counts every iteration exactly once.
    std::map<std::pair<std::int64_t, int>, std::uint64_t> outputs;

    const auto interrupt_pending = [&]() {
      return fs != nullptr &&
             fs->recovery_requested.load(std::memory_order_acquire) &&
             fs->recovery_id.load(std::memory_order_acquire) != served_id;
    };
    // Abortable receive: poll the mailbox, ticking this rank's heartbeat
    // so a healthy-but-blocked worker is never declared dead, and unwind
    // into the recovery rendezvous the moment one is requested.
    const auto recv_msg = [&](int src, comm::Tag tag) -> comm::Message {
      if (fs == nullptr) return wcomm.recv(src, tag);
      for (;;) {
        if (interrupt_pending()) throw RecoveryInterrupt{};
        if (auto m = wcomm.try_recv(src, tag)) return std::move(*m);
        fs->tick(rank);
        std::this_thread::yield();
      }
    };

    // A straggler's stretched compute passes in slices of a quarter
    // heartbeat timeout, ticking after each: slow is not silent.
    const auto stretch = [&](double s) {
      const double slice = fs != nullptr ? 0.25 * cfg.heartbeat_timeout_s : s;
      for (; s > 0.0; s -= slice) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(s, slice)));
        if (fs != nullptr) fs->tick(rank);
      }
    };

    auto world_active_count = [&]() {
      int n = 0;
      for (const bool a : alive) n += a ? 1 : 0;
      return n;
    };

    int world_active = cfg.workers;  // rank 0's view, for trace rows

    // Checkpoint assembly, shared by the recovery cut and the elastic
    // restart: every live rank ships the layers it owns to rank 0 (an
    // empty set for non-owners), which assembles the Checkpoint under map
    // `m` and pushes it through the real binary format.  Returns the blob
    // on rank 0, nothing elsewhere.  recv_msg keeps rank 0's receives
    // abortable in fault mode, where dead ranks contribute nothing.
    const auto gather_checkpoint = [&](const pipeline::StageMap& m) {
      const comm::Tag gtag = gather_tag(epoch);
      {
        comm::Packer p;
        pack_layer_tensors(p, weights);
        wcomm.send(0, gtag, p.take());
      }
      std::vector<std::byte> blob;
      if (rank != 0) return blob;
      Checkpoint ckpt;
      ckpt.iteration = global_it;
      ckpt.stage_map = m;
      for (int r = 0; r < wcomm.size(); ++r) {
        if (!alive[static_cast<std::size_t>(r)]) continue;
        const comm::Message msg = recv_msg(r, gtag);
        comm::Unpacker u(msg.payload);
        unpack_layer_tensors(u, ckpt.weights);
      }
      DYNMO_CHECK(ckpt.weights.size() == cfg.num_layers,
                  "checkpoint covers " << ckpt.weights.size() << " of "
                                       << cfg.num_layers << " layers");
      blob = ckpt.serialize();
      stats.bytes_checkpoint += blob.size();
      return blob;
    };
    // Reload: drop every held layer, then take this rank's shard of `ckpt`
    // under map `m` if it `owns` one ("the model is reloaded and resharded
    // among the workers during checkpoint recovery").
    const auto reload = [&](const Checkpoint& ckpt, const pipeline::StageMap& m,
                            bool owns) {
      weights.clear();
      if (!owns) return;
      for (std::size_t l = m.stage_begin(rank); l < m.stage_end(rank); ++l) {
        const auto it = ckpt.weights.find(l);
        DYNMO_CHECK(it != ckpt.weights.end(), "checkpoint misses layer " << l);
        weights.emplace(l, it->second);
      }
    };

    // Recovery rendezvous: every world rank — survivors, the fresh
    // victim, and earlier zombies — broadcasts the stored checkpoint from
    // rank 0, reloads it under the surviving-prefix map, rolls the
    // iteration stream back, and re-splits the collective group.  Tag
    // epoch bumps so stale in-flight messages rot unread.
    const auto do_recovery = [&]() {
      served_id = fs->recovery_id.load(std::memory_order_acquire);
      const auto t0 = Clock::now();
      fs->set_monitored(rank, false);
      const int dead = fs->dead_rank.load(std::memory_order_acquire);
      const int before = world_active_count();
      std::vector<std::byte> blob;
      if (rank == 0) {
        std::scoped_lock lk(fs->mu);
        DYNMO_CHECK(fs->ckpt_iter >= 0,
                    "worker " << dead << " died before any checkpoint");
        blob = fs->ckpt_blob;
      }
      blob = wcomm.broadcast(std::move(blob), 0);
      const Checkpoint ckpt = Checkpoint::deserialize(blob);
      if (dead >= 0) alive[static_cast<std::size_t>(dead)] = false;
      const std::int64_t victim_at =
          fs->victim_iter.load(std::memory_order_acquire);
      global_it = ckpt.iteration;
      override_map = recovery_map_for(cfg.num_layers, cfg.workers, alive);
      reload(ckpt, *override_map, !i_am_dead);
      std::erase_if(outputs, [&](const auto& kv) {
        return kv.first.first >= global_it;
      });
      coll = wcomm.split(i_am_dead ? -1 : 0, rank);
      ++epoch;
      DYNMO_CHECK(epoch <= kMaxFaultEpochs,
                  "too many fault recoveries for the tag namespace");
      if (rank == 0) {
        ++stats.restarts;
        ++stats.worker_losses;
        stats.bytes_checkpoint += blob.size();
        if (trace != nullptr) {
          telemetry::FaultEventRow row;
          row.iter = global_it;
          row.kind = "worker_loss";
          row.worker = dead;
          row.workers_before = before;
          row.workers_after = before - 1;
          // Measured wall stall of detect-to-resume; the modeled
          // breakdown terms stay 0 in this runtime (docs/TELEMETRY.md).
          row.stall_s = seconds_since(t0);
          row.lost_iters = victim_at > global_it ? victim_at - global_it : 0;
          trace->write(row);
        }
        world_active = before - 1;
        fs->recovery_requested.store(false, std::memory_order_release);
      }
    };

    // Cut an in-memory recovery checkpoint for the next rollback.  A
    // victim that died instead of contributing is detected by the monitor,
    // the cut is abandoned, and the boundary is re-cut by the survivors
    // after recovery.
    const auto cut_checkpoint = [&](const pipeline::StageMap& m) {
      fs->set_monitored(rank, false);
      std::vector<std::byte> blob = gather_checkpoint(m);
      if (rank == 0) {
        std::scoped_lock lk(fs->mu);
        fs->ckpt_blob = std::move(blob);
        fs->ckpt_iter = global_it;
      }
      fs->set_monitored(rank, true);
    };

    // Crash simulation: the victim falls silent — heartbeats freeze while
    // it stays monitored, so the monitor (not the victim) declares the
    // death.  It still serves recovery collectives (every world rank must
    // participate in broadcast/split), then throws out to the zombie loop.
    const auto park_and_die = [&]() {
      fs->victim_iter.store(global_it, std::memory_order_release);
      weights.clear();
      for (;;) {
        if (interrupt_pending()) {
          if (fs->dead_rank.load(std::memory_order_acquire) == rank) {
            i_am_dead = true;
            do_recovery();
            throw DeadWorker{};
          }
          // Another rank was declared first: serve that rendezvous as a
          // live member, then go back to being silently dead.
          do_recovery();
          weights.clear();
          fs->set_monitored(rank, true);
          continue;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };

    // Materialize phase-0 ownership.
    {
      const auto& m0 = phases.front().map;
      for (std::size_t l = m0.stage_begin(rank); l < m0.stage_end(rank);
           ++l) {
        weights.emplace(l, initial_weights(l, cfg));
      }
    }

    bool active_now = true;
    for (std::size_t pi = 0; pi < phases.size() && !i_am_dead; ++pi) {
      const auto& phase = phases[pi];
      const pipeline::StageMap& map =
          override_map ? *override_map : phase.map;

      // 1. Weight redistribution into this phase's placement: either an
      // elastic checkpoint restart (released workers may re-join) or the
      // P2P migration of the running pipeline.  Once a loss has re-packed
      // the run onto the recovery map, later phase maps are overridden by
      // it and no migration is needed.
      if (phase.restart_active) {
        const auto& act = *phase.restart_active;
        const auto restart_t0 = Clock::now();
        // 1a. Every rank — released ones included — ships its layers to
        // rank 0, which assembles and serializes the Checkpoint.
        std::vector<std::byte> blob = gather_checkpoint(map);
        if (rank == 0) ++stats.restarts;
        // 1b. Broadcast the serialized checkpoint; every rank reloads the
        // layers the new map assigns it.
        blob = wcomm.broadcast(std::move(blob), 0);
        const Checkpoint ckpt = Checkpoint::deserialize(blob);
        global_it = ckpt.iteration;  // re-joining ranks sync the stream
        active_now = act[static_cast<std::size_t>(rank)];
        reload(ckpt, map, active_now);
        // 1c. The restart creates the collective communicator anew over
        // the whole world — exactly the fresh-NCCL-communicator step.
        coll = wcomm.split(active_now ? 0 : -1, rank);
        if (rank == 0 && trace != nullptr) {
          int after = 0;
          for (const bool a : act) after += a ? 1 : 0;
          telemetry::ElasticTransitionRow row;
          row.iter = global_it;
          row.kind = after < world_active ? "shrink" : "expand";
          row.accepted = true;
          row.workers_before = world_active;
          row.workers_after = after;
          // Measured wall stall of the whole gather/serialize/broadcast/
          // reload/re-split sequence; the modeled breakdown terms stay 0.
          row.stall_s = seconds_since(restart_t0);
          trace->write(row);
          world_active = after;
        }
      } else if (pi > 0 && active_now && !override_map) {
        const auto& prev = phases[pi - 1].map;
        for (std::size_t l = 0; l < cfg.num_layers; ++l) {
          const int src = prev.stage_of(l);
          const int dst = map.stage_of(l);
          if (src == dst) continue;
          if (rank == src) {
            auto it = weights.find(l);
            DYNMO_CHECK(it != weights.end(),
                        "migration source lacks layer " << l);
            const auto t0 = Clock::now();
            send_tensor(wcomm, dst, kMigrationBase + static_cast<comm::Tag>(l),
                        it->second);
            stats.bytes_migrated += it->second.bytes();
            if (trace != nullptr) {
              telemetry::MigrationRow mrow;
              mrow.iter = global_it;
              mrow.trigger = "phase";
              mrow.layer = static_cast<std::int64_t>(l);
              mrow.from_stage = src;
              mrow.to_stage = dst;
              mrow.bytes = static_cast<double>(it->second.bytes());
              trace->write(mrow);
            }
            weights.erase(it);
            stats.busy_s += seconds_since(t0);
          } else if (rank == dst) {
            weights.emplace(
                l, recv_tensor(wcomm, src,
                               kMigrationBase + static_cast<comm::Tag>(l)));
          }
        }
      }

      // 2. Worker release (re-packing): fence survivors off; released
      // workers idle through later phases (they can only re-join at a
      // restart phase) but keep walking the plan so restart collectives
      // over the world communicator see every rank.
      if (phase.active) {
        if (active_now) {
          DYNMO_CHECK(coll.has_value(), "active worker lost its group");
          const bool mine = (*phase.active)[static_cast<std::size_t>(rank)];
          // Split over the *current* collective group; all members call.
          coll = coll->split(mine ? 0 : -1, coll->rank());
          if (!mine) {
            DYNMO_CHECK(weights.empty(),
                        "released worker still owns layers");
            active_now = false;
          }
          if (rank == 0 && trace != nullptr) {
            int after = 0;
            for (const bool a : *phase.active) after += a ? 1 : 0;
            telemetry::ElasticTransitionRow row;
            row.iter = global_it;
            row.kind = "repack";
            row.accepted = true;
            row.workers_before = world_active;
            row.workers_after = after;
            trace->write(row);
            world_active = after;
          }
        } else {
          DYNMO_CHECK(!(*phase.active)[static_cast<std::size_t>(rank)],
                      "re-joining a released worker needs restart_active");
        }
      }
      if (!active_now) {
        DYNMO_CHECK(map.stage_empty(rank),
                    "phase " << pi << " maps layers onto released worker "
                             << rank);
        continue;
      }

      // 3. Distributed global pruning (Algorithm 1) over the collective
      // group.
      if (phase.prune_sparsity) {
        DYNMO_CHECK(coll.has_value(), "pruning needs a collective group");
        std::vector<float> flat;
        std::vector<std::pair<std::size_t, std::size_t>> extents;
        for (auto& [l, w] : weights) {
          extents.emplace_back(l, w.data().size());
          flat.insert(flat.end(), w.data().begin(), w.data().end());
        }
        const auto pr = dynamic::global_magnitude_prune(*coll, flat,
                                                        *phase.prune_sparsity);
        dynamic::apply_prune_mask(flat, pr.keep_indices);
        std::size_t off = 0;
        for (auto& [l, n] : extents) {
          auto dstspan = weights.at(l).data();
          std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
                    flat.begin() + static_cast<std::ptrdiff_t>(off + n),
                    dstspan.begin());
          off += n;
        }
      }

      // 3b. Phase-start recovery checkpoint: guarantees a rollback target
      // exists inside this phase before any loss can strike, and caps the
      // lost-work window at the cadence below.
      std::int64_t phase_start_git = global_it;
      if (fs != nullptr) {
        try {
          cut_checkpoint(map);
        } catch (const RecoveryInterrupt&) {
          do_recovery();
        }
      }

      // 4. Pipelined iterations.  A while-loop rather than a for: a
      // recovery rolls global_it back to the restored checkpoint and the
      // lost iterations are simply re-entered.
      while (global_it - phase_start_git <
             static_cast<std::int64_t>(phase.iterations)) {
        try {
          if (interrupt_pending()) throw RecoveryInterrupt{};
          const pipeline::StageMap& m =
              override_map ? *override_map : phase.map;
          if (m.stage_empty(rank)) {
            // Pass-through stages idle in this runtime (fault mode never
            // reaches here: its maps host every live worker).
            ++global_it;
            continue;
          }
          bool die_this_iter = false;
          double slow_mult = 1.0;
          if (inj) {
            for (const auto& e :
                 inj->poll(static_cast<int>(global_it), alive)) {
              if (e.kind == fault::EventKind::WorkerLoss) {
                if (e.worker == rank) die_this_iter = true;
              } else if (e.worker == rank && trace != nullptr) {
                telemetry::FaultEventRow row;
                row.iter = global_it;
                row.kind = fault::to_string(e.kind);
                row.worker = e.worker;
                row.multiplier = e.multiplier;
                row.workers_before = row.workers_after =
                    world_active_count();
                trace->write(row);
              }
            }
            slow_mult =
                inj->multiplier(rank, static_cast<int>(global_it));
            // Cadence checkpoint at every boundary crossing — evaluated
            // fresh each pass, so after a rollback every rank re-crosses
            // (and re-cuts) the same boundaries in agreement.  A dying
            // worker skips the cut: the loss lands before the checkpoint,
            // exactly the session's lost-work accounting.
            if (!die_this_iter && cfg.checkpoint_interval_iters > 0 &&
                global_it > phase_start_git &&
                global_it % cfg.checkpoint_interval_iters == 0) {
              cut_checkpoint(m);
            }
            fs->set_monitored(rank, true);
            if (!die_this_iter) fs->tick(rank);
          }
          const int first = first_hosting_stage(m);
          const int prev = prev_hosting_stage(m, rank);
          const int next = next_hosting_stage(m, rank);
          const int die_mb = cfg.microbatches / 2;
          const auto iter_t0 = Clock::now();
          // Forward sweep over microbatches (GPipe-style data flow; real
          // pipelining emerges from message availability across threads).
          for (int mb = 0; mb < cfg.microbatches; ++mb) {
            // The victim crashes mid-iteration: some activations of this
            // iteration are already in flight when it goes silent.
            if (die_this_iter && mb == die_mb) park_and_die();
            tensor::Tensor x =
                (rank == first)
                    ? make_input(global_it, mb, cfg)
                    : tensor_from_payload(recv_msg(prev, fwd_tag(epoch)));
            const auto t0 = Clock::now();
            for (std::size_t l = m.stage_begin(rank); l < m.stage_end(rank);
                 ++l) {
              x = tensor::matmul(x, weights.at(l));
              tensor::relu_inplace(x);
            }
            const double busy = seconds_since(t0);
            stats.busy_s += busy;
            // A straggler computes at a fraction of healthy speed: the
            // math is untouched, the wall time stretches.
            if (slow_mult < 1.0) stretch(busy * (1.0 / slow_mult - 1.0));
            if (next >= 0) {
              send_tensor(wcomm, next, fwd_tag(epoch), x);
            } else {
              outputs.insert_or_assign({global_it, mb},
                                       checksum_floats(x.data()));
            }
          }
          // Backward sweep (reverse microbatch order).
          for (int mb = cfg.microbatches - 1; mb >= 0; --mb) {
            tensor::Tensor g =
                (next < 0)
                    ? tensor::Tensor(cfg.batch_rows, cfg.hidden, 1.0f)
                    : tensor_from_payload(recv_msg(next, bwd_tag(epoch)));
            const auto t0 = Clock::now();
            for (std::size_t l = m.stage_end(rank);
                 l-- > m.stage_begin(rank);) {
              g = tensor::matmul(g, weights.at(l));
              if (cfg.apply_weight_update) {
                auto w = weights.at(l).data();
                constexpr auto decay = static_cast<float>(1.0 - kLearningRate);
                for (float& v : w) v *= decay;
              }
            }
            const double busy = seconds_since(t0);
            stats.busy_s += busy;
            if (slow_mult < 1.0) stretch(busy * (1.0 / slow_mult - 1.0));
            if (prev >= 0) send_tensor(wcomm, prev, bwd_tag(epoch), g);
          }
          ++stats.iterations_run;
          if (rank == 0 && trace != nullptr) {
            // Measured per-iteration wall time from rank 0's perspective
            // (this runtime has no modeled bottleneck/idleness — those
            // columns stay 0, docs/TELEMETRY.md "Producers").  Re-executed
            // iterations after a recovery emit a second row for the same
            // iter — the trace records what actually ran.
            telemetry::IterationRow row;
            row.iter = global_it;
            row.time_s = seconds_since(iter_t0);
            row.active_workers = world_active;
            trace->write(row);
          }
          ++global_it;
        } catch (const RecoveryInterrupt&) {
          do_recovery();
        } catch (const DeadWorker&) {
          break;
        }
      }
      if (fs != nullptr && !i_am_dead) fs->set_monitored(rank, false);
    }

    if (fs != nullptr) {
      if (i_am_dead) {
        // Zombie service loop: a dead rank keeps answering recovery
        // rendezvous (broadcast/split span the whole world) until every
        // survivor has finished the plan.
        for (;;) {
          if (interrupt_pending()) {
            do_recovery();
            continue;
          }
          if (fs->done_count.load(std::memory_order_acquire) >=
              world_active_count()) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      } else {
        fs->set_monitored(rank, false);
        fs->done_count.fetch_add(1, std::memory_order_acq_rel);
      }
    }

    for (const auto& kv : outputs) stats.output_checksum ^= kv.second;

    // Final reporting to rank 0 over the world communicator.
    {
      comm::Packer p;
      p.put(stats.busy_s);
      p.put(stats.output_checksum);
      p.put(stats.bytes_migrated);
      p.put(stats.iterations_run);
      p.put(stats.bytes_checkpoint);
      p.put(stats.restarts);
      p.put(stats.worker_losses);
      // Per-layer weight checksums + nnz for everything this rank owns.
      std::vector<std::uint64_t> layer_ids;
      std::vector<std::uint64_t> sums;
      std::uint64_t nnz = 0;
      for (const auto& [l, w] : weights) {
        layer_ids.push_back(l);
        sums.push_back(checksum_floats(w.data()));
        for (float v : w.data()) {
          if (v != 0.0f) ++nnz;
        }
      }
      p.put(nnz);
      p.put_vector(layer_ids);
      p.put_vector(sums);
      wcomm.send(0, kStatsTag, p.take());  // rank 0 self-delivers
    }
  };

  const auto wall0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int r = 0; r < cfg_.workers; ++r) {
    threads.emplace_back(worker_main, r);
  }

  // Rank "-1" aggregator: main thread reads rank 0's mailbox after joining.
  for (auto& t : threads) t.join();
  if (fs != nullptr) {
    fs->stop.store(true, std::memory_order_release);
    monitor.join();
  }

  ThreadedReport report;
  report.wall_s = seconds_since(wall0);
  report.worker_busy_s.assign(static_cast<std::size_t>(cfg_.workers), 0.0);
  report.weight_checksums.assign(cfg_.num_layers, 0);
  if (fs != nullptr) {
    std::scoped_lock lk(fs->mu);
    report.dead_workers = fs->dead_list;
  }

  const comm::Communicator main_comm = world.world_comm(0);
  for (int r = 0; r < cfg_.workers; ++r) {
    const comm::Message m = main_comm.recv(r, kStatsTag);
    comm::Unpacker u(m.payload);
    const double busy = u.get<double>();
    const auto osum = u.get<std::uint64_t>();
    const auto migrated = u.get<std::uint64_t>();
    const int iters = u.get<int>();
    const auto ckpt_bytes = u.get<std::uint64_t>();
    const int restarts = u.get<int>();
    const int losses = u.get<int>();
    const auto nnz = u.get<std::uint64_t>();
    const auto layer_ids = u.get_vector<std::uint64_t>();
    const auto sums = u.get_vector<std::uint64_t>();
    report.worker_busy_s[static_cast<std::size_t>(r)] = busy;
    report.output_checksum ^= osum;
    report.bytes_migrated += migrated;
    report.iterations_run = std::max(report.iterations_run, iters);
    report.bytes_checkpoint += ckpt_bytes;
    report.restarts += restarts;    // counted on rank 0 only
    report.worker_losses += losses;  // counted on rank 0 only
    report.weights_nnz += nnz;
    for (std::size_t i = 0; i < layer_ids.size(); ++i) {
      report.weight_checksums[layer_ids[i]] = sums[i];
    }
  }
  if (trace_storage) trace_storage->finalize();
  return report;
}

}  // namespace dynmo::runtime
