#include "comm/communicator.hpp"

#include <algorithm>
#include <atomic>

#include "core/error.hpp"

namespace dynmo::comm {

// ---------------------------------------------------------------- World --

World::World(int num_ranks, TransportKind transport)
    : kind_(transport), transport_(make_transport(transport, num_ranks)) {}

World::~World() { shutdown(); }

Communicator World::world_comm(int global_rank) {
  auto group = std::make_shared<std::vector<int>>();
  group->resize(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) (*group)[static_cast<std::size_t>(i)] = i;
  return Communicator(this, std::move(group), global_rank, /*context=*/0);
}

void World::shutdown() { transport_->shutdown(); }

int World::next_context() { return next_context_.fetch_add(1); }

// --------------------------------------------------------- Communicator --

int Communicator::global_rank_of(int rank) const {
  DYNMO_CHECK(rank >= 0 && rank < size(),
              "rank " << rank << " outside communicator of size " << size());
  return (*group_)[static_cast<std::size_t>(rank)];
}

void Communicator::send(int dst, Tag tag, std::vector<std::byte> payload) const {
  Message msg;
  msg.source = rank_;
  msg.context = context_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  transport().send(global_rank_of(dst), std::move(msg));
}

Message Communicator::recv(int src, Tag tag) const {
  auto m = transport().recv(global_rank(), context_, src, tag);
  if (!m) {
    throw CommError("recv on rank " + std::to_string(rank_) +
                    " aborted: world shut down");
  }
  return std::move(*m);
}

std::optional<Message> Communicator::try_recv(int src, Tag tag) const {
  // Read closure *before* probing: deliveries stop at close, so "closed,
  // then found nothing" proves nothing matching can ever arrive — whereas
  // probe-then-check would race a concurrent close() into a false abort.
  const bool was_closed = transport().closed(global_rank());
  if (auto m = transport().try_recv(global_rank(), context_, src, tag)) {
    return m;
  }
  if (was_closed) {
    throw CommError("try_recv on rank " + std::to_string(rank_) +
                    " aborted: world shut down");
  }
  return std::nullopt;
}

std::vector<std::byte> Communicator::broadcast(std::vector<std::byte> data,
                                               int root) const {
  const int n = size();
  const int vrank = (rank_ - root + n) % n;
  // Binomial-tree broadcast (what NCCL does for small payloads).
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int vsrc = vrank - mask;
      const int src = (vsrc + root) % n;
      data = recv(src, kBcastTag).payload;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask >= 1) {
    if (vrank + mask < n) {
      const int vdst = vrank + mask;
      const int dst = (vdst + root) % n;
      send(dst, kBcastTag, data);
    }
    mask >>= 1;
  }
  return data;
}

std::vector<std::vector<std::byte>> Communicator::gather(
    std::vector<std::byte> mine, int root) const {
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] = std::move(mine);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = recv(r, kGatherTag).payload;
    }
  } else {
    send(root, kGatherTag, std::move(mine));
  }
  return out;
}

std::vector<std::byte> Communicator::scatter(
    std::vector<std::vector<std::byte>> bufs, int root) const {
  if (rank_ == root) {
    DYNMO_CHECK(static_cast<int>(bufs.size()) == size(),
                "scatter needs one buffer per rank");
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      send(r, kScatterTag, std::move(bufs[static_cast<std::size_t>(r)]));
    }
    return std::move(bufs[static_cast<std::size_t>(root)]);
  }
  return recv(root, kScatterTag).payload;
}

std::vector<std::vector<double>> Communicator::allgather_doubles(
    std::vector<double> mine) const {
  // Direct exchange: every rank sends its vector to every other rank.  With
  // the small metadata vectors DynMo exchanges (per-layer times), this is
  // what NCCL would select (flat allgather under ring threshold).
  Packer p;
  p.put_vector(mine);
  const auto bytes = p.take();
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    send(r, kAllreduceTag, bytes);
  }
  std::vector<std::vector<double>> out(static_cast<std::size_t>(size()));
  out[static_cast<std::size_t>(rank_)] = std::move(mine);
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    const Message m = recv(r, kAllreduceTag);
    Unpacker u(m.payload);
    out[static_cast<std::size_t>(r)] = u.get_vector<double>();
  }
  return out;
}

std::vector<double> Communicator::allreduce_sum(std::vector<double> mine) const {
  const auto all = allgather_doubles(std::move(mine));
  std::vector<double> acc = all.front();
  for (std::size_t r = 1; r < all.size(); ++r) {
    DYNMO_CHECK(all[r].size() == acc.size(),
                "allreduce_sum: mismatched vector lengths");
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += all[r][i];
  }
  return acc;
}

std::optional<Communicator> Communicator::split(int color, int key) const {
  // Rank 0 of the parent communicator coordinates, like the MPI
  // implementation's allgather-based split.
  struct ColorKey {
    int color;
    int key;
    int old_rank;
  };
  Packer p;
  p.put(ColorKey{color, key, rank_});
  auto gathered = gather(p.take(), /*root=*/0);

  std::vector<std::byte> my_assignment;
  if (rank_ == 0) {
    std::vector<ColorKey> entries;
    entries.reserve(gathered.size());
    for (const auto& buf : gathered) {
      Unpacker u(buf);
      entries.push_back(u.get<ColorKey>());
    }
    // Group by color.
    std::map<int, std::vector<ColorKey>> by_color;
    for (const auto& e : entries) {
      if (e.color >= 0) by_color[e.color].push_back(e);
    }
    // For each color: order members by (key, old_rank), mint a context id,
    // and send every member its (context, new_rank, group of global ranks).
    std::vector<std::vector<std::byte>> assignments(
        static_cast<std::size_t>(size()));
    for (auto& [c, members] : by_color) {
      std::sort(members.begin(), members.end(),
                [](const ColorKey& a, const ColorKey& b) {
                  return std::tie(a.key, a.old_rank) <
                         std::tie(b.key, b.old_rank);
                });
      const int ctx = world_->next_context();
      std::vector<int> new_group;
      new_group.reserve(members.size());
      for (const auto& m : members) new_group.push_back(global_rank_of(m.old_rank));
      for (std::size_t i = 0; i < members.size(); ++i) {
        Packer ap;
        ap.put(ctx);
        ap.put(static_cast<int>(i));
        ap.put_vector(new_group);
        assignments[static_cast<std::size_t>(members[i].old_rank)] = ap.take();
      }
    }
    my_assignment = scatter(std::move(assignments), 0);
  } else {
    my_assignment = scatter({}, 0);
  }

  if (my_assignment.empty()) return std::nullopt;  // color < 0: no membership
  Unpacker u(my_assignment);
  const int ctx = u.get<int>();
  const int new_rank = u.get<int>();
  auto group = std::make_shared<std::vector<int>>(u.get_vector<int>());
  return Communicator(world_, std::move(group), new_rank, ctx);
}

}  // namespace dynmo::comm
