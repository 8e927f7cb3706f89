// Unit tests for the in-process communication substrate: P2P semantics,
// collectives, communicator split (the ncclCommSplit analogue), context
// isolation, and the alpha-beta cost model.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"

namespace dynmo::comm {
namespace {

/// Run fn(rank, comm) on one thread per rank and join.
void run_ranks(World& world, int n,
               const std::function<void(int, Communicator&)>& fn) {
  std::vector<std::thread> ts;
  for (int r = 0; r < n; ++r) {
    ts.emplace_back([&world, r, &fn] {
      Communicator c = world.world_comm(r);
      fn(r, c);
    });
  }
  for (auto& t : ts) t.join();
}

TEST(Packer, RoundTripsValuesAndVectors) {
  Packer p;
  p.put(42);
  p.put(3.5);
  p.put_vector(std::vector<int>{1, 2, 3});
  const auto buf = p.take();
  Unpacker u(buf);
  EXPECT_EQ(u.get<int>(), 42);
  EXPECT_DOUBLE_EQ(u.get<double>(), 3.5);
  EXPECT_EQ(u.get_vector<int>(), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(u.exhausted());
}

TEST(Packer, UnpackerThrowsOnOverrun) {
  Packer p;
  p.put<std::uint8_t>(1);
  const auto buf = p.take();
  Unpacker u(buf);
  (void)u.get<std::uint8_t>();
  EXPECT_THROW((void)u.get<int>(), Error);
}

TEST(Comm, PointToPoint) {
  World world(2);
  run_ranks(world, 2, [](int rank, Communicator& c) {
    if (rank == 0) {
      c.send_value(1, 5, 1234);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 5), 1234);
    }
  });
}

TEST(Comm, TagMatching) {
  World world(2);
  run_ranks(world, 2, [](int rank, Communicator& c) {
    if (rank == 0) {
      c.send_value(1, /*tag=*/10, 100);
      c.send_value(1, /*tag=*/20, 200);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(c.recv_value<int>(0, 20), 200);
      EXPECT_EQ(c.recv_value<int>(0, 10), 100);
    }
  });
}

TEST(Comm, FifoPerSourceAndTag) {
  World world(2);
  run_ranks(world, 2, [](int rank, Communicator& c) {
    constexpr int kN = 50;
    if (rank == 0) {
      for (int i = 0; i < kN; ++i) c.send_value(1, 7, i);
    } else {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(c.recv_value<int>(0, 7), i);
    }
  });
}

TEST(Comm, WildcardSource) {
  World world(3);
  run_ranks(world, 3, [](int rank, Communicator& c) {
    if (rank != 0) {
      c.send_value(0, 1, rank);
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        const Message m = c.recv(kAnySource, 1);
        Unpacker u(m.payload);
        sum += u.get<int>();
      }
      EXPECT_EQ(sum, 3);
    }
  });
}

class CommCollectives : public ::testing::TestWithParam<int> {};

TEST_P(CommCollectives, Broadcast) {
  const int n = GetParam();
  World world(n);
  for (int root = 0; root < n; ++root) {
    run_ranks(world, n, [&](int rank, Communicator& c) {
      Packer p;
      if (rank == root) p.put(root * 100 + 7);
      const auto out = c.broadcast(rank == root ? p.take()
                                                : std::vector<std::byte>{},
                                   root);
      Unpacker u(out);
      EXPECT_EQ(u.get<int>(), root * 100 + 7);
    });
  }
}

TEST_P(CommCollectives, GatherScatter) {
  const int n = GetParam();
  World world(n);
  run_ranks(world, n, [&](int rank, Communicator& c) {
    Packer p;
    p.put(rank * rank);
    auto gathered = c.gather(p.take(), 0);
    if (rank == 0) {
      ASSERT_EQ(static_cast<int>(gathered.size()), n);
      std::vector<std::vector<std::byte>> redistribute;
      for (int r = 0; r < n; ++r) {
        Unpacker u(gathered[static_cast<std::size_t>(r)]);
        EXPECT_EQ(u.get<int>(), r * r);
        Packer back;
        back.put(r + 1000);
        redistribute.push_back(back.take());
      }
      auto mine = c.scatter(std::move(redistribute), 0);
      Unpacker u(mine);
      EXPECT_EQ(u.get<int>(), 1000);
    } else {
      auto mine = c.scatter({}, 0);
      Unpacker u(mine);
      EXPECT_EQ(u.get<int>(), rank + 1000);
    }
  });
}

TEST_P(CommCollectives, AllgatherAndAllreduce) {
  const int n = GetParam();
  World world(n);
  run_ranks(world, n, [&](int rank, Communicator& c) {
    const auto all = c.allgather_doubles({static_cast<double>(rank), 1.0});
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int r = 0; r < n; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)][0], r);
    }
    const auto sum = c.allreduce_sum({static_cast<double>(rank), 2.0});
    EXPECT_DOUBLE_EQ(sum[0], n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(sum[1], 2.0 * n);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommCollectives,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(CommSplit, PartitionsByColor) {
  World world(6);
  run_ranks(world, 6, [](int rank, Communicator& c) {
    const int color = rank % 2;
    auto sub = c.split(color, rank);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->size(), 3);
    EXPECT_EQ(sub->rank(), rank / 2);
    // Sum ranks within the new communicator: even colors sum 0+2+4.
    const auto sum = sub->allreduce_sum({static_cast<double>(rank)});
    EXPECT_DOUBLE_EQ(sum[0], color == 0 ? 6.0 : 9.0);
  });
}

TEST(CommSplit, NoColorGetsNothing) {
  World world(4);
  run_ranks(world, 4, [](int rank, Communicator& c) {
    auto sub = c.split(rank == 3 ? -1 : 0, rank);
    if (rank == 3) {
      EXPECT_FALSE(sub.has_value());
    } else {
      ASSERT_TRUE(sub.has_value());
      EXPECT_EQ(sub->size(), 3);
      // A collective must not deadlock without rank 3.
      EXPECT_DOUBLE_EQ(sub->allreduce_sum({1.0})[0], 3.0);
    }
  });
}

TEST(CommSplit, KeyOrdersRanks) {
  World world(4);
  run_ranks(world, 4, [](int rank, Communicator& c) {
    // Reverse order via key.
    auto sub = c.split(0, -rank);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->rank(), 3 - rank);
  });
}

TEST(CommSplit, ContextIsolation) {
  World world(2);
  run_ranks(world, 2, [](int rank, Communicator& c) {
    auto sub = c.split(0, rank);
    ASSERT_TRUE(sub.has_value());
    if (rank == 0) {
      // Same tag on both communicators: receivers must not cross-match.
      c.send_value(1, 99, 111);
      sub->send_value(1, 99, 222);
    } else {
      EXPECT_EQ(sub->recv_value<int>(0, 99), 222);
      EXPECT_EQ(c.recv_value<int>(0, 99), 111);
    }
  });
}

TEST(Comm, ShutdownUnblocksReceivers) {
  World world(2);
  std::thread receiver([&world] {
    Communicator c = world.world_comm(1);
    EXPECT_THROW((void)c.recv(0, 1), CommError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  world.shutdown();
  receiver.join();
}

TEST(Comm, TrafficAccounting) {
  World world(2);
  run_ranks(world, 2, [](int rank, Communicator& c) {
    if (rank == 0) c.send_vector<double>(1, 1, {1.0, 2.0, 3.0});
    if (rank == 1) (void)c.recv(0, 1);
  });
  EXPECT_GE(world.bytes_sent(), 3 * sizeof(double));
  EXPECT_GE(world.messages_sent(), 1u);
}

TEST(CostModel, TiersByNode) {
  CostModel m;  // 4 GPUs per node
  EXPECT_EQ(m.tier(0, 1), LinkTier::NvLink);
  EXPECT_EQ(m.tier(0, 3), LinkTier::NvLink);
  EXPECT_EQ(m.tier(3, 4), LinkTier::InfiniBand);
  EXPECT_GT(m.p2p_time(3, 4, 1 << 20), m.p2p_time(0, 1, 1 << 20));
}

TEST(CostModel, CollectiveCostsScale) {
  CostModel m;
  EXPECT_EQ(m.allreduce_time(1, 1 << 20, true), 0.0);
  EXPECT_GT(m.allreduce_time(8, 1 << 20, true),
            m.allreduce_time(8, 1 << 10, true));
  EXPECT_GT(m.alltoall_time(16, 1 << 20, true),
            m.alltoall_time(4, 1 << 20, true));
  EXPECT_GT(m.broadcast_time(16, 1 << 20, false),
            m.broadcast_time(2, 1 << 20, false));
}

TEST(CostModel, NodeResolverOverridesGpusPerNode) {
  CostModel m;  // config says 4 GPUs per node...
  m.set_node_resolver([](int rank) { return rank / 8; });  // ...truth is 8
  EXPECT_EQ(m.node_of(7), 0);
  EXPECT_EQ(m.node_of(8), 1);
  EXPECT_EQ(m.tier(3, 4), LinkTier::NvLink);
  EXPECT_EQ(m.tier(7, 8), LinkTier::InfiniBand);
}

TEST(CostModel, GroupCollectivesReduceToFlatOnOneNode) {
  CostModel m;
  RankGroup g;
  g.node_sizes = {4};
  g.intra = m.params(LinkTier::NvLink);
  g.inter = m.params(LinkTier::InfiniBand);
  EXPECT_EQ(g.total_ranks(), 4);
  const std::size_t bytes = 64u << 20;
  EXPECT_DOUBLE_EQ(m.allreduce_time(g, bytes),
                   m.allreduce_time(4, bytes, /*crosses_nodes=*/false));
}

TEST(CostModel, GroupCollectivesReduceToFlatOnSingletonNodes) {
  // One rank per node: there is no intra level, so the hierarchical
  // formulas must collapse to the flat cross-node ones.
  CostModel m;
  RankGroup g;
  g.node_sizes.assign(6, 1);
  g.intra = m.params(LinkTier::NvLink);
  g.inter = m.params(LinkTier::InfiniBand);
  const std::size_t bytes = 16u << 20;
  EXPECT_DOUBLE_EQ(m.allreduce_time(g, bytes),
                   m.allreduce_time(6, bytes, /*crosses_nodes=*/true));
}

TEST(CostModel, HierarchicalCollectivesBeatFlatAcrossNodes) {
  // 2..4 nodes of 4..8 members: the hierarchy keeps most traffic on
  // NVLink and ships only per-node shards / aggregates over the fabric, so
  // it must undercut pricing the whole collective at the InfiniBand tier.
  CostModel m;
  for (int nodes : {2, 3, 4}) {
    for (int per_node : {4, 8}) {
      RankGroup g;
      g.node_sizes.assign(static_cast<std::size_t>(nodes), per_node);
      g.intra = m.params(LinkTier::NvLink);
      g.inter = m.params(LinkTier::InfiniBand);
      const int n = nodes * per_node;
      const std::size_t bytes = 64u << 20;
      EXPECT_LT(m.allreduce_time(g, bytes), m.allreduce_time(n, bytes, true))
          << nodes << "x" << per_node;
    }
  }
}

TEST(CostModel, EmptyGroupIsFreeEverywhere) {
  // A stage can end up with no DP peers at all (dp = 1 slices); every
  // formula must return zero instead of dividing by an empty node list.
  CostModel m;
  const RankGroup g;  // no nodes, no ranks
  EXPECT_EQ(g.total_ranks(), 0);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.max_node_size(), 0);
  EXPECT_EQ(g.min_node_size(), 0);
  EXPECT_DOUBLE_EQ(m.allreduce_time(g, 1u << 20), 0.0);
  const auto split = allreduce_bytes(g, 1u << 20);
  EXPECT_DOUBLE_EQ(split.intra_node, 0.0);
  EXPECT_DOUBLE_EQ(split.inter_node, 0.0);
}

TEST(CostModel, SingleRankGroupIsFree) {
  CostModel m;
  RankGroup g;
  g.node_sizes = {1};
  g.intra = m.params(LinkTier::NvLink);
  g.inter = m.params(LinkTier::InfiniBand);
  EXPECT_EQ(g.total_ranks(), 1);
  EXPECT_EQ(g.num_nodes(), 1);
  EXPECT_DOUBLE_EQ(m.allreduce_time(g, 1u << 24), 0.0);
  const auto split = allreduce_bytes(g, 1u << 24);
  EXPECT_DOUBLE_EQ(split.intra_node + split.inter_node, 0.0);
}

TEST(CostModel, AllreduceBytesMatchTheFlatRingInDegenerateGroups) {
  // One node of n: all wire bytes are intra and equal the flat ring's
  // 2(n-1)·bytes.  All-singleton nodes: the same total, all inter.
  CostModel m;
  const std::size_t bytes = 32u << 20;
  RankGroup one_node;
  one_node.node_sizes = {6};
  const auto intra_split = allreduce_bytes(one_node, bytes);
  EXPECT_DOUBLE_EQ(intra_split.intra_node,
                   2.0 * 5.0 * static_cast<double>(bytes));
  EXPECT_DOUBLE_EQ(intra_split.inter_node, 0.0);

  RankGroup singletons;
  singletons.node_sizes.assign(6, 1);
  const auto inter_split = allreduce_bytes(singletons, bytes);
  EXPECT_DOUBLE_EQ(inter_split.intra_node, 0.0);
  EXPECT_DOUBLE_EQ(inter_split.inter_node,
                   2.0 * 5.0 * static_cast<double>(bytes));
}

TEST(CostModel, HierarchicalCollectivesGateOnWorstNode) {
  // Non-uniform node sizes, same total ranks: the lone rank on its own
  // node carries a full shard / crosses the most fabric, so the skewed
  // grouping must cost more than the even one.
  CostModel m;
  RankGroup uneven;
  uneven.node_sizes = {7, 1};
  uneven.intra = m.params(LinkTier::NvLink);
  uneven.inter = m.params(LinkTier::InfiniBand);
  RankGroup even;
  even.node_sizes = {4, 4};
  even.intra = uneven.intra;
  even.inter = uneven.inter;
  const std::size_t bytes = 64u << 20;
  EXPECT_GT(m.allreduce_time(uneven, bytes), m.allreduce_time(even, bytes));
}

}  // namespace
}  // namespace dynmo::comm
