// Micro-benchmarks (google-benchmark) for the real compute kernels: dense
// matmul and top-k selection — the building blocks of the threaded runtime
// and the distributed pruning path.
#include <benchmark/benchmark.h>

#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using dynmo::Rng;
using dynmo::tensor::Tensor;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::random(n, n, rng);
  const Tensor b = Tensor::random(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynmo::tensor::matmul(a, b));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_TopK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> xs(n);
  for (auto& v : xs) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynmo::tensor::topk_abs_indices(xs, n / 10));
  }
}
BENCHMARK(BM_TopK)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
