// Native google-benchmark runs of the real Table-2 micro-kernel
// implementations on the host machine. These do not reproduce a paper
// figure (the paper's numbers come from the modelled platforms); they
// exist to benchmark the real code paths the test suite verifies.

#include <benchmark/benchmark.h>

#include "tibsim/common/thread_pool.hpp"
#include "tibsim/kernels/microkernel.hpp"
#include "tibsim/kernels/stream.hpp"

namespace {

using tibsim::kernels::makeKernel;

std::size_t nativeSize(const std::string& tag) {
  if (tag == "dmmm") return 96;
  if (tag == "3dstc") return 32;
  if (tag == "2dcon") return 160;
  if (tag == "fft") return 8192;
  if (tag == "nbody") return 384;
  if (tag == "amcd") return 200000;
  if (tag == "spvm") return 2000;
  return 100000;
}

void BM_KernelSerial(benchmark::State& state, const std::string& tag) {
  auto kernel = makeKernel(tag);
  kernel->setup(nativeSize(tag), 42);
  for (auto _ : state) {
    kernel->runSerial();
    benchmark::ClobberMemory();
  }
  const auto profile = kernel->currentProfile();
  state.counters["flops"] = profile.flops;
  state.SetItemsProcessed(state.iterations());
}

void BM_KernelParallel(benchmark::State& state, const std::string& tag) {
  static tibsim::TaskPool pool(0);
  auto kernel = makeKernel(tag);
  kernel->setup(nativeSize(tag), 42);
  for (auto _ : state) {
    kernel->runParallel(pool);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_StreamTriad(benchmark::State& state) {
  tibsim::kernels::StreamBenchmark bench;
  bench.setup(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bench.runSerial(tibsim::kernels::StreamOp::Triad);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0) * 24);
}

struct Registrar {
  Registrar() {
    for (const auto& tag : tibsim::kernels::suiteTags()) {
      benchmark::RegisterBenchmark(("serial/" + tag).c_str(),
                                   [tag](benchmark::State& st) {
                                     BM_KernelSerial(st, tag);
                                   });
      benchmark::RegisterBenchmark(("parallel/" + tag).c_str(),
                                   [tag](benchmark::State& st) {
                                     BM_KernelParallel(st, tag);
                                   });
    }
  }
} registrar;

BENCHMARK(BM_StreamTriad)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

}  // namespace

BENCHMARK_MAIN();
