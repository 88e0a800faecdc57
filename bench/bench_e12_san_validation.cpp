// E12 — SAN engine validation: the Monte-Carlo solver against closed-form
// results (M/M/1 mean queue length, two-state availability, Erlang first
// passage). The paper's case study rests on "a system model ... developed
// by means of the stochastic activity networks (SAN) formalism"; this
// bench shows our SAN engine is quantitatively trustworthy.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"
#include "san/analysis.h"
#include "san/simulator.h"

namespace {

using namespace divsec;
using san::Marking;
using san::SanModel;

void print_mm1() {
  bench::section("E12a: M/M/1 mean number in system, MC vs rho/(1-rho)");
  bench::row({"rho", "analytic", "SAN Monte-Carlo", "rel err"}, 18);
  for (double rho : {0.2, 0.5, 0.8}) {
    SanModel m;
    const auto queue = m.add_place("queue", 0);
    const auto arrive = m.add_timed_activity("arrive", stats::Exponential{rho});
    m.add_output_arc(arrive, queue);
    const auto serve = m.add_timed_activity("serve", stats::Exponential{1.0});
    m.add_input_arc(serve, queue);
    const auto r = san::interval_of_time_average(
        m, [queue](const Marking& mk) { return static_cast<double>(mk[queue]); },
        20000.0, 30, 7);
    const double analytic = rho / (1.0 - rho);
    bench::row({bench::fmt(rho, 2), bench::fmt(analytic),
                bench::fmt(r.stats.mean()),
                bench::fmt(std::fabs(r.stats.mean() - analytic) / analytic, 4)},
               18);
  }
}

void print_availability() {
  bench::section("E12b: two-state availability, MC vs mu/(lambda+mu)");
  bench::row({"lambda", "mu", "analytic", "SAN Monte-Carlo"}, 16);
  for (const auto& [lambda, mu] :
       std::vector<std::pair<double, double>>{{0.1, 0.9}, {0.02, 0.5}}) {
    SanModel m;
    const auto up = m.add_place("up", 1);
    const auto down = m.add_place("down", 0);
    const auto fail = m.add_timed_activity("fail", stats::Exponential{lambda});
    m.add_input_arc(fail, up);
    m.add_output_arc(fail, down);
    const auto repair = m.add_timed_activity("repair", stats::Exponential{mu});
    m.add_input_arc(repair, down);
    m.add_output_arc(repair, up);
    const auto r = san::interval_of_time_average(
        m, [up](const Marking& mk) { return static_cast<double>(mk[up]); },
        20000.0, 30, 11);
    bench::row({bench::fmt(lambda, 2), bench::fmt(mu, 2),
                bench::fmt(mu / (lambda + mu)), bench::fmt(r.stats.mean())},
               16);
  }
}

void print_erlang_chain() {
  bench::section("E12c: k-stage exponential chain first passage, MC vs k/rate");
  bench::row({"stages k", "rate", "analytic mean", "SAN mean"}, 16);
  for (int k : {2, 5, 10}) {
    SanModel m;
    std::vector<san::PlaceId> places;
    for (int i = 0; i <= k; ++i)
      places.push_back(
          m.add_place(std::string("s").append(std::to_string(i)), i == 0 ? 1 : 0));
    for (int i = 0; i < k; ++i) {
      const auto a = m.add_timed_activity(std::string("t").append(std::to_string(i)),
                                          stats::Exponential{2.0});
      m.add_input_arc(a, places[static_cast<std::size_t>(i)]);
      m.add_output_arc(a, places[static_cast<std::size_t>(i) + 1]);
    }
    const auto last = places.back();
    const auto fp = san::first_passage(
        m, [last](const Marking& mk) { return mk[last] >= 1; }, 1000.0, 20000, 13);
    bench::row({bench::fmt_int(k), bench::fmt(2.0, 1), bench::fmt(k / 2.0),
                bench::fmt(fp.conditional_mean())},
               16);
  }
}

void BM_San_MM1_Events(benchmark::State& state) {
  SanModel m;
  const auto queue = m.add_place("queue", 0);
  const auto arrive = m.add_timed_activity("arrive", stats::Exponential{0.5});
  m.add_output_arc(arrive, queue);
  const auto serve = m.add_timed_activity("serve", stats::Exponential{1.0});
  m.add_input_arc(serve, queue);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    stats::Rng rng(1, seed++);
    san::SanSimulator sim(m, rng);
    sim.run_until(1000.0);
    benchmark::DoNotOptimize(sim.total_firings());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_San_MM1_Events)->Unit(benchmark::kMicrosecond);

void BM_San_FirstPassage(benchmark::State& state) {
  SanModel m;
  const auto src = m.add_place("src", 1);
  const auto dst = m.add_place("dst", 0);
  const auto a = m.add_timed_activity("a", stats::Exponential{1.0});
  m.add_input_arc(a, src);
  m.add_output_arc(a, dst);
  for (auto _ : state) {
    auto fp = san::first_passage(
        m, [dst](const Marking& mk) { return mk[dst] >= 1; }, 100.0, 1000, 3);
    benchmark::DoNotOptimize(fp);
  }
}
BENCHMARK(BM_San_FirstPassage)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_mm1();
  print_availability();
  print_erlang_chain();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
