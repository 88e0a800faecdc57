// campaign_rng.h — the per-event-class RNG facade of the campaign
// kernel, and the ziggurat exponential sampler behind it.
//
// THE DRAW-ORDER CONTRACT (part of the reproducibility contract since
// the SoA kernel; tests/test_soa_campaign.cpp pins it and
// tests/test_campaign_golden.cpp pins its results bit for bit):
//
// A campaign replication does not consume words directly from its
// stats::Rng(cell.seed, rep) stream. Instead the facade derives one
// child stream per event class with Rng::stream(class id) — derivation
// does not consume base state — and every random decision of the run
// draws from the stream of the event class that owns it:
//
//   id  class         draws owned by the class
//   --  ------------  -------------------------------------------------
//   0   entry         entry-node pick; t_entry exponentials
//   1   activation    activation delay exponentials (first + retries),
//                     activation success Bernoulli, failed-attempt
//                     detection Bernoulli after a failed activation
//   2   privesc       privesc delay exponentials, success Bernoulli,
//                     failed-attempt Bernoulli after a failed privesc
//   3   propagation   t_prop exponentials; the thinned-scan slot pick
//                     (ONE weighted word selecting root, channel and
//                     victim from the ReachabilityIndex scan/tunnel
//                     target lists); firewall-bypass Bernoulli of
//                     tunnel-slot scans on eligible victims; lateral
//                     success Bernoulli; failed-attempt Bernoulli after
//                     a failed lateral
//   4   payload       t_payload exponentials; source / target picks;
//                     firewall-bypass Bernoullis of the payload reach
//                     tests; payload success Bernoulli; failed-attempt
//                     Bernoulli after a failed payload
//   5   sabotage      t_sabotage exponentials; sabotaged-PLC pick
//   6   host-IDS      t_host exponentials
//   7   plant-alarm   t_alarm exponentials; spoof-thinning Bernoulli
//
// Within a class, words are consumed strictly in call order; that
// per-class call order is the whole contract. Each next() pulls one word
// straight from the class stream — nothing is prefetched, so a short run
// pays only for the words it draws. A (cell, rep) job therefore remains
// a pure function of Rng(cell.seed, rep) — the DIVSEC_THREADS / shard /
// process-split contract of the engine — while the kernel is free to
// reorder work across classes.
//
// Exponentials are sampled with a 256-layer Marsaglia–Tsang ziggurat
// (one word + one table compare on the common path, vs. a libm log()
// per draw).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "stats/rng.h"

// Per-class draw accounting (telemetry only; plain members, no atomics)
// compiles out with the rest of the obs:: hot path.
#if !defined(DIVSEC_OBS)
#define DIVSEC_OBS 1
#endif

namespace divsec::attack {

/// Event classes of the campaign draw-order contract. The numeric values
/// are the Rng::stream() ids — fixed, documented above, pinned by tests.
enum class DrawClass : std::uint8_t {
  kEntry = 0,
  kActivation = 1,
  kPrivesc = 2,
  kPropagation = 3,
  kPayload = 4,
  kSabotage = 5,
  kHostIds = 6,
  kAlarm = 7,
};

inline constexpr std::size_t kDrawClassCount = 8;

/// 256-layer ziggurat for Exp(1) (Marsaglia & Tsang, "The Ziggurat
/// Method for Generating Random Variables", JSS 2000), widened to a
/// 53-bit uniform per layer: the common path is one 64-bit word, one
/// table compare and one multiply. Layer index and uniform bits come
/// from disjoint bits of the word (the original shares the low byte).
class ZigguratExp {
 public:
  ZigguratExp() noexcept {
    constexpr double m = 9007199254740992.0;  // 2^53
    double de = kTail, te = kTail;
    constexpr double ve = 3.949659822581572e-3;  // layer area
    const double q = ve / std::exp(-de);
    ke_[0] = static_cast<std::uint64_t>((de / q) * m);
    ke_[1] = 0;
    we_[0] = q / m;
    we_[255] = de / m;
    fe_[0] = 1.0;
    fe_[255] = std::exp(-de);
    for (int i = 254; i >= 1; --i) {
      de = -std::log(ve / de + std::exp(-de));
      ke_[i + 1] = static_cast<std::uint64_t>((de / te) * m);
      te = de;
      fe_[i] = std::exp(-de);
      we_[i] = de / m;
    }
  }

  /// Sample Exp(1) from a 64-bit word source (called once on the common
  /// path; the rejection / tail path pulls more words).
  template <typename NextWord>
  [[nodiscard]] double operator()(NextWord&& next) const {
    for (;;) {
      const std::uint64_t w = next();
      const std::size_t i = w & 255u;
      const std::uint64_t j = w >> 11;  // 53-bit uniform, disjoint bits
      if (j < ke_[i]) return static_cast<double>(j) * we_[i];
      if (i == 0) return kTail - std::log(1.0 - u01(next()));  // tail: r + Exp(1)
      const double x = static_cast<double>(j) * we_[i];
      if (fe_[i] + u01(next()) * (fe_[i - 1] - fe_[i]) < std::exp(-x)) return x;
    }
  }

  static const ZigguratExp& instance() noexcept {
    static const ZigguratExp z;
    return z;
  }

 private:
  static constexpr double kTail = 7.697117470131487;
  [[nodiscard]] static double u01(std::uint64_t w) noexcept {
    return static_cast<double>(w >> 11) * 0x1.0p-53;
  }
  std::array<std::uint64_t, 256> ke_{};
  std::array<double, 256> we_{};
  std::array<double, 256> fe_{};
};

/// The per-class draw facade over one replication's base stream. One
/// instance per run(); not thread-safe (a run is single-threaded).
class CampaignRng {
 public:
  /// Derives the kDrawClassCount class streams from `base` (base state
  /// is not consumed).
  explicit CampaignRng(const stats::Rng& base) {
    for (std::size_t c = 0; c < kDrawClassCount; ++c)
      lanes_[c].rng = base.stream(c);
  }

  /// Next raw word of the class stream, in strict per-class call order.
  [[nodiscard]] std::uint64_t next(DrawClass c) noexcept {
    Lane& lane = lanes_[static_cast<std::size_t>(c)];
#if DIVSEC_OBS
    ++lane.drawn;
#endif
    return lane.rng();
  }

  /// Words consumed per class this run — the obs:: correctness probe
  /// for the draw-ownership table above. All zeros when the telemetry
  /// hot path is compiled out.
  [[nodiscard]] std::array<std::uint64_t, kDrawClassCount> words_drawn()
      const noexcept {
    std::array<std::uint64_t, kDrawClassCount> out{};
#if DIVSEC_OBS
    for (std::size_t c = 0; c < kDrawClassCount; ++c) out[c] = lanes_[c].drawn;
#endif
    return out;
  }

  /// Uniform double in [0, 1), 53 bits (same mapping as Rng::uniform()).
  [[nodiscard]] double uniform(DrawClass c) noexcept {
    return static_cast<double>(next(c) >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n), Lemire nearly-divisionless (same
  /// algorithm as Rng::below; rejection may consume extra words).
  [[nodiscard]] std::uint64_t below(DrawClass c, std::uint64_t n) noexcept {
    std::uint64_t x = next(c);
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next(c);
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  [[nodiscard]] bool bernoulli(DrawClass c, double p) noexcept {
    return uniform(c) < p;
  }

  /// Standard exponential (mean 1) via the shared ziggurat.
  [[nodiscard]] double exp_std(DrawClass c) noexcept {
    return ZigguratExp::instance()([this, c] { return next(c); });
  }

 private:
  struct Lane {
    stats::Rng rng{0, 0};
#if DIVSEC_OBS
    std::uint64_t drawn = 0;  // words handed out (telemetry only)
#endif
  };

  std::array<Lane, kDrawClassCount> lanes_;
};

}  // namespace divsec::attack
