#include "dist/state_codec.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "dist/fnv.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace divsec::dist {

namespace {

constexpr char kMagic[8] = {'D', 'V', 'S', 'W', 'E', 'E', 'P', 'S'};

/// Embedded-JSON-header cap: per-cell lists render inline only up to
/// this many cells, so the informational header stays O(1) on fleet
/// sweeps (the binary meta is authoritative either way).
constexpr std::size_t kJsonListCap = 64;

/// Sanity bound on any decoded array length. Run-length tokens can
/// expand far beyond the input size, so a forged count must be rejected
/// before it drives allocation — no legitimate sweep state comes close.
constexpr std::uint64_t kMaxArray = std::uint64_t{1} << 26;

// ---- primitive byte codec (little-endian, padding-free) --------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// LEB128 varint: 7 bits per byte, low bits first, high bit = continue.
void put_var(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

[[nodiscard]] std::uint64_t byteswap64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r = (r << 8) | (v & 0xFF);
    v >>= 8;
  }
  return r;
}

/// "varf64": varint of the byte-swapped IEEE-754 bit pattern. A double's
/// low mantissa bytes are zero for "clean" values (integers, halves, a
/// zeroed accumulator); swapping moves those zeros to the high end,
/// where LEB128 drops them — 2160.0 costs 3 bytes, 0.0 costs 1, a noisy
/// full-mantissa double at most 10.
void put_varf(std::string& out, double v) {
  put_var(out, byteswap64(std::bit_cast<std::uint64_t>(v)));
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t offset() const noexcept { return off_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - off_;
  }

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[off_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[off_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    off_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[off_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    off_ += 8;
    return v;
  }

  [[nodiscard]] std::uint64_t var() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) {
        // The 10th byte may only carry the top bit of the 64 (64 = 9*7+1).
        if (shift == 63 && (b & 0x7E))
          throw std::runtime_error("shard state: varint overflows 64 bits");
        return v;
      }
    }
    throw std::runtime_error("shard state: varint overflows 64 bits");
  }

  [[nodiscard]] double varf() {
    return std::bit_cast<double>(byteswap64(var()));
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(bytes_.substr(off_, n));
    off_ += n;
    return s;
  }

  /// Varint-length-prefixed string (packed sections).
  [[nodiscard]] std::string vstr() {
    const std::uint64_t n = var();
    need(n);
    std::string s(bytes_.substr(off_, static_cast<std::size_t>(n)));
    off_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] std::string_view take(std::size_t n) {
    need(n);
    const std::string_view v = bytes_.substr(off_, n);
    off_ += n;
    return v;
  }

  void skip(std::size_t n) {
    need(n);
    off_ += n;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n)
      throw std::runtime_error("shard state: truncated input");
  }

  std::string_view bytes_;
  std::size_t off_ = 0;
};

// ---- dual-mode section writer ----------------------------------------------

/// Writes a section payload either packed (the v4 wire format) or
/// fixed-width (8 bytes per number — the "uncompressed equivalent" the
/// compression ratio is measured against). Both modes walk the identical
/// field sequence, so the equivalent is the same content, only wider.
struct Writer {
  std::string out;
  bool packed = true;

  void u32(std::uint32_t v) {
    if (packed)
      put_var(out, v);
    else
      put_u32(out, v);
  }
  void u64(std::uint64_t v) {
    if (packed)
      put_var(out, v);
    else
      put_u64(out, v);
  }
  void f64(double v) {
    if (packed)
      put_varf(out, v);
    else
      put_f64(out, v);
  }
  void byte(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    out += s;
  }

  /// Sparse count array: zero runs collapse to (0, run-length); nonzero
  /// values encode directly. Right for survival bins, where most bins
  /// hold nothing.
  void counts(std::span<const std::uint64_t> v) {
    if (!packed) {
      for (const std::uint64_t x : v) put_u64(out, x);
      return;
    }
    std::size_t i = 0;
    while (i < v.size()) {
      if (v[i] == 0) {
        std::size_t j = i;
        while (j < v.size() && v[j] == 0) ++j;
        put_var(out, 0);
        put_var(out, j - i);
        i = j;
      } else {
        put_var(out, v[i]);
        ++i;
      }
    }
  }

  /// Flat array: (value, run-length) pairs. Right for per-cell lists
  /// where long stretches of cells share one value (achieved counts,
  /// termination rounds).
  void runs(std::span<const std::uint64_t> v) {
    if (!packed) {
      for (const std::uint64_t x : v) put_u64(out, x);
      return;
    }
    std::size_t i = 0;
    while (i < v.size()) {
      std::size_t j = i;
      while (j < v.size() && v[j] == v[i]) ++j;
      put_var(out, v[i]);
      put_var(out, j - i);
      i = j;
    }
  }

  /// Strictly ascending id list: first value, then gaps.
  void ascending(std::span<const std::uint64_t> v) {
    if (!packed) {
      for (const std::uint64_t x : v) put_u64(out, x);
      return;
    }
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      put_var(out, i == 0 ? v[i] : v[i] - prev);
      prev = v[i];
    }
  }

  /// Monotone-ish array (curve sums): zigzag deltas, then the sparse
  /// count coding — a plateaued curve is runs of zero deltas.
  void zz_deltas(std::span<const std::uint64_t> v) {
    if (!packed) {
      for (const std::uint64_t x : v) put_u64(out, x);
      return;
    }
    std::vector<std::uint64_t> zz(v.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      zz[i] = zigzag(static_cast<std::int64_t>(v[i] - prev));
      prev = v[i];
    }
    counts(zz);
  }
};

[[nodiscard]] std::vector<std::uint64_t> get_counts(Reader& r,
                                                    std::uint64_t n) {
  if (n > kMaxArray)
    throw std::runtime_error("shard state: array length exceeds sanity bound");
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  while (out.size() < n) {
    const std::uint64_t v = r.var();
    if (v == 0) {
      const std::uint64_t run = r.var();
      if (run == 0 || run > n - out.size())
        throw std::runtime_error("shard state: bad zero-run length");
      out.insert(out.end(), static_cast<std::size_t>(run), 0);
    } else {
      out.push_back(v);
    }
  }
  return out;
}

[[nodiscard]] std::vector<std::uint64_t> get_runs(Reader& r, std::uint64_t n) {
  if (n > kMaxArray)
    throw std::runtime_error("shard state: array length exceeds sanity bound");
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  while (out.size() < n) {
    const std::uint64_t v = r.var();
    const std::uint64_t run = r.var();
    if (run == 0 || run > n - out.size())
      throw std::runtime_error("shard state: bad run length");
    out.insert(out.end(), static_cast<std::size_t>(run), v);
  }
  return out;
}

[[nodiscard]] std::vector<std::uint64_t> get_zz_deltas(Reader& r,
                                                       std::uint64_t n) {
  std::vector<std::uint64_t> zz = get_counts(r, n);
  std::uint64_t prev = 0;
  for (std::uint64_t& v : zz) {
    prev += static_cast<std::uint64_t>(unzigzag(v));
    v = prev;
  }
  return zz;
}

// ---- state blobs -----------------------------------------------------------

void put_online(Writer& w, const stats::OnlineStats::State& s) {
  w.u64(s.n);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
}

stats::OnlineStats::State get_online(Reader& r) {
  stats::OnlineStats::State s;
  s.n = r.var();
  s.mean = r.varf();
  s.m2 = r.varf();
  s.min = r.varf();
  s.max = r.varf();
  return s;
}

void put_digest(Writer& w, const stats::TDigest::State& s) {
  w.f64(s.compression);
  w.f64(s.min);
  w.f64(s.max);
  w.u64(s.centroids.size());
  for (const auto& c : s.centroids) {
    w.f64(c.mean);
    w.u64(c.weight);
  }
}

stats::TDigest::State get_digest(Reader& r) {
  stats::TDigest::State s;
  s.compression = r.varf();
  s.min = r.varf();
  s.max = r.varf();
  const std::uint64_t n = r.var();
  // Every centroid costs at least 2 bytes (varf mean + varint weight).
  if (n > r.remaining() / 2)
    throw std::runtime_error("shard state: centroid count exceeds input");
  s.centroids.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    stats::TDigest::Centroid c;
    c.mean = r.varf();
    c.weight = r.var();
    s.centroids.push_back(c);
  }
  return s;
}

void put_survival(Writer& w, const stats::StreamingSurvival::State& s) {
  w.f64(s.horizon);
  w.u64(s.n);
  w.u64(s.events);
  w.u64(s.events_in.size());
  w.counts(s.events_in);
  w.u64(s.censored_in.size());
  w.counts(s.censored_in);
}

stats::StreamingSurvival::State get_survival(Reader& r) {
  stats::StreamingSurvival::State s;
  s.horizon = r.varf();
  s.n = r.var();
  s.events = r.var();
  s.events_in = get_counts(r, r.var());
  s.censored_in = get_counts(r, r.var());
  return s;
}

void put_censored(Writer& w, const stats::CensoredTimeAccumulator::State& s) {
  put_online(w, s.moments);
  w.u64(s.censored);
  put_digest(w, s.times);
  put_survival(w, s.survival);
}

stats::CensoredTimeAccumulator::State get_censored(Reader& r) {
  stats::CensoredTimeAccumulator::State s;
  s.moments = get_online(r);
  s.censored = r.var();
  s.times = get_digest(r);
  s.survival = get_survival(r);
  return s;
}

void put_curve(Writer& w, const core::RatioCurveAccumulator::State& s) {
  w.f64(s.horizon);
  w.u64(s.scale);
  w.u64(s.n);
  w.u64(s.sums.size());
  w.zz_deltas(s.sums);
}

core::RatioCurveAccumulator::State get_curve(Reader& r) {
  core::RatioCurveAccumulator::State s;
  s.horizon = r.varf();
  s.scale = r.var();
  s.n = r.var();
  s.sums = get_zz_deltas(r, r.var());
  return s;
}

void put_accumulator(Writer& w, const core::IndicatorAccumulator::State& s) {
  w.f64(s.horizon);
  w.u64(s.n);
  w.u64(s.successes);
  put_censored(w, s.tta);
  put_censored(w, s.ttsf);
  put_online(w, s.final_ratio);
  put_curve(w, s.curve);
}

core::IndicatorAccumulator::State get_accumulator(Reader& r) {
  core::IndicatorAccumulator::State s;
  s.horizon = r.varf();
  s.n = r.var();
  s.successes = r.var();
  s.tta = get_censored(r);
  s.ttsf = get_censored(r);
  s.final_ratio = get_online(r);
  s.curve = get_curve(r);
  return s;
}

// ---- sections --------------------------------------------------------------

void put_meta(Writer& w, const SweepMeta& m) {
  w.str(m.preset);
  w.str(m.threat);
  w.u64(m.policies.size());
  for (const auto p : m.policies)
    w.byte(static_cast<std::uint8_t>(p));
  w.u64(m.seed);
  w.u64(m.replications);
  w.u64(m.replication_block);
  w.u64(m.superblock);
  w.u64(m.survival_bins);
  w.f64(m.horizon_hours);
  w.u64(m.cells);
  w.u64(m.achieved.size());
  w.runs(m.achieved);
  w.u64(m.shard);
  w.u64(m.shard_count);
  w.byte(m.merged ? 1 : 0);
  w.f64(m.wall_ms);
  w.u32(m.threads);
}

void get_meta(Reader& r, SweepMeta& m) {
  m.preset = r.vstr();
  m.threat = r.vstr();
  const std::uint64_t npol = r.var();
  // One byte per policy: a count the remaining payload cannot hold is
  // corruption. (No arbitrary cap — sweeps with many replicate arms are
  // legitimate, and whatever encode writes must decode.)
  if (npol > r.remaining())
    throw std::runtime_error("shard state: policy list exceeds input size");
  m.policies.reserve(static_cast<std::size_t>(npol));
  for (std::uint64_t i = 0; i < npol; ++i) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(scenario::VariantPolicy::kBalancedRotation))
      throw std::runtime_error("shard state: unknown variant policy");
    m.policies.push_back(static_cast<scenario::VariantPolicy>(raw));
  }
  m.seed = r.var();
  m.replications = r.var();
  m.replication_block = r.var();
  m.superblock = r.var();
  m.survival_bins = r.var();
  m.horizon_hours = r.varf();
  m.cells = r.var();
  if (m.cells != m.policies.size())
    throw std::runtime_error(
        "shard state: cell count disagrees with the policy list");
  const std::uint64_t nachieved = r.var();
  if (nachieved != 0 && nachieved != m.cells)
    throw std::runtime_error(
        "shard state: achieved-count list disagrees with the cell count");
  m.achieved = get_runs(r, nachieved);
  for (const std::uint64_t a : m.achieved)
    if (a == 0 || a > m.replications)
      throw std::runtime_error(
          "shard state: achieved replications outside (0, budget]");
  m.shard = r.var();
  m.shard_count = r.var();
  m.merged = r.u8() != 0;
  m.wall_ms = r.varf();
  m.threads = static_cast<std::uint32_t>(r.var());
}

void validate_state(const ShardState& state) {
  if (state.partials.size() != state.tasks.size())
    throw std::invalid_argument(
        "encode_shard_state: partial count != task list size");
  for (std::size_t t = 1; t < state.tasks.size(); ++t)
    if (state.tasks[t] <= state.tasks[t - 1])
      throw std::invalid_argument(
          "encode_shard_state: task list must be strictly ascending");
  if (!state.cost.cells.empty() && state.cost.cells.size() != state.meta.cells)
    throw std::invalid_argument(
        "encode_shard_state: cost model cell count != sweep cell count");
  if (!state.meta.achieved.empty()) {
    if (state.meta.achieved.size() != state.meta.cells)
      throw std::invalid_argument(
          "encode_shard_state: achieved count != sweep cell count");
    for (const std::uint64_t a : state.meta.achieved)
      if (a == 0 || a > state.meta.replications)
        throw std::invalid_argument(
            "encode_shard_state: achieved replications outside (0, budget]");
  }
  if (!state.cell_rounds.empty() &&
      state.cell_rounds.size() != state.meta.cells)
    throw std::invalid_argument(
        "encode_shard_state: termination-round count != sweep cell count");
}

void put_tasks_section(Writer& w, const ShardState& state) {
  w.u64(state.tasks.size());
  w.ascending(state.tasks);
}

void put_accumulators_section(Writer& w, const ShardState& state) {
  for (const auto& p : state.partials) put_accumulator(w, p);
}

void put_cost_section(Writer& w, const ShardState& state) {
  w.u64(state.cost.cells.size());
  for (const auto& c : state.cost.cells) {
    w.u64(c.replications);
    w.f64(c.seconds);
  }
}

void put_rounds_section(Writer& w, const ShardState& state) {
  w.u64(state.rounds.size());
  for (const RoundLog& rl : state.rounds) {
    w.u64(rl.round);
    w.u64(rl.active_cells);
    w.u64(rl.tasks);
    w.u64(rl.replications);
    w.f64(rl.wall_ms);
    w.f64(rl.merge_ms);
  }
  w.u64(state.cell_rounds.size());
  w.runs(state.cell_rounds);
}

using SectionFn = void (*)(Writer&, const ShardState&);

constexpr SectionFn kSections[] = {
    [](Writer& w, const ShardState& s) { put_meta(w, s.meta); },
    put_tasks_section, put_accumulators_section, put_cost_section,
    put_rounds_section};

constexpr std::size_t kSectionCount = std::size(kSections);
constexpr const char* kSectionNames[kSectionCount] = {
    "meta", "tasks", "accumulators", "cost", "rounds"};

/// Codec telemetry: per-call totals plus per-section byte/time
/// breakdowns — the live counterpart of state_section_sizes.
struct CodecCounters {
  obs::Counter& encode_calls = obs::counter("codec.encode.calls");
  obs::Counter& encode_bytes = obs::counter("codec.encode.bytes");
  obs::Counter& encode_ns = obs::counter("codec.encode.ns");
  obs::Counter& decode_calls = obs::counter("codec.decode.calls");
  obs::Counter& decode_bytes = obs::counter("codec.decode.bytes");
  obs::Counter& decode_ns = obs::counter("codec.decode.ns");
  std::array<obs::Counter*, kSectionCount> encode_section_bytes{};
  std::array<obs::Counter*, kSectionCount> encode_section_ns{};
  std::array<obs::Counter*, kSectionCount> decode_section_bytes{};
  std::array<obs::Counter*, kSectionCount> decode_section_ns{};

  CodecCounters() {
    for (std::size_t s = 0; s < kSectionCount; ++s) {
      const std::string name = kSectionNames[s];
      encode_section_bytes[s] =
          &obs::counter("codec.encode." + name + ".bytes");
      encode_section_ns[s] = &obs::counter("codec.encode." + name + ".ns");
      decode_section_bytes[s] =
          &obs::counter("codec.decode." + name + ".bytes");
      decode_section_ns[s] = &obs::counter("codec.decode." + name + ".ns");
    }
  }

  static const CodecCounters& instance() {
    static const CodecCounters counters;
    return counters;
  }
};

std::uint64_t codec_elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::uint64_t sweep_fingerprint(const SweepMeta& meta) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a_mix(h, kStateFormatVersion);
  fnv1a_mix(h, meta.preset);
  fnv1a_mix(h, meta.threat);
  fnv1a_mix(h, static_cast<std::uint64_t>(meta.policies.size()));
  for (const auto p : meta.policies)
    fnv1a_mix(h, static_cast<std::uint64_t>(p));
  fnv1a_mix(h, meta.seed);
  fnv1a_mix(h, meta.replications);
  fnv1a_mix(h, meta.replication_block);
  fnv1a_mix(h, meta.superblock);
  fnv1a_mix(h, meta.survival_bins);
  fnv1a_mix(h, std::bit_cast<std::uint64_t>(meta.horizon_hours));
  fnv1a_mix(h, meta.cells);
  // The achieved list is identity: an adaptive merge/replay must agree on
  // where every cell stopped, and a fixed-budget state (empty list) must
  // never merge with an adaptive one.
  fnv1a_mix(h, static_cast<std::uint64_t>(meta.achieved.size()));
  for (const std::uint64_t a : meta.achieved) fnv1a_mix(h, a);
  return h;
}

std::string meta_json(const SweepMeta& meta) {
  using util::json_number_exact;
  using util::json_string;
  std::string out = "{";
  out += "\"format\": \"divsec-sweep-state\"";
  out += ", \"version\": " + std::to_string(kStateFormatVersion);
  out += ", \"preset\": " + json_string(meta.preset);
  if (meta.policies.size() <= kJsonListCap) {
    std::string policies;
    for (std::size_t i = 0; i < meta.policies.size(); ++i) {
      if (i) policies += ", ";
      policies += json_string(scenario::to_string(meta.policies[i]));
    }
    out += ", \"policies\": [" + policies + "]";
  } else {
    // Elided at fleet scale: the header identifies the file; the binary
    // meta carries the full list.
    out += ", \"policy_count\": " + std::to_string(meta.policies.size());
  }
  out += ", \"threat\": " + json_string(meta.threat);
  out += ", \"seed\": " + std::to_string(meta.seed);
  out += ", \"replications\": " + std::to_string(meta.replications);
  out += ", \"replication_block\": " + std::to_string(meta.replication_block);
  out += ", \"superblock\": " + std::to_string(meta.superblock);
  out += ", \"survival_bins\": " + std::to_string(meta.survival_bins);
  out += ", \"horizon_hours\": " + json_number_exact(meta.horizon_hours);
  out += ", \"cells\": " + std::to_string(meta.cells);
  out += std::string(", \"adaptive\": ") +
         (meta.achieved.empty() ? "false" : "true");
  if (!meta.achieved.empty()) {
    if (meta.achieved.size() <= kJsonListCap) {
      out += ", \"achieved\": [";
      for (std::size_t i = 0; i < meta.achieved.size(); ++i) {
        if (i) out += ", ";
        out += std::to_string(meta.achieved[i]);
      }
      out += "]";
    } else {
      std::uint64_t total = 0;
      for (const std::uint64_t a : meta.achieved) total += a;
      out += ", \"achieved_total\": " + std::to_string(total);
    }
  }
  out += ", \"shard\": " + std::to_string(meta.shard);
  out += ", \"shard_count\": " + std::to_string(meta.shard_count);
  out += std::string(", \"merged\": ") + (meta.merged ? "true" : "false");
  out += ", \"wall_ms\": " + util::json_number(meta.wall_ms);
  out += ", \"threads\": " + std::to_string(meta.threads);
  out += ", \"fingerprint\": \"" + fingerprint_hex(sweep_fingerprint(meta));
  out += "\", \"cost_fingerprint\": \"" + fingerprint_hex(cost_fingerprint(meta));
  out += "\"}";
  return out;
}

std::string encode_shard_state(const ShardState& state) {
  const CodecCounters& counters = CodecCounters::instance();
  const auto started = std::chrono::steady_clock::now();
  validate_state(state);
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kStateFormatVersion);
  put_str(out, meta_json(state.meta));
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const auto section_started = std::chrono::steady_clock::now();
    Writer w{.out = {}, .packed = true};
    kSections[s](w, state);
    put_var(out, w.out.size());
    out += w.out;
    counters.encode_section_bytes[s]->add(w.out.size());
    counters.encode_section_ns[s]->add(codec_elapsed_ns(section_started));
  }
  put_u64(out, fnv1a(out));
  counters.encode_calls.add(1);
  counters.encode_bytes.add(out.size());
  counters.encode_ns.add(codec_elapsed_ns(started));
  return out;
}

std::size_t uncompressed_equivalent_bytes(const ShardState& state) {
  validate_state(state);
  // Same framing, same JSON header, same content and field sequence —
  // every number just costs its fixed 8 (or 4) bytes, the way versions
  // 1–3 encoded, with u32 section length prefixes.
  std::size_t total = sizeof(kMagic) + 4;
  total += 4 + meta_json(state.meta).size();
  for (const SectionFn section : kSections) {
    Writer w{.out = {}, .packed = false};
    section(w, state);
    total += 4 + w.out.size();
  }
  return total + 8;  // trailing checksum
}

namespace {

/// Shared framing validation of decode_shard_state and
/// state_section_sizes: magic, checksum-before-anything, version (with
/// the regenerate-shards hint — old formats are never migrated, shards
/// are cheap to reproduce by construction). Returns a reader positioned
/// after the magic/version/JSON header, covering everything but the
/// trailing checksum.
Reader open_state(std::string_view bytes) {
  if (bytes.substr(0, 12) == "divsec-tasks")
    throw std::runtime_error(
        "shard state: this is a task-plan file (divsec_sweep plan output), "
        "not a shard state — pass it via --tasks instead");
  if (bytes.size() < sizeof(kMagic) + 4 + 8 ||
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("shard state: not a divsec sweep state file");
  const std::uint64_t stored =
      Reader(bytes.substr(bytes.size() - 8)).u64();
  if (fnv1a(bytes.substr(0, bytes.size() - 8)) != stored)
    throw std::runtime_error("shard state: checksum mismatch (file damaged)");

  Reader r(bytes.substr(0, bytes.size() - 8));
  r.skip(sizeof(kMagic));
  const std::uint32_t version = r.u32();
  if (version != kStateFormatVersion)
    throw std::runtime_error(
        "shard state: unsupported format version " + std::to_string(version) +
        " (this build reads v" + std::to_string(kStateFormatVersion) +
        ") — regenerate shards with this build's divsec_sweep");
  (void)r.str();  // the informational JSON header; binary meta is authoritative
  return r;
}

/// Reads one varint-length-prefixed section and hands a bounded reader
/// to `parse`; a section that does not consume exactly its declared
/// length is corrupt.
template <typename Parse>
void read_section(Reader& r, Parse&& parse) {
  const std::uint64_t len = r.var();
  Reader sr(r.take(static_cast<std::size_t>(len)));
  parse(sr);
  if (sr.remaining() != 0)
    throw std::runtime_error("shard state: section length mismatch");
}

}  // namespace

ShardState decode_shard_state(std::string_view bytes) {
  const CodecCounters& counters = CodecCounters::instance();
  const auto started = std::chrono::steady_clock::now();
  Reader r = open_state(bytes);
  ShardState state;
  SweepMeta& m = state.meta;

  // Per-section accounting: sections decode in kSections order, so the
  // running index lines up with kSectionNames. Bytes include the varint
  // length prefix (the section's on-wire footprint).
  std::size_t section_index = 0;
  const auto timed_section = [&](auto&& parse) {
    const std::size_t before = r.remaining();
    const auto section_started = std::chrono::steady_clock::now();
    read_section(r, parse);
    counters.decode_section_bytes[section_index]->add(before - r.remaining());
    counters.decode_section_ns[section_index]->add(
        codec_elapsed_ns(section_started));
    ++section_index;
  };

  timed_section([&](Reader& sr) { get_meta(sr, m); });

  timed_section([&](Reader& sr) {
    const std::uint64_t ntasks = sr.var();
    // Plausibility bound before reserving anything: every id costs at
    // least one byte, so a count the section cannot hold is corruption —
    // reject it rather than letting a forged count drive reserve() into
    // bad_alloc.
    if (ntasks > sr.remaining())
      throw std::runtime_error("shard state: task count exceeds input size");
    state.tasks.reserve(static_cast<std::size_t>(ntasks));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < ntasks; ++i) {
      const std::uint64_t gap = sr.var();
      const std::uint64_t t = i == 0 ? gap : prev + gap;
      if (i != 0 && gap == 0)
        throw std::runtime_error(
            "shard state: task list is not strictly ascending");
      state.tasks.push_back(t);
      prev = t;
    }
  });

  timed_section([&](Reader& sr) {
    state.partials.reserve(state.tasks.size());
    for (std::size_t i = 0; i < state.tasks.size(); ++i)
      state.partials.push_back(get_accumulator(sr));
  });

  timed_section([&](Reader& sr) {
    const std::uint64_t ncost = sr.var();
    if (ncost != 0 && ncost != m.cells)
      throw std::runtime_error(
          "shard state: cost model cell count disagrees with the sweep");
    if (ncost > sr.remaining())
      throw std::runtime_error("shard state: cost section exceeds input size");
    state.cost.cells.reserve(static_cast<std::size_t>(ncost));
    for (std::uint64_t i = 0; i < ncost; ++i) {
      CellCost c;
      c.replications = sr.var();
      c.seconds = sr.varf();
      state.cost.cells.push_back(c);
    }
  });

  timed_section([&](Reader& sr) {
    const std::uint64_t nrounds = sr.var();
    if (nrounds > sr.remaining())
      throw std::runtime_error("shard state: round log exceeds input size");
    state.rounds.reserve(static_cast<std::size_t>(nrounds));
    for (std::uint64_t i = 0; i < nrounds; ++i) {
      RoundLog rl;
      rl.round = sr.var();
      rl.active_cells = sr.var();
      rl.tasks = sr.var();
      rl.replications = sr.var();
      rl.wall_ms = sr.varf();
      rl.merge_ms = sr.varf();
      state.rounds.push_back(rl);
    }
    const std::uint64_t ncr = sr.var();
    if (ncr != 0 && ncr != m.cells)
      throw std::runtime_error(
          "shard state: termination-round list disagrees with the cell count");
    state.cell_rounds = get_runs(sr, ncr);
  });

  if (r.remaining() != 0)
    throw std::runtime_error("shard state: trailing bytes after payload");
  counters.decode_calls.add(1);
  counters.decode_bytes.add(bytes.size());
  counters.decode_ns.add(codec_elapsed_ns(started));
  return state;
}

StateSectionSizes state_section_sizes(std::string_view bytes) {
  Reader r = open_state(bytes);
  StateSectionSizes sizes;
  sizes.header = r.offset();
  std::size_t* const slots[] = {&sizes.meta, &sizes.tasks,
                                &sizes.accumulators, &sizes.cost,
                                &sizes.rounds};
  for (std::size_t* slot : slots) {
    const std::size_t start = r.offset();
    const std::uint64_t len = r.var();
    r.skip(static_cast<std::size_t>(len));
    *slot = r.offset() - start;
  }
  if (r.remaining() != 0)
    throw std::runtime_error("shard state: trailing bytes after payload");
  return sizes;
}

std::string accumulator_json(const core::IndicatorAccumulator::State& state) {
  using util::json_number_exact;
  const auto online = [](const stats::OnlineStats::State& s) {
    return "{\"n\": " + std::to_string(s.n) +
           ", \"mean\": " + json_number_exact(s.mean) +
           ", \"m2\": " + json_number_exact(s.m2) +
           ", \"min\": " + json_number_exact(s.min) +
           ", \"max\": " + json_number_exact(s.max) + "}";
  };
  const auto digest = [](const stats::TDigest::State& s) {
    std::string c;
    for (std::size_t i = 0; i < s.centroids.size(); ++i) {
      if (i) c += ", ";
      c += '[';
      c += json_number_exact(s.centroids[i].mean);
      c += ", ";
      c += std::to_string(s.centroids[i].weight);
      c += ']';
    }
    return "{\"compression\": " + json_number_exact(s.compression) +
           ", \"min\": " + json_number_exact(s.min) +
           ", \"max\": " + json_number_exact(s.max) + ", \"centroids\": [" +
           c + "]}";
  };
  const auto survival = [](const stats::StreamingSurvival::State& s) {
    std::string ev, ce;
    for (std::size_t i = 0; i < s.events_in.size(); ++i) {
      if (i) ev += ", ";
      ev += std::to_string(s.events_in[i]);
    }
    for (std::size_t i = 0; i < s.censored_in.size(); ++i) {
      if (i) ce += ", ";
      ce += std::to_string(s.censored_in[i]);
    }
    return "{\"horizon\": " + json_number_exact(s.horizon) +
           ", \"n\": " + std::to_string(s.n) +
           ", \"events\": " + std::to_string(s.events) + ", \"events_in\": [" +
           ev + "], \"censored_in\": [" + ce + "]}";
  };
  const auto curve = [](const core::RatioCurveAccumulator::State& s) {
    std::string sums;
    for (std::size_t i = 0; i < s.sums.size(); ++i) {
      if (i) sums += ", ";
      sums += std::to_string(s.sums[i]);
    }
    return "{\"horizon\": " + json_number_exact(s.horizon) +
           ", \"scale\": " + std::to_string(s.scale) +
           ", \"n\": " + std::to_string(s.n) + ", \"sums\": [" + sums + "]}";
  };
  const auto censored = [&](const stats::CensoredTimeAccumulator::State& s) {
    std::string out = "{\"moments\": ";
    out += online(s.moments);
    out += ", \"censored\": ";
    out += std::to_string(s.censored);
    out += ", \"times\": ";
    out += digest(s.times);
    out += ", \"survival\": ";
    out += survival(s.survival);
    out += '}';
    return out;
  };
  return "{\"horizon\": " + json_number_exact(state.horizon) +
         ", \"n\": " + std::to_string(state.n) +
         ", \"successes\": " + std::to_string(state.successes) +
         ", \"tta\": " + censored(state.tta) +
         ", \"ttsf\": " + censored(state.ttsf) +
         ", \"final_ratio\": " + online(state.final_ratio) +
         ", \"curve\": " + curve(state.curve) + "}";
}

void write_shard_state(const std::string& path, const ShardState& state) {
  const std::string bytes = encode_shard_state(state);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int close_result = std::fclose(f);  // unconditionally: no fd leak
  if (written != bytes.size() || close_result != 0)
    throw std::runtime_error("short write: " + path);
}

ShardState read_shard_state(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open: " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw std::runtime_error("read error: " + path);
  return decode_shard_state(bytes);
}

}  // namespace divsec::dist
