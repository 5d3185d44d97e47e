// Model hot-swap overhead gate (records/sec).
//
// Online refresh puts one relaxed atomic version poll on every Observe and
// a mutex-guarded shared_ptr reload on each adoption. This benchmark prices
// that against the fixed-model path by driving one fleet stream through two
// FleetServers that differ only in FleetServerConfig::model_slot:
//
//   * baseline — model_slot=nullptr: the pre-refresh serving hot path.
//   * swapping — a ModelSlot attached, with the producer republishing the
//                same champion ModelSet every --publish-every records — far
//                more churn than any real trainer produces (identical bits,
//                so the measured work stays identical, and every publish is
//                a full version-poll + per-shard adoption cycle).
//
// Publishing from the producer keeps the thread count equal on both sides:
// a timer thread would oversubscribe small CI machines and bill scheduler
// preemption to the swap path (on a 1-core container that reads as ~8%).
//
// Repetitions interleave the two configurations (A B B A ...) so thermal
// and scheduler drift hits both equally, and each side keeps its best run.
// Queue capacity exceeds the stream so wall time is engine work, not
// backpressure.
//
// Emits BENCH_swap.json and exits non-zero when the swapping path is more
// than --threshold percent (default 5) slower than baseline — tier-1 runs
// this, so a slow poll or a lock on the per-record path cannot land
// silently.
//
// Usage: perf_model_swap [--reps N] [--passes N] [--shards N]
//                        [--publish-every N] [--threshold PCT]
//                        [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/model_slot.hpp"
#include "serve/fleet_server.hpp"
#include "trace/fleet.hpp"

namespace {

using namespace cordial;
using bench::BenchWorld;

/// The generation the producer republishes: the world's own models.
core::ModelSet ChampionSet(const BenchWorld& w) {
  core::ModelSet set;
  set.classifier = core::UnownedModel(w.classifier);
  set.single = core::UnownedModel(w.single_pred);
  if (w.double_ok) set.double_row = core::UnownedModel(w.double_pred);
  return set;
}

/// One measurement: `passes` time-shifted replays of the stream through a
/// fresh server; returns records/sec. The work is deterministic and
/// identical for both configurations — `with_slot` only attaches a slot
/// into which the producer republishes the same bits every
/// `publish_every` records.
double RunOnce(const BenchWorld& w, std::size_t shards, std::size_t passes,
               bool with_slot, std::size_t publish_every,
               std::uint64_t* publishes_out = nullptr) {
  core::ModelSlot slot(ChampionSet(w));
  serve::FleetServerConfig config;
  config.shard_count = shards;
  config.queue.capacity = w.stream.size() * passes + 1;
  if (with_slot) config.model_slot = &slot;
  serve::FleetServer server(w.topology, w.classifier, w.single_pred,
                            w.double_or_null(), config);

  // Each pass shifts times forward by the stream's span so records stay in
  // non-decreasing time order across passes.
  const double span = w.stream.back().time_s + 1.0;
  std::uint64_t publishes = 0;
  std::size_t since_publish = 0;
  server.Start();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const double offset = static_cast<double>(pass) * span;
    for (trace::MceRecord record : w.stream) {
      record.time_s += offset;
      server.Submit(record);
      if (with_slot && ++since_publish >= publish_every) {
        since_publish = 0;
        slot.Publish(ChampionSet(w));
        ++publishes;
      }
    }
  }
  server.Drain();
  const auto end = std::chrono::steady_clock::now();
  server.Stop();
  if (publishes_out != nullptr) *publishes_out = publishes;

  const double seconds = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(w.stream.size() * passes) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  // Best-of over interleaved reps, same rationale as perf_obs_overhead: the
  // true cost is a relaxed load per record (~nothing), but container noise
  // jitters single runs far more than the threshold.
  std::size_t reps = 8;
  std::size_t passes = 4;
  std::size_t shards = 4;
  std::size_t publish_every = 5000;
  double threshold_pct = 5.0;
  std::string out_path = "BENCH_swap.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--reps") {
      reps = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--passes") {
      passes = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--shards") {
      shards = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--publish-every") {
      publish_every =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--threshold") {
      threshold_pct = std::strtod(next(), nullptr);
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (reps == 0 || shards == 0 || passes == 0 || publish_every == 0) {
    std::cerr << "--reps, --passes, --shards and --publish-every must be "
                 ">= 1\n";
    return 2;
  }

  const BenchWorld world;
  std::cout << "stream: " << world.stream.size() << " records x " << passes
            << " pass(es), " << shards << " shard(s), publish every "
            << publish_every << " records, " << reps
            << " interleaved rep(s)\n";

  // Warm both paths once (page-in, branch predictors) before measuring.
  RunOnce(world, shards, 1, false, publish_every);
  RunOnce(world, shards, 1, true, publish_every);

  double baseline_best = 0.0, swapping_best = 0.0;
  std::uint64_t max_publishes = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    // Alternate the A/B order each rep so slow drift cancels instead of
    // consistently penalising whichever side runs second.
    double base, swap;
    std::uint64_t publishes = 0;
    if (r % 2 == 0) {
      base = RunOnce(world, shards, passes, false, publish_every);
      swap = RunOnce(world, shards, passes, true, publish_every, &publishes);
    } else {
      swap = RunOnce(world, shards, passes, true, publish_every, &publishes);
      base = RunOnce(world, shards, passes, false, publish_every);
    }
    baseline_best = std::max(baseline_best, base);
    swapping_best = std::max(swapping_best, swap);
    max_publishes = std::max(max_publishes, publishes);
    std::cout << "  rep " << (r + 1) << ": baseline " << std::fixed
              << static_cast<std::uint64_t>(base) << " rec/s, swapping "
              << static_cast<std::uint64_t>(swap) << " rec/s (" << publishes
              << " publishes)\n";
  }

  const double overhead_pct =
      (baseline_best - swapping_best) / baseline_best * 100.0;
  const bool pass = overhead_pct <= threshold_pct;
  std::cout << "baseline best: " << static_cast<std::uint64_t>(baseline_best)
            << " rec/s\n"
            << "swapping best: " << static_cast<std::uint64_t>(swapping_best)
            << " rec/s\n"
            << "overhead:      " << std::setprecision(2) << overhead_pct
            << "% (threshold " << threshold_pct << "%) — "
            << (pass ? "PASS" : "FAIL") << "\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"name\": \"perf_model_swap\",\n"
      << "  \"stream_records\": " << world.stream.size() << ",\n"
      << "  \"shard_count\": " << shards << ",\n"
      << "  \"passes\": " << passes << ",\n"
      << "  \"repetitions\": " << reps << ",\n"
      << "  \"publish_every_records\": " << publish_every << ",\n"
      << "  \"publishes_per_run\": " << max_publishes << ",\n"
      << "  \"baseline_records_per_s\": " << baseline_best << ",\n"
      << "  \"swapping_records_per_s\": " << swapping_best << ",\n"
      << "  \"overhead_pct\": " << overhead_pct << ",\n"
      << "  \"threshold_pct\": " << threshold_pct << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
