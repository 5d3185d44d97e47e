// Observability overhead gate (records/sec).
//
// The metrics layer is compiled into the serving hot path, so its cost must
// be pinned, not assumed. This benchmark drives one fleet stream through two
// FleetServers that differ only in FleetServerConfig::instrument:
//
//   * baseline      — instrument=false: null metric pointers, no clock
//                     reads; byte-for-byte the pre-observability hot path.
//   * instrumented  — instrument=true, plus a live AdminServer that nobody
//                     scrapes: the steady-state a monitored daemon runs in.
//
// Repetitions interleave the two configurations (A B A B ...) so thermal and
// scheduler drift hits both equally, and each side keeps its best run (the
// least-perturbed measurement of the same fixed work). Queue capacity
// exceeds the stream so wall time is engine work, not backpressure.
//
// Emits BENCH_obs.json and exits non-zero when the instrumented path is more
// than --threshold percent (default 5) slower than baseline — tier-1 runs
// this, so an expensive metric cannot land silently.
//
// Usage: perf_obs_overhead [--reps N] [--passes N] [--shards N]
//                          [--threshold PCT] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/admin_server.hpp"
#include "obs/metrics.hpp"
#include "serve/fleet_server.hpp"
#include "trace/fleet.hpp"

namespace {

using namespace cordial;
using bench::BenchWorld;

/// One measurement: `passes` time-shifted replays of the stream through a
/// fresh server (longer runs drown scheduler noise that a single ~40ms
/// replay cannot); returns records/sec. Work is deterministic and identical
/// for both configurations — `instrument` only toggles the metrics layer.
double RunOnce(const BenchWorld& w, std::size_t shards, std::size_t passes,
               bool instrument) {
  serve::FleetServerConfig config;
  config.shard_count = shards;
  config.instrument = instrument;
  config.queue.capacity = w.stream.size() + 1;
  serve::FleetServer server(w.topology, w.classifier, w.single_pred,
                            w.double_or_null(), config);

  obs::AdminServer admin;  // present but never scraped
  if (instrument) {
    admin.AddHandler("/metrics",
                     "text/plain; version=0.0.4; charset=utf-8", [&] {
                       return obs::RenderPrometheus(server.MetricsSnapshot());
                     });
    admin.Start();
  }

  // Each pass shifts times forward by the stream's span so records stay in
  // non-decreasing time order across passes.
  const double span = w.stream.back().time_s + 1.0;
  server.Start();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const double offset = static_cast<double>(pass) * span;
    for (trace::MceRecord record : w.stream) {
      record.time_s += offset;
      server.Submit(record);
    }
  }
  server.Drain();
  const auto end = std::chrono::steady_clock::now();
  server.Stop();
  if (instrument) admin.Stop();

  const double seconds = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(w.stream.size() * passes) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  // Best-of over interleaved reps: the true overhead is ~1–2%, but a busy
  // container jitters single runs by ±10–20%, so enough reps must land
  // near-unperturbed on both sides for the gap to reflect the code, not
  // the scheduler.
  std::size_t reps = 8;
  std::size_t passes = 4;
  std::size_t shards = 4;
  double threshold_pct = 5.0;
  std::string out_path = "BENCH_obs.json";
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
    } else if (arg == "--threshold") {
      threshold_pct = std::strtod(next(), nullptr);
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (reps == 0 || shards == 0 || passes == 0) {
    std::cerr << "--reps, --passes and --shards must be >= 1\n";
    return 2;
  }

  const BenchWorld world;
  std::cout << "stream: " << world.stream.size() << " records x " << passes
            << " pass(es), " << shards << " shard(s), " << reps
            << " interleaved rep(s)\n";

  // Warm both paths once (page-in, branch predictors) before measuring.
  RunOnce(world, shards, 1, false);
  RunOnce(world, shards, 1, true);

  double baseline_best = 0.0, instrumented_best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    // Alternate the A/B order each rep so slow drift cancels instead of
    // consistently penalising whichever side runs second.
    double base, instr;
    if (r % 2 == 0) {
      base = RunOnce(world, shards, passes, false);
      instr = RunOnce(world, shards, passes, true);
    } else {
      instr = RunOnce(world, shards, passes, true);
      base = RunOnce(world, shards, passes, false);
    }
    baseline_best = std::max(baseline_best, base);
    instrumented_best = std::max(instrumented_best, instr);
    std::cout << "  rep " << (r + 1) << ": baseline " << std::fixed
              << static_cast<std::uint64_t>(base) << " rec/s, instrumented "
              << static_cast<std::uint64_t>(instr) << " rec/s\n";
  }

  const double overhead_pct =
      (baseline_best - instrumented_best) / baseline_best * 100.0;
  const bool pass = overhead_pct <= threshold_pct;
  std::cout << "baseline best:     "
            << static_cast<std::uint64_t>(baseline_best) << " rec/s\n"
            << "instrumented best: "
            << static_cast<std::uint64_t>(instrumented_best) << " rec/s\n"
            << "overhead:          " << std::setprecision(2) << overhead_pct
            << "% (threshold " << threshold_pct << "%) — "
            << (pass ? "PASS" : "FAIL") << "\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"name\": \"perf_obs_overhead\",\n"
      << "  \"stream_records\": " << world.stream.size() << ",\n"
      << "  \"shard_count\": " << shards << ",\n"
      << "  \"passes\": " << passes << ",\n"
      << "  \"repetitions\": " << reps << ",\n"
      << "  \"baseline_records_per_s\": " << baseline_best << ",\n"
      << "  \"instrumented_records_per_s\": " << instrumented_best << ",\n"
      << "  \"overhead_pct\": " << overhead_pct << ",\n"
      << "  \"threshold_pct\": " << threshold_pct << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
