// TCP ingest throughput gate (records/sec).
//
// The network plane must not become the fleet's bottleneck: the reactor,
// the frame assembler and the reply protocol all sit in front of the same
// shard engines an in-process feeder reaches directly, so their combined
// cost is measurable as a throughput ratio. This benchmark drives one
// fleet stream through two paths that share a FleetServer configuration:
//
//   * in-process — SubmitBatch from one feeder thread: the cordial_serverd
//                  file-feed hot path, no sockets anywhere.
//   * tcp        — the same records through a live IngestServer over
//                  --connections loopback clients, each owning the banks
//                  that hash to it (per-bank record order is preserved, as
//                  a shard-aware feeder fleet would).
//
// Repetitions interleave the two paths (A B B A ...) so scheduler drift
// hits both equally, and each side keeps its best run. Queue capacity
// exceeds the stream so wall time is engine + transport work, not
// backpressure.
//
// Emits BENCH_net.json and exits non-zero when TCP ingest lands under
// --threshold percent (default 80) of in-process throughput — tier-1 runs
// this, so a slow network plane cannot land silently.
//
// Usage: perf_net_ingest [--reps N] [--passes N] [--shards N]
//                        [--connections N] [--batch N] [--threshold PCT]
//                        [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hbm/address.hpp"
#include "net/ingest_client.hpp"
#include "net/ingest_server.hpp"
#include "serve/fleet_server.hpp"
#include "trace/fleet.hpp"

namespace {

using namespace cordial;
using bench::BenchWorld;

serve::FleetServerConfig BenchConfig(const BenchWorld& w, std::size_t shards,
                                     std::size_t passes) {
  serve::FleetServerConfig config;
  config.shard_count = shards;
  config.queue.capacity = w.stream.size() * passes + 1;
  // Feeders replaying in parallel interleave banks differently than the
  // recorded stream; drop skewed stragglers like a live deployment would.
  config.engine.retention.skew_policy = trace::TimeSkewPolicy::kDrop;
  return config;
}

/// In-process reference: one feeder thread, SubmitBatch in `batch`-sized
/// chunks, `passes` time-shifted replays. Returns records/sec.
double RunInProcess(const BenchWorld& w, std::size_t shards,
                    std::size_t passes, std::size_t batch) {
  serve::FleetServer server(w.topology, w.classifier, w.single_pred,
                            w.double_or_null(), BenchConfig(w, shards, passes));
  const double span = w.stream.back().time_s + 1.0;
  server.Start();
  const auto start = std::chrono::steady_clock::now();
  std::vector<trace::MceRecord> chunk;
  chunk.reserve(batch);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const double offset = static_cast<double>(pass) * span;
    for (std::size_t off = 0; off < w.stream.size(); off += batch) {
      const std::size_t n = std::min(batch, w.stream.size() - off);
      chunk.assign(w.stream.begin() + static_cast<std::ptrdiff_t>(off),
                   w.stream.begin() + static_cast<std::ptrdiff_t>(off + n));
      for (trace::MceRecord& record : chunk) record.time_s += offset;
      server.SubmitBatch(chunk);
    }
  }
  server.Drain();
  const auto end = std::chrono::steady_clock::now();
  server.Stop();
  const double seconds = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(w.stream.size() * passes) / seconds;
}

/// TCP path: the same fleet configuration behind an IngestServer, fed by
/// `connections` loopback clients in parallel. Each client owns the banks
/// whose key hashes to it, so per-bank record order is preserved exactly as
/// a shard-aware feeder fleet preserves it. Returns records/sec.
double RunTcp(const BenchWorld& w, std::size_t shards, std::size_t passes,
              std::size_t batch, std::size_t connections) {
  serve::FleetServer server(w.topology, w.classifier, w.single_pred,
                            w.double_or_null(), BenchConfig(w, shards, passes));
  net::IngestServerConfig net_config;
  net_config.max_connections = connections + 1;
  net::IngestServer ingest(server, net_config);
  server.Start();
  ingest.Start();

  // Partition the stream by bank across the connections, off the clock.
  hbm::AddressCodec codec(w.topology);
  std::vector<std::vector<trace::MceRecord>> parts(connections);
  for (const trace::MceRecord& record : w.stream) {
    parts[serve::FleetServer::ShardIndexOf(codec.BankKey(record.address),
                                           connections)]
        .push_back(record);
  }
  std::vector<net::IngestClient> clients(connections);
  for (net::IngestClient& client : clients) {
    client.Connect("127.0.0.1", ingest.port());
  }

  const double span = w.stream.back().time_s + 1.0;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> feeders;
  feeders.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    feeders.emplace_back([&, c] {
      std::vector<trace::MceRecord> chunk;
      chunk.reserve(batch);
      for (std::size_t pass = 0; pass < passes; ++pass) {
        const double offset = static_cast<double>(pass) * span;
        const std::vector<trace::MceRecord>& mine = parts[c];
        for (std::size_t off = 0; off < mine.size(); off += batch) {
          const std::size_t n = std::min(batch, mine.size() - off);
          chunk.assign(mine.begin() + static_cast<std::ptrdiff_t>(off),
                       mine.begin() + static_cast<std::ptrdiff_t>(off + n));
          for (trace::MceRecord& record : chunk) record.time_s += offset;
          clients[c].SendBatch(chunk);
        }
      }
    });
  }
  for (std::thread& feeder : feeders) feeder.join();
  server.Drain();
  const auto end = std::chrono::steady_clock::now();
  for (net::IngestClient& client : clients) client.Close();
  ingest.Stop();
  server.Stop();
  const double seconds = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(w.stream.size() * passes) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 6;
  std::size_t passes = 4;
  std::size_t shards = 4;
  std::size_t connections = 8;
  std::size_t batch = 256;
  double threshold_pct = 80.0;
  std::string out_path = "BENCH_net.json";
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
    } else if (arg == "--connections") {
      connections =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--batch") {
      batch = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--threshold") {
      threshold_pct = std::strtod(next(), nullptr);
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (reps == 0 || passes == 0 || shards == 0 || connections == 0 ||
      batch == 0) {
    std::cerr << "--reps, --passes, --shards, --connections and --batch "
                 "must be >= 1\n";
    return 2;
  }

  const BenchWorld world;
  std::cout << "stream: " << world.stream.size() << " records x " << passes
            << " pass(es), " << shards << " shard(s), " << connections
            << " connection(s), batch " << batch << ", " << reps
            << " interleaved rep(s)\n";

  // Warm both paths once (page-in, listener setup) before measuring.
  RunInProcess(world, shards, 1, batch);
  RunTcp(world, shards, 1, batch, connections);

  double inproc_best = 0.0, tcp_best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    double inproc, tcp;
    if (r % 2 == 0) {
      inproc = RunInProcess(world, shards, passes, batch);
      tcp = RunTcp(world, shards, passes, batch, connections);
    } else {
      tcp = RunTcp(world, shards, passes, batch, connections);
      inproc = RunInProcess(world, shards, passes, batch);
    }
    inproc_best = std::max(inproc_best, inproc);
    tcp_best = std::max(tcp_best, tcp);
    std::cout << "  rep " << (r + 1) << ": in-process " << std::fixed
              << static_cast<std::uint64_t>(inproc) << " rec/s, tcp "
              << static_cast<std::uint64_t>(tcp) << " rec/s\n";
  }

  const double ratio_pct = tcp_best / inproc_best * 100.0;
  const bool pass = ratio_pct >= threshold_pct;
  std::cout << "in-process best: " << static_cast<std::uint64_t>(inproc_best)
            << " rec/s\n"
            << "tcp best:        " << static_cast<std::uint64_t>(tcp_best)
            << " rec/s\n"
            << "tcp/in-process:  " << std::setprecision(2) << ratio_pct
            << "% (threshold " << threshold_pct << "%) — "
            << (pass ? "PASS" : "FAIL") << "\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"name\": \"perf_net_ingest\",\n"
      << "  \"stream_records\": " << world.stream.size() << ",\n"
      << "  \"shard_count\": " << shards << ",\n"
      << "  \"connections\": " << connections << ",\n"
      << "  \"batch_records\": " << batch << ",\n"
      << "  \"passes\": " << passes << ",\n"
      << "  \"repetitions\": " << reps << ",\n"
      << "  \"inprocess_records_per_s\": " << inproc_best << ",\n"
      << "  \"tcp_records_per_s\": " << tcp_best << ",\n"
      << "  \"tcp_ratio_pct\": " << ratio_pct << ",\n"
      << "  \"threshold_pct\": " << threshold_pct << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
