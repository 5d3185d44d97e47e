// cordial_feed — TCP feeder for cordial_serverd's ingest plane.
//
// Reads a LogCodec CSV feed, routes every record to the server that owns
// its shard (the same FleetServer::ShardIndexOf hash the servers use), and
// ships batches over the ingest wire protocol. The routing table is the
// interesting part: with several --to endpoints the fleet's shards start
// spread round-robin across them, and --migrate moves a shard's live engine
// state from its current owner to another server mid-feed (export over the
// wire, import over the wire, repoint the routing) without losing a record.
//
// After the feed, --collect fetches every shard from its final owner and
// assembles the exports into one fleet checkpoint file, byte-identical to
// the full checkpoint a single never-migrated server would have written
// (the fold of its chain, `cordial_ckpt export`) — the property the
// migration test suite pins, and the one the tier-1 two-process smoke
// checks end to end.
//
//   cordial_feed <log.csv> --to <host:port> [--to <host:port> ...]
//     --shards <n>       global shard count; must match every server's
//                        --shards (default 4). Shard s starts on endpoint
//                        s % <number of --to endpoints>.
//     --batch-max <n>    records per Batch frame (default 256)
//     --migrate <shard>:<endpoint>@<record>
//                        just before feeding record index <record> (0-based,
//                        counting parsed records), move <shard> to endpoint
//                        index <endpoint>. Repeatable; applied in feed
//                        order.
//     --collect <path>   write the merged fleet checkpoint here afterwards
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "common/table.hpp"
#include "hbm/address.hpp"
#include "net/ingest_client.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet_server.hpp"
#include "trace/log_codec.hpp"

using namespace cordial;

namespace {

int Usage() {
  std::cerr
      << "usage: cordial_feed <log.csv> --to <host:port> [--to <host:port>]\n"
         "         [--shards <n>] [--batch-max <n>]\n"
         "         [--migrate <shard>:<endpoint>@<record>] [--collect <path>]\n";
  return 2;
}

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

struct Migration {
  std::size_t at_record = 0;  ///< fires before this parsed-record index
  std::uint32_t shard = 0;
  std::size_t endpoint = 0;  ///< destination index into the --to list
};

struct Options {
  std::string input;
  std::vector<Endpoint> endpoints;
  std::size_t shards = 4;
  std::size_t batch_max = 256;
  std::vector<Migration> migrations;
  std::string collect;
};

bool ParseEndpoint(const std::string& text, Endpoint& out, std::string& error) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    error = "--to expects <host:port>, got '" + text + "'";
    return false;
  }
  char* end = nullptr;
  const unsigned long long port =
      std::strtoull(text.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port == 0 || port > 65535) {
    error = "--to expects a TCP port, got '" + text + "'";
    return false;
  }
  out.host = text.substr(0, colon);
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

bool ParseMigration(const std::string& text, Migration& out,
                    std::string& error) {
  // <shard>:<endpoint>@<record>
  const std::size_t colon = text.find(':');
  const std::size_t at = text.find('@');
  if (colon == std::string::npos || at == std::string::npos || at < colon) {
    error = "--migrate expects <shard>:<endpoint>@<record>, got '" + text + "'";
    return false;
  }
  char* end = nullptr;
  const auto parse = [&](const std::string& field, unsigned long long& value) {
    value = std::strtoull(field.c_str(), &end, 10);
    if (end == field.c_str() || *end != '\0') {
      error = "--migrate field '" + field + "' is not an integer";
      return false;
    }
    return true;
  };
  unsigned long long shard = 0, endpoint = 0, record = 0;
  if (!parse(text.substr(0, colon), shard)) return false;
  if (!parse(text.substr(colon + 1, at - colon - 1), endpoint)) return false;
  if (!parse(text.substr(at + 1), record)) return false;
  out.shard = static_cast<std::uint32_t>(shard);
  out.endpoint = static_cast<std::size_t>(endpoint);
  out.at_record = static_cast<std::size_t>(record);
  return true;
}

bool ParseArgs(int argc, char** argv, Options& opts, std::string& error) {
  if (argc < 2) {
    error = "missing <log.csv>";
    return false;
  }
  opts.input = argv[1];
  if (opts.input.rfind("--", 0) == 0) {
    error = "expected <log.csv> before flags, got " + opts.input;
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = ++i < argc ? argv[i] : nullptr;
    if (value == nullptr) {
      error = flag + " requires a value";
      return false;
    }
    auto parse_count = [&](std::size_t& out) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || parsed == 0) {
        error = flag + " expects a positive integer, got '" +
                std::string(value) + "'";
        return false;
      }
      out = static_cast<std::size_t>(parsed);
      return true;
    };
    if (flag == "--to") {
      Endpoint endpoint;
      if (!ParseEndpoint(value, endpoint, error)) return false;
      opts.endpoints.push_back(endpoint);
    } else if (flag == "--shards") {
      if (!parse_count(opts.shards)) return false;
    } else if (flag == "--batch-max") {
      if (!parse_count(opts.batch_max)) return false;
    } else if (flag == "--migrate") {
      Migration migration;
      if (!ParseMigration(value, migration, error)) return false;
      opts.migrations.push_back(migration);
    } else if (flag == "--collect") {
      opts.collect = value;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (opts.endpoints.empty()) {
    error = "at least one --to <host:port> is required";
    return false;
  }
  for (const Migration& m : opts.migrations) {
    if (m.shard >= opts.shards) {
      error = "--migrate shard " + std::to_string(m.shard) +
              " is out of range for --shards " + std::to_string(opts.shards);
      return false;
    }
    if (m.endpoint >= opts.endpoints.size()) {
      error = "--migrate endpoint " + std::to_string(m.endpoint) +
              " is out of range for " + std::to_string(opts.endpoints.size()) +
              " --to endpoint(s)";
      return false;
    }
  }
  // Applied in feed order regardless of flag order on the command line.
  std::stable_sort(opts.migrations.begin(), opts.migrations.end(),
                   [](const Migration& a, const Migration& b) {
                     return a.at_record < b.at_record;
                   });
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string parse_error;
  if (!ParseArgs(argc, argv, opts, parse_error)) {
    std::cerr << "cordial_feed: " << parse_error << "\n";
    return Usage();
  }

  try {
    std::ifstream feed(opts.input);
    if (!feed) throw ParseError("cannot open input " + opts.input);

    std::vector<std::unique_ptr<net::IngestClient>> clients;
    for (const Endpoint& endpoint : opts.endpoints) {
      auto client = std::make_unique<net::IngestClient>();
      client->Connect(endpoint.host, endpoint.port);
      clients.push_back(std::move(client));
    }

    // Routing table: owner[s] is the endpoint currently receiving shard s.
    std::vector<std::size_t> owner(opts.shards);
    for (std::size_t s = 0; s < opts.shards; ++s) {
      owner[s] = s % opts.endpoints.size();
    }

    hbm::TopologyConfig topology;
    hbm::AddressCodec codec(topology);

    std::vector<std::vector<trace::MceRecord>> pending(opts.endpoints.size());
    std::vector<std::uint64_t> accepted(opts.endpoints.size(), 0);
    std::uint64_t sent = 0, batches = 0, backpressure_rejects = 0;
    std::size_t malformed = 0;

    // One batch to one endpoint; the reply carries that connection's
    // lifetime accepted total, so `accepted` is an assignment, not a sum.
    const auto flush = [&](std::size_t endpoint) {
      std::vector<trace::MceRecord>& batch = pending[endpoint];
      if (batch.empty()) return;
      const net::Message reply = clients[endpoint]->SendBatch(batch);
      if (const auto* ack = std::get_if<net::Ack>(&reply)) {
        accepted[endpoint] = ack->accepted_records;
      } else {
        const auto& reject = std::get<net::Reject>(reply);
        accepted[endpoint] = reject.accepted_records;
        ++backpressure_rejects;
      }
      sent += batch.size();
      ++batches;
      batch.clear();
    };
    const auto flush_all = [&] {
      for (std::size_t e = 0; e < pending.size(); ++e) flush(e);
    };

    auto next_migration = opts.migrations.begin();
    std::size_t record_index = 0;
    std::string line;
    while (std::getline(feed, line)) {
      if (line.empty() || trace::LogCodec::IsCsvHeader(line)) continue;
      trace::MceRecord record;
      try {
        record = trace::LogCodec::ParseCsvLine(line, codec);
      } catch (const ParseError& e) {
        ++malformed;
        std::cerr << "skipping malformed line: " << e.what() << "\n";
        continue;
      }

      // Everything already routed must be on its server before a shard's
      // state moves — FetchShard drains the shard there, so in-flight
      // batches land in the exported state, not after it.
      while (next_migration != opts.migrations.end() &&
             next_migration->at_record <= record_index) {
        flush_all();
        const std::uint32_t shard = next_migration->shard;
        const std::size_t from = owner[shard];
        const std::size_t to = next_migration->endpoint;
        const std::string state = clients[from]->FetchShard(shard);
        clients[to]->DeliverShard(shard, state);
        owner[shard] = to;
        std::cerr << "migrated shard " << shard << " from endpoint " << from
                  << " to endpoint " << to << " before record "
                  << record_index << " (" << state.size()
                  << " state bytes)\n";
        ++next_migration;
      }

      const std::size_t shard = serve::FleetServer::ShardIndexOf(
          codec.BankKey(record.address), opts.shards);
      pending[owner[shard]].push_back(record);
      if (pending[owner[shard]].size() >= opts.batch_max) {
        flush(owner[shard]);
      }
      ++record_index;
    }
    // Migrations aimed past the end of the feed still run — an operator
    // rebalancing an idle fleet is legitimate.
    while (next_migration != opts.migrations.end()) {
      flush_all();
      const std::uint32_t shard = next_migration->shard;
      const std::size_t from = owner[shard];
      clients[next_migration->endpoint]->DeliverShard(
          shard, clients[from]->FetchShard(shard));
      owner[shard] = next_migration->endpoint;
      ++next_migration;
    }
    flush_all();

    if (!opts.collect.empty()) {
      // Exports in shard-index order under the shard count line are exactly
      // SaveCheckpoint's payload — the merged file is byte-identical to a
      // single never-migrated server's checkpoint.
      std::string member = serve::ShardCountLine(opts.shards);
      for (std::size_t s = 0; s < opts.shards; ++s) {
        member += clients[owner[s]]->FetchShard(
            static_cast<std::uint32_t>(s));
      }
      CloseFrame(member, 0, serve::kFleetCheckpointMagic,
                 serve::kFleetCheckpointVersion);
      std::ofstream out(opts.collect, std::ios::binary | std::ios::trunc);
      if (!out) throw ParseError("cannot write checkpoint " + opts.collect);
      out.write(member.data(), static_cast<std::streamsize>(member.size()));
      out.flush();
      CORDIAL_CHECK_MSG(out.good(),
                        "short write collecting " + opts.collect);
      std::cerr << "collected merged checkpoint to " << opts.collect << "\n";
    }

    std::uint64_t total_accepted = 0;
    for (const std::uint64_t a : accepted) total_accepted += a;

    TextTable summary({"Metric", "Value"});
    summary.AddRow({"records sent", std::to_string(sent)});
    summary.AddRow({"records accepted", std::to_string(total_accepted)});
    summary.AddRow({"batches shipped", std::to_string(batches)});
    summary.AddRow(
        {"backpressure rejects", std::to_string(backpressure_rejects)});
    summary.AddRow({"malformed lines skipped", std::to_string(malformed)});
    summary.AddRow({"migrations performed",
                    std::to_string(opts.migrations.size())});
    std::cout << summary.Render("cordial_feed session (" +
                                std::to_string(opts.endpoints.size()) +
                                " endpoint(s), " +
                                std::to_string(opts.shards) + " shards)");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
