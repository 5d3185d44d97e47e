// cordial_ckpt — offline checkpoint-chain inspector.
//
// Operates on a chain directory written by `cordial_serverd --checkpoint
// <dir>` (full-<epoch>.ckpt + delta-<epoch>.<seq>.ckpt under a CRC
// manifest; persist/chain.hpp, DESIGN.md §14). Everything here
// is structural — no models, no topology, no engine: member payloads are
// self-delimiting, so the tool can verify, fold and rewrite chains on a
// machine that has nothing but the files.
//
//   cordial_ckpt list <dir>          manifest + per-member table
//   cordial_ckpt verify <dir>        verify manifest, CRCs and member
//                                    structure; exit 0 only when the whole
//                                    chain is sound
//   cordial_ckpt compact <dir>       fold full+deltas into full-<epoch+1>
//                                    on disk and prune the old generation
//   cordial_ckpt export <dir> <out>  fold the chain and write the bytes of
//                                    the equivalent binary full checkpoint
//                                    to <out> ("-" = stdout) — byte-
//                                    identical to the full the server would
//                                    have written at the same boundary
//   cordial_ckpt --version           print the frame versions this build
//                                    speaks
#include <fstream>
#include <iostream>
#include <string>

#include "common/check.hpp"
#include "common/table.hpp"
#include "core/persist.hpp"
#include "persist/chain.hpp"
#include "serve/checkpoint.hpp"

using namespace cordial;

namespace {

int Usage() {
  std::cerr << "usage: cordial_ckpt list|verify|compact <chain_dir>\n"
               "       cordial_ckpt export <chain_dir> <out_file|->\n"
               "       cordial_ckpt --version\n";
  return 2;
}

int PrintVersion() {
  std::cout << "cordial_ckpt (cordial 1.0.0)\n"
            << "  chain manifest:    " << persist::kManifestMagic << " v"
            << persist::kManifestVersion << " (binary)\n"
            << "  fleet checkpoint:  " << serve::kFleetCheckpointMagic << " v"
            << serve::kFleetCheckpointVersion << "\n"
            << "  fleet delta:       " << serve::kFleetDeltaMagic << " v"
            << serve::kFleetDeltaVersion << "\n"
            << "  engine state:      " << core::kEngineStateMagic << " v"
            << core::kEngineStateVersion << " (binary)\n"
            << "  engine delta:      " << core::kEngineDeltaMagic << " v"
            << core::kEngineDeltaVersion << "\n";
  return 0;
}

std::string HumanKind(const persist::ChainEntry& entry) {
  return entry.is_full ? "full" : "delta";
}

/// Render the inspection as the shared table + per-problem lines.
int ListChain(const std::string& directory, bool verify) {
  const persist::ChainInspection report = persist::InspectChain(directory);
  for (const std::string& error : report.errors) {
    std::cerr << "manifest: " << error << "\n";
  }
  if (!report.has_manifest) {
    std::cerr << "no usable chain manifest in " << directory << "\n";
    return 1;
  }
  std::cout << "chain epoch " << report.manifest.epoch << ", "
            << report.members.size() << " member(s)\n";
  TextTable table({"Member", "Kind", "Seq", "Bytes", "Shards", "Banks",
                   "Status"});
  for (const persist::MemberInfo& info : report.members) {
    table.AddRow({info.entry.file, HumanKind(info.entry),
                  std::to_string(info.entry.seq),
                  std::to_string(info.actual_bytes),
                  std::to_string(info.shard_count),
                  std::to_string(info.bank_count),
                  info.error.empty() ? "ok" : info.error});
  }
  std::cout << table.Render("checkpoint chain (" + directory + ")");
  if (verify) {
    if (!report.ok()) {
      std::cerr << "chain is NOT sound\n";
      return 1;
    }
    std::cout << "chain is sound\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--version") return PrintVersion();
  }
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string directory = argv[2];
  try {
    if (command == "list") {
      return ListChain(directory, /*verify=*/false);
    }
    if (command == "verify") {
      return ListChain(directory, /*verify=*/true);
    }
    if (command == "compact") {
      const persist::ChainWriteResult result =
          persist::CompactChainFiles(directory);
      std::cout << "compacted chain into " << result.file << " ("
                << result.bytes << " bytes, " << result.banks_written
                << " bank record(s))\n";
      return 0;
    }
    if (command == "export") {
      if (argc < 4) return Usage();
      const std::string out_path = argv[3];
      const std::string bytes = persist::FoldChain(directory);
      if (out_path == "-") {
        std::cout.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size()));
        std::cout.flush();
        CORDIAL_CHECK_MSG(std::cout.good(), "writing to stdout failed");
      } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        if (!out.is_open()) {
          std::cerr << "cannot open " << out_path << " for writing\n";
          return 1;
        }
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
        CORDIAL_CHECK_MSG(out.good(), "writing the folded checkpoint failed");
      }
      std::cerr << "folded " << directory << " into " << bytes.size()
                << " checkpoint byte(s)\n";
      return 0;
    }
    std::cerr << "cordial_ckpt: unknown command " << command << "\n";
    return Usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
