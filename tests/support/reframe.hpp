// Re-framing helper for checkpoint tests: rebuild a fleet member (a full
// checkpoint or a delta) frame by frame, optionally rewriting shard engine
// payloads or stamping the engine frames with another version. Every frame
// of the result carries a valid CRC, so only the payload parsers and the
// version checks can refuse it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/framing.hpp"
#include "core/persist.hpp"
#include "serve/checkpoint.hpp"

namespace cordial::serve::test_support {

/// Rebuild `member` (a delta member when `delta`). `mutate(shard, payload)`,
/// when given, may rewrite each shard's engine payload; every engine frame
/// is re-stamped `engine_version`.
inline std::string ReframeMember(
    const std::string& member, bool delta, std::uint32_t engine_version,
    const std::function<void(std::uint64_t, std::string&)>& mutate = {}) {
  const std::string fleet_magic =
      delta ? kFleetDeltaMagic : kFleetCheckpointMagic;
  const std::uint32_t fleet_version =
      delta ? kFleetDeltaVersion : kFleetCheckpointVersion;
  const std::string engine_magic =
      delta ? core::kEngineDeltaMagic : core::kEngineStateMagic;
  const std::uint32_t current_version =
      delta ? core::kEngineDeltaVersion : core::kEngineStateVersion;
  std::string_view in(member);
  std::string_view payload = ReadFramedView(in, fleet_magic, fleet_version);
  const std::uint64_t shards = TakeShardCount(payload, "reframe");
  std::string out = ShardCountLine(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    std::string engine(
        ReadFramedView(payload, engine_magic, current_version));
    if (mutate) mutate(s, engine);
    const std::size_t frame = out.size();
    out += engine;
    CloseFrame(out, frame, engine_magic, engine_version);
  }
  CloseFrame(out, 0, fleet_magic, fleet_version);
  return out;
}

}  // namespace cordial::serve::test_support
