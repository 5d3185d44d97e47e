// FNV-1a (64-bit) of a byte string: the hash the format goldens pin, so a
// codec rewrite that changes the bytes on both ends of a round trip still
// fails.
#pragma once

#include <cstdint>
#include <string_view>

namespace cordial::test_support {

inline std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace cordial::test_support
