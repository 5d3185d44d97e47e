#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace cordial::serve {

namespace {

/// Directory containing `path` ("." when the path has no separator).
std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// write(2) the whole buffer, retrying short writes and EINTR.
bool WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void WriteFileDurably(const std::string& path, std::string_view bytes,
                      bool retain_prev) {
  const std::string tmp = path + ".tmp";
  // Failure path shared by every step before the rename: drop the fd and
  // the tmp file so a failed checkpoint leaves no debris (and the previous
  // checkpoint untouched).
  const auto fail = [&](int fd, const std::string& what) {
    const std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    CORDIAL_CHECK_MSG(false, what + " (" + tmp + "): " + reason);
  };

  int fd = failpoint::ShouldFail("serve.checkpoint.open")
               ? (errno = EIO, -1)
               : ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(-1, "cannot open checkpoint tmp file");

  const bool write_ok = failpoint::ShouldFail("serve.checkpoint.write")
                            ? (errno = EIO, false)
                            : WriteAll(fd, bytes.data(), bytes.size());
  if (!write_ok) fail(fd, "checkpoint tmp write failed");

  // The data must be on disk before anything points at it: rename first
  // and a crash can publish a name whose blocks never made it.
  const bool fsync_ok = failpoint::ShouldFail("serve.checkpoint.fsync")
                            ? (errno = EIO, false)
                            : ::fsync(fd) == 0;
  if (!fsync_ok) fail(fd, "checkpoint tmp fsync failed");
  if (::close(fd) != 0) fail(-1, "checkpoint tmp close failed");

  // Simulated power cut: the tmp file is durable, the rename never ran.
  // Recovery must come up from the previous checkpoint.
  CORDIAL_FAILPOINT("serve.checkpoint.crash_before_rename", ::_exit(121));

  // Retain one older generation for the reader's `.prev` fallback. Best
  // effort: a filesystem without hard links just loses the safety net.
  // The replacement must itself be atomic — link the current file to a
  // side name and rename it over the old `.prev`. The previous scheme
  // (unlink old .prev, then link) had a window where the fallback was
  // gone entirely: a failure between the two calls — or between this
  // block and the rename below — would leave neither generation behind
  // the published path. Now the old `.prev` survives until the new one
  // replaces it in one atomic step.
  if (retain_prev) {
    const std::string prev = path + ".prev";
    const std::string prev_tmp = prev + ".tmp";
    ::unlink(prev_tmp.c_str());
    if (::link(path.c_str(), prev_tmp.c_str()) == 0) {
      if (std::rename(prev_tmp.c_str(), prev.c_str()) != 0) {
        ::unlink(prev_tmp.c_str());
      }
    }
  }

  const bool rename_ok = failpoint::ShouldFail("serve.checkpoint.rename")
                             ? (errno = EIO, false)
                             : std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!rename_ok) fail(-1, "checkpoint rename failed");

  // fsync the directory so the rename itself survives a power cut; the
  // file's own durability was settled above.
  const std::string dir = DirectoryOf(path);
  int dir_fd = failpoint::ShouldFail("serve.checkpoint.dirsync")
                   ? (errno = EIO, -1)
                   : ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  bool dir_ok = dir_fd >= 0;
  if (dir_ok) {
    dir_ok = ::fsync(dir_fd) == 0;
    ::close(dir_fd);
  }
  // The rename already happened, so the new checkpoint is in place and
  // valid — do not unlink anything; just report that durability of the
  // directory entry is not guaranteed.
  CORDIAL_CHECK_MSG(dir_ok, "checkpoint directory fsync failed (" + dir +
                                "): " + std::strerror(errno));
}

std::string ShardCountLine(std::size_t shards) {
  return "shards " + std::to_string(shards) + '\n';
}

std::uint64_t TakeShardCount(std::string_view& payload,
                             const std::string& context) {
  constexpr std::string_view kPrefix = "shards ";
  if (payload.substr(0, kPrefix.size()) != kPrefix) {
    throw ParseError(context + ": payload does not start with a shard count");
  }
  const char* const digits = payload.data() + kPrefix.size();
  const char* const end = payload.data() + payload.size();
  std::uint64_t shards = 0;
  const auto [newline, ec] = std::from_chars(digits, end, shards);
  if (ec != std::errc() || newline == digits || newline == end ||
      *newline != '\n') {
    throw ParseError(context + ": malformed shard count line");
  }
  payload.remove_prefix(static_cast<std::size_t>(newline + 1 - payload.data()));
  return shards;
}

bool ReadFileBytes(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  // A directory opens too, and its seek end on ext4 is 2^63-1. Only a
  // regular file is sized; anything else reads as empty, so it fails the
  // caller's checks as corrupt, as a stream read of it always did.
  struct stat st;
  const bool regular = ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
  std::string data(regular ? static_cast<std::size_t>(st.st_size) : 0, '\0');
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  // A file that shrank since it was sized keeps what was read; the
  // caller's size check or the frame reader rejects it.
  data.resize(static_cast<std::size_t>(in.gcount()));
  bytes = std::move(data);
  return true;
}

}  // namespace cordial::serve
