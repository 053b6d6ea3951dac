#include "persist/file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

namespace larp::persist {

namespace testing {

namespace {
std::atomic<WriteHook> g_write_hook{nullptr};
std::atomic<SyncHook> g_sync_hook{nullptr};
}  // namespace

WriteHook set_write_hook(WriteHook hook) noexcept {
  return g_write_hook.exchange(hook);
}

SyncHook set_sync_hook(SyncHook hook) noexcept {
  return g_sync_hook.exchange(hook);
}

}  // namespace testing

namespace {

[[noreturn]] void raise_errno(const std::string& what,
                              const std::filesystem::path& path) {
  throw IoError(what + " " + path.string() + ": " + std::strerror(errno));
}

ssize_t do_write(int fd, const void* buf, std::size_t count) {
  const auto hook = testing::g_write_hook.load(std::memory_order_relaxed);
  return hook ? hook(fd, buf, count) : ::write(fd, buf, count);
}

// fdatasync with EINTR retry.  A signal can interrupt the sync with the data
// still in flight; the only state that makes the durability watermarks true
// is a sync that ran to completion, so the interrupted call is reissued.
int do_fdatasync(int fd) {
  const auto hook = testing::g_sync_hook.load(std::memory_order_relaxed);
  int rc;
  do {
    rc = hook ? hook(fd) : ::fdatasync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

int do_fsync(int fd) {
  const auto hook = testing::g_sync_hook.load(std::memory_order_relaxed);
  int rc;
  do {
    rc = hook ? hook(fd) : ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

}  // namespace

AppendFile::~AppendFile() { close(); }

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

void AppendFile::open(const std::filesystem::path& path) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) raise_errno("AppendFile: cannot open", path);
  path_ = path;
}

void AppendFile::append(std::span<const std::byte> data) {
  // write(2) transfers as much as it likes: a signal, memory pressure, or a
  // hooked fault injector can all return short.  Group commit hands this
  // function multi-frame buffers, so looping here (not "one write per
  // group") is what keeps WAL framing intact under partial transfers.
  const auto* p = reinterpret_cast<const char*>(data.data());
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = do_write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise_errno("AppendFile: write failed on", path_);
    }
    if (n == 0) {
      // A zero-byte transfer for a non-zero request never makes progress;
      // erroring out beats spinning forever on a wedged descriptor.
      errno = EIO;
      raise_errno("AppendFile: write returned 0 on", path_);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

std::uint64_t AppendFile::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) raise_errno("AppendFile: fstat failed on", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void AppendFile::truncate(std::uint64_t size) {
  int rc;
  do {
    rc = ::ftruncate(fd_, static_cast<off_t>(size));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) raise_errno("AppendFile: ftruncate failed on", path_);
}

void AppendFile::sync() {
  if (do_fdatasync(fd_) != 0) {
    raise_errno("AppendFile: fdatasync failed on", path_);
  }
}

int AppendFile::duplicate_handle() const {
  const int dup_fd = ::fcntl(fd_, F_DUPFD_CLOEXEC, 0);
  if (dup_fd < 0) raise_errno("AppendFile: dup failed on", path_);
  return dup_fd;
}

void AppendFile::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void sync_handle(int fd) {
  if (do_fdatasync(fd) != 0) {
    throw IoError(std::string("sync_handle: fdatasync failed: ") +
                  std::strerror(errno));
  }
}

void close_handle(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) raise_errno("read_file: cannot open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    raise_errno("read_file: fstat failed on", path);
  }
  std::vector<std::byte> contents(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < contents.size()) {
    const ssize_t n = ::read(fd, contents.data() + got, contents.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      raise_errno("read_file: read failed on", path);
    }
    if (n == 0) break;  // file shrank under us; keep what we have
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  contents.resize(got);
  return contents;
}

MappedFile::MappedFile(const std::filesystem::path& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) raise_errno("MappedFile: cannot open", path);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const int saved = errno;
    release();
    errno = saved;
    raise_errno("MappedFile: fstat failed on", path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
}

MappedFile::~MappedFile() { release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = std::exchange(other.fd_, -1);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

std::span<const std::byte> MappedFile::map() {
  if (data_ == nullptr && size_ > 0) {
    // MAP_POPULATE maps every page up front: a checksum pass over the file
    // then takes no page fault per page.
    void* data = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                        fd_, 0);
    if (data == MAP_FAILED) raise_errno("MappedFile: mmap failed on", path_);
    data_ = data;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return {static_cast<const std::byte*>(data_), data_ ? size_ : 0};
}

void MappedFile::release() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void publish_file(const std::filesystem::path& path,
                  std::span<const std::byte> contents) {
  publish_file_pieces(path, std::span(&contents, 1));
}

void publish_file_pieces(const std::filesystem::path& path,
                         std::span<const std::span<const std::byte>> pieces) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    AppendFile file;
    // O_APPEND over a fresh file: remove any orphaned tmp first so a retry
    // after a crash does not append to stale bytes.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    file.open(tmp);
    for (const auto piece : pieces) file.append(piece);
    file.sync();
  }
  rename_durably(tmp, path);
}

void rename_durably(const std::filesystem::path& from,
                    const std::filesystem::path& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    raise_errno("rename_durably: rename failed for", to);
  }
  sync_directory(to.parent_path());
}

void sync_directory(const std::filesystem::path& dir) {
  const std::filesystem::path target = dir.empty() ? "." : dir;
  const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) raise_errno("sync_directory: cannot open", target);
  const int rc = do_fsync(fd);
  ::close(fd);
  if (rc != 0) raise_errno("sync_directory: fsync failed on", target);
}

void ensure_directory(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("ensure_directory: cannot create " + dir.string() + ": " +
                  ec.message());
  }
}

}  // namespace larp::persist
