#include "storage/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace sqlledger {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(Slice data) override {
    const uint8_t* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("write to " + path_));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }  // unbuffered

  Status Sync() override {
    if (::fsync(fd_) != 0)
      return Status::IOError(ErrnoMessage("fsync " + path_));
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0)
      return Status::IOError(ErrnoMessage("close " + path_));
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  explicit PosixSequentialFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Result<size_t> Read(size_t n, uint8_t* scratch) override {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::read(fd_, scratch + got, n - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("read " + path_));
      }
      if (r == 0) break;  // EOF
      got += static_cast<size_t>(r);
    }
    return got;
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

Status RemoveDirRecursive(Env* env, const std::string& dir) {
  if (!env->FileExists(dir)) return Status::OK();
  if (!env->IsDirectory(dir)) return env->RemoveFile(dir);
  auto children = env->GetChildren(dir);
  if (!children.ok()) return children.status();
  for (const std::string& name : *children) {
    const std::string path = dir + "/" + name;
    if (env->IsDirectory(path)) {
      SL_RETURN_IF_ERROR(RemoveDirRecursive(env, path));
    } else {
      SL_RETURN_IF_ERROR(env->RemoveFile(path));
    }
  }
  return env->RemoveDir(dir);
}

Status CopyDirRecursive(Env* env, const std::string& from,
                        const std::string& to) {
  if (!env->IsDirectory(from))
    return Status::InvalidArgument("copy source is not a directory: " + from);
  SL_RETURN_IF_ERROR(env->CreateDirs(to));
  auto children = env->GetChildren(from);
  if (!children.ok()) return children.status();
  for (const std::string& name : *children) {
    const std::string src = from + "/" + name;
    const std::string dst = to + "/" + name;
    if (env->IsDirectory(src)) {
      SL_RETURN_IF_ERROR(CopyDirRecursive(env, src, dst));
      continue;
    }
    auto data = env->ReadFile(src);
    if (!data.ok()) return data.status();
    SL_RETURN_IF_ERROR(WriteFileSynced(env, dst,
                                       {Slice(data->data(), data->size())},
                                       WritableFileOptions{.truncate = true}));
  }
  return env->SyncDir(to);
}

std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status WriteFileSynced(Env* env, const std::string& path,
                       const std::vector<Slice>& parts,
                       const WritableFileOptions& opts) {
  auto file = env->NewWritableFile(path, opts);
  if (!file.ok()) return file.status();
  Status st;
  for (const Slice& part : parts)
    if (st.ok()) st = (*file)->Append(part);
  if (st.ok()) st = (*file)->Sync();
  Status close_st = (*file)->Close();
  if (st.ok()) st = close_st;
  if (!st.ok() && opts.exclusive)
    (void)env->RemoveFile(path);  // best-effort cleanup of our partial file
  return st;
}

Status ReplaceFileDurably(Env* env, const std::string& path,
                          const std::vector<Slice>& parts,
                          bool keep_previous) {
  const std::string tmp = path + ".tmp";
  Status st =
      WriteFileSynced(env, tmp, parts, WritableFileOptions{.truncate = true});
  if (!st.ok()) {
    (void)env->RemoveFile(tmp);  // best-effort cleanup of the temp file
    return st;
  }
  if (keep_previous && env->FileExists(path))
    SL_RETURN_IF_ERROR(env->RenameFile(path, path + ".prev"));
  SL_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  return env->SyncDir(DirName(path));
}

Result<std::vector<uint8_t>> Env::ReadFile(const std::string& path) {
  auto file = NewSequentialFile(path);
  if (!file.ok()) return file.status();
  std::vector<uint8_t> out;
  uint8_t buf[1 << 16];
  while (true) {
    auto n = (*file)->Read(sizeof(buf), buf);
    if (!n.ok()) return n.status();
    if (*n == 0) break;
    out.insert(out.end(), buf, buf + *n);
  }
  return out;
}

// ---- PosixEnv ----

Result<std::unique_ptr<WritableFile>> PosixEnv::NewWritableFile(
    const std::string& path, const WritableFileOptions& opts) {
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  flags |= opts.truncate ? O_TRUNC : O_APPEND;
  if (opts.exclusive) flags |= O_EXCL;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (opts.exclusive && errno == EEXIST)
      return Status::AlreadyExists("file already exists: " + path);
    return Status::IOError(ErrnoMessage("open " + path));
  }
  return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
}

Result<std::unique_ptr<SequentialFile>> PosixEnv::NewSequentialFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError(ErrnoMessage("open " + path));
  }
  return std::unique_ptr<SequentialFile>(new PosixSequentialFile(fd, path));
}

bool PosixEnv::FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool PosixEnv::IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

Result<uint64_t> PosixEnv::GetFileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError(ErrnoMessage("stat " + path));
  }
  return static_cast<uint64_t>(st.st_size);
}

Result<std::vector<std::string>> PosixEnv::GetChildren(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such directory: " + dir);
    return Status::IOError(ErrnoMessage("opendir " + dir));
  }
  std::vector<std::string> out;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    out.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

Status PosixEnv::CreateDirs(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("empty directory path");
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    size_t next = dir.find('/', pos);
    if (next == std::string::npos) next = dir.size();
    partial = dir.substr(0, next);
    pos = next + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
      return Status::IOError(ErrnoMessage("mkdir " + partial));
  }
  return Status::OK();
}

Status PosixEnv::RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT)
    return Status::IOError(ErrnoMessage("unlink " + path));
  return Status::OK();
}

Status PosixEnv::RemoveDir(const std::string& dir) {
  if (::rmdir(dir.c_str()) != 0 && errno != ENOENT)
    return Status::IOError(ErrnoMessage("rmdir " + dir));
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0)
    return Status::IOError(ErrnoMessage("rename " + from + " -> " + to));
  return Status::OK();
}

Status PosixEnv::TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
    return Status::IOError(ErrnoMessage("truncate " + path));
  return Status::OK();
}

Status PosixEnv::SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(ErrnoMessage("open dir " + dir));
  Status st;
  if (::fsync(fd) != 0) st = Status::IOError(ErrnoMessage("fsync dir " + dir));
  ::close(fd);
  return st;
}

Status PosixEnv::MakeReadOnly(const std::string& path) {
  if (::chmod(path.c_str(), 0444) != 0)
    return Status::IOError(ErrnoMessage("chmod " + path));
  return Status::OK();
}

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

// ---- FaultInjectionEnv ----

namespace {
constexpr char kCrashedMessage[] = "injected crash: storage unavailable";
}  // namespace

class FaultInjectionWritableFile : public WritableFile {
 public:
  FaultInjectionWritableFile(FaultInjectionEnv* env, std::string path,
                             std::unique_ptr<WritableFile> target)
      : env_(env), path_(std::move(path)), target_(std::move(target)) {}

  Status Append(Slice data) override {
    MutexLock lock(&env_->mu_);
    if (env_->crashed_) return Status::IOError(kCrashedMessage);
    SL_RETURN_IF_ERROR(env_->CheckWriteLocked());
    SL_RETURN_IF_ERROR(target_->Append(data));
    env_->files_[path_].written_size += data.size();
    return Status::OK();
  }

  Status Flush() override {
    MutexLock lock(&env_->mu_);
    if (env_->crashed_) return Status::IOError(kCrashedMessage);
    return target_->Flush();
  }

  Status Sync() override {
    MutexLock lock(&env_->mu_);
    if (env_->crashed_) return Status::IOError(kCrashedMessage);
    SL_RETURN_IF_ERROR(env_->CheckSyncLocked());
    SL_RETURN_IF_ERROR(target_->Sync());
    FaultInjectionEnv::FileState& state = env_->files_[path_];
    state.synced_size = state.written_size;
    return Status::OK();
  }

  Status Close() override {
    // Closing is allowed after a crash (destructors run); it adds no
    // durability, so it never counts as a fault point.
    return target_->Close();
  }

 private:
  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> target_;
};

class FaultInjectionSequentialFile : public SequentialFile {
 public:
  FaultInjectionSequentialFile(FaultInjectionEnv* env, bool corrupt,
                               std::unique_ptr<SequentialFile> target)
      : env_(env), corrupt_(corrupt), target_(std::move(target)) {}

  Result<size_t> Read(size_t n, uint8_t* scratch) override {
    auto got = target_->Read(n, scratch);
    if (!got.ok() || *got == 0 || !corrupt_) return got;
    MutexLock lock(&env_->mu_);
    size_t byte = env_->rng_.Uniform(*got);
    scratch[byte] ^= static_cast<uint8_t>(1u << env_->rng_.Uniform(8));
    return got;
  }

 private:
  FaultInjectionEnv* env_;
  bool corrupt_;
  std::unique_ptr<SequentialFile> target_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* target, uint64_t seed)
    : target_(target != nullptr ? target : Env::Default()), rng_(seed) {}

void FaultInjectionEnv::FailNthWrite(int n) {
  MutexLock lock(&mu_);
  fail_write_countdown_ = n;
}

void FaultInjectionEnv::FailNthSync(int n) {
  MutexLock lock(&mu_);
  fail_sync_countdown_ = n;
}

void FaultInjectionEnv::FailNthRename(int n) {
  MutexLock lock(&mu_);
  fail_rename_countdown_ = n;
}

void FaultInjectionEnv::CrashAtSync(int n) {
  MutexLock lock(&mu_);
  crash_sync_countdown_ = n;
}

void FaultInjectionEnv::SimulateCrash() {
  MutexLock lock(&mu_);
  // Callers observe the crash through subsequent operations failing.
  (void)CrashLocked();
}

void FaultInjectionEnv::CorruptReadsMatching(const std::string& substring) {
  MutexLock lock(&mu_);
  corrupt_read_substring_ = substring;
}

bool FaultInjectionEnv::crashed() const {
  MutexLock lock(&mu_);
  return crashed_;
}

Status FaultInjectionEnv::CheckWriteLocked() {
  if (fail_write_countdown_ > 0 && --fail_write_countdown_ == 0)
    return Status::IOError("injected write failure");
  return Status::OK();
}

Status FaultInjectionEnv::CheckSyncLocked() {
  if (crash_sync_countdown_ > 0 && --crash_sync_countdown_ == 0)
    return CrashLocked();
  if (fail_sync_countdown_ > 0 && --fail_sync_countdown_ == 0)
    return Status::IOError("injected sync failure");
  return Status::OK();
}

Status FaultInjectionEnv::CrashLocked() {
  if (crashed_) return Status::IOError(kCrashedMessage);
  crashed_ = true;
  // Drop every byte that was never fsynced. Sometimes keep a pseudo-random
  // prefix of the un-synced tail — the torn write a real power loss leaves.
  for (const auto& [path, state] : files_) {
    if (state.written_size <= state.synced_size) continue;
    if (!target_->FileExists(path)) continue;  // renamed away or removed
    uint64_t unsynced = state.written_size - state.synced_size;
    uint64_t torn = rng_.Uniform(unsynced + 1);
    if (torn == unsynced) torn = 0;  // keeping all of it isn't a crash test
    // Best effort: a file that cannot be truncated simply keeps its
    // un-synced tail, like a disk that got the data out before dying.
    (void)target_->TruncateFile(path, state.synced_size + torn);
  }
  // Roll back renames that were never made durable by a directory sync,
  // newest first. Best effort: a rollback target that was overwritten by
  // the rename is unrecoverable, exactly as on a real filesystem.
  for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
       ++it) {
    if (target_->FileExists(it->to) && !target_->FileExists(it->from))
      (void)target_->RenameFile(it->to, it->from);  // best-effort rollback
  }
  pending_renames_.clear();
  return Status::IOError("injected crash: un-synced data dropped");
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path, const WritableFileOptions& opts) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  uint64_t existing = 0;
  if (!opts.truncate) {
    auto size = target_->GetFileSize(path);
    if (size.ok()) existing = *size;
  }
  auto file = target_->NewWritableFile(path, opts);
  if (!file.ok()) return file.status();
  FileState& state = files_[path];
  // Pre-existing bytes were either synced by a previous incarnation or are
  // someone else's problem; only data written through us is droppable.
  state.written_size = existing;
  state.synced_size = existing;
  return std::unique_ptr<WritableFile>(
      new FaultInjectionWritableFile(this, path, std::move(*file)));
}

Result<std::unique_ptr<SequentialFile>> FaultInjectionEnv::NewSequentialFile(
    const std::string& path) {
  bool corrupt = false;
  {
    MutexLock lock(&mu_);
    if (crashed_) return Status::IOError(kCrashedMessage);
    corrupt = !corrupt_read_substring_.empty() &&
              path.find(corrupt_read_substring_) != std::string::npos;
  }
  auto file = target_->NewSequentialFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<SequentialFile>(
      new FaultInjectionSequentialFile(this, corrupt, std::move(*file)));
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return target_->FileExists(path);
}

bool FaultInjectionEnv::IsDirectory(const std::string& path) {
  return target_->IsDirectory(path);
}

Result<uint64_t> FaultInjectionEnv::GetFileSize(const std::string& path) {
  return target_->GetFileSize(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::GetChildren(
    const std::string& dir) {
  return target_->GetChildren(dir);
}

Status FaultInjectionEnv::CreateDirs(const std::string& dir) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  return target_->CreateDirs(dir);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  return target_->RemoveFile(path);
}

Status FaultInjectionEnv::RemoveDir(const std::string& dir) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  return target_->RemoveDir(dir);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  if (fail_rename_countdown_ > 0 && --fail_rename_countdown_ == 0)
    return Status::IOError("injected rename failure");
  SL_RETURN_IF_ERROR(target_->RenameFile(from, to));
  pending_renames_.push_back({DirName(to), from, to});
  // The rename carries the file's identity with it; its synced state moves
  // to the new name.
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  }
  return Status::OK();
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  SL_RETURN_IF_ERROR(target_->TruncateFile(path, size));
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.written_size = size;
    if (it->second.synced_size > size) it->second.synced_size = size;
  }
  return Status::OK();
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  SL_RETURN_IF_ERROR(CheckSyncLocked());
  SL_RETURN_IF_ERROR(target_->SyncDir(dir));
  // Renames inside this directory are now durable.
  pending_renames_.erase(
      std::remove_if(pending_renames_.begin(), pending_renames_.end(),
                     [&dir](const PendingRename& r) { return r.dir == dir; }),
      pending_renames_.end());
  return Status::OK();
}

Status FaultInjectionEnv::MakeReadOnly(const std::string& path) {
  MutexLock lock(&mu_);
  if (crashed_) return Status::IOError(kCrashedMessage);
  return target_->MakeReadOnly(path);
}

}  // namespace sqlledger
