#include "corpus/container.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <numeric>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/hash.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace culevo {
namespace {

constexpr uint32_t kEndianMarker = 0x01020304;
constexpr size_t kSectionAlign = 8;
constexpr uint32_t kMaxSections = 4096;
/// Fewest file bytes that earn a checksum thread: a smaller file is
/// verified on the calling thread. Xxh64 hashes ~10 GB/s, so 2 MiB is
/// ~0.2 ms of work, several times a thread's start-up. On the 4-vCPU host
/// the pass is bound by memory, not by the hash: from a fresh mapping the
/// 26 MiB 1 M-recipe snapshot verified in 2.9-3.5 ms on one thread and
/// 3.1-3.8 ms on two, at every block size from 64 KiB to 4 MiB, so there
/// a second thread costs ~0.2 ms and gains nothing; a host with more
/// memory bandwidth gains. A file of an FNV-1a version (~2 ms per MiB)
/// shares the constant.
constexpr size_t kHashBytesPerThread = size_t{2} << 20;

/// The header and a section-table entry exactly as they lie on disk
/// (little-endian hosts only; no padding).
struct Header {
  std::array<char, 16> magic;
  uint32_t version;
  uint32_t endian;
  uint64_t word0;
  uint64_t word1;
  uint32_t word2;
  uint32_t section_count;
  uint64_t file_bytes;
  uint64_t table_checksum;
};
static_assert(sizeof(Header) == 64);

struct TableEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t size;
  uint64_t checksum;
};
static_assert(sizeof(TableEntry) == 32);

size_t AlignUp(size_t offset) {
  return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

std::array<char, 16> MagicOf(const ContainerFormat& format) {
  std::array<char, 16> magic{};
  std::copy_n(format.magic.begin(), std::min(format.magic.size(), magic.size()),
              magic.begin());
  return magic;
}

std::string Prefixed(const ContainerFormat& format, const char* suffix) {
  return std::string(format.prefix) + suffix;
}

Status CheckHostEndianness(const ContainerFormat& format) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unimplemented(std::string(format.magic) +
                                 " files are little-endian; this host is not");
  }
  return Status::Ok();
}

}  // namespace

/// The file bytes: an mmap'ed region or an owned 8-byte-aligned buffer.
struct Container::Backing {
  const uint8_t* data = nullptr;
  size_t size = 0;
  void* map_addr = nullptr;  ///< Non-null when memory-mapped.
  std::vector<uint64_t> buffer;

  ~Backing() {
    if (map_addr != nullptr) ::munmap(map_addr, size);
  }
};

namespace {

Result<std::shared_ptr<Container::Backing>> OpenBacking(
    const std::string& path, const ContainerFormat& format, bool allow_mmap) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(
          StrFormat("no %s file at %s", std::string(format.magic).c_str(),
                    path.c_str()));
    }
    return Status::IOError(StrFormat("cannot open %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(StrFormat(
        "cannot stat %s: %s", path.c_str(), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  auto backing = std::make_shared<Container::Backing>();
  backing->size = static_cast<size_t>(st.st_size);

  if (allow_mmap && backing->size > 0) {
    void* addr =
        ::mmap(nullptr, backing->size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      backing->map_addr = addr;
      backing->data = static_cast<const uint8_t*>(addr);
      ::close(fd);
      return backing;
    }
    // Fall through to the buffered read; a filesystem that cannot mmap
    // must not make the file unreadable.
  }

  backing->buffer.resize((backing->size + 7) / 8, 0);
  uint8_t* dst = reinterpret_cast<uint8_t*>(backing->buffer.data());
  size_t done = 0;
  while (done < backing->size) {
    const ssize_t n = ::read(fd, dst + done, backing->size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IOError(StrFormat(
          "read failure on %s: %s", path.c_str(), std::strerror(errno)));
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // Shrank underneath us.
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != backing->size) {
    return Status::DataLoss(StrFormat("%s: short read (%zu of %zu bytes)",
                                      path.c_str(), done, backing->size));
  }
  backing->data = dst;
  return backing;
}

}  // namespace

Status WriteContainer(const std::string& path, const ContainerFormat& format,
                      const ContainerWords& words,
                      std::span<const ContainerSection> sections, bool sync) {
  CULEVO_RETURN_IF_ERROR(CheckHostEndianness(format));
  std::vector<TableEntry> table;
  table.reserve(sections.size());
  size_t end = sizeof(Header) + sections.size() * sizeof(TableEntry);
  for (const ContainerSection& section : sections) {
    const size_t offset = AlignUp(end);
    table.push_back({section.id, 0, offset, section.bytes.size(),
                     BlockChecksum(section.bytes)});
    end = offset + section.bytes.size();
  }
  const std::string_view table_bytes =
      AsBytes(std::span<const TableEntry>(table));
  const Header header = {MagicOf(format),
                         format.version,
                         kEndianMarker,
                         words.word0,
                         words.word1,
                         words.word2,
                         static_cast<uint32_t>(sections.size()),
                         end,
                         BlockChecksum(table_bytes)};

  std::string content;
  content.reserve(end);
  AppendPod(&content, header);
  content += table_bytes;
  for (const ContainerSection& section : sections) {
    content.resize(AlignUp(content.size()), '\0');
    content += section.bytes;
  }

  CULEVO_FAILPOINT(Prefixed(format, ".write"));
  CULEVO_RETURN_IF_ERROR(WriteFileAtomic(path, content, sync));
  auto& registry = obs::MetricsRegistry::Get();
  registry.counter(Prefixed(format, ".writes"))->Increment();
  registry.counter(Prefixed(format, ".bytes_written"))
      ->Increment(static_cast<int64_t>(content.size()));
  return Status::Ok();
}

Result<Container> ReadContainer(const std::string& path,
                                const ContainerFormat& format,
                                bool allow_mmap) {
  CULEVO_RETURN_IF_ERROR(CheckHostEndianness(format));
  CULEVO_FAILPOINT(Prefixed(format, ".read"));
  Result<std::shared_ptr<Container::Backing>> backing =
      OpenBacking(path, format, allow_mmap);
  if (!backing.ok()) return backing.status();
  const std::string_view file(reinterpret_cast<const char*>((*backing)->data),
                              (*backing)->size);
  const std::string name(format.magic);
  const auto corrupt = [&](const std::string& what) {
    return Status::DataLoss(StrFormat("%s: corrupt %s file (%s)",
                                      path.c_str(), name.c_str(),
                                      what.c_str()));
  };

  if (file.size() < sizeof(Header)) return corrupt("shorter than its header");
  Header header{};
  std::memcpy(&header, file.data(), sizeof(header));
  if (header.magic != MagicOf(format)) {
    return Status::InvalidArgument(StrFormat(
        "%s: not a %s file (bad magic)", path.c_str(), name.c_str()));
  }
  if (header.version < format.oldest_version ||
      header.version > format.version) {
    const std::string understood =
        format.oldest_version == format.version
            ? StrFormat("%u", format.version)
            : StrFormat("%u to %u", format.oldest_version, format.version);
    return Status::FailedPrecondition(StrFormat(
        "%s: %s format version %u, this build understands %s — refusing "
        "to guess at the layout",
        path.c_str(), name.c_str(), header.version, understood.c_str()));
  }
  const bool fnv1a = header.version < format.first_block_version;
  if (header.endian != kEndianMarker) {
    return Status::FailedPrecondition(
        StrFormat("%s: written with foreign byte order (marker 0x%08x)",
                  path.c_str(), header.endian));
  }
  if (header.file_bytes != file.size()) {
    return corrupt("header size does not match the file");
  }
  const size_t table_bytes = size_t{header.section_count} * sizeof(TableEntry);
  if (header.section_count > kMaxSections ||
      sizeof(Header) + table_bytes > file.size()) {
    return corrupt("section table exceeds the file");
  }
  const std::string_view table = file.substr(sizeof(Header), table_bytes);
  if ((fnv1a ? Fnv1a64(table) : BlockChecksum(table)) !=
      header.table_checksum) {
    return corrupt("section-table checksum mismatch");
  }

  // Check that the payloads tile the rest of the file exactly as
  // WriteContainer lays them out, then verify every payload checksum,
  // before handing any section out. The checksums run as parallel tasks:
  // one per block (one per section in an FNV-1a version, whose chains
  // cannot split), largest first, so the longest starts first. The
  // refusal is the one a serial walk in table order gives: the first
  // checksum mismatch before the first section that disagrees with the
  // layout, else that disagreement.
  Container container;
  container.block_checksums_ = !fnv1a;
  container.words_ = {header.word0, header.word1, header.word2};
  container.sections_.reserve(header.section_count);
  std::optional<Status> layout_error;
  size_t end = sizeof(Header) + table_bytes;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    TableEntry entry{};
    std::memcpy(&entry, file.data() + sizeof(Header) + i * sizeof(entry),
                sizeof(entry));
    const size_t offset = AlignUp(end);
    if (entry.reserved != 0 || entry.offset != offset ||
        offset > file.size() || entry.size > file.size() - offset) {
      layout_error = corrupt(
          StrFormat("section %u disagrees with the layout", entry.id));
      break;
    }
    if (file.substr(end, offset - end).find_first_not_of('\0') !=
        std::string_view::npos) {
      layout_error =
          corrupt(StrFormat("nonzero padding before section %u", entry.id));
      break;
    }
    container.sections_.push_back(
        {entry.id, {(*backing)->data + offset, entry.size}, entry.checksum,
         0, 0});
    end = offset + entry.size;
  }
  // The byte ranges to hash: a section's are [first_block, first_block +
  // blocks).
  std::vector<std::string_view> pieces;
  for (Container::Entry& section : container.sections_) {
    const std::string_view payload(
        reinterpret_cast<const char*>(section.bytes.data()),
        section.bytes.size());
    section.first_block = pieces.size();
    section.blocks = fnv1a ? 1 : HashBlockCount(payload.size());
    for (size_t b = 0; b < section.blocks; ++b) {
      pieces.push_back(fnv1a ? payload
                             : payload.substr(b * kHashBlockBytes,
                                              kHashBlockBytes));
    }
  }
  std::vector<size_t> by_size(pieces.size());
  std::iota(by_size.begin(), by_size.end(), size_t{0});
  std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return pieces[a].size() > pieces[b].size();
  });
  std::vector<uint64_t> hashes(pieces.size());
  RunTasks(pieces.size(), ThreadsFor(end, kHashBytesPerThread),
           [&](size_t task) {
             const std::string_view piece = pieces[by_size[task]];
             hashes[by_size[task]] = fnv1a ? Fnv1a64(piece) : Xxh64(piece);
           });
  const Status forced_corrupt =
      FailpointCheck(Prefixed(format, ".read.corrupt"));
  for (Container::Entry& section : container.sections_) {
    const std::span<const uint64_t> own(hashes.data() + section.first_block,
                                        section.blocks);
    const uint64_t checksum = fnv1a ? own.front() : FoldBlockHashes(own);
    if (!forced_corrupt.ok() || checksum != section.checksum) {
      return corrupt(
          StrFormat("checksum mismatch in section %u", section.id));
    }
    // A file of an FNV-1a version has no block hashes to hand out.
    if (fnv1a) section.first_block = section.blocks = 0;
  }
  if (layout_error) return *std::move(layout_error);
  if (end != file.size()) {
    return corrupt("trailing bytes after the last section");
  }

  obs::MetricsRegistry::Get()
      .counter(Prefixed(format, (*backing)->map_addr != nullptr
                                    ? ".mmap_loads"
                                    : ".fallback_loads"))
      ->Increment();
  if (!fnv1a) container.block_hashes_ = std::move(hashes);
  container.backing_ = std::move(backing).value();
  container.path_ = path;
  return container;
}

bool Container::memory_mapped() const {
  return backing_->map_addr != nullptr;
}

size_t Container::file_bytes() const { return backing_->size; }

std::shared_ptr<const void> Container::backing() const { return backing_; }

Result<const Container::Entry*> Container::Find(uint32_t id) const {
  const auto entry =
      std::find_if(sections_.begin(), sections_.end(),
                   [id](const Entry& e) { return e.id == id; });
  if (entry == sections_.end()) {
    return Status::DataLoss(
        StrFormat("%s: required section %u missing", path_.c_str(), id));
  }
  return &*entry;
}

Result<uint64_t> Container::Checksum(uint32_t id) const {
  Result<const Entry*> entry = Find(id);
  if (!entry.ok()) return entry.status();
  return (*entry)->checksum;
}

Result<std::span<const uint64_t>> Container::BlockHashes(uint32_t id) const {
  Result<const Entry*> entry = Find(id);
  if (!entry.ok()) return entry.status();
  return std::span<const uint64_t>(block_hashes_)
      .subspan((*entry)->first_block, (*entry)->blocks);
}

Result<std::span<const uint8_t>> Container::Payload(
    uint32_t id, size_t elem_size, std::optional<uint64_t> count) const {
  Result<const Entry*> entry = Find(id);
  if (!entry.ok()) return entry.status();
  const size_t bytes = (*entry)->bytes.size();
  if (bytes % elem_size != 0 || (count && *count != bytes / elem_size)) {
    return Status::DataLoss(
        StrFormat("%s: section %u has %zu bytes, not the size its header "
                  "and element type imply",
                  path_.c_str(), id, bytes));
  }
  return (*entry)->bytes;
}

}  // namespace culevo
