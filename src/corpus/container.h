#ifndef CULEVO_CORPUS_CONTAINER_H_
#define CULEVO_CORPUS_CONTAINER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace culevo {

/// The checksummed binary container under both corpus formats,
/// CULEVO-CORPUS (corpus_snapshot.h) and CULEVO-DELTA (ingestion.h). All
/// integers are little-endian and fixed-width (docs/DATA_FORMATS.md):
///
///   header, 64 bytes
///      0  char[16]  magic: the format name, NUL-padded
///     16  u32       format version
///     20  u32       endianness marker 0x01020304
///     24  u64       format word 0  -.
///     32  u64       format word 1   |- meaning owned by the format
///     40  u32       format word 2  -'
///     44  u32       section count
///     48  u64       file size in bytes
///     56  u64       checksum of the section table
///   section table, 32 bytes per section
///      u32 id, u32 reserved (0), u64 offset, u64 size, u64 checksum
///   payloads, in table order, each at the next 8-byte-aligned offset
///   with zero padding before it; the last one ends the file.
///
/// Every checksum is the block checksum of util/hash.h (Xxh64 of each
/// 256 KiB block, the block hashes folded in order). The reader verifies
/// the blocks as parallel tasks and keeps their hashes, which a corpus's
/// content fingerprint folds (corpus/corpus_snapshot.h). A format reads a
/// range of versions, from its oldest to the one it writes, all in this
/// layout; which sections a version holds is the format's business. The
/// versions before a format's first block-checksummed one carry FNV-1a-64
/// checksums of the whole bytes instead (CULEVO-CORPUS 1); such a file is
/// verified a section per task and has no block hashes. The checksum is
/// the only thing the container decides by the version.
///
/// The reader accounts for every byte: the header fields are checked here
/// or by the format, the table and each payload by their checksums, and
/// the padding by being zero.
///
/// Refusal contract of ReadContainer:
///   - missing file                                  -> NotFound
///   - bad magic                                     -> InvalidArgument
///   - a format version outside the format's
///     range, foreign byte order                     -> FailedPrecondition
///   - truncation, checksum mismatch, a section
///     table or padding that disagrees with the
///     layout above                                  -> DataLoss
///   - an unreadable file                            -> IOError
///
/// Metrics, under the format's prefix: `<prefix>.writes`,
/// `<prefix>.bytes_written`, `<prefix>.mmap_loads`,
/// `<prefix>.fallback_loads`.
/// Failpoints, under the same prefix: `<prefix>.read` (before the file is
/// opened), `<prefix>.read.corrupt` (forces a payload checksum mismatch),
/// `<prefix>.write` (before the atomic write).

/// Identity of one container format.
struct ContainerFormat {
  std::string_view magic;   ///< Format name, at most 16 bytes.
  uint32_t version = 0;     ///< Written; the newest version read.
  std::string_view prefix;  ///< Metric and failpoint prefix.
  /// The oldest version read: every version from it to `version` is.
  uint32_t oldest_version = 0;
  /// The first version signed with block checksums; the versions before
  /// it are signed with FNV-1a-64.
  uint32_t first_block_version = 0;
};

/// The header words whose meaning belongs to the format.
struct ContainerWords {
  uint64_t word0 = 0;
  uint64_t word1 = 0;
  uint32_t word2 = 0;
};

/// One section to write. `bytes` must stay valid until WriteContainer
/// returns, which checksums them.
struct ContainerSection {
  uint32_t id = 0;
  std::string_view bytes;
};

/// The bytes of a column of fixed-width values.
template <typename T>
std::string_view AsBytes(std::span<const T> column) {
  return {reinterpret_cast<const char*>(column.data()), column.size_bytes()};
}

/// Appends the bytes of one fixed-width value (the container header, or a
/// field of a section payload such as a stats or delta record).
template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Bounds-checked reader of the fixed-width fields of a section payload.
/// A read past the end fails and consumes nothing.
class ByteCursor {
 public:
  explicit ByteCursor(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// Lays out the header, table and sections, signed with block checksums
/// under `format.version`, and writes them through WriteFileAtomic, so a
/// crash leaves the previous complete file or the new complete one.
Status WriteContainer(const std::string& path, const ContainerFormat& format,
                      const ContainerWords& words,
                      std::span<const ContainerSection> sections, bool sync);

/// A container whose header, section table and every payload checksum
/// have been verified. Section views point into the mapped (or buffered)
/// file and stay valid while the container or any holder of backing()
/// lives.
class Container {
 public:
  /// The mapped or buffered file bytes (opaque).
  struct Backing;

  /// True when the file's version signs with block checksums, so that
  /// BlockHashes has the hashes of every section.
  bool block_checksums() const { return block_checksums_; }
  const ContainerWords& words() const { return words_; }

  /// The payload of the first section with `id`, as `T`s (sections are
  /// 8-byte aligned). DataLoss when the file has no such section, or its
  /// size is not a whole number of `T` — or not exactly `count` of them
  /// when `count` is given.
  template <typename T>
  Result<std::span<const T>> Section(
      uint32_t id, std::optional<uint64_t> count = std::nullopt) const {
    Result<std::span<const uint8_t>> bytes = Payload(id, sizeof(T), count);
    if (!bytes.ok()) return bytes.status();
    return std::span<const T>(reinterpret_cast<const T*>(bytes->data()),
                              bytes->size() / sizeof(T));
  }

  /// The checksum of the first section with `id`, as verified against its
  /// payload. DataLoss when the file has no such section.
  Result<uint64_t> Checksum(uint32_t id) const;

  /// The block hashes of the first section with `id`, which its checksum
  /// folds, as verified: HashBlockCount(size) of them, or none in a file
  /// of an FNV-1a version. DataLoss when the file has no such section.
  Result<std::span<const uint64_t>> BlockHashes(uint32_t id) const;

  bool memory_mapped() const;
  size_t file_bytes() const;
  /// Owner of the bytes the section views point into.
  std::shared_ptr<const void> backing() const;

 private:
  friend Result<Container> ReadContainer(const std::string& path,
                                         const ContainerFormat& format,
                                         bool allow_mmap);
  struct Entry {
    uint32_t id;
    std::span<const uint8_t> bytes;
    uint64_t checksum;
    /// The section's hashes in block_hashes_: [first_block, first_block +
    /// blocks).
    size_t first_block;
    size_t blocks;
  };

  /// The first section with `id`, or DataLoss.
  Result<const Entry*> Find(uint32_t id) const;

  /// Section() without the element type: the checked payload bytes.
  Result<std::span<const uint8_t>> Payload(
      uint32_t id, size_t elem_size, std::optional<uint64_t> count) const;

  std::shared_ptr<const Backing> backing_;
  std::string path_;
  bool block_checksums_ = false;
  ContainerWords words_;
  std::vector<Entry> sections_;
  std::vector<uint64_t> block_hashes_;
};

/// Opens and verifies `path` as a `format` container: memory-mapped
/// read-only, or — when `allow_mmap` is false or mmap fails — read into an
/// owned 8-byte-aligned buffer. See the refusal contract above.
Result<Container> ReadContainer(const std::string& path,
                                const ContainerFormat& format,
                                bool allow_mmap = true);

}  // namespace culevo

#endif  // CULEVO_CORPUS_CONTAINER_H_
