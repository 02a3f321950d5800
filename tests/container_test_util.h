#ifndef CULEVO_TESTS_CONTAINER_TEST_UTIL_H_
#define CULEVO_TESTS_CONTAINER_TEST_UTIL_H_

// Test-only helpers for crafting CULEVO-CORPUS / CULEVO-DELTA files
// (corpus/container.h has the layout) and CULEVO-JOURNAL files
// (util/checkpoint.h).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace culevo {

/// Offset of the `i`th section-table entry in a container file.
inline size_t ContainerTableEntry(uint32_t i) { return 64 + size_t{i} * 32; }

/// Reads / writes a fixed-width field of a container file in place.
template <typename T>
T ContainerField(const std::string& file, size_t at) {
  T value{};
  std::memcpy(&value, file.data() + at, sizeof(T));
  return value;
}
template <typename T>
void SetContainerField(std::string* file, size_t at, T value) {
  std::memcpy(file->data() + at, &value, sizeof(T));
}

/// True when a container file's own version signs with FNV-1a-64: the
/// versions before the block checksums, CULEVO-CORPUS 1 and CULEVO-DELTA
/// 2. Every other file signs with BlockChecksum.
inline bool SignsWithFnv1a(const std::string& file) {
  const std::string_view magic(file.data(), 16);
  const uint32_t version = ContainerField<uint32_t>(file, 16);
  return (magic == std::string_view("CULEVO-CORPUS\0\0\0", 16) &&
          version == 1) ||
         (magic == std::string_view("CULEVO-DELTA\0\0\0\0", 16) &&
          version == 2);
}

/// Recomputes every checksum of a container file in place — each section
/// payload's, then the section table's — with the checksum of the file's
/// own version, as any producer could. Entries that point outside the
/// file keep their checksum; a file too short for its header or table is
/// left alone.
inline void ResignContainer(std::string* file) {
  if (file->size() < 64) return;
  const uint32_t count = ContainerField<uint32_t>(*file, 44);
  if (count > 4096 || ContainerTableEntry(count) > file->size()) return;
  const bool fnv1a = SignsWithFnv1a(*file);
  const auto checksum = [fnv1a](std::string_view bytes) {
    return fnv1a ? Fnv1a64(bytes) : BlockChecksum(bytes);
  };
  for (uint32_t i = 0; i < count; ++i) {
    const size_t at = ContainerTableEntry(i);
    const uint64_t offset = ContainerField<uint64_t>(*file, at + 8);
    const uint64_t size = ContainerField<uint64_t>(*file, at + 16);
    if (offset > file->size() || size > file->size() - offset) continue;
    SetContainerField<uint64_t>(
        file, at + 24, checksum(std::string_view(*file).substr(offset, size)));
  }
  SetContainerField<uint64_t>(
      file, 56,
      checksum(std::string_view(*file).substr(
          64, ContainerTableEntry(count) - 64)));
}

/// Sets a container file's version field to `version` and re-signs it
/// with that version's checksum.
inline void ResignAsVersion(std::string* file, uint32_t version) {
  // replace() rather than SetContainerField: GCC 12 takes a write at a
  // fixed offset into a string's data() for one into its inline buffer.
  file->replace(16, sizeof(version), reinterpret_cast<const char*>(&version),
                sizeof(version));
  ResignContainer(file);
}

/// Recomputes the checksum of every record line of a journal file in
/// place, as any producer could. A line whose 16-digit checksum and
/// separating space are not where the format puts them is left alone.
inline void ResignJournal(std::string* file) {
  for (size_t eol = file->find('\n'); eol != std::string::npos;) {
    const size_t start = eol + 1;
    eol = file->find('\n', start);
    const size_t end = eol == std::string::npos ? file->size() : eol;
    if (end - start < 17 || (*file)[start + 16] != ' ') continue;
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(
                      std::string_view(*file).substr(start + 17,
                                                     end - start - 17))));
    file->replace(start, 16, hex, 16);
  }
}

}  // namespace culevo

#endif  // CULEVO_TESTS_CONTAINER_TEST_UTIL_H_
