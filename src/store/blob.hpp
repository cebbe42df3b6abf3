#pragma once
/// \file blob.hpp
/// The on-disk format of precompiled dataset blobs (DESIGN.md §12): a fixed
/// header, a section table, and 8-byte-aligned section payloads addressed by
/// offset (relocatable — no pointers), each protected by an FNV-1a 64
/// digest. Readers check the header structurally, then the table bounds,
/// then every digest, before a single payload byte is interpreted; loaders
/// on top (dataset.cpp) re-validate structure so even a digest-colliding
/// hostile blob degrades into kParseError, never a crash.
///
/// Layout (all fields little-endian host byte order; the endian marker
/// rejects foreign-endian blobs up front):
///   [0]   8B  magic "CALSDSET"
///   [8]   4B  format version (kFormatVersion)
///   [12]  4B  endian marker 0x01020304
///   [16]  8B  file size (must equal the actual byte count)
///   [24] 16B  dataset key (16 lowercase hex chars, job_keys().dataset_key)
///   [40]  8B  dataset version (monotone per key; the hot-swap ordinal)
///   [48]  8B  section count
///   [56]      section table: {id, offset, size, digest} x count, 8B each
///   ...       payloads, each starting on an 8-byte boundary
///
/// Payload encoding: every scalar occupies one 8-byte slot (u32/i32 widen to
/// u64/i64); strings and arrays are a u64 count followed by the raw bytes
/// padded up to 8 — so any array of alignof <= 8 elements can be aliased
/// in place from the mapped file (VecOrView::view), zero-copy.

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.hpp"

namespace cals::store {

inline constexpr char kMagic[8] = {'C', 'A', 'L', 'S', 'D', 'S', 'E', 'T'};
/// Format 2: the match-db section holds no cover wavefront arrays. A blob of
/// any other version is rejected.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kEndianMarker = 0x01020304u;
inline constexpr std::size_t kKeyLength = 16;
inline constexpr std::size_t kHeaderBaseSize = 56;
inline constexpr std::size_t kSectionEntrySize = 32;

enum class SectionId : std::uint64_t {
  kMeta = 1,       ///< dataset/context options, floorplan, base HPWL
  kLibrary = 2,    ///< cells + structural patterns + tech params
  kNetwork = 3,    ///< compact BaseNetwork arrays
  kPositions = 4,  ///< initial-placement coordinate per node
  kMatchDb = 5,    ///< subject forest + MatchSet CSR arrays
};

/// One resolved entry of the section table, payload already digest-checked.
struct SectionRange {
  std::uint64_t id = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// Parsed + verified header/table info of a blob.
struct BlobInfo {
  std::string key;            ///< 16 hex chars from the header
  std::uint64_t version = 0;  ///< dataset version (hot-swap ordinal)
  std::vector<SectionRange> sections;
};

/// Validates magic / format version / endianness / size / table bounds and
/// every section digest. Returns kParseError on the first violation.
Result<BlobInfo> read_blob(const std::uint8_t* data, std::size_t size);

/// Accumulates sections, then assembles the final image. Append-only; the
/// writer mirrors the reader's slot encoding exactly.
class BlobWriter {
 public:
  void begin_section(SectionId id);
  void end_section();

  void write_u64(std::uint64_t v);
  void write_u32(std::uint32_t v) { write_u64(v); }
  void write_i64(std::int64_t v);
  void write_i32(std::int32_t v) { write_i64(v); }
  void write_f64(double v);
  void write_string(const std::string& s);
  /// Raw element bytes; T must be trivially copyable with alignof(T) <= 8.
  template <typename T>
  void write_array(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8);
    write_u64(count);
    append(data, count * sizeof(T));
    pad8();
  }

  /// Builds the complete blob. `key` must be kKeyLength chars.
  std::vector<std::uint8_t> finish(const std::string& key, std::uint64_t version) const;

 private:
  void append(const void* p, std::size_t n);
  void pad8();

  struct Section {
    std::uint64_t id = 0;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
  bool in_section_ = false;
};

/// Bounds-checked cursor over one section payload. Every read returns false
/// on underflow/overflow instead of touching out-of-range bytes; callers
/// convert the first failure into a kParseError.
class SectionReader {
 public:
  SectionReader(const std::uint8_t* data, std::size_t size) : cur_(data), end_(data + size) {}

  bool read_u64(std::uint64_t* out);
  bool read_u32(std::uint32_t* out);
  bool read_i64(std::int64_t* out);
  bool read_i32(std::int32_t* out);
  bool read_f64(double* out);
  bool read_string(std::string* out, std::size_t max_len = (1u << 24));
  /// Aliases the array in place: *data points into the section payload.
  /// `max_count` bounds hostile counts before any size arithmetic.
  template <typename T>
  bool read_array(const T** data, std::uint64_t* count, std::uint64_t max_count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8);
    std::uint64_t n = 0;
    if (!read_u64(&n)) return false;
    if (n > max_count) return false;
    if (n > static_cast<std::uint64_t>(end_ - cur_) / sizeof(T)) return false;
    *data = reinterpret_cast<const T*>(cur_);
    *count = n;
    cur_ += n * sizeof(T);
    return align8();
  }
  /// Copies the array out (for arrays rebuilt into owning structures).
  template <typename T>
  bool read_array_copy(std::vector<T>* out, std::uint64_t max_count) {
    const T* p = nullptr;
    std::uint64_t n = 0;
    if (!read_array(&p, &n, max_count)) return false;
    out->assign(p, p + n);
    return true;
  }

  bool at_end() const { return cur_ == end_; }

 private:
  bool align8();
  const std::uint8_t* cur_;
  const std::uint8_t* end_;
};

}  // namespace cals::store
