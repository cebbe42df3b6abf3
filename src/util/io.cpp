#include "util/io.hpp"

#include <chrono>
#include <cstdio>
#include <system_error>

#include "util/strings.hpp"

namespace cals {
namespace {

// Reads the whole file into `out` (any contiguous byte container) with one
// allocation sized from the file length. Regular-file sizes from
// fseek/ftell are exact; a short read (truncation race) shrinks the buffer.
// Anything else is refused: a directory opens, but its "size" can be
// LONG_MAX.
template <typename Container>
Status read_into(const std::string& path, Container* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::internal(strprintf("cannot open %s", path.c_str()));
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    std::fclose(f);
    return Status::internal(strprintf("cannot read %s: not a regular file", path.c_str()));
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::internal(strprintf("cannot seek %s", path.c_str()));
  }
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return Status::internal(strprintf("cannot stat %s", path.c_str()));
  }
  std::rewind(f);
  out->resize(static_cast<std::size_t>(end));
  std::size_t got = 0;
  if (end > 0) {
    got = std::fread(out->data(), 1, static_cast<std::size_t>(end), f);
    if (got < static_cast<std::size_t>(end) && std::ferror(f)) {
      std::fclose(f);
      return Status::internal(strprintf("short read on %s", path.c_str()));
    }
    out->resize(got);
  }
  std::fclose(f);
  return Status();
}

}  // namespace

Result<std::string> read_file_string(const std::string& path) {
  std::string body;
  Status st = read_into(path, &body);
  if (!st.ok()) return st;
  return body;
}

Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path) {
  std::vector<std::uint8_t> body;
  Status st = read_into(path, &body);
  if (!st.ok()) return st;
  return body;
}

std::size_t remove_stale_tmp_files(const std::filesystem::path& dir,
                                   double min_age_seconds) {
  namespace fs = std::filesystem;
  std::size_t removed = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() != ".tmp") continue;
    std::error_code fec;
    if (!it->is_regular_file(fec) || fec) continue;
    const auto mtime = fs::last_write_time(it->path(), fec);
    if (fec) continue;
    const double age =
        std::chrono::duration<double>(now - mtime).count();
    if (age < min_age_seconds) continue;
    if (fs::remove(it->path(), fec) && !fec) ++removed;
  }
  return removed;
}

}  // namespace cals
