#include "svc/dataset_pack.hpp"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "store/dataset.hpp"
#include "store/dataset_store.hpp"
#include "svc/service.hpp"
#include "util/strings.hpp"

namespace cals::svc {

namespace fs = std::filesystem;

Result<PackedDataset> pack_job_dataset(const JobSpec& spec, const std::string& out_dir,
                                       std::uint64_t version) {
  const JobKeys keys = job_keys(spec);
  Result<JobDesign> design = build_job_design(spec);
  if (!design.ok()) return design.status();

  // The same context construction the text-spec dispatch path performs
  // (default PlaceOptions — that is why canonical_dataset_options excludes
  // spec.options.place), then the K-independent match database for the
  // spec's {partition, metric}.
  const DesignContext context(std::move(design->net), &design->library,
                              design->floorplan);
  const std::shared_ptr<const MatchDatabase> db =
      context.match_database(spec.options.partition, spec.options.metric);

  const std::vector<std::uint8_t> blob = store::serialize_dataset(
      context, *db, canonical_dataset_options(spec), keys.dataset_key, version);

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec && !fs::is_directory(out_dir, ec))
    return Status::internal(
        strprintf("pack: cannot create output directory '%s'", out_dir.c_str()));
  const fs::path path =
      fs::path(out_dir) / store::dataset_filename(keys.dataset_key, version);
  const fs::path tmp = path.string() + ".tmp";
  {
    std::FILE* out = std::fopen(tmp.string().c_str(), "wb");
    if (out == nullptr)
      return Status::internal(
          strprintf("pack: cannot open '%s' for writing", tmp.string().c_str()));
    const std::size_t written = std::fwrite(blob.data(), 1, blob.size(), out);
    const bool flushed = std::fclose(out) == 0;
    if (written != blob.size() || !flushed) {
      fs::remove(tmp, ec);
      return Status::internal(
          strprintf("pack: short write to '%s'", tmp.string().c_str()));
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::internal(strprintf("pack: cannot publish '%s'", path.string().c_str()));
  }

  PackedDataset packed;
  packed.path = path.string();
  packed.dataset_key = keys.dataset_key;
  packed.version = version;
  packed.bytes = blob.size();
  return packed;
}

}  // namespace cals::svc
