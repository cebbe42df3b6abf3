/// Tests for `cals::store` — the precompiled dataset store (DESIGN.md §12):
/// the dual content keys, the pack -> mmap -> zero-copy-load round trip
/// (bit-identical metrics, zero parse / match-db work on the serve path),
/// blob hardening (truncation, corruption, version/endian mismatch and
/// digest-fixed hostile payloads all degrade into kParseError), and the
/// DatasetStore hot-swap protocol (new versions picked up live, old
/// mappings released once the last reference drops).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "sop/pla_io.hpp"
#include "store/blob.hpp"
#include "store/dataset.hpp"
#include "store/dataset_store.hpp"
#include "store/mapped_file.hpp"
#include "svc/dataset_pack.hpp"
#include "svc/job.hpp"
#include "svc/preset_specs.hpp"
#include "svc/result_cache.hpp"
#include "svc/service.hpp"
#include "util/fnv.hpp"
#include "util/io.hpp"
#include "util/obs.hpp"
#include "workloads/presets.hpp"

namespace cals::store {
namespace {

namespace fs = std::filesystem;

bool write_file(const fs::path& path, const std::string& body) {
  std::FILE* out = std::fopen(path.string().c_str(), "wb");
  if (out == nullptr) return false;
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), out);
  return std::fclose(out) == 0 && written == body.size();
}

struct TempDir {
  explicit TempDir(const char* tag) {
    static std::atomic<std::uint64_t> counter{0};
    path = fs::path(::testing::TempDir()) /
           (std::string("cals_store_") + tag + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

svc::JobSpec tiny_spec(double k = 0.05) {
  svc::JobSpec spec;
  spec.name = "tiny";
  spec.format = svc::DesignFormat::kPla;
  spec.design_text = write_pla_string(workloads::spla_like(0.05));
  spec.options.K = k;
  spec.options.on_error = ErrorPolicy::kBestEffort;
  return spec;
}

std::vector<std::uint8_t> pack_bytes(const svc::JobSpec& spec, const TempDir& dir,
                                     std::uint64_t version = 0) {
  Result<svc::PackedDataset> packed =
      svc::pack_job_dataset(spec, dir.path.string(), version);
  EXPECT_TRUE(packed.ok()) << packed.status().to_string();
  Result<std::vector<std::uint8_t>> bytes = read_file_bytes(packed->path);
  EXPECT_TRUE(bytes.ok());
  return std::move(bytes.value());
}

void expect_metrics_identical(const FlowMetrics& a, const FlowMetrics& b) {
  EXPECT_EQ(a.k_factor, b.k_factor);
  EXPECT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.cell_area_um2, b.cell_area_um2);
  EXPECT_EQ(a.utilization_pct, b.utilization_pct);
  EXPECT_EQ(a.routing_violations, b.routing_violations);
  EXPECT_EQ(a.routable, b.routable);
  EXPECT_EQ(a.wirelength_um, b.wirelength_um);
  EXPECT_EQ(a.hpwl_um, b.hpwl_um);
  EXPECT_EQ(a.critical_path_ns, b.critical_path_ns);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.chip_area_um2, b.chip_area_um2);
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// ---- content keys ----------------------------------------------------------

TEST(JobKeys, CacheKeyMatchesLegacySingleKeyHash) {
  const svc::JobSpec spec = tiny_spec();
  const svc::JobKeys keys = svc::job_keys(spec);
  EXPECT_EQ(keys.cache_key, svc::job_cache_key(spec));
  EXPECT_EQ(keys.cache_key.size(), kKeyLength);
  EXPECT_EQ(keys.dataset_key.size(), kKeyLength);
}

TEST(JobKeys, DatasetKeyIgnoresEvaluationOnlyOptions) {
  svc::JobSpec a = tiny_spec(0.05);
  svc::JobSpec b = tiny_spec(0.75);  // different K
  b.options.objective = MapObjective::kDelay;
  b.auto_k = true;
  b.options.max_route_iters += 3;
  const svc::JobKeys ka = svc::job_keys(a);
  const svc::JobKeys kb = svc::job_keys(b);
  EXPECT_NE(ka.cache_key, kb.cache_key);    // results differ
  EXPECT_EQ(ka.dataset_key, kb.dataset_key);  // same context -> one blob
}

TEST(JobKeys, DatasetKeyTracksContextOptions) {
  const svc::JobKeys base = svc::job_keys(tiny_spec());
  svc::JobSpec changed = tiny_spec();
  changed.options.partition = PartitionStrategy::kDagon;
  EXPECT_NE(svc::job_keys(changed).dataset_key, base.dataset_key);
  changed = tiny_spec();
  changed.options.metric = DistanceMetric::kEuclidean;
  EXPECT_NE(svc::job_keys(changed).dataset_key, base.dataset_key);
  changed = tiny_spec();
  changed.util = 0.5;
  EXPECT_NE(svc::job_keys(changed).dataset_key, base.dataset_key);
  changed = tiny_spec();
  changed.design_text += "\n";
  EXPECT_NE(svc::job_keys(changed).dataset_key, base.dataset_key);
}

// ---- pack -> load round trip ----------------------------------------------

TEST(DatasetPack, WritesBlobNamedAfterKeyAndVersion) {
  TempDir dir("pack");
  const svc::JobSpec spec = tiny_spec();
  Result<svc::PackedDataset> packed =
      svc::pack_job_dataset(spec, dir.path.string(), 7);
  ASSERT_TRUE(packed.ok()) << packed.status().to_string();
  EXPECT_EQ(fs::path(packed->path).filename().string(),
            dataset_filename(svc::job_keys(spec).dataset_key, 7));
  EXPECT_TRUE(fs::exists(packed->path));
  EXPECT_EQ(fs::file_size(packed->path), packed->bytes);
  // Repack is an atomic overwrite, not an error.
  Result<svc::PackedDataset> again =
      svc::pack_job_dataset(spec, dir.path.string(), 7);
  EXPECT_TRUE(again.ok());
}

TEST(DatasetPack, BlobBytesGolden) {
  // The packed spla-like blob, byte for byte: the network, the base
  // placement, the library and the match database it freezes, in format 2.
  // A change to any of them, or to their layout, shows here.
  EXPECT_EQ(kFormatVersion, 2u);
  TempDir dir("golden");
  const std::vector<std::uint8_t> bytes = pack_bytes(tiny_spec(), dir);
  char digest[24];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(fnv1a64_bytes(bytes.data(), bytes.size())));
  EXPECT_STREQ(digest, "0x93a3e3290d7d166b");
}

TEST(DatasetPack, RejectsUnparseableDesign) {
  TempDir dir("packbad");
  svc::JobSpec spec = tiny_spec();
  spec.design_text = "this is not a PLA";
  Result<svc::PackedDataset> packed = svc::pack_job_dataset(spec, dir.path.string());
  EXPECT_FALSE(packed.ok());
}

TEST(LoadedDataset, RoundTripsKeyVersionAndOptions) {
  TempDir dir("load");
  const svc::JobSpec spec = tiny_spec();
  Result<svc::PackedDataset> packed =
      svc::pack_job_dataset(spec, dir.path.string(), 3);
  ASSERT_TRUE(packed.ok()) << packed.status().to_string();
  Result<std::shared_ptr<const LoadedDataset>> loaded =
      LoadedDataset::load(packed->path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ((*loaded)->key(), packed->dataset_key);
  EXPECT_EQ((*loaded)->version(), 3u);
  EXPECT_EQ((*loaded)->options(), svc::canonical_dataset_options(spec));
  EXPECT_TRUE((*loaded)->context().network().num_nodes() > 0);
}

TEST(LoadedDataset, EvaluationIsBitIdenticalToTextSpecPath) {
  TempDir dir("bitident");
  obs::set_enabled(true);
  for (const std::string& preset : svc::preset_names()) {
    Result<svc::JobSpec> spec = svc::preset_job_spec(preset, 0.05);
    ASSERT_TRUE(spec.ok());
    spec->options.K = 0.35;
    spec->options.on_error = ErrorPolicy::kBestEffort;

    const svc::JobOutcome via_text = svc::run_flow_job(*spec);
    ASSERT_TRUE(via_text.status.ok()) << via_text.status.to_string();

    Result<svc::PackedDataset> packed =
        svc::pack_job_dataset(*spec, dir.path.string());
    ASSERT_TRUE(packed.ok()) << packed.status().to_string();
    Result<std::shared_ptr<const LoadedDataset>> loaded =
        LoadedDataset::load(packed->path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

    // The dataset-served evaluation must do zero front-end work: no parse of
    // any format, no match-database build.
    obs::Registry::instance().reset();
    const svc::JobOutcome via_blob =
        svc::evaluate_job_on_context(*spec, (*loaded)->context());
    EXPECT_EQ(counter_value("parse.pla"), 0u) << preset;
    EXPECT_EQ(counter_value("parse.blif"), 0u) << preset;
    EXPECT_EQ(counter_value("parse.genlib"), 0u) << preset;
    EXPECT_EQ(counter_value("map.match_db_builds"), 0u) << preset;

    ASSERT_TRUE(via_blob.status.ok()) << via_blob.status.to_string();
    expect_metrics_identical(via_blob.metrics, via_text.metrics);
  }
  obs::set_enabled(false);
}

TEST(LoadedDataset, AutoKScheduleAlsoBitIdentical) {
  TempDir dir("autok");
  svc::JobSpec spec = tiny_spec();
  spec.auto_k = true;
  const svc::JobOutcome via_text = svc::run_flow_job(spec);
  ASSERT_TRUE(via_text.status.ok());
  Result<svc::PackedDataset> packed = svc::pack_job_dataset(spec, dir.path.string());
  ASSERT_TRUE(packed.ok());
  Result<std::shared_ptr<const LoadedDataset>> loaded =
      LoadedDataset::load(packed->path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const svc::JobOutcome via_blob =
      svc::evaluate_job_on_context(spec, (*loaded)->context());
  ASSERT_TRUE(via_blob.status.ok());
  expect_metrics_identical(via_blob.metrics, via_text.metrics);
}

TEST(LoadedDataset, OneBlobServesAWholeKSweep) {
  TempDir dir("ksweep");
  const svc::JobSpec base = tiny_spec();
  Result<svc::PackedDataset> packed = svc::pack_job_dataset(base, dir.path.string());
  ASSERT_TRUE(packed.ok());
  Result<std::shared_ptr<const LoadedDataset>> loaded =
      LoadedDataset::load(packed->path);
  ASSERT_TRUE(loaded.ok());
  for (const double k : {0.0, 0.35, 1.0}) {
    svc::JobSpec spec = base;
    spec.options.K = k;
    ASSERT_EQ(svc::job_keys(spec).dataset_key, packed->dataset_key);
    const svc::JobOutcome via_text = svc::run_flow_job(spec);
    const svc::JobOutcome via_blob =
        svc::evaluate_job_on_context(spec, (*loaded)->context());
    ASSERT_TRUE(via_text.status.ok());
    ASSERT_TRUE(via_blob.status.ok());
    expect_metrics_identical(via_blob.metrics, via_text.metrics);
  }
}

// ---- blob hardening --------------------------------------------------------

Status load_status(const std::vector<std::uint8_t>& bytes) {
  Result<std::shared_ptr<const LoadedDataset>> loaded =
      LoadedDataset::from_bytes(bytes);
  if (loaded.ok()) return Status();
  return loaded.status();
}

TEST(BlobHardening, TruncationAtEveryBoundaryIsAParseError) {
  TempDir dir("trunc");
  const std::vector<std::uint8_t> blob = pack_bytes(tiny_spec(), dir);
  ASSERT_GT(blob.size(), kHeaderBaseSize);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, kHeaderBaseSize - 1,
        kHeaderBaseSize, kHeaderBaseSize + kSectionEntrySize, blob.size() / 2,
        blob.size() - 8, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + keep);
    const Status status = load_status(cut);
    EXPECT_EQ(status.code(), ErrorCode::kParseError) << "keep=" << keep;
  }
}

TEST(BlobHardening, SingleByteCorruptionIsAParseError) {
  TempDir dir("flip");
  const std::vector<std::uint8_t> blob = pack_bytes(tiny_spec(), dir);
  // Flip one byte in a spread of positions: header, table, early payload,
  // middle, last byte. The digests (or header checks) must catch each one.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{9}, std::size_t{17},
                                kHeaderBaseSize + 4, blob.size() / 3,
                                blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> bad = blob;
    bad[pos] ^= 0x40;
    const Status status = load_status(bad);
    EXPECT_EQ(status.code(), ErrorCode::kParseError) << "pos=" << pos;
  }
}

TEST(BlobHardening, FormatVersionMismatchIsAParseError) {
  TempDir dir("ver");
  std::vector<std::uint8_t> blob = pack_bytes(tiny_spec(), dir);
  const std::uint32_t future = kFormatVersion + 1;
  std::memcpy(blob.data() + 8, &future, sizeof(future));
  EXPECT_EQ(load_status(blob).code(), ErrorCode::kParseError);
}

TEST(BlobHardening, ForeignEndianBlobIsAParseError) {
  TempDir dir("endian");
  std::vector<std::uint8_t> blob = pack_bytes(tiny_spec(), dir);
  // A blob written on the other endianness carries the marker byte-swapped.
  const std::uint32_t swapped = 0x04030201u;
  std::memcpy(blob.data() + 12, &swapped, sizeof(swapped));
  EXPECT_EQ(load_status(blob).code(), ErrorCode::kParseError);
}

TEST(BlobHardening, GrowingTheFileIsAParseError) {
  TempDir dir("grow");
  std::vector<std::uint8_t> blob = pack_bytes(tiny_spec(), dir);
  blob.resize(blob.size() + 16, 0);  // header file_size no longer matches
  EXPECT_EQ(load_status(blob).code(), ErrorCode::kParseError);
}

TEST(BlobHardening, EmptyAndGarbageBytesAreParseErrors) {
  EXPECT_EQ(load_status({}).code(), ErrorCode::kParseError);
  std::vector<std::uint8_t> garbage(4096);
  for (std::size_t i = 0; i < garbage.size(); ++i)
    garbage[i] = static_cast<std::uint8_t>(i * 131 + 7);
  EXPECT_EQ(load_status(garbage).code(), ErrorCode::kParseError);
}

/// Tampers with one payload byte and then REPAIRS the section digest, so the
/// blob passes every checksum and the loader's structural validation is the
/// only line of defence left.
std::vector<std::uint8_t> tamper_with_fixed_digest(std::vector<std::uint8_t> blob,
                                                   std::uint64_t section_id,
                                                   std::size_t payload_offset,
                                                   std::uint8_t xor_mask) {
  std::uint64_t section_count = 0;
  std::memcpy(&section_count, blob.data() + 48, 8);
  for (std::uint64_t s = 0; s < section_count; ++s) {
    std::uint8_t* entry = blob.data() + kHeaderBaseSize + s * kSectionEntrySize;
    std::uint64_t id = 0, offset = 0, size = 0;
    std::memcpy(&id, entry, 8);
    std::memcpy(&offset, entry + 8, 8);
    std::memcpy(&size, entry + 16, 8);
    if (id != section_id) continue;
    EXPECT_LT(payload_offset, size);
    blob[offset + payload_offset] ^= xor_mask;
    const std::uint64_t digest = fnv1a64_bytes(blob.data() + offset, size);
    std::memcpy(entry + 24, &digest, 8);
    return blob;
  }
  ADD_FAILURE() << "section " << section_id << " not found";
  return blob;
}

TEST(BlobHardening, DigestFixedHostilePayloadStillFailsClosed) {
  TempDir dir("hostile");
  const std::vector<std::uint8_t> blob = pack_bytes(tiny_spec(), dir);
  // Every section opens with a u64 slot (a string length, an array count or
  // the partition tag); flipping its high byte turns it into a hostile giant
  // value. NETWORK@8 corrupts the first node-kind byte (const-0 becomes an
  // unknown kind) and MATCHDB@0 the partition tag. Each tamper sails past
  // the digests and must be caught by structural validation — as
  // kParseError, never an abort or a giant allocation.
  const struct {
    std::uint64_t section;
    std::size_t offset;
    std::uint8_t mask;
  } cases[] = {
      {static_cast<std::uint64_t>(SectionId::kMeta), 7, 0xff},
      {static_cast<std::uint64_t>(SectionId::kLibrary), 7, 0xff},
      {static_cast<std::uint64_t>(SectionId::kNetwork), 7, 0xff},
      {static_cast<std::uint64_t>(SectionId::kNetwork), 8, 0xff},
      {static_cast<std::uint64_t>(SectionId::kPositions), 7, 0xff},
      {static_cast<std::uint64_t>(SectionId::kMatchDb), 7, 0xff},
      {static_cast<std::uint64_t>(SectionId::kMatchDb), 0, 0xff},
  };
  for (const auto& c : cases) {
    const std::vector<std::uint8_t> bad =
        tamper_with_fixed_digest(blob, c.section, c.offset, c.mask);
    const Status status = load_status(bad);
    EXPECT_EQ(status.code(), ErrorCode::kParseError)
        << "section=" << c.section << ": " << status.to_string();
  }
}

// ---- mapped file -----------------------------------------------------------

TEST(MappedFile, OpensRegularFilesAndRejectsMissingOnes) {
  TempDir dir("map");
  const fs::path path = dir.path / "blob.bin";
  const std::string payload = "0123456789abcdef";
  ASSERT_TRUE(write_file(path, payload));
  Result<MappedFile> mapped = MappedFile::open(path.string());
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  ASSERT_EQ(mapped->size(), payload.size());
  EXPECT_EQ(0, std::memcmp(mapped->data(), payload.data(), payload.size()));

  Result<MappedFile> missing = MappedFile::open((dir.path / "nope").string());
  EXPECT_FALSE(missing.ok());
}

// ---- dataset store + hot swap ---------------------------------------------

TEST(DatasetStore, RefreshLoadsAcquireByKeyAndIgnoresJunkFiles) {
  TempDir dir("storedir");
  const svc::JobSpec spec = tiny_spec();
  Result<svc::PackedDataset> packed = svc::pack_job_dataset(spec, dir.path.string());
  ASSERT_TRUE(packed.ok());
  // Junk that must be skipped without failing the refresh.
  ASSERT_TRUE(write_file(dir.path / "README.txt", "hi"));
  ASSERT_TRUE(write_file(dir.path / "zzzznothexchars0-v0.calsds", "x"));
  ASSERT_TRUE(write_file(dir.path / dataset_filename(std::string(16, '0'), 1),
                         "truncated garbage"));

  DatasetStore store(dir.path.string());
  EXPECT_EQ(store.num_datasets(), 0u);
  EXPECT_EQ(store.acquire(packed->dataset_key), nullptr);
  store.refresh();
  EXPECT_EQ(store.num_datasets(), 1u);
  const std::shared_ptr<const LoadedDataset> ds = store.acquire(packed->dataset_key);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->key(), packed->dataset_key);
  EXPECT_EQ(store.acquire("ffffffffffffffff"), nullptr);
  EXPECT_EQ(store.stats().loads, 1u);
  EXPECT_EQ(store.stats().load_failures, 1u);  // the truncated garbage blob
  // A second refresh with nothing new is a no-op (no reload of same version).
  store.refresh();
  EXPECT_EQ(store.stats().loads, 1u);
}

TEST(DatasetStore, HotSwapPicksUpNewVersionAndReleasesOldMapping) {
  TempDir dir("hotswap");
  const svc::JobSpec spec = tiny_spec();
  Result<svc::PackedDataset> v0 = svc::pack_job_dataset(spec, dir.path.string(), 0);
  ASSERT_TRUE(v0.ok());

  DatasetStore store(dir.path.string());
  store.refresh();
  std::shared_ptr<const LoadedDataset> in_flight = store.acquire(v0->dataset_key);
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->version(), 0u);
  std::weak_ptr<const LoadedDataset> old_mapping = in_flight;

  // Publish v1 into the live directory: the next refresh swaps to it without
  // disturbing the v0 handle an in-flight job still holds.
  Result<svc::PackedDataset> v1 = svc::pack_job_dataset(spec, dir.path.string(), 1);
  ASSERT_TRUE(v1.ok());
  store.refresh();
  EXPECT_EQ(store.num_datasets(), 1u);
  EXPECT_EQ(store.stats().swaps, 1u);
  const std::shared_ptr<const LoadedDataset> fresh = store.acquire(v1->dataset_key);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->version(), 1u);

  // The in-flight job's v0 view stays fully readable after the swap...
  EXPECT_EQ(in_flight->version(), 0u);
  EXPECT_GT(in_flight->context().network().num_nodes(), 0u);
  // ...and the old mapping is released exactly when the last reference drops.
  in_flight.reset();
  EXPECT_TRUE(old_mapping.expired());
}

TEST(DatasetStore, NeverDowngradesToAnOlderVersion) {
  TempDir dir("downgrade");
  const svc::JobSpec spec = tiny_spec();
  ASSERT_TRUE(svc::pack_job_dataset(spec, dir.path.string(), 5).ok());
  DatasetStore store(dir.path.string());
  store.refresh();
  ASSERT_TRUE(svc::pack_job_dataset(spec, dir.path.string(), 2).ok());
  store.refresh();
  const std::shared_ptr<const LoadedDataset> ds =
      store.acquire(svc::job_keys(spec).dataset_key);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->version(), 5u);
}

// ---- service dispatch ------------------------------------------------------

TEST(ServiceDatasets, ColdJobsAreServedFromTheStoreBitIdentically) {
  TempDir dir("svcds");
  const svc::JobSpec spec = tiny_spec();
  const svc::JobOutcome via_text = svc::run_flow_job(spec);
  ASSERT_TRUE(via_text.status.ok());

  ASSERT_TRUE(svc::pack_job_dataset(spec, dir.path.string()).ok());
  DatasetStore store(dir.path.string());
  store.refresh();

  svc::ServiceOptions options;
  options.max_parallel_jobs = 1;
  options.datasets = &store;
  svc::FlowService service(options);
  Result<svc::JobId> id = service.submit(spec);
  ASSERT_TRUE(id.ok());
  const svc::JobRecord record = service.wait(*id);
  EXPECT_EQ(record.state, svc::JobState::kDone);
  EXPECT_TRUE(record.outcome.dataset);
  EXPECT_FALSE(record.outcome.cache_hit);
  expect_metrics_identical(record.outcome.metrics, via_text.metrics);
  EXPECT_EQ(service.stats().dataset_hits, 1u);
  EXPECT_EQ(record.dataset_key, svc::job_keys(spec).dataset_key);
}

TEST(ServiceDatasets, MissingDatasetFallsBackToTextSpecPath) {
  TempDir dir("svcmiss");
  DatasetStore store(dir.path.string());  // empty directory, nothing to serve
  store.refresh();
  svc::ServiceOptions options;
  options.max_parallel_jobs = 1;
  options.datasets = &store;
  svc::FlowService service(options);
  Result<svc::JobId> id = service.submit(tiny_spec());
  ASSERT_TRUE(id.ok());
  const svc::JobRecord record = service.wait(*id);
  EXPECT_EQ(record.state, svc::JobState::kDone);
  EXPECT_FALSE(record.outcome.dataset);
  EXPECT_EQ(service.stats().dataset_hits, 0u);
}

TEST(ServiceDatasets, CacheHitStillWinsOverDataset) {
  TempDir spool("svccache");
  const svc::JobSpec spec = tiny_spec();
  ASSERT_TRUE(svc::pack_job_dataset(spec, spool.path.string()).ok());
  DatasetStore store(spool.path.string());
  store.refresh();
  TempDir cache_dir("svccache2");
  svc::ResultCache cache(cache_dir.path.string());
  svc::ServiceOptions options;
  options.max_parallel_jobs = 1;
  options.datasets = &store;
  options.cache = &cache;
  svc::FlowService service(options);
  Result<svc::JobId> first = service.submit(spec);
  ASSERT_TRUE(first.ok());
  const svc::JobRecord warm_up = service.wait(*first);
  EXPECT_TRUE(warm_up.outcome.dataset);

  Result<svc::JobId> second = service.submit(spec);
  ASSERT_TRUE(second.ok());
  const svc::JobRecord hit = service.wait(*second);
  EXPECT_TRUE(hit.outcome.cache_hit);
  EXPECT_FALSE(hit.outcome.dataset);  // no flow ran at all
  expect_metrics_identical(hit.outcome.metrics, warm_up.outcome.metrics);
}

}  // namespace
}  // namespace cals::store
