#include "store/dataset.hpp"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "store/blob.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"

namespace cals::store {

// ---- serialization ---------------------------------------------------------

std::vector<std::uint8_t> serialize_dataset(const DesignContext& context,
                                            const MatchDatabase& db,
                                            const std::string& dataset_options,
                                            const std::string& key,
                                            std::uint64_t version) {
  const BaseNetwork& net = context.network();
  const Library& lib = context.library();
  const Floorplan& fp = context.floorplan();
  BlobWriter w;

  w.begin_section(SectionId::kMeta);
  w.write_string(dataset_options);
  w.write_u32(static_cast<std::uint32_t>(db.partition));
  w.write_u32(static_cast<std::uint32_t>(db.metric));
  w.write_u32(fp.num_rows());
  w.write_u32(fp.sites_per_row());
  w.write_f64(context.base_hpwl());
  w.end_section();

  w.begin_section(SectionId::kLibrary);
  w.write_string(lib.name());
  const TechParams& tech = lib.tech();
  w.write_f64(tech.site_width_um);
  w.write_f64(tech.row_height_um);
  w.write_f64(tech.routing_pitch_um);
  w.write_i32(tech.metal_layers);
  w.write_f64(tech.wire_cap_ff_per_um);
  w.write_f64(tech.wire_res_ohm_per_um);
  w.write_u64(lib.num_cells());
  for (const Cell& cell : lib.cells()) {
    w.write_string(cell.name());
    w.write_f64(cell.area());
    w.write_f64(cell.intrinsic_delay());
    w.write_f64(cell.load_slope());
    w.write_f64(cell.input_cap());
    w.write_u64(cell.patterns().size());
    // Patterns go out structurally, not as str(): parse() renumbers pins by
    // first appearance, which is not the identity for every tree shape.
    for (const Pattern& pattern : cell.patterns()) {
      w.write_u32(pattern.num_vars());
      w.write_i32(pattern.root());
      w.write_u64(pattern.nodes().size());
      for (const PatternNode& node : pattern.nodes()) {
        w.write_u32(static_cast<std::uint32_t>(node.kind));
        w.write_i32(node.child0);
        w.write_i32(node.child1);
        w.write_i32(node.var);
      }
    }
  }
  w.end_section();

  w.begin_section(SectionId::kNetwork);
  const std::uint32_t n = net.num_nodes();
  std::vector<std::uint8_t> kinds(n);
  std::vector<NodeId> fanin0(n);
  std::vector<NodeId> fanin1(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId v{i};
    kinds[i] = static_cast<std::uint8_t>(net.kind(v));
    // Raw storage form: INV is (a, a), PI/const are (0, 0) — exactly what
    // BaseNetwork::from_parts re-validates on load.
    fanin0[i] = net.fanin0(v);
    fanin1[i] = net.fanin1(v);
  }
  w.write_array(kinds.data(), kinds.size());
  w.write_array(fanin0.data(), fanin0.size());
  w.write_array(fanin1.data(), fanin1.size());
  w.write_array(net.pis().data(), net.pis().size());
  for (const NodeId pi : net.pis()) w.write_string(net.pi_name(pi));
  w.write_u64(net.pos().size());
  for (const PrimaryOutput& po : net.pos()) {
    w.write_string(po.name);
    w.write_u32(po.driver.v);
  }
  w.end_section();

  w.begin_section(SectionId::kPositions);
  w.write_array(context.node_positions().data(), context.node_positions().size());
  w.end_section();

  w.begin_section(SectionId::kMatchDb);
  w.write_u32(static_cast<std::uint32_t>(db.partition));
  w.write_u32(static_cast<std::uint32_t>(db.metric));
  w.write_array(db.forest.father.data(), db.forest.father.size());
  w.write_array(db.forest.tree_of.data(), db.forest.tree_of.size());
  w.write_u64(db.forest.trees.size());
  for (const SubjectTree& tree : db.forest.trees) {
    w.write_u32(tree.root.v);
    w.write_array(tree.vertices.data(), tree.vertices.size());
  }
  const MatchSet& m = db.matches;
  const auto arr = [&w](const auto& a) { w.write_array(a.data(), a.size()); };
  arr(m.first);
  arr(m.match_pos);
  arr(m.cell_area);
  arr(m.cell);
  arr(m.pattern_index);
  arr(m.pin_first);
  arr(m.dup_first);
  arr(m.cov_first);
  arr(m.pin_node);
  arr(m.pin_flags);
  arr(m.pin_pos);
  arr(m.dup_node);
  arr(m.cov_node);
  w.end_section();

  return w.finish(key, version);
}

// ---- loading ---------------------------------------------------------------

namespace {

// Hostile-count ceilings — far above anything a real pack produces, small
// enough that count * slot arithmetic can't overflow or balloon allocations.
constexpr std::uint64_t kMaxNodes = 1u << 28;
constexpr std::uint64_t kMaxSlots = 1u << 28;
constexpr std::uint64_t kMaxEntries = 1u << 30;
constexpr std::uint64_t kMaxCells = 1u << 16;
constexpr std::uint64_t kMaxPatterns = 1u << 10;
constexpr std::uint64_t kMaxPatternNodes = 4096;
constexpr std::uint64_t kMaxPorts = 1u << 24;

Status bad(const char* where, const char* what) {
  return Status::parse_error(strprintf("dataset %s: %s", where, what));
}

struct MetaInfo {
  std::string options;
  std::uint32_t partition = 0;
  std::uint32_t metric = 0;
  std::uint32_t num_rows = 0;
  std::uint32_t sites_per_row = 0;
  double base_hpwl = 0.0;
};

Result<MetaInfo> read_meta(const SectionRange& sec) {
  SectionReader r(sec.data, sec.size);
  MetaInfo meta;
  if (!r.read_string(&meta.options) || !r.read_u32(&meta.partition) ||
      !r.read_u32(&meta.metric) || !r.read_u32(&meta.num_rows) ||
      !r.read_u32(&meta.sites_per_row) || !r.read_f64(&meta.base_hpwl) || !r.at_end())
    return bad("meta", "malformed section");
  if (meta.partition > static_cast<std::uint32_t>(PartitionStrategy::kPlacementDriven))
    return bad("meta", "unknown partition strategy");
  if (meta.metric > static_cast<std::uint32_t>(DistanceMetric::kEuclidean))
    return bad("meta", "unknown distance metric");
  if (meta.num_rows == 0 || meta.sites_per_row == 0)
    return bad("meta", "empty floorplan");
  if (!std::isfinite(meta.base_hpwl) || meta.base_hpwl < 0.0)
    return bad("meta", "bad base HPWL");
  return meta;
}

Result<Library> read_library(const SectionRange& sec) {
  SectionReader r(sec.data, sec.size);
  std::string name;
  TechParams tech;
  std::uint64_t num_cells = 0;
  if (!r.read_string(&name) || !r.read_f64(&tech.site_width_um) ||
      !r.read_f64(&tech.row_height_um) || !r.read_f64(&tech.routing_pitch_um) ||
      !r.read_i32(&tech.metal_layers) || !r.read_f64(&tech.wire_cap_ff_per_um) ||
      !r.read_f64(&tech.wire_res_ohm_per_um) || !r.read_u64(&num_cells))
    return bad("library", "malformed header");
  // Floorplan::from_parts re-checks these, but a negative pitch would already
  // have poisoned Cell/timing math by then — reject up front.
  if (!std::isfinite(tech.site_width_um) || tech.site_width_um <= 0.0 ||
      !std::isfinite(tech.row_height_um) || tech.row_height_um <= 0.0 ||
      !std::isfinite(tech.routing_pitch_um) || tech.routing_pitch_um <= 0.0 ||
      tech.metal_layers < 1 || !std::isfinite(tech.wire_cap_ff_per_um) ||
      tech.wire_cap_ff_per_um < 0.0 || !std::isfinite(tech.wire_res_ohm_per_um) ||
      tech.wire_res_ohm_per_um < 0.0)
    return bad("library", "bad tech params");
  if (num_cells == 0 || num_cells > kMaxCells) return bad("library", "bad cell count");

  Library lib(std::move(name), tech);
  std::unordered_set<std::string> names;
  bool has_inverter = false;
  for (std::uint64_t c = 0; c < num_cells; ++c) {
    std::string cell_name;
    double area = 0.0;
    double intrinsic = 0.0;
    double slope = 0.0;
    double input_cap = 0.0;
    std::uint64_t num_patterns = 0;
    if (!r.read_string(&cell_name) || !r.read_f64(&area) || !r.read_f64(&intrinsic) ||
        !r.read_f64(&slope) || !r.read_f64(&input_cap) || !r.read_u64(&num_patterns))
      return bad("library", "malformed cell");
    // Pre-validate everything Cell's constructor CALS_CHECKs (and what
    // timing math assumes) — a hostile blob must fail soft, not abort.
    if (cell_name.empty() || !names.insert(cell_name).second)
      return bad("library", "empty or duplicate cell name");
    if (!std::isfinite(area) || area <= 0.0) return bad("library", "bad cell area");
    if (!std::isfinite(intrinsic) || !std::isfinite(slope) || !std::isfinite(input_cap))
      return bad("library", "bad cell timing");
    if (num_patterns == 0 || num_patterns > kMaxPatterns)
      return bad("library", "bad pattern count");
    std::vector<Pattern> patterns;
    patterns.reserve(num_patterns);
    for (std::uint64_t p = 0; p < num_patterns; ++p) {
      std::uint32_t num_vars = 0;
      std::int32_t root = -1;
      std::uint64_t num_nodes = 0;
      if (!r.read_u32(&num_vars) || !r.read_i32(&root) || !r.read_u64(&num_nodes) ||
          num_nodes == 0 || num_nodes > kMaxPatternNodes)
        return bad("library", "malformed pattern");
      std::vector<PatternNode> nodes(num_nodes);
      for (PatternNode& node : nodes) {
        std::uint32_t kind = 0;
        if (!r.read_u32(&kind) || !r.read_i32(&node.child0) || !r.read_i32(&node.child1) ||
            !r.read_i32(&node.var))
          return bad("library", "malformed pattern node");
        if (kind > static_cast<std::uint32_t>(PatternKind::kNand2))
          return bad("library", "unknown pattern node kind");
        node.kind = static_cast<PatternKind>(kind);
      }
      Result<Pattern> pattern = Pattern::from_parts(std::move(nodes), root, num_vars);
      if (!pattern.ok()) return pattern.status();
      patterns.push_back(std::move(pattern.value()));
    }
    const std::uint32_t num_vars = patterns[0].num_vars();
    const std::uint64_t truth = patterns[0].truth_table();
    for (const Pattern& p : patterns)
      if (p.num_vars() != num_vars || p.truth_table() != truth)
        return bad("library", "cell patterns disagree on pins or function");
    if (num_vars == 1 && truth == 0b01ULL) has_inverter = true;
    lib.add_cell(Cell(std::move(cell_name), area, std::move(patterns), intrinsic, slope,
                      input_cap));
  }
  if (!r.at_end()) return bad("library", "trailing bytes");
  // The mapper unconditionally asks for Library::inverter() (polarity
  // repair), which aborts when absent.
  if (!has_inverter) return bad("library", "no inverter cell");
  return lib;
}

Result<BaseNetwork> read_network(const SectionRange& sec) {
  SectionReader r(sec.data, sec.size);
  const std::uint8_t* kinds = nullptr;
  std::uint64_t num_nodes = 0;
  if (!r.read_array(&kinds, &num_nodes, kMaxNodes)) return bad("network", "bad node array");
  BaseNetworkParts parts;
  parts.kind.reserve(num_nodes);
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    if (kinds[i] > static_cast<std::uint8_t>(NodeKind::kNand2))
      return bad("network", "unknown node kind");
    parts.kind.push_back(static_cast<NodeKind>(kinds[i]));
  }
  if (!r.read_array_copy(&parts.fanin0, kMaxNodes) ||
      !r.read_array_copy(&parts.fanin1, kMaxNodes) ||
      !r.read_array_copy(&parts.pis, kMaxPorts))
    return bad("network", "bad fanin/pi arrays");
  parts.pi_names.resize(parts.pis.size());
  for (std::string& pi_name : parts.pi_names)
    if (!r.read_string(&pi_name)) return bad("network", "bad pi name");
  std::uint64_t num_pos = 0;
  if (!r.read_u64(&num_pos) || num_pos > kMaxPorts) return bad("network", "bad po count");
  parts.pos.resize(num_pos);
  for (PrimaryOutput& po : parts.pos)
    if (!r.read_string(&po.name) || !r.read_u32(&po.driver.v))
      return bad("network", "bad po entry");
  if (!r.at_end()) return bad("network", "trailing bytes");
  return BaseNetwork::from_parts(std::move(parts));
}

Result<std::vector<Point>> read_positions(const SectionRange& sec, std::uint32_t num_nodes) {
  SectionReader r(sec.data, sec.size);
  std::vector<Point> positions;
  if (!r.read_array_copy(&positions, kMaxNodes) || !r.at_end() ||
      positions.size() != num_nodes)
    return bad("positions", "position count does not match network");
  return positions;
}

template <typename T>
bool read_view(SectionReader& r, VecOrView<T>* out, std::uint64_t max_count) {
  const T* data = nullptr;
  std::uint64_t count = 0;
  if (!r.read_array(&data, &count, max_count)) return false;
  *out = VecOrView<T>::view(data, static_cast<std::size_t>(count));
  return true;
}

/// CSR offsets array: size == `rows` + 1, starts at 0, monotone, ends at
/// `entries`.
bool csr_valid(const VecOrView<std::uint32_t>& first, std::uint64_t rows,
               std::uint64_t entries) {
  if (first.size() != rows + 1) return false;
  if (first[0] != 0) return false;
  for (std::size_t i = 0; i + 1 < first.size(); ++i)
    if (first[i] > first[i + 1]) return false;
  return first.back() == entries;
}

bool ids_below(const VecOrView<std::uint32_t>& ids, std::uint32_t bound) {
  for (const std::uint32_t id : ids)
    if (id >= bound) return false;
  return true;
}

Result<std::shared_ptr<MatchDatabase>> read_match_db(const SectionRange& sec,
                                                     const MetaInfo& meta,
                                                     const BaseNetwork& net,
                                                     const Library& lib) {
  SectionReader r(sec.data, sec.size);
  const std::uint32_t n = net.num_nodes();
  auto db = std::make_shared<MatchDatabase>();

  std::uint32_t partition = 0;
  std::uint32_t metric = 0;
  if (!r.read_u32(&partition) || !r.read_u32(&metric) || partition != meta.partition ||
      metric != meta.metric)
    return bad("matchdb", "partition/metric disagree with meta");
  db->partition = static_cast<PartitionStrategy>(partition);
  db->metric = static_cast<DistanceMetric>(metric);

  // ---- subject forest (owning rebuild; small next to the match arrays) ----
  SubjectForest& forest = db->forest;
  if (!r.read_array_copy(&forest.father, kMaxNodes) ||
      !r.read_array_copy(&forest.tree_of, kMaxNodes) || forest.father.size() != n ||
      forest.tree_of.size() != n)
    return bad("matchdb", "bad forest arrays");
  std::uint64_t num_trees = 0;
  if (!r.read_u64(&num_trees) || num_trees > n) return bad("matchdb", "bad tree count");
  std::uint64_t total_vertices = 0;
  forest.trees.resize(num_trees);
  for (std::uint64_t t = 0; t < num_trees; ++t) {
    SubjectTree& tree = forest.trees[t];
    if (!r.read_u32(&tree.root.v) || !r.read_array_copy(&tree.vertices, kMaxNodes))
      return bad("matchdb", "bad tree entry");
    if (tree.vertices.empty() || tree.root.v >= n ||
        tree.vertices.back() != tree.root)
      return bad("matchdb", "tree root not its last vertex");
    NodeId prev = kConst0Node;
    for (const NodeId v : tree.vertices) {
      // Strictly ascending (fanin-before-father), live gates, consistent
      // tree_of; fathers are higher-id readers inside the same tree.
      if (v.v >= n || !net.is_gate(v) || forest.tree_of[v.v] != t)
        return bad("matchdb", "tree vertex out of place");
      if (v != tree.vertices.front() && !(prev < v))
        return bad("matchdb", "tree vertices not ascending");
      prev = v;
      const NodeId father = forest.father[v.v];
      if (father.v >= n) return bad("matchdb", "father out of range");
      if (v == tree.root) {
        if (father != kConst0Node) return bad("matchdb", "root has a father");
      } else if (!(v < father) || forest.tree_of[father.v] != t) {
        return bad("matchdb", "father not a higher reader in the same tree");
      }
    }
    total_vertices += tree.vertices.size();
  }
  std::uint64_t in_tree = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (forest.tree_of[i] == UINT32_MAX) continue;
    if (forest.tree_of[i] >= num_trees) return bad("matchdb", "tree_of out of range");
    ++in_tree;
  }
  // Every listed vertex has tree_of == its tree and lists are duplicate-free
  // (strictly ascending), so count equality makes listed == in-tree exactly.
  if (in_tree != total_vertices) return bad("matchdb", "forest vertex count mismatch");

  // ---- match set (zero-copy views over the mapped section) ---------------
  MatchSet& m = db->matches;
  if (!read_view(r, &m.first, kMaxSlots)) return bad("matchdb", "bad slot index");
  if (!csr_valid(m.first, n, m.first.empty() ? 0 : m.first.back()))
    return bad("matchdb", "bad slot index");
  const std::uint64_t slots = m.first.back();
  if (slots > kMaxSlots) return bad("matchdb", "bad slot count");
  if (!read_view(r, &m.match_pos, kMaxSlots) || m.match_pos.size() != slots ||
      !read_view(r, &m.cell_area, kMaxSlots) || m.cell_area.size() != slots ||
      !read_view(r, &m.cell, kMaxSlots) || m.cell.size() != slots ||
      !read_view(r, &m.pattern_index, kMaxSlots) || m.pattern_index.size() != slots)
    return bad("matchdb", "bad per-slot arrays");
  if (!read_view(r, &m.pin_first, kMaxEntries) || !read_view(r, &m.dup_first, kMaxEntries) ||
      !read_view(r, &m.cov_first, kMaxEntries))
    return bad("matchdb", "bad entry indexes");
  if (!read_view(r, &m.pin_node, kMaxEntries) || !read_view(r, &m.pin_flags, kMaxEntries) ||
      !read_view(r, &m.pin_pos, kMaxEntries) || !read_view(r, &m.dup_node, kMaxEntries) ||
      !read_view(r, &m.cov_node, kMaxEntries) || !r.at_end())
    return bad("matchdb", "bad entry arrays");

  if (!csr_valid(m.pin_first, slots, m.pin_node.size()) ||
      m.pin_flags.size() != m.pin_node.size() || m.pin_pos.size() != m.pin_node.size())
    return bad("matchdb", "bad pin rows");
  if (!csr_valid(m.dup_first, slots, m.dup_node.size()))
    return bad("matchdb", "bad duplication rows");
  if (!csr_valid(m.cov_first, slots, m.cov_node.size()))
    return bad("matchdb", "bad covered rows");
  if (!ids_below(m.pin_node, n) || !ids_below(m.dup_node, n) || !ids_below(m.cov_node, n))
    return bad("matchdb", "entry node out of range");
  for (const std::uint8_t flags : m.pin_flags)
    if (flags > (MatchSet::kPinIsGate | MatchSet::kPinInSubtree))
      return bad("matchdb", "bad pin flags");
  for (std::uint64_t s = 0; s < slots; ++s) {
    const CellId cell = m.cell[s];
    if (cell.v >= lib.num_cells()) return bad("matchdb", "cell id out of range");
    if (m.pattern_index[s] >= lib.cell(cell).patterns().size())
      return bad("matchdb", "pattern index out of range");
    if (m.cell_area[s] != lib.cell(cell).area())
      return bad("matchdb", "slot area disagrees with library");
  }
  // The covering DP asserts every in-tree vertex has at least one candidate.
  for (const SubjectTree& tree : forest.trees)
    for (const NodeId v : tree.vertices)
      if (m.first[v.v] == m.first[v.v + 1])
        return bad("matchdb", "in-tree vertex with no matches");
  return db;
}

}  // namespace

Result<std::shared_ptr<const LoadedDataset>> LoadedDataset::load(const std::string& path) {
  Result<MappedFile> file = MappedFile::open(path);
  if (!file.ok()) {
    CALS_OBS_COUNT("store.dataset.load_failures", 1);
    return file.status();
  }
  return from_file(std::move(file.value()));
}

Result<std::shared_ptr<const LoadedDataset>> LoadedDataset::from_bytes(
    std::vector<std::uint8_t> bytes) {
  return from_file(MappedFile::from_bytes(std::move(bytes)));
}

Result<std::shared_ptr<const LoadedDataset>> LoadedDataset::from_file(MappedFile file) {
  // Move the mapping into its final home FIRST — every view created below
  // aliases these bytes, and MappedFile move transfers the address stably.
  std::shared_ptr<LoadedDataset> loaded(new LoadedDataset());
  loaded->file_ = std::move(file);

  const auto fail = [](Status status) {
    CALS_OBS_COUNT("store.dataset.load_failures", 1);
    return status;
  };

  Result<BlobInfo> info = read_blob(loaded->file_.data(), loaded->file_.size());
  if (!info.ok()) return fail(info.status());
  loaded->key_ = info->key;
  loaded->version_ = info->version;

  const SectionRange* sections[6] = {};
  for (const SectionRange& sec : info->sections) {
    if (sec.id == 0 || sec.id > 5 || sections[sec.id] != nullptr)
      return fail(Status::parse_error("dataset: unknown or duplicate section"));
    sections[sec.id] = &sec;
  }
  for (std::uint64_t id = 1; id <= 5; ++id)
    if (sections[id] == nullptr)
      return fail(Status::parse_error(strprintf("dataset: missing section %llu",
                                                static_cast<unsigned long long>(id))));

  Result<MetaInfo> meta = read_meta(*sections[static_cast<int>(SectionId::kMeta)]);
  if (!meta.ok()) return fail(meta.status());
  loaded->options_ = meta->options;

  Result<Library> library = read_library(*sections[static_cast<int>(SectionId::kLibrary)]);
  if (!library.ok()) return fail(library.status());
  loaded->library_ = std::move(library.value());

  Result<BaseNetwork> net = read_network(*sections[static_cast<int>(SectionId::kNetwork)]);
  if (!net.ok()) return fail(net.status());

  Result<std::vector<Point>> positions = read_positions(
      *sections[static_cast<int>(SectionId::kPositions)], net->num_nodes());
  if (!positions.ok()) return fail(positions.status());

  Result<std::shared_ptr<MatchDatabase>> db = read_match_db(
      *sections[static_cast<int>(SectionId::kMatchDb)], meta.value(), net.value(),
      loaded->library_);
  if (!db.ok()) return fail(db.status());

  Result<Floorplan> floorplan =
      Floorplan::from_parts(meta->num_rows, meta->sites_per_row, loaded->library_.tech());
  if (!floorplan.ok()) return fail(floorplan.status());

  DesignContext::PrecompiledParts parts{std::move(net.value()), &loaded->library_,
                                        std::move(floorplan.value()),
                                        std::move(positions.value()), meta->base_hpwl};
  loaded->context_ = std::make_unique<DesignContext>(std::move(parts));
  loaded->context_->seed_match_database(std::move(db.value()));

  CALS_OBS_COUNT("store.dataset.loads", 1);
  return std::static_pointer_cast<const LoadedDataset>(loaded);
}

}  // namespace cals::store
