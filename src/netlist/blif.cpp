#include "netlist/blif.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/check.hpp"
#include "util/faults.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"

namespace cals {
namespace {

struct NamesTable {
  std::vector<std::string> inputs;
  std::string output;
  std::uint32_t line = 0;  // physical line of the .names directive
  struct Row {
    std::string cube;  // input-plane string over {0,1,-}
    std::uint32_t line = 0;
  };
  std::vector<Row> rows;
};

struct LogicalLine {
  std::string text;
  std::uint32_t line = 0;  // 1-based physical line the logical line starts on
};

/// Position of the first byte that is neither printable ASCII nor common
/// whitespace, or npos. Binary garbage fed to the reader fails here with a
/// column instead of producing nonsense tokens downstream.
std::size_t find_non_ascii(std::string_view text) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x80 || (c < 0x20 && c != '\t' && c != '\r')) return i;
  }
  return std::string_view::npos;
}

/// Reads logical lines, joining `\` continuations and dropping comments.
Result<std::vector<LogicalLine>> logical_lines(std::istream& in) {
  std::vector<LogicalLine> lines;
  std::string raw;
  std::string pending;
  std::uint32_t lineno = 0;
  std::uint32_t pending_start = 0;
  bool pending_open = false;
  while (std::getline(in, raw)) {
    ++lineno;
    if (const auto bad = find_non_ascii(raw); bad != std::string::npos)
      return Status::parse_error("blif: non-ASCII byte in input", lineno,
                                 static_cast<std::uint32_t>(bad + 1));
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    std::string_view line = trim(raw);
    bool continued = false;
    if (!line.empty() && line.back() == '\\') {
      continued = true;
      line.remove_suffix(1);
    }
    if (!pending_open) pending_start = lineno;
    pending += std::string(line);
    if (continued) {
      pending += ' ';
      pending_open = true;
      continue;
    }
    if (!trim(pending).empty())
      lines.push_back({std::string(trim(pending)), pending_start});
    pending.clear();
    pending_open = false;
  }
  if (in.bad()) return Status::parse_error("blif: read failure", lineno);
  if (pending_open)
    return Status::parse_error("blif: truncated input (continuation at end of file)",
                               pending_start);
  if (!trim(pending).empty()) lines.push_back({std::string(trim(pending)), pending_start});
  return lines;
}

Result<NodeId> build_table(BaseNetwork& net, const NamesTable& table,
                           const std::unordered_map<std::string, NodeId>& signal) {
  std::vector<NodeId> fanins;
  fanins.reserve(table.inputs.size());
  for (const std::string& name : table.inputs) {
    auto it = signal.find(name);
    CALS_CHECK_MSG(it != signal.end(), "blif: undefined signal in .names");
    fanins.push_back(it->second);
  }
  if (table.inputs.empty()) {
    // Constant: a single empty row with output value 1 means const1.
    return table.rows.empty() ? net.const0() : net.const1();
  }
  if (table.rows.empty()) return net.const0();
  std::vector<NodeId> products;
  products.reserve(table.rows.size());
  for (const NamesTable::Row& row : table.rows) {
    if (row.cube.size() != table.inputs.size())
      return Status::parse_error(
          strprintf("blif: cube arity mismatch (%zu literals for %zu inputs)",
                    row.cube.size(), table.inputs.size()),
          row.line);
    std::vector<NodeId> literals;
    for (std::size_t i = 0; i < row.cube.size(); ++i) {
      if (row.cube[i] == '1') literals.push_back(fanins[i]);
      else if (row.cube[i] == '0') literals.push_back(net.add_inv(fanins[i]));
      else if (row.cube[i] != '-')
        return Status::parse_error(
            strprintf("blif: bad cube character '%c'", row.cube[i]), row.line,
            static_cast<std::uint32_t>(i + 1));
    }
    products.push_back(literals.empty() ? net.const1() : net.add_and(literals));
  }
  return net.add_or(products);
}

Result<BlifModel> parse_blif_impl(std::istream& in) {
  BlifModel model;
  std::vector<std::pair<std::string, std::uint32_t>> input_names;
  std::vector<std::pair<std::string, std::uint32_t>> output_names;
  std::vector<NamesTable> tables;
  bool have_model = false;

  auto lines_result = logical_lines(in);
  if (!lines_result.ok()) return lines_result.status();
  const auto& lines = *lines_result;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const auto tokens = split_ws(lines[li].text);
    const std::uint32_t lineno = lines[li].line;
    if (tokens.empty()) continue;
    const std::string& head = tokens[0];
    if (head == ".model") {
      if (have_model)
        return Status::parse_error("blif: duplicate .model directive", lineno);
      have_model = true;
      if (tokens.size() > 1) model.name = tokens[1];
    } else if (head == ".inputs") {
      for (auto it = tokens.begin() + 1; it != tokens.end(); ++it)
        input_names.emplace_back(*it, lineno);
    } else if (head == ".outputs") {
      for (auto it = tokens.begin() + 1; it != tokens.end(); ++it)
        output_names.emplace_back(*it, lineno);
    } else if (head == ".latch") {
      // .latch <input(D)> <output(Q)> [<type> <control>] [<init>]
      if (tokens.size() < 3)
        return Status::parse_error("blif: .latch needs input and output", lineno);
      BlifLatch latch;
      latch.input = tokens[1];
      latch.output = tokens[2];
      if (tokens.size() >= 4 && tokens.back().size() == 1 &&
          tokens.back()[0] >= '0' && tokens.back()[0] <= '3')
        latch.initial = tokens.back()[0];
      model.latches.push_back(std::move(latch));
    } else if (head == ".names") {
      if (tokens.size() < 2)
        return Status::parse_error("blif: .names needs an output", lineno);
      NamesTable table;
      table.output = tokens.back();
      table.line = lineno;
      table.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
      // Consume cover rows until the next dot-directive.
      while (li + 1 < lines.size() && lines[li + 1].text[0] != '.') {
        ++li;
        const auto row = split_ws(lines[li].text);
        const std::uint32_t row_line = lines[li].line;
        if (table.inputs.empty()) {
          if (row.size() != 1 || row[0] != "1")
            return Status::parse_error("blif: bad constant row (expected '1')", row_line);
          table.rows.push_back({"", row_line});
        } else {
          if (row.size() != 2)
            return Status::parse_error(
                "blif: cover row needs input and output plane", row_line);
          if (row[1] != "1")
            return Status::parse_error("blif: only on-set covers supported", row_line);
          table.rows.push_back({row[0], row_line});
        }
      }
      tables.push_back(std::move(table));
    } else if (head == ".end") {
      break;
    } else {
      return Status::parse_error(
          strprintf("blif: unsupported directive '%s'", head.c_str()), lineno);
    }
  }

  std::unordered_map<std::string, NodeId> signal;
  model.num_real_pis = input_names.size();
  model.num_real_pos = output_names.size();
  for (const auto& [name, lineno] : input_names) {
    if (!signal.emplace(name, model.network.add_pi(name)).second)
      return Status::parse_error(
          strprintf("blif: duplicate input '%s'", name.c_str()), lineno);
  }
  // Latch outputs (Q) are pseudo primary inputs of the combinational core.
  for (const BlifLatch& latch : model.latches) {
    if (!signal.emplace(latch.output, model.network.add_pi(latch.output)).second)
      return Status::parse_error(
          strprintf("blif: duplicate definition of latch output '%s'",
                    latch.output.c_str()));
  }
  // Table outputs must be unique and must not shadow an input.
  std::unordered_set<std::string> table_outputs;
  for (const NamesTable& table : tables) {
    if (signal.contains(table.output) || !table_outputs.insert(table.output).second)
      return Status::parse_error(
          strprintf("blif: duplicate definition of '%s'", table.output.c_str()),
          table.line);
  }

  // Tables can appear in any order: iterate until all are resolved.
  std::vector<bool> done(tables.size(), false);
  std::size_t remaining = tables.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t t = 0; t < tables.size(); ++t) {
      if (done[t]) continue;
      const bool ready = std::all_of(
          tables[t].inputs.begin(), tables[t].inputs.end(),
          [&](const std::string& name) { return signal.contains(name); });
      if (!ready) continue;
      auto node = build_table(model.network, tables[t], signal);
      if (!node.ok()) return node.status();
      signal[tables[t].output] = *node;
      done[t] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      // Distinguish a fanin that nothing ever defines from a dependency
      // cycle among otherwise well-defined tables.
      for (std::size_t t = 0; t < tables.size(); ++t) {
        if (done[t]) continue;
        for (const std::string& name : tables[t].inputs)
          if (!signal.contains(name) && !table_outputs.contains(name))
            return Status::parse_error(
                strprintf("blif: dangling fanin '%s' in .names", name.c_str()),
                tables[t].line);
      }
      return Status::parse_error("blif: cyclic .names dependencies");
    }
  }

  for (const auto& [name, lineno] : output_names) {
    auto it = signal.find(name);
    if (it == signal.end())
      return Status::parse_error(
          strprintf("blif: undriven primary output '%s'", name.c_str()), lineno);
    model.network.add_po(name, it->second);
  }
  // Latch inputs (D) are pseudo primary outputs of the combinational core.
  for (const BlifLatch& latch : model.latches) {
    auto it = signal.find(latch.input);
    if (it == signal.end())
      return Status::parse_error(
          strprintf("blif: undriven latch input '%s'", latch.input.c_str()));
    model.network.add_po(latch.input, it->second);
  }
  return model;
}

}  // namespace

Result<BlifModel> parse_blif(std::istream& in) {
  // Dataset-served jobs bypass text parsing entirely; the serving CI asserts
  // this counter stays absent on the blob-backed hot path.
  CALS_OBS_COUNT("parse.blif", 1);
  try {
    CALS_FAULT_POINT("parse.blif");
    auto result = parse_blif_impl(in);
    if (!result.ok()) {
      Status status = result.status();
      if (status.file().empty()) status.with_file("<blif>");
      return status;
    }
    return result;
  } catch (const std::exception& e) {
    return Status::internal(strprintf("blif: %s", e.what())).with_file("<blif>");
  }
}

Result<BlifModel> parse_blif_string(const std::string& text) {
  std::istringstream in(text);
  return parse_blif(in);
}

Result<BlifModel> parse_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    return Status::parse_error("blif: cannot open file").with_file(path);
  auto result = parse_blif(in);
  if (!result.ok()) {
    Status status = result.status();
    status.with_file(path);
    return status;
  }
  return result;
}

void write_blif(std::ostream& out, const BaseNetwork& net, const std::string& model_name) {
  auto sig = [&](NodeId n) -> std::string {
    if (net.kind(n) == NodeKind::kPi) return net.pi_name(n);
    return strprintf("n%u", n.v);
  };

  out << ".model " << model_name << "\n.inputs";
  for (NodeId pi : net.pis()) out << ' ' << net.pi_name(pi);
  out << "\n.outputs";
  for (const PrimaryOutput& po : net.pos()) out << ' ' << po.name;
  out << '\n';

  for (std::uint32_t i = 0; i < net.num_nodes(); ++i) {
    const NodeId n{i};
    switch (net.kind(n)) {
      case NodeKind::kInv:
        if (net.fanin0(n) == kConst0Node) {
          out << ".names " << sig(n) << "\n1\n";  // const1
        } else {
          out << ".names " << sig(net.fanin0(n)) << ' ' << sig(n) << "\n0 1\n";
        }
        break;
      case NodeKind::kNand2:
        out << ".names " << sig(net.fanin0(n)) << ' ' << sig(net.fanin1(n)) << ' ' << sig(n)
            << "\n0- 1\n-0 1\n";
        break;
      case NodeKind::kConst0:
      case NodeKind::kPi:
        break;
    }
  }
  // PO aliases (a PO may share a driver with other POs or have a PI driver).
  for (const PrimaryOutput& po : net.pos()) {
    if (po.driver == kConst0Node) {
      out << ".names " << po.name << '\n';  // empty cover = const0
    } else {
      out << ".names " << sig(po.driver) << ' ' << po.name << "\n1 1\n";
    }
  }
  out << ".end\n";
}

std::string write_blif_string(const BaseNetwork& net, const std::string& model_name) {
  std::ostringstream out;
  write_blif(out, net, model_name);
  return out.str();
}

}  // namespace cals
