#include "util/csv.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace ps360::util {

namespace {

// Every comma ends a cell, so a trailing comma leaves a final empty cell:
// the row is then ragged against the header, or, under a header that ends
// in a comma too, parse_double rejects the empty cell.
std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t begin = 0;
  for (std::size_t comma; (comma = line.find(',', begin)) != std::string::npos;
       begin = comma + 1)
    cells.push_back(line.substr(begin, comma - begin));
  cells.push_back(line.substr(begin));
  return cells;
}

double parse_double(const std::string& cell, std::size_t line_no) {
  // Trim whitespace.
  const auto begin = cell.find_first_not_of(" \t\r");
  const auto end = cell.find_last_not_of(" \t\r");
  PS360_CHECK_MSG(begin != std::string::npos,
                  "empty CSV cell at line " + std::to_string(line_no));
  const std::string trimmed = cell.substr(begin, end - begin + 1);
  double value = 0.0;
  const char* first = trimmed.data();
  const char* last = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  PS360_CHECK_MSG(ec == std::errc() && ptr == last,
                  "non-numeric CSV cell '" + trimmed + "' at line " +
                      std::to_string(line_no));
  return value;
}

}  // namespace

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i)
    if (header[i] == name) return i;
  throw std::invalid_argument("CSV column not found: " + name);
}

CsvTable parse_csv(const std::string& text, bool has_header) {
  CsvTable table;
  std::stringstream ss(text);
  std::string line;
  std::size_t line_no = 0;
  bool header_pending = has_header;
  std::size_t width = 0;
  while (std::getline(ss, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (header_pending) {
      table.header = split_line(line);
      width = table.header.size();
      header_pending = false;
      continue;
    }
    const auto cells = split_line(line);
    if (width == 0) width = cells.size();
    PS360_CHECK_MSG(cells.size() == width,
                    "ragged CSV row at line " + std::to_string(line_no));
    std::vector<double> row;
    row.reserve(cells.size());
    for (const auto& cell : cells) row.push_back(parse_double(cell, line_no));
    table.rows.push_back(std::move(row));
  }
  return table;
}

CsvTable read_csv_file(const std::filesystem::path& path, bool has_header) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open CSV file: " + path.string());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_csv(buffer.str(), has_header);
}

std::string to_csv(const CsvTable& table) {
  std::ostringstream out;
  out.precision(17);
  if (!table.header.empty()) {
    for (std::size_t i = 0; i < table.header.size(); ++i) {
      if (i) out << ',';
      out << table.header[i];
    }
    out << '\n';
  }
  for (const auto& row : table.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << row[i];
    }
    out << '\n';
  }
  return out.str();
}

void write_csv_file(const std::filesystem::path& path, const CsvTable& table) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write CSV file: " + path.string());
  out << to_csv(table);
  if (!out) throw std::runtime_error("I/O error writing CSV file: " + path.string());
}

}  // namespace ps360::util
