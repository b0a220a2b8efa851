#include "util/table.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace flattree::util {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: need at least one column");
}

void Table::begin_row() { cells_.emplace_back(); }

void Table::add(const std::string& cell) {
  if (cells_.empty()) throw std::logic_error("Table: add() before begin_row()");
  if (cells_.back().size() >= headers_.size())
    throw std::logic_error("Table: row has more cells than headers");
  cells_.back().push_back(cell);
}

void Table::num(double value, int precision) { add(format_double(value, precision)); }

void Table::integer(std::int64_t value) { add(std::to_string(value)); }

std::string Table::to_aligned() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : cells_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << cell << std::string(width[c] - cell.size(), ' ');
      os << (c + 1 < headers_.size() ? "  " : "");
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : cells_) emit(row);
  return os.str();
}

std::string csv_escape(const std::string& s) {
  // RFC 4180: quote fields containing separators, quotes, or line breaks
  // (CR as well as LF — bare CR still breaks most readers); double any
  // embedded quotes.
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string Table::to_csv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << (c ? "," : "") << csv_escape(headers_[c]);
  os << '\n';
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) os << (c ? "," : "") << csv_escape(row[c]);
    os << '\n';
  }
  return os.str();
}

void Table::print(const std::string& title) const {
  std::printf("== %s ==\n%s\n-- csv --\n%s\n", title.c_str(), to_aligned().c_str(),
              to_csv().c_str());
}

}  // namespace flattree::util
