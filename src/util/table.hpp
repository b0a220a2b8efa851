#pragma once
// Aligned-table and CSV emission for bench output.
//
// Every bench prints a human-readable aligned table (what the paper's figure
// shows as curves) followed by a machine-readable CSV block so results can
// be re-plotted.

#include <cstdint>
#include <string>
#include <vector>

namespace flattree::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; values are appended with add/num.
  void begin_row();
  void add(const std::string& cell);
  void num(double value, int precision = 4);
  void integer(std::int64_t value);

  std::size_t rows() const { return cells_.size(); }
  std::size_t columns() const { return headers_.size(); }

  /// Renders the aligned, padded table.
  std::string to_aligned() const;
  /// Renders RFC 4180 CSV (fields containing commas, quotes, CR, or LF
  /// are quoted; embedded quotes are doubled).
  std::string to_csv() const;

  /// Prints aligned table and CSV block (the standard bench footer).
  void print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

/// Formats a double with fixed precision, trimming to a compact form.
std::string format_double(double value, int precision = 4);

/// RFC 4180 field escaping used by Table::to_csv (exposed for tests and
/// ad-hoc CSV writers).
std::string csv_escape(const std::string& s);

}  // namespace flattree::util
