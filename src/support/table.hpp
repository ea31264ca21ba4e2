// ASCII table / CSV rendering shared by the bench binaries.
//
// Every figure/table reproduction prints its series through TablePrinter so
// the output of `for b in build/bench/*; do $b; done` is uniform and easy
// to diff against EXPERIMENTS.md.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace stgsim {

/// Columnar table with string cells; renders aligned ASCII or CSV.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  std::string to_ascii() const;
  std::string to_csv() const;

  /// Formatting helpers for numeric cells.
  static std::string fmt(double v, int precision = 3);
  static std::string fmt_int(long long v);
  static std::string fmt_bytes(std::size_t bytes);
  static std::string fmt_percent(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a banner like "== Figure 4: ... ==" followed by context lines.
void print_experiment_header(std::ostream& os, const std::string& id,
                             const std::string& title,
                             const std::vector<std::string>& notes);

}  // namespace stgsim
