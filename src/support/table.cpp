#include "support/table.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "support/common.hpp"

namespace dyntrace {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  aligns_.resize(headers_.size(), Align::kRight);
  if (!aligns_.empty()) aligns_[0] = Align::kLeft;
}

void TextTable::set_align(std::size_t col, Align align) {
  DT_ASSERT(col < aligns_.size(), "column out of range");
  aligns_[col] = align;
}

void TextTable::add_row(std::vector<std::string> cells) {
  DT_ASSERT(cells.size() == headers_.size(), "row width mismatch: expected ", headers_.size(),
            " got ", cells.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double value, int precision) {
  // std::to_chars with a precision is specified as printf("%.*f") in the C
  // locale, without printf's format parsing.  printf reads a negative
  // precision as none given, i.e. 6.
  if (precision < 0) precision = 6;
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, precision);
  if (result.ec == std::errc{}) return std::string(buf, result.ptr);
  // Huge magnitudes or precisions: room for the sign, the 309 integer digits
  // of DBL_MAX, the point and the fraction.
  std::string wide(312 + static_cast<std::size_t>(precision), '\0');
  result = std::to_chars(wide.data(), wide.data() + wide.size(), value,
                         std::chars_format::fixed, precision);
  wide.resize(static_cast<std::size_t>(result.ptr - wide.data()));
  return wide;
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::size_t line = 1;  // the newline
  for (std::size_t c = 0; c < widths.size(); ++c) line += widths[c] + (c > 0 ? 2 : 0);

  // Every line has the same length, so the output is sized exactly once.
  std::string out;
  out.reserve(line * (rows_.size() + 2));
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out.append(2, ' ');
      const std::size_t pad = widths[c] - cells[c].size();
      if (aligns_[c] == Align::kRight) out.append(pad, ' ');
      out += cells[c];
      if (aligns_[c] == Align::kLeft) out.append(pad, ' ');
    }
    out += '\n';
  };

  emit_row(headers_);
  out.append(line - 1, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string TextTable::render_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << ',';
      os << cells[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace dyntrace
