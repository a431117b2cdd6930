// Small text-formatting helpers shared by the trace renderer and benches.
#pragma once

#include <string>
#include <vector>

namespace mcan {

/// Left-pad/truncate to exactly `width` characters.
[[nodiscard]] std::string pad_right(std::string s, std::size_t width);

/// Format a double in scientific notation with `digits` significant digits,
/// in the style the paper's Table 1 uses (e.g. "8.80e-03").
[[nodiscard]] std::string sci(double v, int digits = 3);

/// Join strings with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               const std::string& sep);

/// Render a simple fixed-width text table (first row = header).
[[nodiscard]] std::string render_table(
    const std::vector<std::vector<std::string>>& rows);

/// Escape a string for embedding in a JSON string literal.  Every control
/// character below 0x20 is escaped (short forms \b \t \n \f \r, \u00XX for
/// the rest), plus the quote and backslash.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Render a double as a JSON value that any parser accepts: finite values
/// round-trip exactly (%.17g), while NaN and the infinities — which bare
/// JSON numbers cannot express — become the quoted sentinels "NaN",
/// "Infinity" and "-Infinity".  All stats/journal writers emit doubles
/// through this helper.
[[nodiscard]] std::string json_number(double v);

/// Write `content` to `path`, replacing any existing file; false on error.
[[nodiscard]] bool write_text_file(const std::string& path,
                                   const std::string& content);

/// write_text_file() for a command: on error, prints "<tool>: cannot
/// write <path>" to stderr before returning false.
[[nodiscard]] bool write_text_file(const char* tool, const std::string& path,
                                   const std::string& content);

/// `name` as a file-name stem: lower-case letters and digits kept,
/// upper-case letters lowered, anything else '_' ("MajorCAN_3" ->
/// "majorcan_3").
[[nodiscard]] std::string file_slug(const std::string& name);

}  // namespace mcan
