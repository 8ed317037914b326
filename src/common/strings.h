// Small string helpers shared across modules.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace phoebe {

/// Split `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(const std::string& s, char sep);

/// Split into views over `s` (which must outlive them), keeping empty
/// pieces exactly like Split. `*out` is cleared first, so one vector can be
/// reused across lines without reallocating.
void SplitViews(std::string_view s, char sep, std::vector<std::string_view>* out);

/// \brief Cursor over the non-empty lines of a text: the shape of the
/// line-oriented model and statistics formats. Lines are views into the
/// text, which must outlive the cursor.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text);

  /// Next non-empty line, without its '\n'; false at the end of the text.
  bool Next(std::string_view* line);

  /// The unread rest of the text.
  std::string_view rest() const { return rest_; }

  /// OK when `count` more items of at least one line each can still follow;
  /// otherwise an InvalidArgument naming `what`. A declared count must pass
  /// this before it drives a reserve(), so a lying header cannot allocate
  /// beyond the input's own size.
  Status CheckCount(int64_t count, std::string_view what) const;

 private:
  std::string_view rest_;
  size_t lines_left_;  ///< '\n'-separated pieces left in rest_ (an upper bound)
};

/// Append `v` formatted exactly as printf "%.17g" would (std::to_chars with
/// chars_format::general and precision 17 is specified as that conversion),
/// without the printf machinery. 17 significant digits round-trip every
/// finite double through ParseFiniteDouble bit for bit.
void AppendDouble17(std::string* out, double v);
/// Append the decimal form of `v` ("%lld").
void AppendInt(std::string* out, int64_t v);

/// Join pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, const std::string& sep);

/// ASCII lower-casing.
std::string ToLower(std::string s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True if `s` starts with / ends with / contains `sub`.
bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);
bool Contains(const std::string& s, const std::string& sub);

/// Strict numeric token parsers for untrusted text (fuzzed traces, external
/// graph files). Unlike atoi/atof, they reject empty tokens, trailing junk,
/// and out-of-range values instead of returning garbage or invoking UB, so a
/// corrupted input surfaces as a clean error Status naming the offending
/// token (never a crash; fuzz_parser_test pins this). The whole token must be
/// the number. On error `*out` is untouched. Callers that only want a yes/no
/// test use `.ok()`; callers building a richer message can still wrap the
/// returned Status.
///
/// Grammar: exactly what std::from_chars accepts, which is what every
/// writer in the repo emits ("%d"/"%lld", "%.17g"/AppendDouble17):
///   integer  -?[0-9]+
///   double   -?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?
/// No leading '+', no leading or trailing whitespace, no hex ("0x1p3"),
/// and no underflow-to-zero ("1e-400"); strtod accepted those, no writer
/// ever produced them. Subnormals are in range and round-trip.
Status ParseInt32(std::string_view token, int32_t* out);
Status ParseInt64(std::string_view token, int64_t* out);
/// Accepts only finite values (inf/nan/overflow are rejected): every numeric
/// field in the text formats is a finite quantity, and letting an overflowed
/// 1e999 through as +inf would poison downstream arithmetic.
Status ParseFiniteDouble(std::string_view token, double* out);
/// Unsigned 32-bit hex token (no 0x prefix), e.g. a CRC-32 printed "%08x".
/// Same strictness as the parsers above: the whole token must be hex digits.
Status ParseHexU32(std::string_view token, uint32_t* out);

/// Human-readable byte count, e.g. "1.50 GB".
std::string HumanBytes(double bytes);

/// Human-readable duration from seconds, e.g. "2h 15m".
std::string HumanDuration(double seconds);

}  // namespace phoebe
