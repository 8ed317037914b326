#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace phoebe {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

void SplitViews(std::string_view s, char sep, std::vector<std::string_view>* out) {
  out->clear();
  while (true) {
    size_t pos = s.find(sep);
    out->push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) return;
    s.remove_prefix(pos + 1);
  }
}

LineCursor::LineCursor(std::string_view text)
    : rest_(text),
      lines_left_(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1) {}

bool LineCursor::Next(std::string_view* line) {
  while (!rest_.empty()) {
    const size_t nl = rest_.find('\n');
    *line = rest_.substr(0, nl);
    rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
    --lines_left_;
    if (!line->empty()) return true;
  }
  return false;
}

Status LineCursor::CheckCount(int64_t count, std::string_view what) const {
  if (count >= 0 && static_cast<uint64_t>(count) <= lines_left_) return Status::OK();
  return Status::InvalidArgument(StrFormat("declared %lld %.*s, but only %zu lines remain",
                                           static_cast<long long>(count),
                                           static_cast<int>(what.size()), what.data(),
                                           lines_left_));
}

void AppendDouble17(std::string* out, double v) {
  char buf[32];  // "-1.2345678901234567e-308" is the longest form: 24 chars
  auto r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

std::string Join(const std::vector<std::string>& pieces, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

namespace {

/// Quote a (possibly hostile/binary/huge) token for an error message:
/// non-printable bytes become '?', long tokens truncate with an ellipsis.
std::string QuoteToken(std::string_view token) {
  constexpr size_t kMax = 32;
  std::string q = "'";
  for (size_t i = 0; i < token.size() && i < kMax; ++i) {
    unsigned char c = static_cast<unsigned char>(token[i]);
    q += (c >= 0x20 && c < 0x7f) ? token[i] : '?';
  }
  if (token.size() > kMax) q += "...";
  q += "'";
  return q;
}

Status BadToken(const char* what, std::string_view token) {
  return Status::InvalidArgument(std::string(what) + ": " + QuoteToken(token));
}

/// One from_chars path for every integer width: the whole token must be
/// consumed and the value must fit T.
template <typename T>
Status ParseInteger(std::string_view token, const char* range_error, T* out) {
  if (token.empty()) return Status::InvalidArgument("empty integer token");
  T v = 0;
  auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec == std::errc::result_out_of_range) return BadToken(range_error, token);
  if (ec != std::errc() || end != token.data() + token.size()) {
    return BadToken("not an integer", token);  // junk, sign, space, NUL
  }
  *out = v;
  return Status::OK();
}

}  // namespace

Status ParseInt64(std::string_view token, int64_t* out) {
  return ParseInteger(token, "integer out of range", out);
}

Status ParseInt32(std::string_view token, int32_t* out) {
  return ParseInteger(token, "integer out of int32 range", out);
}

Status ParseFiniteDouble(std::string_view token, double* out) {
  if (token.empty()) return Status::InvalidArgument("empty numeric token");
  double v = 0.0;
  auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v,
                                   std::chars_format::general);
  if (ec == std::errc::result_out_of_range) {
    return BadToken("number out of range", token);  // 1e999, 1e-400
  }
  if (ec != std::errc() || end != token.data() + token.size()) {
    return BadToken("not a number", token);
  }
  if (!std::isfinite(v)) return BadToken("number is not finite", token);  // inf, nan
  *out = v;
  return Status::OK();
}

Status ParseHexU32(std::string_view token, uint32_t* out) {
  if (token.empty() || token.size() > 8) {
    return BadToken("not an 8-digit-or-less hex token", token);
  }
  uint32_t v = 0;
  for (char ch : token) {
    uint32_t digit;
    if (ch >= '0' && ch <= '9') digit = static_cast<uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') digit = static_cast<uint32_t>(ch - 'a') + 10;
    else if (ch >= 'A' && ch <= 'F') digit = static_cast<uint32_t>(ch - 'A') + 10;
    else return BadToken("not a hex token", token);
    v = (v << 4) | digit;
  }
  *out = v;
  return Status::OK();
}

std::string HumanBytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB", "EB"};
  int unit = 0;
  double v = std::abs(bytes);
  while (v >= 1024.0 && unit < 6) {
    v /= 1024.0;
    ++unit;
  }
  return StrFormat("%s%.2f %s", bytes < 0 ? "-" : "", v, kUnits[unit]);
}

std::string HumanDuration(double seconds) {
  if (seconds < 60.0) return StrFormat("%.1fs", seconds);
  if (seconds < 3600.0)
    return StrFormat("%dm %.0fs", static_cast<int>(seconds / 60), std::fmod(seconds, 60.0));
  return StrFormat("%dh %dm", static_cast<int>(seconds / 3600),
                   static_cast<int>(std::fmod(seconds, 3600.0) / 60.0));
}

}  // namespace phoebe
