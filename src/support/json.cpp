#include "support/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace gpudiff::support {

std::int64_t Json::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Double) return static_cast<std::int64_t>(double_);
  throw std::runtime_error("json: not a number");
}

double Json::as_double() const {
  if (type_ == Type::Double) return double_;
  if (type_ == Type::Int) return static_cast<double>(int_);
  throw std::runtime_error("json: not a number");
}

const Json& Json::at(const std::string& key) const {
  expect(Type::Object);
  auto it = obj_.find(key);
  if (it == obj_.end()) throw std::runtime_error("json: missing key '" + key + "'");
  return it->second;
}

const Json& Json::get_or(const std::string& key, const Json& fallback) const {
  if (type_ == Type::Object) {
    auto it = obj_.find(key);
    if (it != obj_.end()) return it->second;
  }
  return fallback;
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::Array: return arr_.size();
    case Type::Object: return obj_.size();
    case Type::String: return str_.size();
    default: return 0;
  }
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) {
    // Allow 1 == 1.0 comparisons between numeric types.
    if (is_number() && other.is_number()) return as_double() == other.as_double();
    return false;
  }
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Int: return int_ == other.int_;
    case Type::Double: return double_ == other.double_;
    case Type::String: return str_ == other.str_;
    case Type::Array: return arr_ == other.arr_;
    case Type::Object: return obj_ == other.obj_;
  }
  return false;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent >= 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Int: out += std::to_string(int_); return;
    case Type::Double: {
      if (std::isnan(double_) || std::isinf(double_)) {
        // Strict JSON has no NaN/Inf; callers encode specials as bit strings.
        out += "null";
        return;
      }
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      out += buf;
      // Keep floats distinguishable from ints on re-parse.
      if (std::string_view(buf).find_first_of(".eEnN") == std::string_view::npos)
        out += ".0";
      return;
    }
    case Type::String: append_escaped(out, str_); return;
    case Type::Array: {
      if (arr_.empty()) { out += "[]"; return; }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::Object: {
      if (obj_.empty()) { out += "{}"; return; }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        append_newline_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += indent >= 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: straightforward recursive descent.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError("json parse error: " + why, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw JsonParseError("json parse error: eof", pos_);
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) { ++pos_; return true; }
    return false;
  }

  void expect_char(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) { pos_ += w.size(); return true; }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': if (consume_word("true")) return Json(true); fail("bad literal");
      case 'f': if (consume_word("false")) return Json(false); fail("bad literal");
      case 'n': if (consume_word("null")) return Json(nullptr); fail("bad literal");
      default: return parse_number();
    }
  }

  /// Entered by every array/object; refuses nesting beyond kMaxDepth.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > Json::kMaxDepth) parser.fail("nesting too deep");
    }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  };

  Json parse_object() {
    const DepthGuard guard(*this);
    expect_char('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect_char(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (consume(',')) continue;
      expect_char('}');
      break;
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    expect_char('[');
    JsonArray arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect_char(']');
      break;
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect_char('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit");
            }
            // Encode as UTF-8 (basic multilingual plane only; surrogate
            // pairs are not needed for our ASCII metadata).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape char");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_double = false;
    if (consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) fail("bad number");
    const std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      return Json(std::strtod(token.c_str(), nullptr));
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE) return Json(std::strtod(token.c_str(), nullptr));
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects at pos_
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file for reading: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) throw std::runtime_error("write failed: " + path);
}

void write_file_atomic(const std::string& path, std::string_view contents,
                       const std::string& temp_suffix) {
  const std::string tmp = path + temp_suffix;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open file for writing: " + tmp);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + tmp);
  }
#ifndef _WIN32
  // Flush the data before the rename so a power loss cannot persist the
  // rename ahead of the contents (which would leave a truncated file where
  // the previous good snapshot used to be).  Best-effort: a filesystem
  // that rejects the sync still gets process-kill atomicity.
  if (const int fd = ::open(tmp.c_str(), O_WRONLY); fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#endif
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("rename failed: " + tmp + " -> " + path + ": " +
                             ec.message());
#ifndef _WIN32
  // Make the rename itself durable.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  if (const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
      dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
}

}  // namespace gpudiff::support
