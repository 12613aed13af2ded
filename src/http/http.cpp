#include "http/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstring>

namespace papm::http {
namespace {

constexpr std::string_view kCrlf = "\r\n";

void append(std::vector<u8>& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

// Case-insensitive ASCII compare for header names.
bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); i++) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] std::string_view status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 507: return "Insufficient Storage";
    default: return "Unknown";
  }
}

// Finds "\r\n\r\n"; returns header-block length including the terminator,
// or npos.
std::size_t find_header_end(const std::vector<u8>& buf) {
  if (buf.size() < 4) return std::string::npos;
  for (std::size_t i = 0; i + 3 < buf.size(); i++) {
    if (buf[i] == '\r' && buf[i + 1] == '\n' && buf[i + 2] == '\r' &&
        buf[i + 3] == '\n') {
      return i + 4;
    }
  }
  return std::string::npos;
}

// A Content-Length value: all digits, optionally wrapped in spaces/tabs.
std::optional<std::size_t> parse_length(std::string_view v) noexcept {
  while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
    v.remove_prefix(1);
  }
  while (!v.empty() && (v.back() == ' ' || v.back() == '\t')) {
    v.remove_suffix(1);
  }
  std::size_t n = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (v.empty() || ec != std::errc() || p != v.data() + v.size()) {
    return std::nullopt;
  }
  return n;
}

struct HeadLines {
  std::string_view start_line;
  std::vector<std::pair<std::string, std::string>> headers;
  std::size_t content_length = 0;
  bool ok = false;
};

HeadLines parse_head(std::string_view head) {
  HeadLines out;
  std::size_t pos = head.find(kCrlf);
  if (pos == std::string_view::npos) return out;
  out.start_line = head.substr(0, pos);
  pos += 2;
  while (pos < head.size()) {
    const std::size_t eol = head.find(kCrlf, pos);
    if (eol == std::string_view::npos || eol == pos) break;  // blank = end
    const std::string_view line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return out;
    std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (iequals(name, "Content-Length")) {
      const auto n = parse_length(value);
      if (!n.has_value()) return out;
      out.content_length = *n;
    }
    out.headers.emplace_back(std::string(name), std::string(value));
    pos = eol + 2;
  }
  out.ok = true;
  return out;
}

}  // namespace

std::vector<u8> serialize(const Request& req) {
  std::vector<u8> out;
  out.reserve(128 + req.body.size());
  append(out, to_string(req.method));
  append(out, " ");
  append(out, req.target);
  append(out, " HTTP/1.1\r\n");
  for (const auto& [n, v] : req.headers) {
    append(out, n);
    append(out, ": ");
    append(out, v);
    append(out, kCrlf);
  }
  append(out, "Content-Length: ");
  append(out, std::to_string(req.body.size()));
  append(out, kCrlf);
  append(out, kCrlf);
  out.insert(out.end(), req.body.begin(), req.body.end());
  return out;
}

std::vector<u8> serialize(const Response& resp) {
  std::vector<u8> out;
  out.reserve(128 + resp.body.size());
  append(out, "HTTP/1.1 ");
  append(out, std::to_string(resp.status));
  append(out, " ");
  append(out, status_text(resp.status));
  append(out, kCrlf);
  for (const auto& [n, v] : resp.headers) {
    append(out, n);
    append(out, ": ");
    append(out, v);
    append(out, kCrlf);
  }
  append(out, "Content-Length: ");
  append(out, std::to_string(resp.body.size()));
  append(out, kCrlf);
  append(out, kCrlf);
  out.insert(out.end(), resp.body.begin(), resp.body.end());
  return out;
}

RequestHead parse_request_head(std::string_view buf) noexcept {
  RequestHead h;
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string_view::npos) return h;  // incomplete
  h.head_len = end + 4;
  h.status = RequestHead::Status::malformed;
  // Every line of `head`, the start line included, ends in CRLF.
  const std::string_view head = buf.substr(0, end + 2);
  const std::size_t line_end = head.find(kCrlf);
  const std::string_view start = head.substr(0, line_end);
  const std::size_t sp1 = start.find(' ');
  if (sp1 == std::string_view::npos) return h;
  const std::size_t sp2 = start.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return h;
  const std::string_view m = start.substr(0, sp1);
  if (m == "PUT" || m == "POST") {
    h.method = Method::put;
  } else if (m == "GET") {
    h.method = Method::get;
  } else if (m == "DELETE") {
    h.method = Method::del;
  }
  h.target = start.substr(sp1 + 1, sp2 - sp1 - 1);
  for (std::size_t pos = line_end + 2; pos < head.size();) {
    const std::size_t eol = head.find(kCrlf, pos);
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return h;
    if (iequals(line.substr(0, colon), "Content-Length")) {
      const auto n = parse_length(line.substr(colon + 1));
      // head_len + body_len must stay representable.
      if (!n.has_value() || *n > SIZE_MAX - h.head_len) return h;
      h.body_len = *n;
    }
  }
  h.status = RequestHead::Status::complete;
  return h;
}

std::optional<Response> ResponseParser::feed(std::span<const u8> data) {
  if (failed_) return std::nullopt;
  buf_.insert(buf_.end(), data.begin(), data.end());
  return try_parse();
}

std::optional<Response> ResponseParser::try_parse() {
  const std::size_t head_len = find_header_end(buf_);
  if (head_len == std::string::npos) return std::nullopt;

  const std::string_view head(reinterpret_cast<const char*>(buf_.data()),
                              head_len - 2);
  HeadLines hl = parse_head(head);
  if (!hl.ok) {
    failed_ = true;
    return std::nullopt;
  }
  if (buf_.size() < head_len + hl.content_length) return std::nullopt;

  Response resp;
  // Status line: HTTP/1.1 SP code SP text
  const std::size_t sp1 = hl.start_line.find(' ');
  if (sp1 == std::string_view::npos) {
    failed_ = true;
    return std::nullopt;
  }
  const std::string_view code = hl.start_line.substr(sp1 + 1, 3);
  int status = 0;
  const auto [p, ec] = std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc() || p != code.data() + code.size()) {
    failed_ = true;
    return std::nullopt;
  }
  resp.status = status;
  resp.headers = std::move(hl.headers);
  resp.body.assign(buf_.begin() + static_cast<long>(head_len),
                   buf_.begin() + static_cast<long>(head_len + hl.content_length));
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<long>(head_len + hl.content_length));
  return resp;
}

}  // namespace papm::http
