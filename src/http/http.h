// Minimal HTTP/1.1 — the request protocol of the paper's §3 methodology
// ("The communication protocol is HTTP over TCP", wrk as the client).
//
// Supports exactly what the experiments need: PUT/GET/DELETE with a
// Content-Length body over persistent connections. The server side parses
// a request head in place (parse_request_head); the client side has an
// incremental response parser that copes with responses split across TCP
// segments.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace papm::http {

enum class Method { get, put, del, other };

[[nodiscard]] constexpr std::string_view to_string(Method m) noexcept {
  switch (m) {
    case Method::get: return "GET";
    case Method::put: return "PUT";
    case Method::del: return "DELETE";
    case Method::other: return "OTHER";
  }
  return "?";
}

struct Request {
  Method method = Method::other;
  std::string target;  // e.g. "/kv/key17"
  std::vector<std::pair<std::string, std::string>> headers;
  std::vector<u8> body;
};

struct Response {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::vector<u8> body;
};

// Serializers. The body is appended verbatim; Content-Length is added.
[[nodiscard]] std::vector<u8> serialize(const Request& req);
[[nodiscard]] std::vector<u8> serialize(const Response& resp);

// A request head (start line + headers) parsed in place: no copy, no
// allocation; `target` views the parsed buffer.
struct RequestHead {
  enum class Status { complete, incomplete, malformed };
  Status status = Status::incomplete;
  Method method = Method::other;  // PUT and POST both map to put
  std::string_view target;        // as sent, e.g. "/kv/key17"
  std::size_t head_len = 0;       // bytes before the body
  std::size_t body_len = 0;       // Content-Length; 0 when absent
};

// Parses the request head at the start of `buf`. incomplete: no blank
// line yet. malformed: the start line lacks its three space-separated
// parts, a header line lacks its colon, or Content-Length (matched
// case-insensitively) is not all digits or overflows head_len + body_len.
[[nodiscard]] RequestHead parse_request_head(std::string_view buf) noexcept;

// Incremental response parser (client side).
class ResponseParser {
 public:
  std::optional<Response> feed(std::span<const u8> data);
  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  std::optional<Response> try_parse();

  std::vector<u8> buf_;
  bool failed_ = false;
};

}  // namespace papm::http
