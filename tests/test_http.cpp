// Tests for the HTTP/1.1 codec: serializers, the in-place request-head
// parser and the incremental response parser.
#include <gtest/gtest.h>

#include <string>

#include "http/http.h"

namespace papm::http {
namespace {

std::vector<u8> bytes(std::string_view s) { return {s.begin(), s.end()}; }
std::string str(const std::vector<u8>& v) { return {v.begin(), v.end()}; }

TEST(HttpSerialize, PutRequestWithBody) {
  Request req;
  req.method = Method::put;
  req.target = "/kv/key1";
  req.body = bytes("value-bytes");
  const std::string s = str(serialize(req));
  EXPECT_NE(s.find("PUT /kv/key1 HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(s.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_TRUE(s.ends_with("\r\n\r\nvalue-bytes"));
}

TEST(HttpSerialize, ResponseStatusLine) {
  Response resp;
  resp.status = 404;
  const std::string s = str(serialize(resp));
  EXPECT_TRUE(s.starts_with("HTTP/1.1 404 Not Found\r\n"));
  EXPECT_NE(s.find("Content-Length: 0\r\n"), std::string::npos);
}

std::string_view view(const std::vector<u8>& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

TEST(HttpParse, RequestRoundTrip) {
  Request req;
  req.method = Method::put;
  req.target = "/kv/abc";
  req.headers.emplace_back("X-Custom", "yes");
  req.body = bytes("0123456789");
  const auto wire = serialize(req);
  const RequestHead h = parse_request_head(view(wire));
  ASSERT_EQ(h.status, RequestHead::Status::complete);
  EXPECT_EQ(h.method, Method::put);
  EXPECT_EQ(h.target, "/kv/abc");
  EXPECT_EQ(h.body_len, 10u);
  EXPECT_EQ(h.head_len + h.body_len, wire.size());
  EXPECT_EQ(std::string(wire.begin() + static_cast<long>(h.head_len), wire.end()),
            "0123456789");
}

TEST(HttpParse, GetDeleteAndPostMethods) {
  EXPECT_EQ(parse_request_head("GET /k HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                .method,
            Method::get);
  EXPECT_EQ(parse_request_head("DELETE /k HTTP/1.1\r\n\r\n").method,
            Method::del);
  EXPECT_EQ(parse_request_head("POST /k HTTP/1.1\r\n\r\n").method,
            Method::put);
  const RequestHead other = parse_request_head("PATCH /k HTTP/1.1\r\n\r\n");
  EXPECT_EQ(other.status, RequestHead::Status::complete);
  EXPECT_EQ(other.method, Method::other);
}

TEST(HttpParse, MissingContentLengthMeansEmptyBody) {
  const RequestHead h = parse_request_head("GET /x HTTP/1.1\r\n\r\n");
  ASSERT_EQ(h.status, RequestHead::Status::complete);
  EXPECT_EQ(h.body_len, 0u);
  EXPECT_EQ(h.head_len, 19u);
}

TEST(HttpParse, ContentLengthNameIsCaseInsensitive) {
  for (const char* name : {"Content-Length", "content-length", "CONTENT-LENGTH",
                           "cOnTeNt-LeNgTh"}) {
    const std::string head =
        std::string("PUT /kv/a HTTP/1.1\r\n") + name + ": 5\r\n\r\nhello";
    const RequestHead h = parse_request_head(head);
    ASSERT_EQ(h.status, RequestHead::Status::complete) << name;
    EXPECT_EQ(h.body_len, 5u) << name;
  }
}

TEST(HttpParse, HeadWithoutBlankLineIsIncomplete) {
  const std::string wire = "PUT /kv/a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  const std::size_t end = wire.find("\r\n\r\n") + 4;
  for (std::size_t n = 0; n < end; n++) {
    EXPECT_EQ(parse_request_head(std::string_view(wire).substr(0, n)).status,
              RequestHead::Status::incomplete)
        << n;
  }
  EXPECT_EQ(parse_request_head(std::string_view(wire).substr(0, end)).status,
            RequestHead::Status::complete);
}

TEST(HttpParse, MalformedStartLineFails) {
  EXPECT_EQ(parse_request_head("NONSENSE\r\n\r\n").status,
            RequestHead::Status::malformed);
  EXPECT_EQ(parse_request_head("GET /x\r\n\r\n").status,
            RequestHead::Status::malformed);
  EXPECT_EQ(parse_request_head("\r\n\r\n").status,
            RequestHead::Status::malformed);
}

TEST(HttpParse, BadContentLengthFails) {
  for (const char* v : {"banana", "12x", "", "-1", "1 2",
                        "99999999999999999999999999",
                        "18446744073709551615"}) {
    const std::string head =
        std::string("PUT /x HTTP/1.1\r\nContent-Length: ") + v + "\r\n\r\n";
    EXPECT_EQ(parse_request_head(head).status, RequestHead::Status::malformed)
        << v;
  }
  // Surrounding whitespace is not part of the value.
  EXPECT_EQ(parse_request_head("PUT /x HTTP/1.1\r\nContent-Length:  7 \r\n\r\n")
                .body_len,
            7u);
}

TEST(HttpParse, HeaderWithoutColonFails) {
  EXPECT_EQ(parse_request_head("GET /x HTTP/1.1\r\nbogus\r\n\r\n").status,
            RequestHead::Status::malformed);
}

TEST(HttpParse, ResponseRoundTrip) {
  Response resp;
  resp.status = 201;
  resp.body = bytes("stored");
  ResponseParser p;
  const auto parsed = p.feed(serialize(resp));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 201);
  EXPECT_EQ(str(parsed->body), "stored");
}

TEST(HttpParse, ResponseSplitHeaderBoundary) {
  Response resp;
  resp.status = 200;
  resp.body = bytes("xyz");
  const auto wire = serialize(resp);
  ResponseParser p;
  // Split exactly between header block and body.
  const std::string s = str(wire);
  const std::size_t head_end = s.find("\r\n\r\n") + 4;
  EXPECT_FALSE(p.feed(std::span<const u8>(wire.data(), head_end)).has_value());
  const auto got =
      p.feed(std::span<const u8>(wire.data() + head_end, wire.size() - head_end));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(str(got->body), "xyz");
}

}  // namespace
}  // namespace papm::http
