#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/str_util.h"

namespace prost::net {

namespace {

constexpr std::string_view kHeaderTerminator = "\r\n\r\n";
/// Response-side bounds, so a hostile or broken server cannot make the
/// client buffer without end: the status line plus headers, and one
/// chunk-size or trailer line.
constexpr size_t kMaxResponseHeadBytes = 64 * 1024;
constexpr size_t kMaxResponseLineBytes = 8 * 1024;

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool IsHexDigit(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return c - 'A' + 10;
}

/// A valid HTTP token (method / header name): no separators, no spaces,
/// no control characters.
bool IsToken(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    unsigned char byte = static_cast<unsigned char>(c);
    if (byte <= ' ' || byte >= 127) return false;
    if (std::string_view("()<>@,;:\\\"/[]?={}").find(c) !=
        std::string_view::npos) {
      return false;
    }
  }
  return true;
}

/// Parses the shared `name: value` header block between `begin` and
/// `end` (exclusive of the blank line). Returns a 400-style message on
/// malformed lines, empty string on success.
std::string ParseHeaderLines(
    std::string_view block,
    std::vector<std::pair<std::string, std::string>>* headers) {
  size_t position = 0;
  while (position < block.size()) {
    size_t line_end = block.find(kCrlf, position);
    if (line_end == std::string_view::npos) line_end = block.size();
    std::string_view line = block.substr(position, line_end - position);
    position = line_end + kCrlf.size();
    if (line.empty()) continue;
    if (line.front() == ' ' || line.front() == '\t') {
      return "obsolete header line folding is not supported";
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return "header line without ':'";
    }
    std::string_view name = line.substr(0, colon);
    if (!IsToken(name)) return "malformed header name";
    std::string_view value = StrTrim(line.substr(colon + 1));
    headers->emplace_back(ToLowerAscii(name), std::string(value));
  }
  return "";
}

const std::string* FindInHeaders(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

/// Connection-header token scan ("keep-alive, upgrade" etc.),
/// case-insensitive.
bool ConnectionHas(const std::string* header, std::string_view token) {
  if (header == nullptr) return false;
  for (const std::string& part : StrSplit(ToLowerAscii(*header), ',')) {
    if (StrTrim(part) == token) return true;
  }
  return false;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindInHeaders(headers, name);
}

HttpParser::Outcome HttpParser::Fail(int http_status, std::string message) {
  error_ = {http_status, std::move(message)};
  return Outcome::kError;
}

HttpParser::Outcome HttpParser::Next(HttpRequest* request) {
  // Tolerate stray CRLFs between pipelined requests (RFC 9112 §2.2).
  size_t start = 0;
  while (buffer_.size() - start >= kCrlf.size() &&
         buffer_.compare(start, kCrlf.size(), kCrlf) == 0) {
    start += kCrlf.size();
  }

  size_t line_end = buffer_.find(kCrlf, start);
  if (line_end == std::string::npos) {
    if (buffer_.size() - start > limits_.max_request_line_bytes) {
      return Fail(431, StrFormat("request line exceeds %zu bytes",
                                 limits_.max_request_line_bytes));
    }
    return Outcome::kNeedMore;
  }
  if (line_end - start > limits_.max_request_line_bytes) {
    return Fail(431, StrFormat("request line exceeds %zu bytes",
                               limits_.max_request_line_bytes));
  }

  // Headers: everything from past the request line to the blank line.
  size_t headers_begin = line_end + kCrlf.size();
  size_t terminator = buffer_.find(kHeaderTerminator, line_end);
  if (terminator == std::string::npos) {
    if (buffer_.size() - headers_begin > limits_.max_header_bytes) {
      return Fail(431, StrFormat("header block exceeds %zu bytes",
                                 limits_.max_header_bytes));
    }
    return Outcome::kNeedMore;
  }
  size_t headers_end = terminator + kCrlf.size();  // Last header's CRLF.
  if (headers_end - headers_begin > limits_.max_header_bytes) {
    return Fail(431, StrFormat("header block exceeds %zu bytes",
                               limits_.max_header_bytes));
  }

  // Request line: METHOD SP TARGET SP VERSION.
  std::string_view line(buffer_.data() + start, line_end - start);
  size_t first_space = line.find(' ');
  size_t second_space = first_space == std::string_view::npos
                            ? std::string_view::npos
                            : line.find(' ', first_space + 1);
  if (second_space == std::string_view::npos ||
      line.find(' ', second_space + 1) != std::string_view::npos) {
    return Fail(400, "malformed request line");
  }
  std::string_view method = line.substr(0, first_space);
  std::string_view target =
      line.substr(first_space + 1, second_space - first_space - 1);
  std::string_view version = line.substr(second_space + 1);
  if (!IsToken(method) || target.empty()) {
    return Fail(400, "malformed request line");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Fail(505, "only HTTP/1.1 and HTTP/1.0 are supported");
  }

  HttpRequest parsed;
  parsed.method = std::string(method);
  parsed.target = std::string(target);
  parsed.version = std::string(version);

  std::string header_error = ParseHeaderLines(
      std::string_view(buffer_.data() + headers_begin,
                       terminator + kCrlf.size() - headers_begin),
      &parsed.headers);
  if (!header_error.empty()) return Fail(400, std::move(header_error));

  if (parsed.FindHeader("transfer-encoding") != nullptr) {
    return Fail(501, "Transfer-Encoding is not supported; "
                     "send a Content-Length body");
  }

  // Body: Content-Length only. POST/PUT without one is 411 — a request
  // whose body boundary is unknowable cannot be framed on a keep-alive
  // connection.
  size_t body_bytes = 0;
  const std::string* content_length = parsed.FindHeader("content-length");
  if (content_length != nullptr) {
    if (content_length->empty() ||
        content_length->find_first_not_of("0123456789") !=
            std::string::npos) {
      return Fail(400, "malformed Content-Length");
    }
    body_bytes = static_cast<size_t>(
        std::strtoull(content_length->c_str(), nullptr, 10));
    if (body_bytes > limits_.max_body_bytes) {
      return Fail(413, StrFormat("request body of %zu bytes exceeds the "
                                 "%zu byte limit",
                                 body_bytes, limits_.max_body_bytes));
    }
  } else if (parsed.method == "POST" || parsed.method == "PUT") {
    return Fail(411, "POST requires a Content-Length header");
  }

  size_t body_begin = terminator + kHeaderTerminator.size();
  if (buffer_.size() - body_begin < body_bytes) return Outcome::kNeedMore;
  parsed.body = buffer_.substr(body_begin, body_bytes);

  // Split and decode the target.
  size_t question = parsed.target.find('?');
  std::string_view raw_path(parsed.target);
  if (question != std::string::npos) {
    parsed.query_string = parsed.target.substr(question + 1);
    raw_path = std::string_view(parsed.target).substr(0, question);
  }
  Result<std::string> path = PercentDecode(raw_path, false);
  if (!path.ok()) return Fail(400, path.status().message());
  parsed.path = std::move(path).value();

  const std::string* connection = parsed.FindHeader("connection");
  parsed.keep_alive = parsed.version == "HTTP/1.1"
                          ? !ConnectionHas(connection, "close")
                          : ConnectionHas(connection, "keep-alive");

  buffer_.erase(0, body_begin + body_bytes);
  *request = std::move(parsed);
  return Outcome::kRequest;
}

std::string HttpResponse::Head(BodyFraming framing) const {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", status,
                              HttpReasonPhrase(status));
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  switch (framing) {
    case BodyFraming::kContentLength:
      out += StrFormat("Content-Length: %zu\r\n", body.size());
      break;
    case BodyFraming::kChunked:
      out += "Transfer-Encoding: chunked\r\n";
      break;
    case BodyFraming::kClose:
      break;
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  return out;
}

std::string ChunkSizeLine(size_t bytes) {
  return StrFormat("%zx\r\n", bytes);
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 411:
      return "Length Required";
    case 413:
      return "Content Too Large";
    case 415:
      return "Unsupported Media Type";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 505:
      return "HTTP Version Not Supported";
  }
  return "Unknown";
}

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnavailable:
      return 503;
    default:
      return 500;
  }
}

Result<std::string> PercentDecode(std::string_view text,
                                  bool plus_as_space) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '%') {
      if (i + 2 >= text.size() || !IsHexDigit(text[i + 1]) ||
          !IsHexDigit(text[i + 2])) {
        return Status::InvalidArgument("malformed percent escape");
      }
      out.push_back(static_cast<char>(HexValue(text[i + 1]) * 16 +
                                      HexValue(text[i + 2])));
      i += 2;
    } else if (c == '+' && plus_as_space) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string PercentEncode(std::string_view text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    unsigned char byte = static_cast<unsigned char>(c);
    bool unreserved = std::isalnum(byte) != 0 || c == '-' || c == '.' ||
                      c == '_' || c == '~';
    if (unreserved) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xF]);
    }
  }
  return out;
}

Result<std::vector<std::pair<std::string, std::string>>> ParseFormEncoded(
    std::string_view text) {
  std::vector<std::pair<std::string, std::string>> params;
  if (text.empty()) return params;
  for (const std::string& pair : StrSplit(text, '&')) {
    if (pair.empty()) continue;
    size_t equals = pair.find('=');
    std::string_view raw_name(pair);
    std::string_view raw_value;
    if (equals != std::string::npos) {
      raw_name = std::string_view(pair).substr(0, equals);
      raw_value = std::string_view(pair).substr(equals + 1);
    }
    PROST_ASSIGN_OR_RETURN(std::string name, PercentDecode(raw_name, true));
    PROST_ASSIGN_OR_RETURN(std::string value,
                           PercentDecode(raw_value, true));
    params.emplace_back(std::move(name), std::move(value));
  }
  return params;
}

const std::string* HttpResponseParser::Response::FindHeader(
    std::string_view name) const {
  return FindInHeaders(headers, name);
}

HttpParser::Outcome HttpResponseParser::Fail(std::string message) {
  error_ = {0, std::move(message)};
  phase_ = Phase::kFailed;
  return HttpParser::Outcome::kError;
}

HttpParser::Outcome HttpResponseParser::Next(Response* response) {
  HttpParser::Outcome outcome = Advance();
  // Drop the consumed prefix; what stays is at most one read's worth of
  // unparsed bytes, or a pipelined follower.
  buffer_.erase(0, position_);
  scanned_ -= std::min(scanned_, position_);
  position_ = 0;
  if (outcome != HttpParser::Outcome::kRequest) return outcome;
  return Complete(response);
}

HttpParser::Outcome HttpResponseParser::Finish(Response* response) {
  HttpParser::Outcome outcome = Next(response);
  if (outcome != HttpParser::Outcome::kNeedMore) return outcome;
  if (phase_ == Phase::kUntilClose) return Complete(response);
  if (phase_ == Phase::kHead && buffer_.empty()) {
    return HttpParser::Outcome::kNeedMore;
  }
  return Fail("connection closed before the response was complete");
}

HttpParser::Outcome HttpResponseParser::Complete(Response* response) {
  *response = std::move(current_);
  current_ = Response{};
  phase_ = Phase::kHead;
  scanned_ = position_;
  return HttpParser::Outcome::kRequest;
}

HttpParser::Outcome HttpResponseParser::Advance() {
  while (true) {
    switch (phase_) {
      case Phase::kFailed:
        return HttpParser::Outcome::kError;
      case Phase::kHead: {
        size_t terminator =
            buffer_.find(kHeaderTerminator, std::max(position_, scanned_));
        if (terminator == std::string::npos) {
          if (buffer_.size() - position_ > kMaxResponseHeadBytes) {
            return Fail("response head too large");
          }
          // The terminator may straddle the next feed: rescan its tail.
          const size_t tail = kHeaderTerminator.size() - 1;
          scanned_ = std::max(position_,
                              buffer_.size() > tail ? buffer_.size() - tail : 0);
          return HttpParser::Outcome::kNeedMore;
        }
        HttpParser::Outcome head = ParseHead(terminator);
        if (head != HttpParser::Outcome::kNeedMore) return head;
        break;
      }
      case Phase::kLengthBody:
        TakeBody();
        if (remaining_ > 0) return HttpParser::Outcome::kNeedMore;
        return HttpParser::Outcome::kRequest;
      case Phase::kUntilClose:
        remaining_ = buffer_.size() - position_;
        TakeBody();
        return HttpParser::Outcome::kNeedMore;
      case Phase::kChunkSize: {
        size_t line_end = 0;
        HttpParser::Outcome found = FindLineEnd(&line_end);
        if (found != HttpParser::Outcome::kRequest) return found;
        std::string_view line(buffer_.data() + position_,
                              line_end - position_);
        size_t digits = 0;
        size_t size = 0;
        while (digits < line.size() && IsHexDigit(line[digits])) {
          if (size > (SIZE_MAX >> 4)) return Fail("chunk size overflows");
          size = size * 16 + static_cast<size_t>(HexValue(line[digits]));
          ++digits;
        }
        // Anything after the size must be a chunk extension, which is
        // ignored: ";name=value", optionally after whitespace.
        std::string_view rest = StrTrim(line.substr(digits));
        if (digits == 0 || (!rest.empty() && rest.front() != ';')) {
          return Fail("malformed chunk size line");
        }
        position_ = line_end + kCrlf.size();
        remaining_ = size;
        phase_ = size == 0 ? Phase::kTrailers : Phase::kChunkData;
        break;
      }
      case Phase::kChunkData:
        TakeBody();
        if (remaining_ > 0) return HttpParser::Outcome::kNeedMore;
        phase_ = Phase::kChunkEnd;
        break;
      case Phase::kChunkEnd:
        if (buffer_.size() - position_ < kCrlf.size()) {
          return HttpParser::Outcome::kNeedMore;
        }
        if (buffer_.compare(position_, kCrlf.size(), kCrlf) != 0) {
          return Fail("chunk data not followed by CRLF");
        }
        position_ += kCrlf.size();
        phase_ = Phase::kChunkSize;
        break;
      case Phase::kTrailers: {
        size_t line_end = 0;
        HttpParser::Outcome found = FindLineEnd(&line_end);
        if (found != HttpParser::Outcome::kRequest) return found;
        const bool last = line_end == position_;
        position_ = line_end + kCrlf.size();
        if (last) return HttpParser::Outcome::kRequest;
        break;  // A trailer field: read and discarded.
      }
    }
  }
}

HttpParser::Outcome HttpResponseParser::ParseHead(size_t terminator) {
  // Status line: HTTP/1.x SP 3-digit-code [SP reason-phrase].
  size_t line_end = buffer_.find(kCrlf, position_);
  std::string_view line(buffer_.data() + position_, line_end - position_);
  size_t first_space = line.find(' ');
  if (first_space == std::string_view::npos ||
      line.substr(0, 5) != "HTTP/") {
    return Fail("malformed status line");
  }
  std::string_view code_text = line.substr(first_space + 1);
  if (code_text.size() < 3 || (code_text.size() > 3 && code_text[3] != ' ') ||
      !std::all_of(code_text.begin(), code_text.begin() + 3, [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      })) {
    return Fail("malformed status code");
  }
  current_.version = std::string(line.substr(0, first_space));
  current_.status = (code_text[0] - '0') * 100 + (code_text[1] - '0') * 10 +
                    (code_text[2] - '0');

  size_t headers_begin = line_end + kCrlf.size();
  std::string header_error = ParseHeaderLines(
      std::string_view(buffer_.data() + headers_begin,
                       terminator + kCrlf.size() - headers_begin),
      &current_.headers);
  if (!header_error.empty()) return Fail(std::move(header_error));
  position_ = terminator + kHeaderTerminator.size();

  // Framing, in RFC 9112 §6.3 order.
  const int status = current_.status;
  if (status / 100 == 1 || status == 204 || status == 304) {
    return HttpParser::Outcome::kRequest;
  }
  if (const std::string* coding = current_.FindHeader("transfer-encoding")) {
    std::vector<std::string> codings = StrSplit(ToLowerAscii(*coding), ',');
    if (codings.empty() || StrTrim(codings.back()) != "chunked") {
      return Fail("unsupported transfer coding: " + *coding);
    }
    phase_ = Phase::kChunkSize;
    return HttpParser::Outcome::kNeedMore;
  }
  const std::string* content_length = current_.FindHeader("content-length");
  if (content_length == nullptr) {
    phase_ = Phase::kUntilClose;
    return HttpParser::Outcome::kNeedMore;
  }
  if (content_length->empty() || content_length->size() > 18 ||
      content_length->find_first_not_of("0123456789") != std::string::npos) {
    return Fail("malformed Content-Length");
  }
  remaining_ = static_cast<size_t>(std::strtoull(content_length->c_str(),
                                                 nullptr, 10));
  phase_ = Phase::kLengthBody;
  return HttpParser::Outcome::kNeedMore;
}

void HttpResponseParser::TakeBody() {
  const size_t take = std::min(remaining_, buffer_.size() - position_);
  current_.body.append(buffer_, position_, take);
  position_ += take;
  remaining_ -= take;
}

HttpParser::Outcome HttpResponseParser::FindLineEnd(size_t* line_end) {
  *line_end = buffer_.find(kCrlf, position_);
  const size_t end =
      *line_end == std::string::npos ? buffer_.size() : *line_end;
  // A CR or LF inside the line: a bare line ending, or a lost CRLF.
  if (std::memchr(buffer_.data() + position_, '\n', end - position_) !=
          nullptr ||
      (*line_end != std::string::npos &&
       std::memchr(buffer_.data() + position_, '\r', end - position_) !=
           nullptr)) {
    return Fail("malformed line ending");
  }
  if (end - position_ > kMaxResponseLineBytes) {
    return Fail("chunk size or trailer line too long");
  }
  return *line_end == std::string::npos ? HttpParser::Outcome::kNeedMore
                                        : HttpParser::Outcome::kRequest;
}

}  // namespace prost::net
