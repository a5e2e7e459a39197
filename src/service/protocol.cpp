#include "service/protocol.hpp"

namespace spsta::service {

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::ParseError: return "parse_error";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::UnknownCommand: return "unknown_command";
    case ErrorCode::UnknownSession: return "unknown_session";
    case ErrorCode::UnknownNode: return "unknown_node";
    case ErrorCode::UnknownEngine: return "unknown_engine";
    case ErrorCode::BadParams: return "bad_params";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::IoError: return "io_error";
    case ErrorCode::InternalError: return "internal_error";
  }
  return "internal_error";
}

Response Response::success(Json id, Json result) {
  Response r;
  r.id = std::move(id);
  r.ok = true;
  r.body = std::move(result);
  return r;
}

Response Response::failure(Json id, ErrorCode code, std::string message) {
  Response r;
  r.id = std::move(id);
  r.ok = false;
  Json error = Json::object();
  error.set("code", Json(std::string(to_string(code))));
  error.set("message", Json(std::move(message)));
  r.body = std::move(error);
  return r;
}

std::string Response::to_line() const {
  Json line = Json::object();
  line.set("id", id);
  line.set("ok", Json(ok));
  line.set(ok ? "result" : "error", body);
  if (span.trace_id != 0) {
    line.set("trace_id", Json("t-" + std::to_string(span.trace_id)));
  }
  try {
    return line.dump();
  } catch (const NonFiniteNumberError&) {
    // An engine produced NaN/Inf and it reached serialization: surface a
    // structured error. The failure body is all strings (and the id came
    // off the wire, where non-finite numbers cannot be expressed), so the
    // nested to_line() cannot throw again.
    Response error =
        failure(id, ErrorCode::InternalError, "non-finite number in response body");
    error.span = span;
    return error.to_line();
  }
}

std::string_view Response::error_code() const {
  if (ok) return "";
  const Json* code = body.find("code");
  // No conditional operator here: mixing `const std::string&` with a char
  // literal would materialize a temporary and dangle the returned view.
  if (code == nullptr || !code->is_string()) return "";
  return code->as_string();
}

std::variant<Request, Response> parse_request(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return Response::failure(Json(), ErrorCode::BadRequest,
                             "request line of " + std::to_string(line.size()) +
                                 " bytes exceeds the " +
                                 std::to_string(kMaxRequestBytes) + " byte limit");
  }
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const JsonParseError& e) {
    return Response::failure(Json(), ErrorCode::ParseError, e.what());
  }
  if (!doc.is_object()) {
    return Response::failure(Json(), ErrorCode::BadRequest,
                             "request must be a JSON object");
  }

  Request req;
  if (const Json* id = doc.find("id")) {
    if (!id->is_number() && !id->is_string() && !id->is_null()) {
      return Response::failure(Json(), ErrorCode::BadRequest,
                               "id must be a number or string");
    }
    req.id = *id;
  }
  const Json* cmd = doc.find("cmd");
  if (cmd == nullptr || !cmd->is_string() || cmd->as_string().empty()) {
    return Response::failure(req.id, ErrorCode::BadRequest,
                             "missing string field 'cmd'");
  }
  req.cmd = cmd->as_string();
  if (const Json* deadline = doc.find("deadline_ms")) {
    if (!deadline->is_number() || deadline->as_number() < 0) {
      return Response::failure(req.id, ErrorCode::BadRequest,
                               "deadline_ms must be a non-negative number");
    }
    req.deadline_ms = deadline->as_number();
  }
  req.body = std::move(doc);
  return req;
}

}  // namespace spsta::service
