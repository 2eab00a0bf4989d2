#include "daemon/protocol.hpp"

#include <optional>
#include <sstream>

#include "lazygraph/lazy_graph.hpp"
#include "support/json.hpp"
#include "support/jsonmini.hpp"

namespace lazymc::daemon {

Request parse_request(const std::string& line) {
  Request request;
  std::string verb;
  if (!json_get_string(line, "verb", verb)) {
    throw Error(ErrorKind::kInput,
                "request has no \"verb\" field: " + line);
  }
  const std::optional<Verb> parsed = from_name(kVerbNames, verb);
  if (!parsed) throw Error(ErrorKind::kInput, "unknown verb '" + verb + "'");
  request.verb = *parsed;
  json_get_string(line, "graph", request.graph);
  json_get_string(line, "id", request.id);
  if (json_get_string(line, "rep", request.rep) && !request.rep.empty() &&
      !from_name(kNeighborhoodRepNames, request.rep)) {
    throw Error(ErrorKind::kInput,
                "unknown rep '" + request.rep + "' (expected " +
                    name_list(kNeighborhoodRepNames) + ")");
  }
  double limit = 0;
  if (json_get_number(line, "time_limit", limit)) {
    if (!(limit >= 0)) {
      throw Error(ErrorKind::kInput,
                  "time_limit must be non-negative, got " +
                      std::to_string(limit));
    }
    request.time_limit = limit;
  }
  if ((request.verb == Verb::kLoad || request.verb == Verb::kSolve) &&
      request.graph.empty()) {
    throw Error(ErrorKind::kInput,
                std::string(verb_name(request.verb)) +
                    " request needs a \"graph\" field");
  }
  return request;
}

std::string format_request(const Request& request) {
  std::ostringstream buf;
  JsonWriter w(buf);
  w.open();
  w.field("verb", verb_name(request.verb));
  if (!request.graph.empty()) w.field("graph", request.graph);
  if (!request.rep.empty()) w.field("rep", request.rep);
  if (request.time_limit > 0) w.field("time_limit", request.time_limit);
  if (!request.id.empty()) w.field("id", request.id);
  w.close();
  return buf.str();
}

std::string error_response(const std::string& request_id, ErrorKind kind,
                           const std::string& message, int sys_errno) {
  std::ostringstream buf;
  JsonWriter w(buf);
  w.open();
  w.field("ok", false);
  if (!request_id.empty()) w.field("request_id", request_id);
  w.field("error", message);
  w.field("error_kind", error_kind_name(kind));
  if (sys_errno != 0) w.field("errno", sys_errno);
  w.close();
  return buf.str();
}

std::string ack_response(Verb verb, const std::string& detail) {
  std::ostringstream buf;
  JsonWriter w(buf);
  w.open();
  w.field("ok", true);
  w.field("verb", verb_name(verb));
  if (!detail.empty()) w.field("detail", detail);
  w.close();
  return buf.str();
}

}  // namespace lazymc::daemon
