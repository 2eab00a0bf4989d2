// lazymc-ctl — client for the lazymcd daemon.
//
// Sends one request line over the daemon's Unix socket, prints the
// one-line JSON response, and maps it to the CLI's exit-code contract:
// 0 solved/ok, 2 timeout, 3 input error, 4 internal/resource/overloaded,
// 6 interrupted (best-so-far).

#include <iostream>
#include <optional>
#include <string>

#include "cli/flags.hpp"
#include "daemon/protocol.hpp"
#include "support/error.hpp"
#include "support/jsonmini.hpp"
#include "support/socket.hpp"

namespace lazymc::daemon {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitTimedOut = 2;
constexpr int kExitInputError = 3;
constexpr int kExitInternalError = 4;
constexpr int kExitInterrupted = 6;

void print_usage(std::ostream& out) {
  out <<
      "Usage: lazymc-ctl --socket PATH VERB [args]\n"
      "\n"
      "Verbs:\n"
      "  load GRAPH                  load (and cache) a graph in the daemon\n"
      "  solve GRAPH [--time-limit S] [--id ID]\n"
      "                              solve; prints the JSON report line\n"
      "  status | health             daemon health counters\n"
      "  drain                       refuse new work, finish in-flight, exit\n"
      "  stop                        refuse new work, cancel in-flight\n"
      "                              (best-so-far responses), exit\n"
      "\n"
      "GRAPH is a lazymc --graph spec (file path or gen:NAME[:SCALE]).\n"
      "Exit codes follow the lazymc CLI: 0 ok, 2 timeout, 3 input error,\n"
      "4 internal/overloaded, 6 interrupted.\n";
}

[[noreturn]] void fail(const std::string& message) {
  throw Error(ErrorKind::kInput, message);
}

int exit_code_for_response(const std::string& response) {
  bool ok = false;
  if (json_get_bool(response, "ok", ok) && !ok) {
    std::string kind;
    json_get_string(response, "error_kind", kind);
    if (kind == "input") return kExitInputError;
    if (kind == "interrupted") return kExitInterrupted;
    return kExitInternalError;  // internal, resource, overloaded
  }
  std::string status;
  if (json_get_string(response, "status", status)) {
    if (status == "timeout") return kExitTimedOut;
    if (status == "interrupted") return kExitInterrupted;
  }
  return kExitOk;
}

int ctl_main(int argc, char** argv) {
  std::string socket_path;
  Request request;
  bool have_verb = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return kExitOk;
    } else if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--time-limit") {
      request.time_limit = cli::parse_seconds(arg, value());
    } else if (arg == "--id") {
      request.id = value();
    } else if (!have_verb) {
      have_verb = true;
      const std::optional<Verb> verb = from_name(kVerbNames, arg);
      if (!verb) fail("unknown verb '" + arg + "' (try --help)");
      request.verb = *verb;
    } else if (request.graph.empty() &&
               (request.verb == Verb::kLoad || request.verb == Verb::kSolve)) {
      request.graph = arg;
    } else {
      fail("unexpected argument '" + arg + "' (try --help)");
    }
  }

  if (socket_path.empty()) fail("--socket is required (try --help)");
  if (!have_verb) fail("a verb is required (try --help)");
  if ((request.verb == Verb::kLoad || request.verb == Verb::kSolve) &&
      request.graph.empty()) {
    fail(std::string(verb_name(request.verb)) + " needs a GRAPH argument");
  }

  net::Fd fd = net::unix_connect(socket_path);
  net::LineChannel channel(fd.get());
  channel.write_line(format_request(request));

  std::string response;
  // Solves may legitimately run for a long time; block until the daemon
  // answers (its watchdog bounds the wait when the request carries a
  // deadline) or the connection drops.
  const auto status = channel.read_line(response, /*timeout_ms=*/-1);
  if (status != net::LineChannel::ReadStatus::kLine) {
    throw Error(ErrorKind::kInternal,
                "daemon closed the connection without a response");
  }
  std::cout << response << "\n";
  return exit_code_for_response(response);
}

}  // namespace
}  // namespace lazymc::daemon

int main(int argc, char** argv) {
  try {
    return lazymc::daemon::ctl_main(argc, argv);
  } catch (const lazymc::Error& e) {
    std::cerr << "lazymc-ctl: error: " << e.what() << "\n";
    return e.kind() == lazymc::ErrorKind::kInput
               ? lazymc::daemon::kExitInputError
               : lazymc::daemon::kExitInternalError;
  } catch (const std::exception& e) {
    std::cerr << "lazymc-ctl: internal error: " << e.what() << "\n";
    return lazymc::daemon::kExitInternalError;
  }
}
