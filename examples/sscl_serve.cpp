/// sscl-serve: the long-running simulation daemon (docs/SERVE.md). One
/// binary, two modes:
///
///   * server (default): bind a loopback TCP port and answer the
///     newline-delimited wire protocol — SUBMIT decks, CANCEL jobs,
///     METRICS/STATS/PING/SHUTDOWN. Repeated and near-duplicate deck
///     submissions hit the bounded elaboration cache (--cache-entries)
///     at the elaboration or pattern tier and skip straight to the
///     numeric solve; admission is bounded (--queue-depth) with
///     reject-with-retry-after backpressure, and clients share the
///     worker pool (--jobs) through per-client round-robin fairness.
///   * client (--connect): submit one deck file (or drive one command)
///     against a running daemon and print the streamed reply lines.
///
/// Exit codes in client mode: 0 ok, 3 busy (admission rejected — retry
/// after the hinted delay), 1 anything else.

#include <climits>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: sscl-serve [options]                      start the daemon\n"
        "       sscl-serve --connect PORT [options] DECK  submit a deck\n"
        "       sscl-serve --connect PORT --command CMD   drive one command\n"
        "server options:\n"
        "  --port P               listen port on 127.0.0.1 (default 7117;\n"
        "                         0 = ephemeral, printed on stdout)\n"
        "  --port-file FILE       also write the bound port to FILE\n"
        "  --jobs N               worker threads (0 = hardware)\n"
        "  --cache-entries N      elaboration-cache capacity (default 32)\n"
        "  --queue-depth N        admission bound before BUSY (default 64)\n"
        "  --timeout-ms MS        default per-job deadline (0 = none)\n"
        "  --no-adopt             disable pattern-tier pivot adoption\n"
        "  --strict               reject unknown dot-cards instead of\n"
        "                         accept-and-warn\n"
        "  --max-depth N          .subckt nesting limit (default 64)\n"
        "  --include-dir DIR      resolve .include paths against DIR\n"
        "  --trace FILE           write a Chrome trace-event JSON at exit\n"
        "  --metrics FILE         write the counter registry as JSON (or\n"
        "                         CSV for a .csv path) at exit\n"
        "client options (with --connect):\n"
        "  --command CMD          send CMD (METRICS, STATS, PING,\n"
        "                         SHUTDOWN, 'CANCEL <id>') instead of a\n"
        "                         deck\n"
        "  --client NAME          fair-scheduling bucket (default the\n"
        "                         connection)\n"
        "  --nodes A,B,C          nodes to report (default all)\n"
        "  --stream K             stream a WAVE line every K-th accepted\n"
        "                         transient point\n"
        "  --timeout-ms MS        per-job deadline for this submission\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sscl;

  int port = 7117;
  int connect_port = -1;
  std::string port_file, include_dir, trace_path, metrics_path;
  std::string command, deck_path;
  serve::ServerOptions options;
  serve::JobRequest request;

  auto next = [&](int& i) -> const char* {
    return ++i < argc ? argv[i] : nullptr;
  };
  auto count = [](const char* text, const char* flag, int max = INT_MAX) {
    return static_cast<int>(cli::parse_count("sscl-serve", text, flag, max));
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--port") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      port = count(value, "--port", 65535);
    } else if (arg == "--connect") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      connect_port = count(value, "--connect", 65535);
    } else if (arg == "--port-file") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      port_file = value;
    } else if (arg == "--jobs") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      options.jobs = count(value, "--jobs");
    } else if (arg == "--cache-entries") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      options.cache_entries = count(value, "--cache-entries");
    } else if (arg == "--queue-depth") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      options.queue_depth = count(value, "--queue-depth");
    } else if (arg == "--timeout-ms") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      options.default_timeout_ms = count(value, "--timeout-ms");
      request.timeout_ms = options.default_timeout_ms;
    } else if (arg == "--no-adopt") {
      options.adopt_pattern = false;
    } else if (arg == "--strict") {
      options.parse.strict = true;
    } else if (arg == "--max-depth") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      options.parse.max_subckt_depth = count(value, "--max-depth");
    } else if (arg == "--include-dir") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      include_dir = value;
    } else if (arg == "--trace") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      trace_path = value;
    } else if (arg == "--metrics") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      metrics_path = value;
    } else if (arg == "--command") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      command = value;
    } else if (arg == "--client") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      request.client = value;
    } else if (arg == "--nodes") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      std::istringstream is(value);
      std::string node;
      while (std::getline(is, node, ',')) {
        if (!node.empty()) request.nodes.push_back(node);
      }
    } else if (arg == "--stream") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      request.stream_every = count(value, "--stream");
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sscl-serve: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      deck_path = arg;
    }
  }

  // ---- client mode ----------------------------------------------------
  if (connect_port >= 0) {
    try {
      serve::Client client(connect_port);
      serve::Client::Reply reply;
      if (!command.empty()) {
        reply = client.command(command);
      } else {
        if (deck_path.empty()) {
          std::cerr << "sscl-serve: --connect needs a deck file or "
                       "--command\n";
          return 2;
        }
        std::ifstream in(deck_path);
        if (!in) {
          std::cerr << "sscl-serve: cannot open '" << deck_path << "'\n";
          return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        request.deck_text = text.str();
        reply = client.submit(request);
      }
      for (const std::string& line : reply.lines) std::cout << line << "\n";
      if (reply.status == "ok") return 0;
      return reply.status == "busy" ? 3 : 1;
    } catch (const std::exception& e) {
      std::cerr << "sscl-serve: " << e.what() << "\n";
      return 1;
    }
  }

  // ---- server mode ----------------------------------------------------
  if (!trace_path.empty() || !metrics_path.empty()) {
    trace::enable();
    trace::set_thread_name("main");
    trace::write_at_exit(trace_path, metrics_path);
  }
  if (!include_dir.empty()) {
    options.parse.include_loader = netlist::file_include_loader(include_dir);
  }
  // A mid-job client disconnect must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    serve::Server server(options);
    serve::SocketServer transport(server, port);
    std::printf("sscl-serve: listening on 127.0.0.1:%d\n", transport.port());
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << transport.port() << "\n";
    }
    transport.run();
    server.stop();
    const serve::ServeStats stats = server.stats();
    std::printf("sscl-serve: served %lld requests (%lld elab hits, %lld "
                "pattern hits, %lld misses, %lld rejects)\n",
                stats.requests, stats.cache.hits_elab,
                stats.cache.hits_pattern, stats.cache.misses,
                stats.admission_rejects);
  } catch (const std::exception& e) {
    std::cerr << "sscl-serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
