// The ddbg command language: one parser and one driver loop shared by the
// interactive CLI (tools/ddbg.cpp) and its batch mode, so every front end
// speaks the exact same commands.
//
//   break <expr>     arm a breakpoint (core/predicate_parser.hpp syntax)
//   clear <id>       remove breakpoint <id>
//   halt             initiate a halt wave, wait for a complete S_h
//   state            print the latest complete halt state
//   snapshot         take a C&L recording wave (monitor-only)
//   inspect <pid>    query one process's current state ("p3" or "3")
//   deadlock         run deadlock analysis on the latest halt state
//   hits             list breakpoint hits recorded so far
//   metrics          dump the target's ddbg.metrics.v1 JSON
//   resume           resume the halted computation
//   quit             end the session
//   help             list commands (handled locally, no round trip)
//   expect <substr>  (batch) assert <substr> appears in the last response
//   # ...            comment; blank lines are ignored
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "debugger/session_client.hpp"
#include "debugger/session_protocol.hpp"

namespace ddbg {

struct ReplLine {
  enum class Kind {
    kEmpty,    // blank or comment
    kHelp,     // handled locally
    kExpect,   // batch assertion against the previous response text
    kCommand,  // a protocol round trip
  };
  Kind kind = Kind::kEmpty;
  SessionOp op = SessionOp::kHello;
  std::string text;          // kBreak expression / kExpect substring
  std::int64_t number = 0;   // kClear / kInspect operand
};

// Parse one input line; kParseError explains unknown commands and missing
// or malformed operands.
[[nodiscard]] Result<ReplLine> parse_repl_line(std::string_view line);

[[nodiscard]] std::string repl_help();

// Stable process exit codes, shared by the CLI's --batch contract.
inline constexpr int kReplExitOk = 0;
inline constexpr int kReplExitConnect = 2;   // used by the CLI front end
inline constexpr int kReplExitCommand = 3;   // command or protocol error
inline constexpr int kReplExitAssert = 4;    // expect/--assert failed
inline constexpr int kReplExitTimeout = 5;   // response deadline missed

struct ReplConfig {
  // Interactive: print a prompt, report errors and keep going.  Batch:
  // echo each command, stop at the first failure with the matching exit
  // code.
  bool interactive = true;
  std::string prompt = "ddbg> ";
  // When set, every response text is appended here (the CLI checks its
  // --assert substrings against this transcript).
  std::vector<std::string>* transcript = nullptr;
};

// Drive a session from `in` until quit/EOF/failure; returns a kReplExit*
// code.  Sends a kHello first and prints the banner.
int run_repl(SessionClient& client, std::istream& in, std::ostream& out,
             const ReplConfig& config);

}  // namespace ddbg
