// Quickstart: set a distributed breakpoint on a token ring, halt the whole
// computation consistently, inspect the global state, resume.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "debugger/harness.hpp"
#include "workload/behaviors.hpp"

int main() {
  using namespace ddbg;

  // A 4-process token ring, each wrapped in a debug shim, plus the debugger
  // process d with control channels (the paper's extended model).
  TokenRingConfig ring_config;
  ring_config.rounds = 50;
  SimDebugHarness harness(Topology::ring(4),
                          make_token_ring(4, ring_config));

  // A Linked Predicate: halt when the token has been seen at p1, then
  // (causally later) at p3.
  auto bp = harness.session().set_breakpoint(
      "p1:event(token) -> p3:event(token)");
  if (!bp.ok()) {
    std::fprintf(stderr, "breakpoint error: %s\n",
                 bp.error().to_string().c_str());
    return 1;
  }
  std::printf("breakpoint #%u armed: p1:event(token) -> p3:event(token)\n",
              bp.value().value());

  // Run until the breakpoint fires and the Halting Algorithm assembles a
  // complete, consistent global state S_h.
  auto wave = harness.session().wait_for_halt(Duration::seconds(10));
  if (!wave.has_value()) {
    std::fprintf(stderr, "no halt within the time limit\n");
    return 1;
  }

  std::printf("\n--- halted (wave %llu) at virtual time %s ---\n",
              static_cast<unsigned long long>(wave->id),
              to_string(wave->completed_at).c_str());
  std::printf("%s", wave->state.describe().c_str());

  for (const auto& hit : harness.session().hits()) {
    std::printf("breakpoint #%u hit at %s (%s)\n", hit.breakpoint.value(),
                to_string(hit.process).c_str(), hit.description.c_str());
  }

  // The halt-order information of section 2.2.4: each process's marker path.
  std::printf("\nhalt order (marker paths):\n");
  for (const auto& [process, snapshot] : wave->state.snapshots()) {
    const std::vector<ProcessId>& path = snapshot.halt_path;
    std::printf("  %s halted via [", to_string(process).c_str());
    for (std::size_t i = 0; i < path.size(); ++i) {
      std::printf("%s%s", i ? "," : "", to_string(path[i]).c_str());
    }
    std::printf("]%s\n", path.empty() ? " (spontaneous initiator)" : "");
  }

  // Resume and let the ring finish.
  harness.session().resume();
  harness.sim().run_for(Duration::seconds(2));
  const auto& p0 = dynamic_cast<TokenRingProcess&>(
      harness.shim(ProcessId(0)).user());
  std::printf("\nresumed; p0 has now seen the token %u times\n",
              p0.tokens_seen());
  return 0;
}
