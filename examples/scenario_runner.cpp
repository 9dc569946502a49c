// Scenario runner: execute a LegoSDN scenario script (see
// src/scenario/scenario.hpp for the grammar) and report its assertions.
//
//   $ ./scenario_runner examples/scenarios/crash_containment.scn
//   $ ./scenario_runner examples/scenarios/claims/c5_legosdn.scn
//
// Exit status: 0 all checks passed, 1 a check failed, 2 usage, parse or
// runtime error.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <script.scn>\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::printf("scenario: %s\n\n", argv[1]);

  auto parsed = legosdn::scenario::Scenario::parse(ss.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error().to_string().c_str());
    return 2;
  }
  const auto result = parsed.value().run();
  std::printf("%s", result.transcript.c_str());
  if (!result.error.empty()) {
    std::printf("\nruntime error: %s\n", result.error.c_str());
    return 2;
  }
  if (result.offered > 0) {
    std::printf("\navailability: %.1f%% (%llu/%llu packets delivered)",
                100.0 * static_cast<double>(result.served) / result.offered,
                static_cast<unsigned long long>(result.served),
                static_cast<unsigned long long>(result.offered));
  }
  std::printf("\n%zu check(s), %zu failed\n", result.checks.size(),
              result.failed_checks());
  return result.ok ? 0 : 1;
}
