// Scenario DSL tests: parsing, execution, assertions, the canonical paper
// stories expressed as scripts, and the gate that runs every committed
// script under examples/scenarios/ as its own test case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenario/scenario.hpp"

namespace legosdn::scenario {
namespace {

RunResult run_script(const char* text) {
  auto sc = Scenario::parse(text);
  EXPECT_TRUE(sc.ok()) << (sc.ok() ? "" : sc.error().to_string());
  if (!sc.ok()) return {};
  return sc.value().run();
}

TEST(Parse, RejectsUnknownCommand) {
  auto sc = Scenario::parse("topology linear 2\nfrobnicate 1\n");
  ASSERT_FALSE(sc.ok());
  EXPECT_NE(sc.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(sc.error().message.find("frobnicate"), std::string::npos);
}

TEST(Parse, RejectsMissingArguments) {
  auto sc = Scenario::parse("topology linear\n");
  ASSERT_FALSE(sc.ok());
  EXPECT_NE(sc.error().message.find("topology"), std::string::npos);
}

TEST(Parse, CommentsAndBlanksIgnored) {
  auto sc = Scenario::parse("# a comment\n\n  \ntopology linear 2 1\n");
  ASSERT_TRUE(sc.ok());
}

TEST(Run, SemanticErrorsCarryLineNumbers) {
  auto res = run_script("topology linear 2 1\napp learning-switch\nstart\nsend 0 9\n");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("line 4"), std::string::npos);

  res = run_script("send 0 1\n");
  EXPECT_NE(res.error.find("before start"), std::string::npos);

  res = run_script("topology linear 2 1\nwrap crashy\n");
  EXPECT_NE(res.error.find("before any 'app'"), std::string::npos);
}

TEST(Run, QuickstartStory) {
  const char* script = R"(
# the quickstart, as a script
topology linear 3 1
app learning-switch
wrap crashy tp_dst=666
start
send 0 2 80
send 2 0 80
send 0 2 666
expect controller up
expect crashes == 1
expect tickets == 1
send 0 2 80
expect delivered 2 >= 2
expect app 0 alive
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
  EXPECT_EQ(res.failed_checks(), 0u);
  EXPECT_EQ(res.checks.size(), 5u);
}

TEST(Run, MonolithicFateSharingStory) {
  const char* script = R"(
topology linear 3 1
architecture monolithic
app learning-switch
wrap crashy tp_dst=666
start
send 0 2 666
expect controller down
expect crashes == 1
send 0 2 80
expect delivered 2 == 0
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, ByzantineRollbackStory) {
  const char* script = R"(
topology linear 2 1
app learning-switch
wrap byzantine blackhole tp_dst=666
start
send 0 1 80
send 1 0 80
send 0 1 666
expect byzantine == 1
expect controller up
send 0 1 80
expect delivered 1 >= 2
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, PolicyAndEquivalenceStory) {
  const char* script = R"(
topology ring 4 1
policy app=* event=switch-down policy=equivalence
policy default=absolute
app router
wrap crashy event=switch-down
start
send 0 1 80
send 1 0 80
switch down 3
expect controller up
expect crashes >= 1
expect transformed == 1
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, LimitsAndBreakerStory) {
  const char* script = R"(
topology linear 2 1
limits max_faults=2
app learning-switch
wrap crashy tp_dst=666
start
send 0 1 666
send 0 1 666
send 0 1 666
expect crashes == 2
expect app 0 down
expect controller up
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, UpgradeKeepsStateUnderLego) {
  const char* script = R"(
topology linear 2 1
app learning-switch
start
send 0 1 80
send 1 0 80
upgrade
expect controller up
send 0 1 80
expect delivered 1 >= 2
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, FailedExpectationIsReportedNotFatal) {
  const char* script = R"(
topology linear 2 1
app hub
start
send 0 1 80
expect delivered 1 == 99
expect controller up
)";
  const RunResult res = run_script(script);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.error.empty()); // no runtime error — just a failed check
  ASSERT_EQ(res.checks.size(), 2u);
  EXPECT_FALSE(res.checks[0].passed);
  EXPECT_NE(res.checks[0].detail.find("actual 1"), std::string::npos);
  EXPECT_TRUE(res.checks[1].passed);
}

TEST(Run, TranscriptNarratesExecution) {
  const RunResult res = run_script(
      "topology star 3 1\napp hub\nstart\nsend 0 1 80\nexpect controller up\n");
  EXPECT_NE(res.transcript.find("topology star"), std::string::npos);
  EXPECT_NE(res.transcript.find("send h0 -> h1"), std::string::npos);
  EXPECT_NE(res.transcript.find("PASS"), std::string::npos);
}

TEST(Run, ProcessBackendStory) {
  // The same crash-containment story over real fork()ed stubs.
  const char* script = R"(
topology linear 2 1
backend process
app learning-switch
wrap crashy tp_dst=666
start
send 0 1 80
send 1 0 80
send 0 1 666
expect controller up
expect crashes == 1
send 0 1 80
expect delivered 1 >= 2
expect app 0 alive
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, AdvanceExpiresIdleRules) {
  const char* script = R"(
topology linear 2 1
app flooder
start
send 0 1 80
advance 30
expect controller up
)";
  EXPECT_TRUE(run_script(script).ok);
}

// --- strict state keywords: misspellings must be errors, never "down" ------

TEST(Run, RejectsUnknownSwitchState) {
  const RunResult res = run_script(
      "topology linear 3 1\napp hub\nstart\nswitch banana 2\n");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("line 4"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("banana"), std::string::npos) << res.error;
}

TEST(Run, RejectsUnknownLinkState) {
  const RunResult res = run_script(
      "topology linear 3 1\napp hub\nstart\nlink oops 1 3\n");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("line 4"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("oops"), std::string::npos) << res.error;
}

TEST(Run, RejectsUnknownControllerState) {
  const RunResult res = run_script(
      "topology linear 2 1\napp hub\nstart\nexpect controller bananna\n");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("line 4"), std::string::npos) << res.error;
}

TEST(Run, RejectsArityShortExpectApp) {
  const RunResult res = run_script(
      "topology linear 2 1\narchitecture legosdn\napp hub\nstart\nexpect app 0\n");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("line 5"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("alive|down"), std::string::npos) << res.error;
}

// --- topology validation: bad sizes are errors, not UB --------------------

TEST(Run, RejectsOddFatTree) {
  const RunResult res = run_script("topology fat_tree 3\n");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("line 1"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("even"), std::string::npos) << res.error;
}

TEST(Run, RejectsTinyRandomTopology) {
  const RunResult res = run_script("topology random 1\n");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find(">= 2"), std::string::npos) << res.error;
}

TEST(Run, RandomTopologyRuns) {
  // extra=2 creates cycles: flood-based apps would storm, so use the
  // topology-aware router (loop-free spanning-tree floods).
  const char* script = R"(
topology random 4 1 extra=2 seed=7
app router idle=60
start
traffic pairs 1
expect controller up
expect violations == 0
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
  EXPECT_EQ(res.n_hosts, 4u);
}

// --- scheduled dynamics ----------------------------------------------------

TEST(Parse, RejectsUnschedulableAtCommand) {
  auto sc = Scenario::parse("at 5 expect controller up\n");
  ASSERT_FALSE(sc.ok());
  EXPECT_NE(sc.error().message.find("cannot be scheduled"), std::string::npos);

  sc = Scenario::parse("at 5 switch down\n"); // nested arity short
  ASSERT_FALSE(sc.ok());
}

TEST(Run, ScheduledChurnFiresInTimeOrder) {
  const char* script = R"(
topology linear 3 1
app learning-switch idle=60
start
traffic pairs 1
at 10 switch up 2
at 5 switch down 2
advance 20
expect controller up
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
  const auto down_pos = res.transcript.find("t=5s fire: switch s2 down");
  const auto up_pos = res.transcript.find("t=10s fire: switch s2 up");
  EXPECT_NE(down_pos, std::string::npos) << res.transcript;
  EXPECT_NE(up_pos, std::string::npos) << res.transcript;
  EXPECT_LT(down_pos, up_pos); // fired by time, not by script order
}

TEST(Run, ScheduledEventsBeyondAdvanceNeverFire) {
  const char* script = R"(
topology linear 2 1
app hub
start
at 50 switch down 2
advance 10
expect controller up
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_NE(res.transcript.find("never fired"), std::string::npos)
      << res.transcript;
  EXPECT_EQ(res.transcript.find("switch s2 down"), std::string::npos);
}

// --- traffic command -------------------------------------------------------

TEST(Run, TrafficPairsWarmsAllRoutes) {
  const char* script = R"(
topology linear 3 1
app learning-switch idle=60
start
traffic pairs 2
expect reachable 0 2
expect reachable 2 0
expect delivered 0 >= 2
expect violations == 0
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, TrafficPatternsAreDeterministic) {
  const char* script = R"(
topology star 4 1
app learning-switch idle=60
start
traffic uniform 20 2
traffic hotspot 10
expect controller up
)";
  const RunResult a = run_script(script);
  const RunResult b = run_script(script);
  EXPECT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.reachability, b.reachability);
}

// --- reachability assertions and final-state capture -----------------------

TEST(Run, ReachabilityReflectsChurn) {
  const char* script = R"(
topology linear 3 1
app learning-switch idle=120
start
traffic pairs 2
expect reachable 0 2
switch down 2
expect unreachable 0 2
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

TEST(Run, FinalStateCaptureFillsMatrix) {
  const char* script = R"(
topology linear 3 1
app learning-switch idle=60
start
traffic pairs 1
expect controller up
)";
  const RunResult res = run_script(script);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_TRUE(res.started);
  EXPECT_FALSE(res.controller_down);
  EXPECT_TRUE(res.violations.empty());
  ASSERT_EQ(res.n_hosts, 3u);
  for (std::size_t s = 0; s < 3; ++s)
    for (std::size_t d = 0; d < 3; ++d)
      if (s != d) {
        EXPECT_TRUE(res.reachable(s, d)) << s << "->" << d;
      }
}

TEST(Run, ResumedDeliveriesAreObservable) {
  const char* script = R"(
topology linear 2 1
app hub
start
send 0 1 80
expect resumed >= 1
expect punts >= 1
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
}

// --- repeat blocks ----------------------------------------------------------

TEST(Parse, RepeatUnrollsKeepingLineNumbers) {
  const char* script = R"(topology linear 2 1
app hub
start
repeat 3
send 0 1 80
expect delivered 1 == 99
end
expect delivered 1 == 3
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.error.empty()) << res.error;
  ASSERT_EQ(res.checks.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(res.checks[i].line, 6u); // every copy keeps the body's line
    EXPECT_FALSE(res.checks[i].passed);
  }
  EXPECT_EQ(res.checks[3].line, 8u);
  EXPECT_TRUE(res.checks[3].passed) << res.transcript;

  // A runtime error inside an unrolled body names the body line.
  const RunResult bad = run_script(
      "topology linear 2 1\napp hub\nstart\nrepeat 2\nsend 0 9\nend\n");
  EXPECT_NE(bad.error.find("line 5"), std::string::npos) << bad.error;
}

TEST(Parse, RejectsNestedRepeat) {
  auto sc = Scenario::parse("repeat 2\nrepeat 2\nend\nend\n");
  ASSERT_FALSE(sc.ok());
  EXPECT_NE(sc.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(sc.error().message.find("nested"), std::string::npos);
}

TEST(Parse, RejectsUnterminatedRepeatAndStrayEnd) {
  auto sc = Scenario::parse("topology linear 2 1\nrepeat 2\nstart\n");
  ASSERT_FALSE(sc.ok());
  EXPECT_NE(sc.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(sc.error().message.find("without 'end'"), std::string::npos);

  sc = Scenario::parse("topology linear 2 1\nend\n");
  ASSERT_FALSE(sc.ok());
  EXPECT_NE(sc.error().message.find("line 2"), std::string::npos);

  for (const char* count : {"0", "10001", "x", ""}) {
    sc = Scenario::parse(std::string("repeat ") + count + "\nend\n");
    EXPECT_FALSE(sc.ok()) << "repeat '" << count << "'";
  }
}

// --- availability -----------------------------------------------------------

TEST(Run, AvailabilityCountsOfferedPacketsOnly) {
  // h0 -> h1 floods (served), h1 -> h0 installs a rule (served), the poison
  // kills the monolithic controller (lost), h0 -> h1 has no rule and punts
  // into the dead controller (lost), h1 -> h0 rides its rule (served).
  const char* script = R"(topology linear 2 1
architecture monolithic
app learning-switch
wrap crashy tp_dst=666
start
send 0 1 80
send 1 0 80
send 0 1 666
send 0 1 80
send 1 0 80
expect availability == 60
expect availability > 59.9
expect availability < 60.1
)";
  const RunResult res = run_script(script);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.transcript;
  // The final-state probes (one per ordered pair) ran but are not offered.
  EXPECT_EQ(res.n_hosts, 2u);
  EXPECT_EQ(res.offered, 5u);
  EXPECT_EQ(res.served, 3u);

  const RunResult early = run_script(
      "topology linear 2 1\napp hub\nstart\nexpect availability == 100\n");
  EXPECT_NE(early.error.find("before any send/traffic"), std::string::npos)
      << early.error;
}

// --- probabilistic crash trigger -------------------------------------------

TEST(Run, RejectsBadCrashProbability) {
  for (const char* p : {"0", "1.5", "-0.1", "abc", ""}) {
    const RunResult res = run_script(
        (std::string("topology linear 2 1\napp hub\nwrap crashy prob=") + p + "\n")
            .c_str());
    EXPECT_FALSE(res.ok) << "prob=" << p;
    EXPECT_NE(res.error.find("line 3"), std::string::npos) << res.error;
    EXPECT_NE(res.error.find("bad prob"), std::string::npos) << res.error;
  }
}

TEST(Run, SeededCrashProbabilityIsDeterministic) {
  // Every packet-in is a new flow; a bug firing on 30% of them loses some
  // packets but not all, and the same seed loses the same ones every run.
  const char* script = R"(topology linear 2 1
app learning-switch
wrap crashy event=packet-in prob=0.3
start
traffic uniform 60
expect controller up
expect crashes >= 1
expect availability > 0
expect availability < 100
)";
  const RunResult a = run_script(script);
  const RunResult b = run_script(script);
  EXPECT_TRUE(a.ok) << a.error << "\n" << a.transcript;
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.served, b.served);
}

// --- the scripts gate -------------------------------------------------------

/// Why a committed script fails the gate, or "" if it passes. A script must
/// parse, run without error, state at least one expectation, and meet all.
std::string gate_verdict(std::string_view text) {
  auto sc = Scenario::parse(text);
  if (!sc.ok()) return "parse error: " + sc.error().to_string();
  const RunResult res = sc.value().run();
  if (!res.error.empty()) return "runtime error: " + res.error + "\n" + res.transcript;
  if (res.checks.empty()) return "no 'expect' line: the script asserts nothing";
  if (res.failed_checks() > 0)
    return std::to_string(res.failed_checks()) + " failed expectation(s)\n" +
           res.transcript;
  return "";
}

/// Every *.scn under the scripts directory, relative to it, sorted.
std::vector<std::string> committed_scripts() {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(LEGOSDN_SCENARIO_DIR, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".scn")
      out.push_back(fs::relative(it->path(), LEGOSDN_SCENARIO_DIR).generic_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ScriptGate, RejectsScriptWithoutExpect) {
  EXPECT_NE(gate_verdict("topology linear 2 1\napp hub\nstart\nsend 0 1\n")
                .find("no 'expect'"),
            std::string::npos);
  EXPECT_NE(gate_verdict("topology linear 2 1\napp hub\nstart\nexpect crashes == 1\n")
                .find("failed expectation"),
            std::string::npos);
  EXPECT_NE(gate_verdict("frobnicate\n").find("parse error"), std::string::npos);
  EXPECT_EQ(gate_verdict("topology linear 2 1\napp hub\nstart\nexpect crashes == 0\n"),
            "");
}

TEST(ScriptGate, FindsScriptsRecursively) {
  const auto scripts = committed_scripts();
  auto has = [&](const char* name) {
    return std::find(scripts.begin(), scripts.end(), name) != scripts.end();
  };
  EXPECT_TRUE(has("crash_containment.scn"));
  EXPECT_TRUE(has("claims/t1_legosdn.scn"));
}

class ScenarioScript : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioScript, Passes) {
  std::ifstream in(std::filesystem::path(LEGOSDN_SCENARIO_DIR) / GetParam());
  ASSERT_TRUE(in) << GetParam();
  std::ostringstream text;
  text << in.rdbuf();
  const std::string why = gate_verdict(text.str());
  EXPECT_TRUE(why.empty()) << GetParam() << ": " << why;
}

// Test names follow the path: claims/t1_legosdn.scn -> claims_t1_legosdn.
INSTANTIATE_TEST_SUITE_P(Scripts, ScenarioScript, ::testing::ValuesIn(committed_scripts()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param.substr(0, info.param.rfind('.'));
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

} // namespace
} // namespace legosdn::scenario
