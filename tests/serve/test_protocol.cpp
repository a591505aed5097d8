#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace {

using namespace sscl;
using serve::Command;

TEST(Protocol, ParsesBareCommands) {
  EXPECT_EQ(serve::parse_command("METRICS").kind, Command::Kind::kMetrics);
  EXPECT_EQ(serve::parse_command("STATS").kind, Command::Kind::kStats);
  EXPECT_EQ(serve::parse_command("PING").kind, Command::Kind::kPing);
  EXPECT_EQ(serve::parse_command("SHUTDOWN").kind, Command::Kind::kShutdown);
}

TEST(Protocol, ParsesCancel) {
  const Command c = serve::parse_command("CANCEL 42");
  EXPECT_EQ(c.kind, Command::Kind::kCancel);
  EXPECT_EQ(c.job_id, 42);
}

TEST(Protocol, ParsesSubmitWithAllOptions) {
  const Command c = serve::parse_command(
      "SUBMIT 123 client=alice nodes=in,out stream=4 timeout=250");
  ASSERT_EQ(c.kind, Command::Kind::kSubmit);
  EXPECT_EQ(c.nbytes, 123u);
  EXPECT_EQ(c.request.client, "alice");
  ASSERT_EQ(c.request.nodes.size(), 2u);
  EXPECT_EQ(c.request.nodes[0], "in");
  EXPECT_EQ(c.request.nodes[1], "out");
  EXPECT_EQ(c.request.stream_every, 4);
  EXPECT_EQ(c.request.timeout_ms, 250);
}

TEST(Protocol, SubmitRoundTripsThroughFormatSubmit) {
  serve::JobRequest request;
  request.deck_text = "* t\n.end\n";
  request.client = "bob";
  request.nodes = {"out"};
  request.stream_every = 2;
  request.timeout_ms = 100;
  const Command c = serve::parse_command(serve::format_submit(request));
  ASSERT_EQ(c.kind, Command::Kind::kSubmit);
  EXPECT_EQ(c.nbytes, request.deck_text.size());
  EXPECT_EQ(c.request.client, request.client);
  EXPECT_EQ(c.request.nodes, request.nodes);
  EXPECT_EQ(c.request.stream_every, request.stream_every);
  EXPECT_EQ(c.request.timeout_ms, request.timeout_ms);
}

TEST(Protocol, RejectsMalformedCommands) {
  EXPECT_EQ(serve::parse_command("").kind, Command::Kind::kBad);
  EXPECT_EQ(serve::parse_command("NOPE").kind, Command::Kind::kBad);
  EXPECT_EQ(serve::parse_command("SUBMIT").kind, Command::Kind::kBad);
  EXPECT_EQ(serve::parse_command("SUBMIT banana").kind, Command::Kind::kBad);
  EXPECT_EQ(serve::parse_command("SUBMIT 10 naked").kind, Command::Kind::kBad);
  EXPECT_EQ(serve::parse_command("CANCEL").kind, Command::Kind::kBad);
  const Command bad = serve::parse_command("SUBMIT banana");
  EXPECT_FALSE(bad.error.empty());

  // Every number is a whole word of decimal digits: no sign, no
  // trailing junk, no overflow.
  for (const char* line :
       {"SUBMIT -5", "SUBMIT +5", "SUBMIT 5junk", "SUBMIT 0x10",
        "SUBMIT 99999999999999999999", "SUBMIT 5 stream=-3",
        "SUBMIT 5 stream=2x", "SUBMIT 5 stream=", "SUBMIT 5 timeout=-100",
        "SUBMIT 5 timeout=99999999999", "CANCEL 5x", "CANCEL -1"}) {
    EXPECT_EQ(serve::parse_command(line).kind, Command::Kind::kBad) << line;
  }
}

TEST(Protocol, StatusNamesMatchTheWireWords) {
  EXPECT_STREQ(serve::job_status_name(serve::JobStatus::kOk), "ok");
  EXPECT_STREQ(serve::job_status_name(serve::JobStatus::kError), "error");
  EXPECT_STREQ(serve::job_status_name(serve::JobStatus::kCancelled),
               "cancelled");
  EXPECT_STREQ(serve::job_status_name(serve::JobStatus::kTimeout), "timeout");
}

TEST(Protocol, FmtG17RoundTripsDoubles) {
  for (double v : {0.0, 1.0, 0.39999948642046418, 6.3341822670592159e-07,
                   -1.5e300}) {
    EXPECT_EQ(std::stod(util::format_g17(v)), v);
  }
}

}  // namespace
