// The declarative option tables (util/options.hpp) and the protocol token
// every flag and job spec spells protocols with (core/protocol.hpp).
#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "util/options.hpp"

namespace mcan {
namespace {

TEST(ProtocolToken, CanonicalTokensRoundTrip) {
  std::vector<std::string> tokens = {"can", "minor"};
  for (int m = 3; m <= 31; ++m) tokens.push_back("major:" + std::to_string(m));
  for (const std::string& t : tokens) {
    EXPECT_EQ(protocol_token(parse_protocol_arg(t)), t);
  }
  EXPECT_EQ(parse_protocol_arg("major"), ProtocolParams::major_can(3));
  EXPECT_EQ(parse_protocol_arg("standard"), ProtocolParams::standard_can());
}

TEST(ProtocolToken, RejectsEverythingElse) {
  for (const char* bad :
       {"major:0", "major:1", "major:2", "major:32", "major:3x", "Major",
        "major:", "major:-3", "major: 3", "", "can ", "CAN"}) {
    EXPECT_THROW((void)parse_protocol_arg(bad), std::invalid_argument) << bad;
  }
}

struct Knobs {
  int count = 3;
  unsigned long long seed = 1;
  double rate = 0.5;
  bool fast = false;
  bool dedup = true;
  std::string path;
  ProtocolParams protocol;
  std::vector<ProtocolParams> set;
};

const OptionTable<Knobs>& knobs() {
  static const OptionTable<Knobs> table = [] {
    OptionTable<Knobs> t;
    t.integer({"--count", "-c", "count", "N", "how many"}, &Knobs::count, 1,
              10)
        .integer({"--seed", "", "seed", "S", "seed"}, &Knobs::seed, 0,
                 LLONG_MAX)
        .real({"--rate", "", "rate", "X", "a rate"}, &Knobs::rate, 0, 1)
        .toggle({"--fast", "", "fast", "", "go fast"}, &Knobs::fast, true)
        .toggle({"--no-dedup", "", "dedup", "", "no dedup"}, &Knobs::dedup,
                false)
        .text({"--path", "", "", "FILE", "command line only"}, &Knobs::path)
        .token({"--protocol", "-p", "protocol", "P", "one protocol"},
               &Knobs::protocol, parse_protocol_arg, protocol_token)
        .tokens({"--set", "", "set", "P", "protocol list"}, &Knobs::set,
                parse_protocol_arg, protocol_token);
    return t;
  }();
  return table;
}

std::string parse(Knobs& k, const std::vector<std::string>& args,
                  std::vector<std::string>* positional = nullptr) {
  std::vector<std::string> pos;
  return parse_command_line(args, knobs().bind(k),
                            positional ? *positional : pos);
}

TEST(OptionTable, ParsesEveryKind) {
  Knobs k;
  std::vector<std::string> pos;
  EXPECT_EQ(parse(k,
                  {"run", "-c", "7", "--seed", "9", "--rate", "1e-3",
                   "--fast", "--no-dedup", "--path", "-odd-name", "-p",
                   "major:5", "file.scn"},
                  &pos),
            "");
  EXPECT_EQ(k.count, 7);
  EXPECT_EQ(k.seed, 9u);
  EXPECT_DOUBLE_EQ(k.rate, 1e-3);
  EXPECT_TRUE(k.fast);
  EXPECT_FALSE(k.dedup);
  EXPECT_EQ(k.path, "-odd-name");  // a value, even when it starts with '-'
  EXPECT_EQ(k.protocol, ProtocolParams::major_can(5));
  EXPECT_EQ(pos, (std::vector<std::string>{"run", "file.scn"}));
}

TEST(OptionTable, RejectsAndNamesTheFlag) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--count", "2.5"}, "--count: '2.5' is not an integer"},
       {{"--count", "abc"}, "--count: 'abc' is not an integer"},
       {{"--count", "7x"}, "--count: '7x' is not an integer"},
       {{"-c", "11"}, "-c: 11 is out of range [1, 10]"},
       {{"--seed", "-1"}, "--seed: -1 is out of range"},
       {{"--seed", "99999999999999999999"}, "--seed: '9"},
       {{"--rate", "0.5x"}, "--rate: '0.5x' is not a number"},
       {{"--rate", "2"}, "--rate: 2 is out of range"},
       {{"--rate", "nan"}, "--rate: nan is out of range"},
       {{"--count"}, "--count needs a value"},
       {{"--bogus"}, "unknown option --bogus"},
       {{"-p", "can", "-p", "minor"}, "--protocol given more than once"},
       {{"--fast", "--fast"}, "--fast given more than once"},
       {{"-p", "Major"}, "-p: unknown protocol 'Major'"}};
  for (const auto& [args, want] : cases) {
    Knobs k;
    const std::string err = parse(k, args);
    EXPECT_EQ(err.rfind(want, 0), 0u) << err << " vs " << want;
  }
}

TEST(OptionTable, ListFlagsReplaceTheDefaultThenAppend) {
  Knobs k;
  k.set = default_protocol_set();
  EXPECT_EQ(parse(k, {"--set", "minor", "--set", "major:3"}), "");
  EXPECT_EQ(k.set, (std::vector<ProtocolParams>{ProtocolParams::minor_can(),
                                                ProtocolParams::major_can(3)}));
}

TEST(OptionTable, BindTakesOnlyTheNamedFlags) {
  Knobs k;
  std::vector<std::string> pos;
  const BoundOptions some = knobs().bind(k, {"--seed", "--count"});
  ASSERT_EQ(some.size(), 2u);
  EXPECT_EQ(some[0].info->flag, "--seed");  // the caller's (help) order
  EXPECT_EQ(parse_command_line({"--rate", "1"}, some, pos),
            "unknown option --rate");
  EXPECT_THROW((void)knobs().bind(k, {"--nope"}), std::logic_error);
}

TEST(OptionTable, DecodeIsStrictAndNamesTheKey) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"count":"3"})", R"("count": want an integer)"},
      {R"({"count":3.0})", R"("count": want an integer)"},
      {R"({"count":0})", R"("count": 0 is out of range [1, 10])"},
      {R"({"fast":1})", R"("fast": want true or false)"},
      {R"({"rate":"0.1"})", R"("rate": want a number)"},
      {R"({"protocol":"major:0"})", R"("protocol": bad MajorCAN order)"},
      {R"({"set":[]})", R"("set": want a non-empty array of tokens)"},
      {R"({"set":["can",5]})", R"("set": want an array of tokens)"},
      {R"({"cuont":3})", R"(unknown key "cuont")"},
      {R"({"path":"x"})", R"(unknown key "path")"},  // command line only
      {R"({"":1})", R"(unknown key "")"}};
  for (const auto& [text, want] : cases) {
    Json spec;
    std::string err;
    ASSERT_TRUE(Json::parse(text, spec, err)) << text;
    Knobs k;
    err = knobs().decode(spec, k);
    EXPECT_EQ(err.rfind(want, 0), 0u) << err << " vs " << want;
  }
  Knobs k;
  Json not_object;
  EXPECT_FALSE(knobs().decode(not_object, k).empty());
}

TEST(OptionTable, RenderDecodesBackToTheSameValues) {
  Knobs k;
  k.count = 4;
  k.seed = 77;
  k.rate = 0.125;
  k.dedup = false;
  k.protocol = ProtocolParams::minor_can();
  k.set = default_protocol_set();
  const Json spec = knobs().render(k);
  EXPECT_EQ(spec.dump(),
            R"({"count":4,"seed":77,"rate":0.125,"fast":false,)"
            R"("dedup":false,"protocol":"minor",)"
            R"("set":["can","minor","major:3","major:5"]})");
  Knobs back;
  EXPECT_EQ(knobs().decode(spec, back), "");
  EXPECT_EQ(knobs().render(back).dump(), spec.dump());
  Json with_kind = Json::object();
  with_kind.set("kind", Json("x"));
  with_kind.set("count", Json(2LL));
  EXPECT_EQ(knobs().decode(with_kind, back, "kind"), "");
  EXPECT_EQ(back.count, 2);
}

TEST(OptionTable, BindSpecWritesOnlyTheGivenKeys) {
  Json spec = Json::object();
  spec.set("backend", Json("x"));
  const BoundOptions opts = knobs().bind_spec(spec, Knobs{});
  std::vector<std::string> pos;
  EXPECT_EQ(parse_command_line(
                {"--set", "can", "--set", "major:5", "-c", "2", "--no-dedup"},
                opts, pos),
            "");
  EXPECT_EQ(spec.dump(), R"({"backend":"x","set":["can","major:5"],)"
                         R"("count":2,"dedup":false})");
  EXPECT_EQ(parse_command_line({"--path", "p"}, opts, pos),
            "unknown option --path");
}

TEST(OptionTable, HelpShowsTheBoundDefaults) {
  Knobs k;
  const std::string help = options_help(knobs().bind(k, {"--count", "--fast"}));
  EXPECT_EQ(help,
            "  --count, -c N         how many (default 3)\n"
            "  --fast                go fast\n");
}

TEST(RunOptions, WindowParsesLoHi) {
  RunOptions run;
  std::vector<std::string> pos;
  const BoundOptions opts = run_options().bind(run);
  EXPECT_EQ(parse_command_line({"--window", "-4:6", "-j", "2"}, opts, pos),
            "");
  ASSERT_TRUE(run.window.has_value());
  EXPECT_EQ(run.window->first, -4);
  EXPECT_EQ(run.window->second, 6);
  EXPECT_EQ(run.jobs, 2);
  RunOptions bad;
  EXPECT_EQ(parse_command_line({"--window", "4"}, run_options().bind(bad), pos),
            "--window: '4' is not LO:HI");
}

}  // namespace
}  // namespace mcan
