// mcan-analyze — determinism & concurrency static-analysis gate.
//
// Token-level rule checking over every file the build compiles (the
// compile_commands.json file list, plus headers): the determinism
// discipline that makes served results byte-identical to local runs is
// machine-checked here, not trusted to review.  See
// docs/STATIC_ANALYSIS.md for the rule catalog and suppression syntax.
//
//     mcan-analyze --expect-clean                 # the CI gate
//     mcan-analyze --rule wallclock               # one rule only
//     mcan-analyze --json report.json file.cpp    # specific files
//
// Exit status: 0 = clean (or findings without --expect-clean),
// 1 = findings under --expect-clean, 2 = usage/setup error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/static/analyze.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

void usage(std::FILE* to) {
  std::fputs(
      "usage: mcan-analyze [options] [files...]\n"
      "\n"
      "Determinism & signal-safety lint over the project sources.  With\n"
      "no positional files, scans everything in compile_commands.json\n"
      "plus headers under src/, examples/, bench/, tests/.\n"
      "\n"
      "options:\n"
      "  --compdb PATH      compilation database (default\n"
      "                     build/compile_commands.json)\n"
      "  --root PATH        repo root findings are reported relative to\n"
      "                     (default: parent of the compdb directory)\n"
      "  --rule ID          run only this rule (repeatable)\n"
      "  --wallclock-allow P  extra wallclock whitelist path prefix\n"
      "                     (repeatable; see docs/STATIC_ANALYSIS.md)\n"
      "  --exclude P        extra excluded path prefix (repeatable)\n"
      "  --json FILE        write the JSON report to FILE ('-' = stdout)\n"
      "  --expect-clean     exit 1 unless there are zero findings\n"
      "  --list-rules       print the rule catalog and exit\n"
      "  -h, --help         this text\n",
      to);
}

}  // namespace

int main(int argc, char** argv) {
  std::string compdb = "build/compile_commands.json";
  std::string root;
  std::string json_path;
  bool expect_clean = false;
  sa::AnalyzeConfig cfg;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mcan-analyze: %s needs a value\n", arg.c_str());
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--list-rules") {
      for (const sa::RuleInfo& r : sa::rule_catalog()) {
        std::printf("%-22s %s\n", r.id, r.summary);
      }
      return 0;
    } else if (arg == "--compdb") {
      if (!value(compdb)) return 2;
    } else if (arg == "--root") {
      if (!value(root)) return 2;
    } else if (arg == "--json") {
      if (!value(json_path)) return 2;
    } else if (arg == "--rule") {
      if (!value(v)) return 2;
      bool known = false;
      for (const sa::RuleInfo& r : sa::rule_catalog()) known |= v == r.id;
      if (!known) {
        std::fprintf(stderr, "mcan-analyze: unknown rule '%s' (--list-rules)\n",
                     v.c_str());
        return 2;
      }
      cfg.only_rules.push_back(v);
    } else if (arg == "--wallclock-allow") {
      if (!value(v)) return 2;
      cfg.wallclock_allow.push_back(v);
    } else if (arg == "--exclude") {
      if (!value(v)) return 2;
      cfg.exclude.push_back(v);
    } else if (arg == "--expect-clean") {
      expect_clean = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mcan-analyze: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  if (root.empty()) {
    const std::filesystem::path db(compdb);
    root = db.has_parent_path() && db.parent_path().has_parent_path()
               ? db.parent_path().parent_path().string()
               : ".";
  }

  if (files.empty()) {
    std::string error;
    if (!sa::collect_files(compdb, root, cfg, files, error)) {
      std::fprintf(stderr, "mcan-analyze: %s\n", error.c_str());
      return 2;
    }
  }

  const sa::AnalyzeReport report = sa::analyze_paths(root, files, cfg);
  std::fputs(sa::format_text(report).c_str(), stdout);

  if (!json_path.empty()) {
    const std::string json = sa::format_json(report);
    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else if (!write_text_file("mcan-analyze", json_path, json)) {
      return 2;
    }
  }

  if (expect_clean && !report.clean()) {
    std::fprintf(stderr,
                 "mcan-analyze: %zu finding(s) — the tree must be clean "
                 "(fix, or suppress with a reasoned "
                 "\"// mcan-analyze: allow(<rule>) <reason>\")\n",
                 report.findings.size());
    return 1;
  }
  return 0;
}
