// Tests for the fuzz engine's shared commands (src/fuzz/command.hpp): the
// campaign command behind `mcan-fuzz run`, `mcan-rsm fuzz` and
// `mcan-attack fuzz`, and the replay command behind their `replay`.  Each
// campaign kind must keep the one exit-status order (write failure, then
// interrupt, then replay failure, then the class gate), write its stats
// even when stopped, and name reproducers with its own prefix.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/command.hpp"

namespace mcan {
namespace {

namespace fs = std::filesystem;

struct KindCase {
  FuzzKind kind;
  const char* seed_file;  ///< a committed scenario that violates at once
  const char* prefix;     ///< the kind's reproducer prefix
};

const KindCase kKinds[] = {
    {FuzzKind::Fuzz, "fuzz_can_k2_imo.scn", "fuzz-"},
    {FuzzKind::Rsm, "rsm_can_k2_diverge.scn", "fuzz-"},
    {FuzzKind::Attack, "attack_spoof_can.scn", "attack-"},
};

/// A fresh scratch directory for one test and kind.
std::string scratch_dir(const std::string& test, FuzzKind kind) {
  const fs::path dir =
      fs::path(testing::TempDir()) /
      ("fuzz_command_" + test + "_" + fuzz_kind_name(kind));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A one-round campaign of `kind`: round zero (the clean seed plus the
/// corpus) always runs, then max_execs ends it.
FuzzJob small_job(FuzzKind kind) {
  FuzzJob job(kind);
  job.cfg.max_execs = 1;
  job.cfg.jobs = 1;
  if (kind == FuzzKind::Rsm) {
    job.cfg.workload->commands = 2;  // the committed reproducer's workload
    job.cfg.workload->payload = 1;
  }
  return job;
}

/// Seed the corpus directory with the kind's committed reproducer.
FuzzCommand seeded_command(const std::string& dir, const KindCase& k) {
  FuzzCommand cmd;
  cmd.progress = false;
  cmd.corpus_dir = dir + "/corpus";
  cmd.findings_dir = dir + "/findings";
  cmd.stats_json = dir + "/stats.json";
  fs::create_directories(cmd.corpus_dir);
  fs::copy_file(fs::path(MCAN_SCENARIO_DIR) / k.seed_file,
                fs::path(cmd.corpus_dir) / k.seed_file);
  return cmd;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> file_names(const std::string& dir) {
  std::vector<std::string> names;
  if (!fs::is_directory(dir)) return names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  return names;
}

TEST(FuzzCommand, StopBeforeFirstRoundExits130AndFlushes) {
  for (const KindCase& k : kKinds) {
    SCOPED_TRACE(fuzz_kind_name(k.kind));
    const std::string dir = scratch_dir("stop", k.kind);
    std::atomic<bool> stop{true};
    FuzzJob job = small_job(k.kind);
    job.cfg.max_execs = 100000;  // only the stop flag ends this campaign
    job.cfg.stop = &stop;
    const FuzzCommand cmd = seeded_command(dir, k);

    EXPECT_EQ(run_fuzz_command("test", job, cmd), 130);
    const std::string stats = read_file(cmd.stats_json);
    EXPECT_NE(stats.find("\"execs\":2,"), std::string::npos) << stats;
    EXPECT_FALSE(file_names(cmd.findings_dir).empty());
    EXPECT_FALSE(file_names(cmd.corpus_dir).empty());
  }
}

TEST(FuzzCommand, ReproducersCarryTheKindPrefix) {
  for (const KindCase& k : kKinds) {
    SCOPED_TRACE(fuzz_kind_name(k.kind));
    const std::string dir = scratch_dir("prefix", k.kind);
    const FuzzCommand cmd = seeded_command(dir, k);

    EXPECT_EQ(run_fuzz_command("test", small_job(k.kind), cmd), 0);
    const std::vector<std::string> names = file_names(cmd.findings_dir);
    ASSERT_FALSE(names.empty());
    for (const std::string& name : names) {
      EXPECT_EQ(name.rfind(k.prefix, 0), 0U) << name;
      // Replay the written reproducer through the shared replay command:
      // it names the class the campaign found.
      EXPECT_EQ(run_replay_command("test", {cmd.findings_dir + "/" + name},
                                   std::nullopt),
                0);
    }
  }
}

TEST(FuzzCommand, ClassGateMismatchExits1) {
  for (const KindCase& k : kKinds) {
    SCOPED_TRACE(fuzz_kind_name(k.kind));
    const std::string dir = scratch_dir("gate", k.kind);
    FuzzCommand cmd;
    cmd.progress = false;
    cmd.findings_dir = dir + "/findings";
    cmd.stats_json = dir + "/stats.json";

    // The clean seed scenario alone finds nothing: demanding a class
    // fails the gate, demanding a clean campaign holds.
    cmd.expect_classes = fuzz_class_bit(FuzzClass::Agreement);
    EXPECT_EQ(run_fuzz_command("test", small_job(k.kind), cmd), 1);
    cmd.expect_classes = 0;
    EXPECT_EQ(run_fuzz_command("test", small_job(k.kind), cmd), 0);
    EXPECT_NE(read_file(cmd.stats_json).find("\"classes\":\"none\""),
              std::string::npos);
  }
}

TEST(FuzzCommand, UnwritableReproducerExits2BeforeInterrupt) {
  for (const KindCase& k : kKinds) {
    SCOPED_TRACE(fuzz_kind_name(k.kind));
    const std::string dir = scratch_dir("unwritable", k.kind);
    FuzzCommand cmd = seeded_command(dir, k);
    // A regular file where the findings directory should be.
    std::ofstream(dir + "/blocker") << "not a directory\n";
    cmd.findings_dir = dir + "/blocker/findings";
    std::atomic<bool> stop{true};
    FuzzJob job = small_job(k.kind);
    job.cfg.stop = &stop;

    EXPECT_EQ(run_fuzz_command("test", job, cmd), 2);
    EXPECT_FALSE(read_file(cmd.stats_json).empty());
  }
}

TEST(FuzzCommand, ReplayGatesAndStops) {
  const std::vector<std::string> files = {
      std::string(MCAN_SCENARIO_DIR) + "/attack_spoof_can.scn"};
  EXPECT_EQ(run_replay_command("test", files, std::nullopt), 0);
  EXPECT_EQ(run_replay_command("test", files,
                               fuzz_class_bit(FuzzClass::AttackSpoof)),
            0);
  EXPECT_EQ(run_replay_command("test", files, 0U), 1);
  const std::atomic<bool> stop{true};
  EXPECT_EQ(run_replay_command("test", files, std::nullopt, &stop), 130);
}

}  // namespace
}  // namespace mcan
