#include "cli/cli.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/io.h"
#include "testutil.h"

namespace dbscout::cli {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun RunTool(std::vector<std::string> args) {
  std::vector<const char*> argv = {"dbscout"};
  for (const auto& arg : args) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.code =
      RunCli(static_cast<int>(argv.size()), argv.data(), out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, HelpPrintsUsage) {
  const CliRun run = RunTool({"help"});
  EXPECT_EQ(run.code, 0);
  EXPECT_NE(run.out.find("usage: dbscout"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliRun run = RunTool({"frobnicate"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, MissingFlagsAreReported) {
  const CliRun run = RunTool({"detect", "--eps=1"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--input"), std::string::npos);
}

TEST(CliTest, GenerateDetectEvaluateRoundTrip) {
  const std::string data = TempPath("cli_blobs.dbsc");
  const std::string labels = TempPath("cli_labels.txt");
  const std::string predicted = TempPath("cli_predicted.txt");

  CliRun run = RunTool({"generate", "--dataset=blobs", "--n=2000",
                    "--contamination=0.02", "--seed=5",
                    "--output=" + data, "--labels=" + labels});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("wrote 2000 points"), std::string::npos);

  run = RunTool({"detect", "--input=" + data, "--eps=0.7", "--min-pts=5",
             "--output=" + predicted});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("outliers"), std::string::npos);

  // compare predicted against the ground-truth outlier indices.
  run = RunTool({"compare", "--reference=" + labels,
             "--candidate=" + predicted});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("TP="), std::string::npos);

  std::remove(data.c_str());
  std::remove(labels.c_str());
  std::remove(predicted.c_str());
}

TEST(CliTest, DetectCsvInputAndEngines) {
  Rng rng(81);
  PointSet ps(2);
  for (int i = 0; i < 100; ++i) {
    ps.Add({rng.Gaussian(0, 0.3), rng.Gaussian(0, 0.3)});
  }
  ps.Add({50.0, 50.0});
  const std::string csv = TempPath("cli_points.csv");
  ASSERT_TRUE(SavePointsCsv(csv, ps).ok());
  for (const char* engine : {"sequential", "parallel", "shared",
                             "incremental"}) {
    const CliRun run =
        RunTool({"detect", "--input=" + csv, "--eps=1", "--min-pts=5",
                 std::string("--engine=") + engine});
    EXPECT_EQ(run.code, 0) << engine << ": " << run.err;
    EXPECT_NE(run.out.find("1 outliers"), std::string::npos) << engine;
  }
  const CliRun bad = RunTool({"detect", "--input=" + csv, "--eps=1",
                          "--min-pts=5", "--engine=quantum"});
  EXPECT_EQ(bad.code, 1);
  std::remove(csv.c_str());
}

TEST(CliTest, DetectExternalEngineMatchesSequential) {
  Rng rng(82);
  const PointSet ps = testing::ClusteredPoints(&rng, 1500, 2, 3, 0.2);
  const std::string data = TempPath("cli_ext.dbsc");
  ASSERT_TRUE(SavePointsBinary(data, ps).ok());
  const std::string seq_out = TempPath("cli_seq.txt");
  const std::string ext_out = TempPath("cli_ext.txt");
  CliRun run = RunTool({"detect", "--input=" + data, "--eps=1.2", "--min-pts=8",
                    "--output=" + seq_out});
  ASSERT_EQ(run.code, 0) << run.err;
  run = RunTool({"detect", "--input=" + data, "--eps=1.2", "--min-pts=8",
             "--engine=external", "--stripe-points=200",
             "--output=" + ext_out});
  ASSERT_EQ(run.code, 0) << run.err;
  // The external engine prints the same five phase rows as the in-memory
  // ones.
  for (const char* phase : {"grid", "dense_cell_map", "core_points",
                            "core_cell_map", "outliers"}) {
    EXPECT_NE(run.out.find(std::string("\n  ") + phase + " "),
              std::string::npos)
        << phase << " row missing from:\n" << run.out;
  }
  std::ifstream a(seq_out);
  std::ifstream b(ext_out);
  const std::string seq_text((std::istreambuf_iterator<char>(a)),
                             std::istreambuf_iterator<char>());
  const std::string ext_text((std::istreambuf_iterator<char>(b)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(seq_text, ext_text);
  std::remove(data.c_str());
  std::remove(seq_out.c_str());
  std::remove(ext_out.c_str());
}

TEST(CliTest, DetectIncrementalEngineMatchesSequential) {
  Rng rng(84);
  const PointSet ps = testing::ClusteredPoints(&rng, 800, 2, 3, 0.2);
  const std::string data = TempPath("cli_inc.dbsc");
  ASSERT_TRUE(SavePointsBinary(data, ps).ok());
  const std::string seq_out = TempPath("cli_inc_seq.txt");
  const std::string inc_out = TempPath("cli_inc_out.txt");
  CliRun run = RunTool({"detect", "--input=" + data, "--eps=1.2",
                        "--min-pts=8", "--output=" + seq_out});
  ASSERT_EQ(run.code, 0) << run.err;
  run = RunTool({"detect", "--input=" + data, "--eps=1.2", "--min-pts=8",
                 "--engine=incremental", "--output=" + inc_out});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("incremental:"), std::string::npos);
  std::ifstream a(seq_out);
  std::ifstream b(inc_out);
  const std::string seq_text((std::istreambuf_iterator<char>(a)),
                             std::istreambuf_iterator<char>());
  const std::string inc_text((std::istreambuf_iterator<char>(b)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(seq_text, inc_text);
  std::remove(data.c_str());
  std::remove(seq_out.c_str());
  std::remove(inc_out.c_str());
}

TEST(CliTest, KdistSuggestsEps) {
  Rng rng(83);
  const PointSet ps = testing::ClusteredPoints(&rng, 800, 2, 3, 0.1);
  const std::string data = TempPath("cli_kdist.dbsc");
  ASSERT_TRUE(SavePointsBinary(data, ps).ok());
  const CliRun run = RunTool({"kdist", "--input=" + data, "--k=5"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("suggested eps"), std::string::npos);
  std::remove(data.c_str());
}

TEST(CliTest, DetectScoresPrintsRanking) {
  Rng rng(84);
  PointSet ps(2);
  for (int i = 0; i < 200; ++i) {
    ps.Add({rng.Gaussian(0, 0.5), rng.Gaussian(0, 0.5)});
  }
  ps.Add({30.0, 30.0});
  const std::string csv = TempPath("cli_scores.csv");
  ASSERT_TRUE(SavePointsCsv(csv, ps).ok());
  const CliRun run = RunTool({"detect", "--input=" + csv, "--eps=1",
                          "--min-pts=5", "--scores"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("top outliers by core distance"),
            std::string::npos);
  std::remove(csv.c_str());
}

TEST(CliTest, GenerateRejectsLabelsForUnlabeledDatasets) {
  const std::string data = TempPath("cli_osm.dbsc");
  const CliRun run = RunTool({"generate", "--dataset=osm", "--n=100",
                          "--output=" + data,
                          "--labels=" + TempPath("cli_osm_labels.txt")});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("no ground-truth labels"), std::string::npos);
  std::remove(data.c_str());
}

TEST(CliTest, EvaluateScoresAgainstLabelColumn) {
  const std::string labels = TempPath("cli_truth.csv");
  std::ofstream(labels) << "0\n1\n0\n1\n0\n";
  const std::string predicted = TempPath("cli_pred.txt");
  std::ofstream(predicted) << "1\n3\n";
  const CliRun run = RunTool(
      {"evaluate", "--labels=" + labels, "--predicted=" + predicted});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("F1=1.00000"), std::string::npos);
  std::remove(labels.c_str());
  std::remove(predicted.c_str());
}

TEST(CliTest, OutOfRangeIntegersFail) {
  Rng rng(85);
  const PointSet ps = testing::ClusteredPoints(&rng, 300, 2, 3, 0.2);
  const std::string data = TempPath("cli_range.dbsc");
  ASSERT_TRUE(SavePointsBinary(data, ps).ok());
  // 2^32 + 1 and 2^32 + 4 would wrap to minPts 1 and k 4.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"detect", "--input=" + data, "--eps=1",
                                 "--min-pts=4294967297"},
        std::vector<std::string>{"kdist", "--input=" + data,
                                 "--k=4294967300"}}) {
    SCOPED_TRACE(args.back());
    const CliRun run = RunTool(args);
    EXPECT_EQ(run.code, 1) << run.out;
    EXPECT_NE(run.err.find("InvalidArgument"), std::string::npos) << run.err;
    EXPECT_NE(run.err.find(args.back()), std::string::npos) << run.err;
  }
  std::remove(data.c_str());
}

// generate and detect apply one format rule: a .csv output is CSV, and
// detecting it finds the outliers of the same dataset written as DBSC.
TEST(CliTest, GenerateCsvThenDetectMatchesBinary) {
  const std::string exts[2] = {".csv", ".dbsc"};
  std::string outliers[2];
  for (int i = 0; i < 2; ++i) {
    const std::string& ext = exts[i];
    const std::string data = TempPath("cli_gen" + ext);
    const std::string out = TempPath("cli_gen_out" + ext);
    CliRun run = RunTool({"generate", "--dataset=blobs", "--n=1500",
                          "--seed=7", "--output=" + data});
    ASSERT_EQ(run.code, 0) << run.err;
    run = RunTool({"detect", "--input=" + data, "--eps=0.7", "--min-pts=5",
                   "--output=" + out});
    ASSERT_EQ(run.code, 0) << ext << ": " << run.err;
    std::ifstream in(out);
    outliers[i].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    std::remove(data.c_str());
    std::remove(out.c_str());
  }
  EXPECT_FALSE(outliers[0].empty());
  EXPECT_EQ(outliers[0], outliers[1]);
}

// A flag only some engines use is refused by the others, with the error
// an unknown flag gets, and accepted by its own.
TEST(CliTest, DetectRefusesFlagsItsEngineCannotUse) {
  Rng rng(86);
  const PointSet ps = testing::ClusteredPoints(&rng, 300, 2, 3, 0.2);
  const std::string data = TempPath("cli_engine_flags.dbsc");
  ASSERT_TRUE(SavePointsBinary(data, ps).ok());
  const struct {
    const char* flag;
    std::vector<std::string> accepted;
    std::vector<std::string> refused;
  } cases[] = {
      {"--scores", {"sequential", "shared"},
       {"parallel", "external", "incremental"}},
      {"--partitions=3", {"parallel"},
       {"sequential", "shared", "external", "incremental"}},
      {"--stripe-points=100", {"external"},
       {"sequential", "shared", "parallel", "incremental"}},
  };
  for (const auto& c : cases) {
    const std::string flag = c.flag;
    const std::string name = flag.substr(0, flag.find('='));
    for (const auto& engine : c.accepted) {
      SCOPED_TRACE(flag + " " + engine);
      const CliRun run =
          RunTool({"detect", "--input=" + data, "--eps=1", "--min-pts=5",
                   "--engine=" + engine, flag});
      EXPECT_EQ(run.code, 0) << run.err;
    }
    for (const auto& engine : c.refused) {
      SCOPED_TRACE(flag + " " + engine);
      const CliRun run =
          RunTool({"detect", "--input=" + data, "--eps=1", "--min-pts=5",
                   "--engine=" + engine, flag});
      EXPECT_EQ(run.code, 1) << run.out;
      EXPECT_NE(run.err.find("InvalidArgument"), std::string::npos)
          << run.err;
      EXPECT_NE(run.err.find("unknown flag " + name), std::string::npos)
          << run.err;
      EXPECT_TRUE(run.out.empty()) << run.out;
    }
  }
  std::remove(data.c_str());
}

TEST(CliTest, TypoInFlagIsCaught) {
  const CliRun run = RunTool({"kdist", "--input=x", "--k=5", "--samle=10"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--samle"), std::string::npos);
}

}  // namespace
}  // namespace dbscout::cli
