#include "datasets/synthetic.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "datasets/shapes.h"

namespace dbscout::datasets {
namespace {

using Generator = LabeledDataset (*)(size_t, double, uint64_t);

struct GeneratorCase {
  const char* name;
  Generator generate;
};

// Prints the case by name only, so the listed test names do not carry
// pointer values that change from one process to the next.
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class SyntheticGeneratorTest : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(SyntheticGeneratorTest, SizesLabelsAndDeterminism) {
  const auto [name, generate] = GetParam();
  const size_t n = 1500;
  const double contamination = 0.03;
  const auto ds = generate(n, contamination, 7);
  EXPECT_EQ(ds.points.size(), n);
  EXPECT_EQ(ds.labels.size(), n);
  EXPECT_EQ(ds.points.dims(), 2u);
  EXPECT_NEAR(ds.Contamination(), contamination, 0.005) << name;
  // Deterministic in the seed.
  const auto again = generate(n, contamination, 7);
  EXPECT_EQ(ds.points.values(), again.points.values());
  EXPECT_EQ(ds.labels, again.labels);
  // Different seed, different data.
  const auto other = generate(n, contamination, 8);
  EXPECT_NE(ds.points.values(), other.points.values());
}

INSTANTIATE_TEST_SUITE_P(
    All, SyntheticGeneratorTest,
    ::testing::Values(GeneratorCase{"blobs", &Blobs},
                      GeneratorCase{"blobs_vd", &BlobsVariedDensity},
                      GeneratorCase{"circles", &Circles},
                      GeneratorCase{"moons", &Moons}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SyntheticTest, BlobsOutliersAreSparserThanInliers) {
  const auto ds = Blobs(3000, 0.02, 11);
  // Mean nearest-inlier distance of outliers must exceed that of inliers:
  // the injected points are genuinely isolated on average.
  double inlier_sum = 0.0;
  double outlier_sum = 0.0;
  size_t inliers = 0;
  size_t outliers = 0;
  for (size_t i = 0; i < ds.points.size(); ++i) {
    double best = 1e300;
    for (size_t j = 0; j < ds.points.size(); ++j) {
      if (i != j) {
        best = std::min(best, ds.points.SquaredDistance(i, j));
      }
    }
    if (ds.labels[i]) {
      outlier_sum += std::sqrt(best);
      ++outliers;
    } else {
      inlier_sum += std::sqrt(best);
      ++inliers;
    }
  }
  ASSERT_GT(outliers, 0u);
  EXPECT_GT(outlier_sum / outliers, 2.0 * inlier_sum / inliers);
}

TEST(ShapesTest, ClutoFamilyHasDocumentedNoiseFractions) {
  EXPECT_NEAR(ClutoT4Like(4000, 1).Contamination(), 0.10, 0.005);
  EXPECT_NEAR(ClutoT5Like(4000, 1).Contamination(), 0.15, 0.005);
  EXPECT_NEAR(ClutoT7Like(4000, 1).Contamination(), 0.08, 0.005);
  EXPECT_NEAR(ClutoT8Like(4000, 1).Contamination(), 0.04, 0.005);
  EXPECT_NEAR(CureT2Like(4000, 1).Contamination(), 0.05, 0.005);
}

TEST(ShapesTest, ScenesAreDeterministicAndSized) {
  const auto a = ClutoT7Like(2500, 42);
  const auto b = ClutoT7Like(2500, 42);
  EXPECT_EQ(a.points.values(), b.points.values());
  EXPECT_EQ(a.points.size(), 2500u);
  EXPECT_EQ(a.labels.size(), 2500u);
  EXPECT_EQ(a.name, "Cluto-t7-10k");
}

}  // namespace
}  // namespace dbscout::datasets
