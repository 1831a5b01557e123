/// Tests for the loss functions, including finite-difference gradients.
#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace tgl::nn {
namespace {

TEST(Bce, PerfectPredictionsGiveNearZeroLoss)
{
    const Tensor probs(2, 1, {0.9999f, 0.0001f});
    const LossResult result =
        binary_cross_entropy(probs, {1.0f, 0.0f});
    EXPECT_LT(result.loss, 0.01);
}

TEST(Bce, WrongPredictionsGiveLargeLoss)
{
    const Tensor probs(2, 1, {0.01f, 0.99f});
    const LossResult result =
        binary_cross_entropy(probs, {1.0f, 0.0f});
    EXPECT_GT(result.loss, 4.0);
}

TEST(Bce, UncertainPredictionIsLogTwo)
{
    const Tensor probs(1, 1, {0.5f});
    const LossResult result = binary_cross_entropy(probs, {1.0f});
    EXPECT_NEAR(result.loss, std::log(2.0), 1e-5);
}

TEST(Bce, BinaryLabelsMatchTwoTermFormBitForBit)
{
    // bce_row takes one log for 0/1 labels; the sum must equal the
    // two-term y log p + (1 - y) log(1 - p) exactly, clamped extremes
    // included, or the fused link-predictor kernel and the layered path
    // would drift from every historical loss.
    std::vector<float> probabilities = {0.0f, 1e-8f, 1e-7f, 0.5f,
                                        1.0f - 1e-7f, 1.0f};
    for (int i = 1; i < 10000; ++i) {
        probabilities.push_back(static_cast<float>(i) / 10000.0f);
    }
    for (const float p : probabilities) {
        for (const float y : {0.0f, 1.0f}) {
            double total = 0.25;
            bce_row(p, y, 1.0f, total);
            const double c = std::clamp(p, 1e-7f, 1.0f - 1e-7f);
            const double label = y;
            const double expected =
                0.25 - (label * std::log(c) +
                        (1.0 - label) * std::log(1.0 - c));
            EXPECT_EQ(total, expected) << "p " << p << " y " << y;
        }
    }
}

TEST(Bce, GradientMatchesFiniteDifference)
{
    const std::vector<float> targets = {1.0f, 0.0f, 1.0f};
    Tensor probs(3, 1, {0.3f, 0.6f, 0.8f});
    const LossResult analytic = binary_cross_entropy(probs, targets);
    constexpr float kEps = 1e-4f;
    for (std::size_t i = 0; i < 3; ++i) {
        Tensor up = probs, down = probs;
        up(i, 0) += kEps;
        down(i, 0) -= kEps;
        const double numeric =
            (binary_cross_entropy(up, targets).loss -
             binary_cross_entropy(down, targets).loss) /
            (2.0 * static_cast<double>(kEps));
        EXPECT_NEAR(analytic.grad(i, 0), numeric, 1e-2)
            << "element " << i;
    }
}

TEST(Bce, ClampsDegenerateProbabilities)
{
    const Tensor probs(2, 1, {0.0f, 1.0f});
    const LossResult result =
        binary_cross_entropy(probs, {1.0f, 0.0f});
    EXPECT_TRUE(std::isfinite(result.loss));
    EXPECT_TRUE(std::isfinite(result.grad(0, 0)));
    EXPECT_TRUE(std::isfinite(result.grad(1, 0)));
}

TEST(Nll, PicksOutTargetLogProb)
{
    // log_probs row: log([0.7, 0.2, 0.1]).
    Tensor log_probs(1, 3);
    log_probs(0, 0) = std::log(0.7f);
    log_probs(0, 1) = std::log(0.2f);
    log_probs(0, 2) = std::log(0.1f);
    const LossResult result = nll_loss(log_probs, {0});
    EXPECT_NEAR(result.loss, -std::log(0.7), 1e-5);
}

TEST(Nll, AveragesOverBatch)
{
    Tensor log_probs(2, 2);
    log_probs(0, 0) = std::log(0.5f);
    log_probs(0, 1) = std::log(0.5f);
    log_probs(1, 0) = std::log(0.25f);
    log_probs(1, 1) = std::log(0.75f);
    const LossResult result = nll_loss(log_probs, {0, 1});
    EXPECT_NEAR(result.loss,
                (-std::log(0.5) - std::log(0.75)) / 2.0, 1e-5);
}

TEST(Nll, GradientIsMinusOneOverBatchAtTarget)
{
    Tensor log_probs(2, 3);
    log_probs.fill(std::log(1.0f / 3.0f));
    const LossResult result = nll_loss(log_probs, {1, 2});
    EXPECT_FLOAT_EQ(result.grad(0, 1), -0.5f);
    EXPECT_FLOAT_EQ(result.grad(1, 2), -0.5f);
    EXPECT_FLOAT_EQ(result.grad(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(result.grad(0, 2), 0.0f);
    EXPECT_FLOAT_EQ(result.grad(1, 0), 0.0f);
}

} // namespace
} // namespace tgl::nn
