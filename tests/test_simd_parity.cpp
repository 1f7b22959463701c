// Scalar-vs-SIMD parity for the vector compute backends — AVX2 and AVX-512
// (xpcore/simd_kernels.hpp):
//  * GEMM nn/nt/tn over odd shapes and tail sizes — every available vector
//    level's results within a tight relative tolerance of the scalar blocked
//    kernels (FMA and the summation tree are the only differences);
//  * tanh/exp approximations bounded against std::tanh/std::exp over
//    [-20, 20] (documented max error < 5e-7) at every vector width;
//  * AdaMax — the scalar fallback is bit-identical to a hand-written
//    reference loop, the fused SIMD steps are tolerance-checked;
//  * LevelGuard behavior for the AVX-512 level (pin, nest, clamp, restore),
//    and the compiled GEMM blocking of each level in the provenance block;
//  * a full train-then-classify oracle over the case-study kernel snapshot:
//    the classifiers trained at every dispatch level must select identical
//    top-3 hypothesis class sets for every kernel.
//
// Each vector level's cases are CPUID-gated: on hosts without AVX2+FMA all
// SIMD cases skip; on AVX2-only hosts the AVX-512 cases skip cleanly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "dnn/modeler.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"
#include "xpcore/provenance.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/simd.hpp"
#include "xpcore/simd_kernels.hpp"

namespace {

using nn::Tensor;
using xpcore::simd::Level;
using xpcore::simd::LevelGuard;

bool have_avx2() { return xpcore::simd::max_level() >= Level::Avx2; }
bool have_avx512() { return xpcore::simd::max_level() >= Level::Avx512; }

#define SKIP_WITHOUT_AVX2() \
    if (!have_avx2()) GTEST_SKIP() << "AVX2+FMA not available on this host"
#define SKIP_WITHOUT_AVX512() \
    if (!have_avx512()) GTEST_SKIP() << "AVX-512 not available on this host"

/// The vector dispatch levels this host can run (empty on scalar-only hosts).
std::vector<Level> vector_levels() {
    std::vector<Level> levels;
    if (have_avx2()) levels.push_back(Level::Avx2);
    if (have_avx512()) levels.push_back(Level::Avx512);
    return levels;
}

Tensor random_tensor(std::size_t rows, std::size_t cols, xpcore::Rng& rng) {
    Tensor t(rows, cols);
    for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

/// Max |a - b| relative to max |a| over the whole tensor.
double max_rel_diff(const Tensor& a, const Tensor& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double max_abs = 1e-30, max_err = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        max_abs = std::max(max_abs, std::abs(static_cast<double>(a.data()[i])));
        max_err = std::max(max_err, std::abs(static_cast<double>(a.data()[i]) -
                                             static_cast<double>(b.data()[i])));
    }
    return max_err / max_abs;
}

// ---- GEMM ------------------------------------------------------------------

// Shapes chosen to hit every microkernel edge at both vector widths: full
// 6x16 (AVX2) and 14x32 (AVX-512) tiles, row tails (m % 6, m % 14), column
// tails (n % 16, n % 32), k tails, the inference shape (1 x 11 x 43),
// sizes crossing the KC=256 panel boundary, and one shape crossing every
// blocking boundary of both levels (MC 96/140, NC 768/960).
struct Shape {
    std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 11, 43}, {6, 16, 16},  {7, 17, 33},   {13, 5, 9},    {12, 256, 32},
    {5, 300, 7}, {97, 131, 61}, {128, 11, 43}, {64, 257, 48}, {150, 300, 1000},
};

template <typename Gemm>
void check_gemm_parity(const Gemm& gemm, bool accumulate, double tol) {
    SKIP_WITHOUT_AVX2();
    for (const auto& s : kShapes) {
        xpcore::Rng rng(s.m * 1000003 + s.k * 101 + s.n);
        Tensor init_c(s.m, s.n);
        for (std::size_t i = 0; i < init_c.size(); ++i) {
            init_c.data()[i] = static_cast<float>(rng.uniform(-1, 1));
        }
        Tensor scalar_c = init_c;
        {
            LevelGuard guard(Level::Scalar);
            gemm(s, rng, scalar_c, accumulate);
        }
        for (Level level : vector_levels()) {
            Tensor simd_c = init_c;
            LevelGuard guard(level);
            gemm(s, rng, simd_c, accumulate);
            EXPECT_LT(max_rel_diff(scalar_c, simd_c), tol)
                << s.m << "x" << s.k << "x" << s.n << " accumulate=" << accumulate
                << " level=" << xpcore::simd::level_name(level);
        }
    }
}

TEST(SimdGemmParity, NnOddShapesAndTails) {
    for (bool accumulate : {false, true}) {
        check_gemm_parity(
            [](const Shape& s, xpcore::Rng&, Tensor& c, bool acc) {
                xpcore::Rng data_rng(1);
                const Tensor a = random_tensor(s.m, s.k, data_rng);
                const Tensor b = random_tensor(s.k, s.n, data_rng);
                nn::gemm_nn(a, b, c, acc);
            },
            accumulate, 1e-5);
    }
}

TEST(SimdGemmParity, NtOddShapesAndTails) {
    for (bool accumulate : {false, true}) {
        check_gemm_parity(
            [](const Shape& s, xpcore::Rng&, Tensor& c, bool acc) {
                xpcore::Rng data_rng(2);
                const Tensor a = random_tensor(s.m, s.k, data_rng);
                const Tensor b = random_tensor(s.n, s.k, data_rng);
                nn::gemm_nt(a, b, c, acc);
            },
            accumulate, 1e-5);
    }
}

TEST(SimdGemmParity, TnOddShapesAndTails) {
    for (bool accumulate : {false, true}) {
        check_gemm_parity(
            [](const Shape& s, xpcore::Rng&, Tensor& c, bool acc) {
                xpcore::Rng data_rng(3);
                const Tensor a = random_tensor(s.k, s.m, data_rng);
                const Tensor b = random_tensor(s.k, s.n, data_rng);
                nn::gemm_tn(a, b, c, acc);
            },
            accumulate, 1e-5);
    }
}

// ---- tanh / exp approximations --------------------------------------------

// The documented bounds from xpcore/simd_kernels.hpp, pinned so a coefficient
// regression fails loudly. Scanned densely over [-20, 20], which covers the
// clamp regions of both approximations.
constexpr float kTanhMaxAbsErr = 5e-7f;
constexpr float kExpMaxRelErr = 5e-7f;
constexpr int kScanSteps = 200001;

TEST(SimdMathParity, TanhScalarApproxBounded) {
    float max_err = 0.0f;
    for (int i = 0; i < kScanSteps; ++i) {
        const float x = -20.0f + 40.0f * static_cast<float>(i) / (kScanSteps - 1);
        max_err = std::max(max_err, std::abs(xpcore::simd::tanh_approx(x) - std::tanh(x)));
    }
    EXPECT_LT(max_err, kTanhMaxAbsErr);
}

/// Bounds a vector tanh kernel against std::tanh over the dense scan.
void check_vector_tanh(void (*tanh_fn)(const float*, float*, std::size_t)) {
    std::vector<float> xs(kScanSteps), ys(kScanSteps);
    for (int i = 0; i < kScanSteps; ++i) {
        xs[static_cast<std::size_t>(i)] =
            -20.0f + 40.0f * static_cast<float>(i) / (kScanSteps - 1);
    }
    tanh_fn(xs.data(), ys.data(), xs.size());
    float max_err = 0.0f;
    for (int i = 0; i < kScanSteps; ++i) {
        max_err = std::max(max_err, std::abs(ys[static_cast<std::size_t>(i)] -
                                             std::tanh(xs[static_cast<std::size_t>(i)])));
    }
    EXPECT_LT(max_err, kTanhMaxAbsErr);
}

TEST(SimdMathParity, TanhVectorMatchesReference) {
    SKIP_WITHOUT_AVX2();
    check_vector_tanh(xpcore::simd::tanh_f32_avx2);
}

TEST(SimdMathParity, TanhVectorAvx512MatchesReference) {
    SKIP_WITHOUT_AVX512();
    check_vector_tanh(xpcore::simd::tanh_f32_avx512);
}

TEST(SimdMathParity, ExpScalarApproxBounded) {
    float max_rel = 0.0f;
    for (int i = 0; i < kScanSteps; ++i) {
        const float x = -20.0f + 40.0f * static_cast<float>(i) / (kScanSteps - 1);
        const float exact = std::exp(x);
        max_rel = std::max(max_rel, std::abs(xpcore::simd::exp_approx(x) - exact) / exact);
    }
    EXPECT_LT(max_rel, kExpMaxRelErr);
}

/// Bounds a vector exp kernel against std::exp over the dense scan.
void check_vector_exp(void (*exp_fn)(const float*, float*, std::size_t)) {
    std::vector<float> xs(kScanSteps), ys(kScanSteps);
    for (int i = 0; i < kScanSteps; ++i) {
        xs[static_cast<std::size_t>(i)] =
            -20.0f + 40.0f * static_cast<float>(i) / (kScanSteps - 1);
    }
    exp_fn(xs.data(), ys.data(), xs.size());
    float max_rel = 0.0f;
    for (int i = 0; i < kScanSteps; ++i) {
        const float exact = std::exp(xs[static_cast<std::size_t>(i)]);
        max_rel = std::max(max_rel,
                           std::abs(ys[static_cast<std::size_t>(i)] - exact) / exact);
    }
    EXPECT_LT(max_rel, kExpMaxRelErr);
}

TEST(SimdMathParity, ExpVectorMatchesReference) {
    SKIP_WITHOUT_AVX2();
    check_vector_exp(xpcore::simd::exp_f32_avx2);
}

TEST(SimdMathParity, ExpVectorAvx512MatchesReference) {
    SKIP_WITHOUT_AVX512();
    check_vector_exp(xpcore::simd::exp_f32_avx512);
}

TEST(SimdMathParity, SoftmaxRowsMatchScalarPath) {
    SKIP_WITHOUT_AVX2();
    xpcore::Rng rng(9);
    // Odd row width (43 = the PMNF class count) exercises the tail handling
    // of both vector widths (43 % 8 and 43 % 16 are nonzero).
    const Tensor logits = random_tensor(37, 43, rng);
    Tensor scalar_probs;
    {
        LevelGuard guard(Level::Scalar);
        nn::SoftmaxCrossEntropy::softmax(logits, scalar_probs);
    }
    for (Level level : vector_levels()) {
        Tensor simd_probs;
        LevelGuard guard(level);
        nn::SoftmaxCrossEntropy::softmax(logits, simd_probs);
        EXPECT_LT(max_rel_diff(scalar_probs, simd_probs), 1e-5)
            << xpcore::simd::level_name(level);
        for (std::size_t r = 0; r < simd_probs.rows(); ++r) {
            double sum = 0.0;
            for (std::size_t c = 0; c < simd_probs.cols(); ++c) sum += simd_probs(r, c);
            EXPECT_NEAR(sum, 1.0, 1e-5)
                << "row " << r << " at " << xpcore::simd::level_name(level);
        }
    }
}

// ---- AdaMax ----------------------------------------------------------------

struct AdaMaxProblem {
    Tensor w, g;
    std::vector<std::int32_t> dummy;
};

/// Hand-written reference of the scalar update in optimizer.cpp — kept
/// separate so a change to either copy is caught.
void reference_adamax(std::vector<float>& w, std::vector<float>& g, std::vector<float>& m,
                      std::vector<float>& u, float rate, float beta1, float beta2,
                      float epsilon) {
    for (std::size_t i = 0; i < w.size(); ++i) {
        m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
        u[i] = std::max(beta2 * u[i], std::abs(g[i]));
        w[i] -= rate * m[i] / (u[i] + epsilon);
        g[i] = 0.0f;
    }
}

TEST(SimdAdaMaxParity, ScalarFallbackBitIdenticalToReference) {
    LevelGuard guard(Level::Scalar);
    const std::size_t n = 1013;  // odd: exercises whatever loop shape
    xpcore::Rng rng(21);
    Tensor w(1, n), g(1, n);
    std::vector<float> ref_w(n), ref_g(n), ref_m(n, 0.0f), ref_u(n, 0.0f);
    for (std::size_t i = 0; i < n; ++i) {
        w.data()[i] = ref_w[i] = static_cast<float>(rng.uniform(-1, 1));
        g.data()[i] = ref_g[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    nn::AdaMax::Config config;
    nn::AdaMax opt(config);
    opt.attach({{&w, &g}});
    opt.step();
    const float rate = config.learning_rate / (1.0f - config.beta1);
    reference_adamax(ref_w, ref_g, ref_m, ref_u, rate, config.beta1, config.beta2,
                     config.epsilon);
    EXPECT_EQ(std::memcmp(w.data(), ref_w.data(), n * sizeof(float)), 0);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(g.data()[i], 0.0f) << i;
}

TEST(SimdAdaMaxParity, FusedSimdStepWithinTolerance) {
    SKIP_WITHOUT_AVX2();
    const std::size_t n = 1013;
    xpcore::Rng rng(22);
    Tensor init_w(1, n), init_g(1, n);
    for (std::size_t i = 0; i < n; ++i) {
        init_w.data()[i] = static_cast<float>(rng.uniform(-1, 1));
        init_g.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    Tensor scalar_w = init_w, scalar_g = init_g;
    {
        LevelGuard guard(Level::Scalar);
        nn::AdaMax opt;
        opt.attach({{&scalar_w, &scalar_g}});
        opt.step();
    }
    for (Level level : vector_levels()) {
        Tensor simd_w = init_w, simd_g = init_g;
        LevelGuard guard(level);
        nn::AdaMax opt;
        opt.attach({{&simd_w, &simd_g}});
        opt.step();
        EXPECT_LT(max_rel_diff(scalar_w, simd_w), 1e-6) << xpcore::simd::level_name(level);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(simd_g.data()[i], 0.0f)
                << "grad not cleared at " << i << " (" << xpcore::simd::level_name(level)
                << ")";
        }
    }
}

// ---- dispatch levels / LevelGuard ------------------------------------------

TEST(SimdDispatch, LevelGuardPinsAndRestoresAvx512) {
    const Level before = xpcore::simd::active_level();
    {
        LevelGuard guard(Level::Avx512);
        if (have_avx512()) {
            EXPECT_EQ(xpcore::simd::active_level(), Level::Avx512);
            EXPECT_TRUE(xpcore::simd::avx512_active());
            // avx2_active() is ">= AVX2": the AVX-512 level satisfies every
            // AVX2-gated call site.
            EXPECT_TRUE(xpcore::simd::avx2_active());
        } else {
            // Requesting a level the CPU lacks clamps instead of crashing.
            EXPECT_EQ(xpcore::simd::active_level(), xpcore::simd::max_level());
            EXPECT_FALSE(xpcore::simd::avx512_active());
        }
        {
            LevelGuard inner(Level::Scalar);
            EXPECT_EQ(xpcore::simd::active_level(), Level::Scalar);
            EXPECT_FALSE(xpcore::simd::avx512_active());
            EXPECT_FALSE(xpcore::simd::avx2_active());
        }
        if (have_avx512()) EXPECT_EQ(xpcore::simd::active_level(), Level::Avx512);
    }
    EXPECT_EQ(xpcore::simd::active_level(), before);
}

TEST(SimdDispatch, ProvenanceListsTheCompiledBlockingOfEachRunnableLevel) {
    const std::string json = xpcore::machine_provenance_json(0);
    EXPECT_NE(json.find("\"gemm_blocking\": ["), std::string::npos) << json;
    EXPECT_EQ(json.find("\"source\""), std::string::npos) << json;
    const bool lists_avx2 =
        json.find("{\"level\": \"avx2\", \"kc\": 256, \"mc\": 96, \"nc\": 768}") !=
        std::string::npos;
    const bool lists_avx512 =
        json.find("{\"level\": \"avx512\", \"kc\": 256, \"mc\": 140, \"nc\": 960}") !=
        std::string::npos;
    EXPECT_EQ(lists_avx2, have_avx2()) << json;
    EXPECT_EQ(lists_avx512, have_avx512()) << json;
}

TEST(SimdDispatch, LevelNamesAndParseSemantics) {
    using xpcore::simd::level_name;
    using xpcore::simd::parse_level;
    EXPECT_STREQ(level_name(Level::Scalar), "scalar");
    EXPECT_STREQ(level_name(Level::Avx2), "avx2");
    EXPECT_STREQ(level_name(Level::Avx512), "avx512");

    const Level best = xpcore::simd::max_level();
    EXPECT_EQ(parse_level("0"), Level::Scalar);
    EXPECT_EQ(parse_level("scalar"), Level::Scalar);
    EXPECT_EQ(parse_level("off"), Level::Scalar);
    // "avx2" caps at AVX2 (clamped to what the host can run); "avx512",
    // "auto", and "1" all mean "best available".
    EXPECT_EQ(parse_level("avx2"), best < Level::Avx2 ? best : Level::Avx2);
    EXPECT_EQ(parse_level("avx512"), best);
    EXPECT_EQ(parse_level("auto"), best);
    EXPECT_EQ(parse_level("1"), best);
}

// ---- train-then-classify oracle -------------------------------------------

dnn::DnnConfig tiny_config() {
    dnn::DnnConfig config;
    config.hidden = {32, 16};
    config.pretrain_samples_per_class = 40;
    config.pretrain_epochs = 1;
    return config;
}

TEST(SimdClassifierOracle, Top3HypothesesMatchScalarPathOnKernelSnapshot) {
    SKIP_WITHOUT_AVX2();
    // Train one classifier per level from the same seed, then classify the
    // case-study kernel snapshot (xpdnn simulate ... --seed=1 convention):
    // the selected top-3 hypothesis class sets must agree kernel for kernel.
    // SIMD changes float rounding, so trained weights differ slightly — the
    // assertion is that those differences never flip a classification
    // decision on the snapshot.
    std::vector<Level> levels = {Level::Scalar};
    for (Level level : vector_levels()) levels.push_back(level);
    std::vector<std::vector<std::vector<pmnf::TermClass>>> per_level;
    for (Level level : levels) {
        LevelGuard guard(level);
        dnn::DnnModeler modeler(tiny_config(), /*seed=*/11);
        modeler.pretrain();
        std::vector<std::vector<pmnf::TermClass>> all_candidates;
        std::size_t kernels_seen = 0;
        for (const auto& study : casestudy::all_case_studies()) {
            for (const auto* kernel : study.relevant_kernels()) {
                if (kernels_seen >= 17) break;  // the snapshot's 17 kernels
                ++kernels_seen;
                xpcore::Rng rng(1);
                const auto set = study.generate_modeling(*kernel, rng);
                for (auto& params : modeler.candidate_classes(set)) {
                    all_candidates.push_back(std::move(params));
                }
            }
        }
        EXPECT_EQ(kernels_seen, 17u);
        per_level.push_back(std::move(all_candidates));
    }
    // Every vector level's selections must match the scalar baseline (and so,
    // transitively, each other's).
    for (std::size_t v = 1; v < per_level.size(); ++v) {
        ASSERT_EQ(per_level[0].size(), per_level[v].size());
        for (std::size_t i = 0; i < per_level[0].size(); ++i) {
            ASSERT_EQ(per_level[0][i].size(), per_level[v][i].size())
                << "entry " << i << " vs " << xpcore::simd::level_name(levels[v]);
            for (std::size_t c = 0; c < per_level[0][i].size(); ++c) {
                EXPECT_TRUE(per_level[0][i][c] == per_level[v][i][c])
                    << "candidate " << c << " of entry " << i
                    << " differs between scalar and " << xpcore::simd::level_name(levels[v]);
            }
        }
    }
}

}  // namespace
