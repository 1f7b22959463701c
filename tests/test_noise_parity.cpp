// Byte-identity parity suite for the uniform noise path (label: parity).
//
// The noise-family registry rebuilt the injection and estimation pipeline on
// top of polymorphic NoiseModels. These goldens were captured from the
// pre-registry implementation on the 17-kernel case-study snapshot (fixed
// seeds 1000..1016): the rrd noise estimates and the regression modeler's
// selections must stay bit-for-bit identical, pinning the refactor's "the
// default uniform path is the paper's path" contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "measure/experiment.hpp"
#include "noise/estimator.hpp"
#include "pmnf/serialize.hpp"
#include "regression/modeler.hpp"
#include "xpcore/rng.hpp"

namespace {

struct Golden {
    const char* task;
    double noise;     // estimate_noise, exact
    double cv_smape;  // regression selection CV score, exact
    const char* model_json;
};

/// Both sides of an exact comparison at full precision: gtest's default
/// six digits print "8.16147 vs 8.16147" for values that differ in the
/// last bits.
std::string exact_pair(double actual, double golden) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "actual %.17g, golden %.17g", actual, golden);
    return buffer;
}

// Captured from the pre-refactor binary; see file comment.
const std::vector<Golden> kGoldens = {
    {"Kripke/SweepSolver", 0.41651641029827546, 19.627378030793057,
     "{\"constant\": 34.860876068088466, \"terms\": [{\"coefficient\": 0.052761783878186502, \"factors\": [{\"parameter\": 0, \"i\": [1, 3], \"j\": 0}, {\"parameter\": 1, \"i\": [4, 3], \"j\": 0}, {\"parameter\": 2, \"i\": [4, 5], \"j\": 0}]}]}"},
    {"Kripke/LTimes", 0.37771849193684931, 11.025198329767129,
     "{\"constant\": 0.95038467519868453, \"terms\": [{\"coefficient\": 0.0056704251309204565, \"factors\": [{\"parameter\": 1, \"i\": [1, 1], \"j\": 0}, {\"parameter\": 2, \"i\": [0, 1], \"j\": 2}]}]}"},
    {"Kripke/LPlusTimes", 0.37885775154331541, 8.0155935357801962,
     "{\"constant\": 1.0984288376875357, \"terms\": [{\"coefficient\": 9.2029637112295439e-05, \"factors\": [{\"parameter\": 1, \"i\": [1, 2], \"j\": 2}, {\"parameter\": 2, \"i\": [1, 2], \"j\": 2}]}]}"},
    {"Kripke/Scattering", 0.41345699608648767, 3.026688547758289,
     "{\"constant\": 1.918045597433981, \"terms\": [{\"coefficient\": 0.0061768519179611885, \"factors\": [{\"parameter\": 2, \"i\": [5, 4], \"j\": 0}]}]}"},
    {"Kripke/Source", 0.39184230340607651, 2.7286885011936568,
     "{\"constant\": 0.60878024983753876, \"terms\": [{\"coefficient\": -0.0024185808789713133, \"factors\": [{\"parameter\": 0, \"i\": [0, 1], \"j\": 1}]}, {\"coefficient\": 0.00094941742351281968, \"factors\": [{\"parameter\": 2, \"i\": [2, 3], \"j\": 2}]}]}"},
    {"Kripke/Population", 0.42370833689212556, 3.7596024971265782,
     "{\"constant\": 0.36914806595199495, \"terms\": [{\"coefficient\": 0.0081041508528782689, \"factors\": [{\"parameter\": 2, \"i\": [5, 4], \"j\": 0}]}]}"},
    {"FASTEST/pressure_solver", 0.89406865771574262, 8.1614714616281923,
     "{\"constant\": 10.771604829988039, \"terms\": [{\"coefficient\": -0.11811994115211398, \"factors\": [{\"parameter\": 0, \"i\": [0, 1], \"j\": 2}]}, {\"coefficient\": 2.973732065327423e-05, \"factors\": [{\"parameter\": 1, \"i\": [1, 1], \"j\": 1}]}]}"},
    {"FASTEST/momentum_x", 0.81261299108784912, 7.9301305475935226,
     "{\"constant\": 1.8030908829745309, \"terms\": [{\"coefficient\": 4.4954458119110386e-06, \"factors\": [{\"parameter\": 1, \"i\": [5, 4], \"j\": 0}]}]}"},
    {"FASTEST/momentum_y", 1.0010894130732007, 16.79304990332292,
     "{\"constant\": 11.00161649606879, \"terms\": [{\"coefficient\": -1.2557243925606771, \"factors\": [{\"parameter\": 0, \"i\": [0, 1], \"j\": 1}]}, {\"coefficient\": 1.3988979875443976e-05, \"factors\": [{\"parameter\": 1, \"i\": [2, 3], \"j\": 2}]}]}"},
    {"FASTEST/momentum_z", 1.0455752257342428, 3.8888103771539853,
     "{\"constant\": -4.5124899188002452, \"terms\": [{\"coefficient\": 0.023001758966202449, \"factors\": [{\"parameter\": 0, \"i\": [1, 1], \"j\": 0}]}, {\"coefficient\": 1.280971992896104e-07, \"factors\": [{\"parameter\": 1, \"i\": [4, 3], \"j\": 1}]}]}"},
    {"FASTEST/turbulence_model", 1.1106724260712033, 13.46952381995566,
     "{\"constant\": 0.90863861450956174, \"terms\": [{\"coefficient\": 1.2418131471166115e-06, \"factors\": [{\"parameter\": 1, \"i\": [4, 3], \"j\": 0}]}]}"},
    {"FASTEST/flux_assembly", 1.1797155691711323, 10.548378142861587,
     "{\"constant\": 0.56466477765603929, \"terms\": [{\"coefficient\": 2.9577501474431397e-06, \"factors\": [{\"parameter\": 1, \"i\": [1, 1], \"j\": 1}]}]}"},
    {"FASTEST/gradient_reconstruction", 0.38224027072969602, 4.2227515235665871,
     "{\"constant\": 0.40231535326496493, \"terms\": [{\"coefficient\": 3.0556794678480032e-06, \"factors\": [{\"parameter\": 1, \"i\": [3, 4], \"j\": 2}]}]}"},
    {"FASTEST/halo_exchange", 0.96799962977211051, 15.624712102181823,
     "{\"constant\": -1.4762932765281946, \"terms\": [{\"coefficient\": 0.13893265008172792, \"factors\": [{\"parameter\": 1, \"i\": [0, 1], \"j\": 1}]}]}"},
    {"FASTEST/residual_norm", 0.95049135338604152, 7.6481561363858965,
     "{\"constant\": 2.2589514557055952, \"terms\": [{\"coefficient\": 0.043662149430934487, \"factors\": [{\"parameter\": 0, \"i\": [0, 1], \"j\": 2}]}]}"},
    {"FASTEST/coarse_grid_solve", 0.72335974962397032, 11.878281861408347,
     "{\"constant\": 0.53195469305473442, \"terms\": [{\"coefficient\": 0.36165770888163423, \"factors\": [{\"parameter\": 0, \"i\": [1, 3], \"j\": 0}]}, {\"coefficient\": -7.10067992851687e-07, \"factors\": [{\"parameter\": 1, \"i\": [2, 3], \"j\": 2}]}]}"},
    {"FASTEST/prolongation", 1.0259834869716526, 12.502898071511524,
     "{\"constant\": 0.52457463526949855, \"terms\": [{\"coefficient\": 8.0975652717439849e-08, \"factors\": [{\"parameter\": 1, \"i\": [1, 1], \"j\": 2}]}]}"},
};

TEST(NoiseParity, UniformPathIsByteIdenticalOnCaseStudySnapshot) {
    std::uint64_t seed = 1000;
    std::size_t index = 0;
    for (const auto& study : {casestudy::kripke(), casestudy::fastest()}) {
        std::size_t taken = 0;
        for (const auto* kernel : study.relevant_kernels()) {
            if (study.application == "FASTEST" && taken == 11) break;
            ASSERT_LT(index, kGoldens.size());
            const Golden& golden = kGoldens[index];
            xpcore::Rng rng(seed++);
            const auto set = study.generate_modeling(*kernel, rng);
            const std::string task = study.application + "/" + kernel->name;
            EXPECT_EQ(task, golden.task);
            // Bitwise equality, not EXPECT_NEAR: the refactor promises the
            // identical floating-point computation, not a close one.
            const double noise = noise::estimate_noise(set);
            EXPECT_EQ(noise, golden.noise) << task << ": " << exact_pair(noise, golden.noise);
            const auto result = regression::RegressionModeler().model(set);
            EXPECT_EQ(result.cv_smape, golden.cv_smape)
                << task << ": " << exact_pair(result.cv_smape, golden.cv_smape);
            EXPECT_EQ(pmnf::to_json(result.model), golden.model_json) << task;
            ++taken;
            ++index;
        }
    }
    EXPECT_EQ(index, kGoldens.size());
}

}  // namespace
