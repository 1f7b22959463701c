#include "xpcore/provenance.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "xpcore/simd.hpp"
#include "xpcore/simd_kernels.hpp"

namespace xpcore {

namespace {

/// Data-cache sizes of cpu0 from sysfs (per-core L1d/L2 and the shared L3);
/// a level sysfs does not report reads 0.
struct CacheHierarchy {
    std::size_t l1d_bytes = 0;
    std::size_t l2_bytes = 0;
    std::size_t l3_bytes = 0;
};

/// The first line of a small sysfs file, or "" when it cannot be read.
std::string read_line(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

CacheHierarchy cache_hierarchy() {
    CacheHierarchy info;
    for (int index = 0; index < 8; ++index) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
        if (read_line(dir + "type").rfind("Instruction", 0) == 0) continue;
        // "size" reads like "48K", "2048K" or "1M".
        const std::string size = read_line(dir + "size");
        char* unit = nullptr;
        std::size_t bytes = std::strtoull(size.c_str(), &unit, 10);
        if (*unit == 'K') bytes *= 1024;
        if (*unit == 'M') bytes *= 1024 * 1024;
        const long level = std::strtol(read_line(dir + "level").c_str(), nullptr, 10);
        if (level == 1) info.l1d_bytes = bytes;
        if (level == 2) info.l2_bytes = bytes;
        if (level == 3) info.l3_bytes = bytes;
    }
    return info;
}

std::string blocking_entry(simd::Level level, const simd::GemmBlocking& blocking) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "{\"level\": \"%s\", \"kc\": %zu, \"mc\": %zu, \"nc\": %zu}",
                  simd::level_name(level), blocking.kc, blocking.mc, blocking.nc);
    return buf;
}

}  // namespace

std::string machine_provenance_json(int indent) {
    const std::string pad(indent < 0 ? 0 : static_cast<std::size_t>(indent), ' ');
    const simd::Level max = simd::max_level();
    const CacheHierarchy cache = cache_hierarchy();

    std::string blocking_entries;
    if (max >= simd::Level::Avx2) {
        blocking_entries =
            pad + "    " + blocking_entry(simd::Level::Avx2, simd::gemm_blocking_avx2());
    }
    if (max >= simd::Level::Avx512) {
        blocking_entries += ",\n" + pad + "    " +
                            blocking_entry(simd::Level::Avx512, simd::gemm_blocking_avx512());
    }

    std::string out = "{\n";
    out += pad + "  \"cpu\": \"" + std::string(simd::cpu_model_string()) + "\",\n";
    out += pad + "  \"simd_max\": \"" + std::string(simd::level_name(max)) + "\",\n";
    out += pad + "  \"hardware_concurrency\": " +
           std::to_string(std::thread::hardware_concurrency()) + ",\n";
    out += pad + "  \"cache\": {\"l1d_bytes\": " + std::to_string(cache.l1d_bytes) +
           ", \"l2_bytes\": " + std::to_string(cache.l2_bytes) +
           ", \"l3_bytes\": " + std::to_string(cache.l3_bytes) +
           ", \"detected\": " + (cache.l1d_bytes != 0 && cache.l2_bytes != 0 ? "true" : "false") +
           "},\n";
    out += pad + "  \"gemm_blocking\": [";
    if (blocking_entries.empty()) {
        out += "]\n";
    } else {
        out += "\n" + blocking_entries + "\n" + pad + "  ]\n";
    }
    out += pad + "}";
    return out;
}

}  // namespace xpcore
